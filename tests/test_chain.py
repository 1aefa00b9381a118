import json
import random
from fractions import Fraction as F
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
import slopechain.chain as chain_module
import slopechain.model as model_module
from slopechain import (
    AmbiguousCandidates,
    CertificateViolation,
    GroupModel,
    IndexOutOfRange,
    ModelConfig,
    NotNested,
    SlopeValue,
    VerifyOptions,
    build_chain,
    build_chain_greedy,
    build_model,
    cli,
    closure,
    compare_slopes,
    enumerate_closures,
    frak_S,
    mu_exponents,
    n_formula,
    phi,
    rank_profile,
    verify_chain,
)
from slopechain.chain import (
    CandidateCheck,
    Chain,
    ChainNode,
    ChainStep,
    PhiValue,
    RootedRational,
    _chi,
    phi_sign,
    power_product,
)

GOLDEN = Path(__file__).resolve().parent / "golden"


def rational_model(n, gens, scales):
    return build_model(ModelConfig(n=n, generators=tuple(gens), scales=tuple(scales)))


def model_b(s1="5", s2="5"):
    return build_model(ModelConfig(
        n=2,
        generators=(("1", "0"), ({"const": "0", "coeffs": {"t1": "1"}}, "0")),
        scales=(s1, s2),
        symbols=("tau",),
    ))


def chain_keys(chain):
    return [(s.dim, s.coeff.rows) for s in chain.subgroups]


class TestPhi:
    def test_zero_subgroup(self):
        m = rational_model(2, [(1, 0), (0, 1)], (100, 10))
        assert phi(m, m.zero_subgroup()).exponents == (0, 0)

    def test_full_independent(self):
        m = rational_model(2, [(1, 0), (0, 1)], (100, 10))
        assert phi(m, m.full_subgroup()).exponents == (1, 1)

    def test_model_b_x_axis(self):
        m = model_b()
        assert phi(m, closure(m, [(1, 0)])).exponents == (1, 1)


class TestCompareSlopes:
    def test_greater(self):
        m = rational_model(2, [(1, 0), (0, 1)], (100, 10))
        a = SlopeValue(PhiValue((1, 0)), 1)     # log 100
        b = SlopeValue(PhiValue((0, 1)), 1)     # log 10
        assert compare_slopes(m, a, b) == 1

    def test_reflexive(self):
        m = rational_model(2, [(1, 0), (0, 1)], (100, 10))
        a = SlopeValue(PhiValue((1, 1)), 2)
        assert compare_slopes(m, a, a) == 0

    def test_equal_cross_exponents(self):
        # (log4 + log4)/2 vs log4: the power product 4^{-1} * 4^{1} is 1
        m = rational_model(2, [(1, 0), (0, 1)], (4, 4))
        a = SlopeValue(PhiValue((1, 1)), 2)
        b = SlopeValue(PhiValue((1, 0)), 1)
        assert compare_slopes(m, a, b) == 0


class TestBuildChain:
    def test_two_step_rational(self):
        m = rational_model(2, [(1, 0), (0, 1)], (100, 10))
        ch = build_chain(m)
        assert ch.dims() == (0, 1, 2)
        assert ch.subgroups[1].coeff.rows == ((1, 0),)
        assert [s.frak_s.radicand for s in ch.steps] == [F(100), F(10)]
        assert [s.frak_s.root for s in ch.steps] == [1, 1]

    def test_no_generators(self):
        m = rational_model(3, [], ())
        ch = build_chain(m)
        assert ch.dims() == (0, 3)
        assert ch.steps[0].frak_s.radicand == 1

    def test_all_zero_generators(self):
        m = rational_model(2, [(0, 0)], ("7",))
        ch = build_chain(m)
        assert ch.dims() == (0, 2)
        assert ch.steps[0].frak_s.radicand == 1

    def test_model_b(self):
        ch = build_chain(model_b())
        assert ch.dims() == (0, 1, 2)
        assert ch.subgroups[1].coeff.rows == ((1, 0), (0, 1))
        assert ch.steps[0].frak_s == RootedRational(F(25), 1)
        assert ch.steps[1].frak_s == RootedRational(F(1), 1)

    def test_diagonal_single_generator(self):
        m = rational_model(2, [(1, 1)], ("7",))
        ch = build_chain(m)
        assert ch.dims() == (0, 1, 2)
        assert ch.subgroups[1].coeff.rows == ((1,),)
        assert [s.frak_s.radicand for s in ch.steps] == [F(7), F(1)]

    def test_fast_equals_greedy(self):
        models = [
            # all scales equal
            rational_model(3, [(1, 0, 0), (0, 1, 0), (1, 1, 1)], (4, 4, 4)),
            # S_l = 1: no drop after the last generator
            rational_model(3, [(1, 0, 0), (0, 1, 0)], (6, 1)),
            rational_model(2, [(1, 1), (0, 1)], (1, 1)),
            # l = 0
            rational_model(2, [], ()),
            # a zero generator, first and between drops
            rational_model(2, [(0, 0), (1, 0), (0, 1)], (9, 5, 2)),
            rational_model(3, [(1, 0, 0), (0, 0, 0), (0, 1, 1)], (8, 3, 2)),
            # drops at r_j = n, where the chain ends anyway
            rational_model(2, [(1, 0), (0, 1), (1, 1)], (7, 5, 3)),
            rational_model(1, [(1,), (2,)], (5, 2)),
        ]
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(1, 4)
            l = rng.randint(0, 4)
            gens = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(l)]
            scales = tuple(F(rng.randint(1, 50)) for _ in range(l))
            models.append(rational_model(n, gens, scales))
        for m in models:
            assert chain_keys(build_chain(m)) == chain_keys(build_chain_greedy(m))

    def test_closed_form_checks_slopes_only_in_assemble(self, monkeypatch):
        # n = 1000, l = 2: the closed form reads the vertices off the ranks
        # and scales, so the only phi_sign calls are the r - 1 slope checks
        # of _assemble, none per dimension
        n = 1000
        gens = [tuple(1 if k == j else 0 for k in range(n)) for j in range(2)]
        m = rational_model(n, gens, (9, 4))
        calls = []
        real = chain_module.phi_sign
        monkeypatch.setattr(chain_module, "phi_sign", lambda *a: calls.append(1) or real(*a))
        ch = build_chain(m)
        sign_calls = len(calls)
        assert ch.dims() == (0, 1, 2, n)
        assert sign_calls <= ch.r - 1

    def test_scale_tie_merges_segments(self):
        m = rational_model(2, [(1, 0), (0, 1)], (5, 5))
        ch = build_chain(m)
        assert ch.dims() == (0, 2)
        assert ch.steps[0].frak_s == RootedRational(F(25), 2)

    def test_greedy_tower_rejects_two_maximizers(self):
        # closure(e1) and closure(e2) share dimension and slope log 4 from 0
        m = rational_model(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], (4, 4, 1))
        candidates = [
            m.zero_subgroup(),
            closure(m, [(1, 0, 0)]),
            closure(m, [(0, 1, 0)]),
            m.full_subgroup(),
        ]
        info = [(c, phi(m, c)) for c in candidates]
        with pytest.raises(AmbiguousCandidates) as err:
            chain_module._greedy_tower(m, info)
        assert err.value.first == ((1, 0, 0),)
        assert err.value.second == ((0, 1, 0),)


class TestFrakS:
    def test_example_values(self):
        m = rational_model(2, [(1, 0), (0, 1)], (100, 10))
        ch = build_chain(m)
        assert frak_S(m, ch, 0) == RootedRational(F(100), 1)
        assert frak_S(m, ch, 1) == RootedRational(F(10), 1)

    def test_out_of_range(self):
        m = rational_model(2, [(1, 0), (0, 1)], (100, 10))
        ch = build_chain(m)
        with pytest.raises(IndexOutOfRange):
            frak_S(m, ch, 2)

    def test_ordering(self):
        m = rational_model(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], (9, 4, 2))
        ch = build_chain(m)
        for i in range(ch.r - 1):
            assert ch.steps[i].frak_s.compare(ch.steps[i + 1].frak_s) > 0
        assert ch.steps[-1].frak_s.compare_fraction(1) >= 0


class TestMu:
    def test_independent_basis(self):
        m = rational_model(2, [(1, 0), (0, 1)], (100, 10))
        report = mu_exponents(m)
        assert report.mu == report.mu_star == 1
        assert report.well_distributed

    def test_diagonal(self):
        m = rational_model(2, [(1, 1)], ("7",))
        report = mu_exponents(m)
        assert report.mu_star == 1
        assert report.mu == 0
        assert report.mu_list == (F(1), F(0))
        assert not report.well_distributed

    def test_model_b(self):
        report = mu_exponents(model_b())
        assert report.mu_star == 2
        assert report.mu == 0
        assert not report.well_distributed


class TestVerifyChain:
    def test_rational_chain_passes(self):
        m = rational_model(2, [(1, 0), (0, 1)], (100, 10))
        cert = verify_chain(m, build_chain(m), VerifyOptions(height=2, random_count=5))
        assert cert.telescoping_ok and cert.psi_injective
        assert all(s <= 0 for c in cert.candidates for s in c.chi_signs)

    def test_symbolic_chain_passes_height_three(self):
        m = model_b()
        cert = verify_chain(m, build_chain(m), VerifyOptions(height=3))
        assert cert.telescoping_ok

    def test_corrupted_chain_rejected(self):
        # swap H_1 for the diagonal, which is not a polygon vertex
        m = rational_model(2, [(1, 0), (0, 1)], (100, 10))
        good = build_chain(m)
        diag = closure(m, [(1, 1)])
        bad_node = ChainNode(diag, 1, phi(m, diag))
        nodes = (good.nodes[0], bad_node, good.nodes[2])
        steps = (
            ChainStep(RootedRational(F(10), 1), SlopeValue(PhiValue((0, 1)), 1)),
            ChainStep(RootedRational(F(100), 1), SlopeValue(PhiValue((1, 0)), 1)),
        )
        corrupted = Chain(nodes, steps)
        with pytest.raises(CertificateViolation) as err:
            verify_chain(m, corrupted, VerifyOptions(height=2))
        assert err.value.kind == "chi_positive"

    def test_scaling_check_rejects_changed_chain(self, monkeypatch):
        m = rational_model(2, [(1, 0), (0, 1)], (9, 3))
        chain = build_chain(m)
        equal = build_chain(rational_model(2, [(1, 0), (0, 1)], (3, 3)))
        real_build = chain_module.build_chain

        def build(model):
            return equal if "powered" in model.provenance else real_build(model)

        monkeypatch.setattr(chain_module, "build_chain", build)
        with pytest.raises(CertificateViolation) as err:
            verify_chain(m, chain, VerifyOptions(height=1))
        assert err.value.kind == "scaling"

    def test_scaling_squares_radicands(self):
        base = rational_model(2, [(1, 0), (0, 1)], (100, 10))
        squared = build_chain(base.powered(2))
        original = build_chain(base)
        assert chain_keys(squared) == chain_keys(original)
        for a, b in zip(squared.steps, original.steps):
            assert a.frak_s.radicand == b.frak_s.radicand ** 2

    def test_telescoping_identity(self):
        rng = random.Random(32)
        for _ in range(10):
            n = rng.randint(1, 3)
            l = rng.randint(0, 3)
            gens = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(l)]
            m = rational_model(n, gens, tuple(rng.randint(1, 30) for _ in range(l)))
            ch = build_chain(m)
            product = F(1)
            for step in ch.steps:
                product *= step.frak_s.radicand
            from slopechain import rank_profile
            ranks = (0,) + rank_profile(m, m.full_subgroup()).gamma_ranks
            expected = F(1)
            for j in range(1, m.l + 1):
                expected *= m.scales[j - 1] ** (ranks[j] - ranks[j - 1])
            assert product == expected


@st.composite
def rational_models(draw):
    """n, l <= 3 with small integer generators and scales drawn with ties,
    so that candidates land on chain segments."""
    n, l = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    gens = [tuple(draw(st.integers(-2, 2)) for _ in range(n)) for _ in range(l)]
    scales = [draw(st.sampled_from((1, 2, 3, 4, 9))) for _ in range(l)]
    return rational_model(n, gens, scales)


def _checks_per_candidate(model, chain, height):
    """The candidate checks of `verify_chain`, with chi and its sign computed
    afresh for every candidate and step."""
    pool = [*enumerate_closures(model, height), *chain.subgroups, model.full_subgroup()]
    candidates = {}
    for sub in pool:
        candidates.setdefault((sub.dim, sub.coeff.rows), sub)
    checks = []
    for (dim, rows), cand in sorted(candidates.items()):
        phi_k = phi(model, cand)
        chis = [_chi(dim, phi_k, lo, hi) for lo, hi in zip(chain.nodes, chain.nodes[1:])]
        signs = tuple(phi_sign(model.scales, chi) for chi in chis)
        checks.append(CandidateCheck(
            lattice=rows,
            dim=dim,
            gamma_ranks=rank_profile(model, cand).gamma_ranks,
            chi_exponents=tuple(chi.exponents for chi in chis),
            chi_signs=signs,
            equality_steps=tuple(i for i, sign in enumerate(signs) if sign == 0),
        ))
    return tuple(checks)


class TestSegmentExcessPerPositionVector:
    @settings(max_examples=60, deadline=None)
    @given(rational_models())
    def test_candidates_match_per_candidate_recomputation(self, model):
        chain = build_chain(model)
        cert = verify_chain(model, chain, VerifyOptions(height=1))
        assert cert.candidates == _checks_per_candidate(model, chain, 1)

    def test_symbolic_violation_is_the_golden_one(self):
        # the first candidate above the chain is still the one that raises
        cfg = cli.parse_config((GOLDEN / "sym_two_symbols.json").read_text())
        report = (GOLDEN / "sym_two_symbols.chain_verify.out").read_text()
        expected = json.loads(report)["error"]
        model = build_model(cfg.model)
        with pytest.raises(CertificateViolation) as err:
            verify_chain(model, build_chain(model), VerifyOptions(height=cfg.limits.candidate_height))
        assert err.value.kind == expected["kind"]
        assert err.value.step == expected["step"]
        assert [list(row) for row in err.value.witness] == expected["witness"]


# the checks verify_chain runs after its candidate loop
POST_LOOP_KINDS = {"slope_order", "frak_order", "scaling", "telescoping"}


def _tower(model, subgroups):
    """The chain through `subgroups`, whether or not its slopes decrease."""
    nodes = tuple(ChainNode(s, s.dim, phi(model, s)) for s in subgroups)
    steps = []
    for lo, hi in zip(nodes, nodes[1:]):
        slope = SlopeValue(hi.phi - lo.phi, hi.dim - lo.dim)
        frak = RootedRational(power_product(model.scales, slope.numerator.exponents), slope.denominator)
        steps.append(ChainStep(frak, slope))
    return Chain(nodes, tuple(steps))


def _prefix_towers(model):
    """Every tower 0 < V_j1 < ... < G of distinct prefix closures V_j."""
    inner = [
        s for s in dict.fromkeys(map(model.prefix_closure, range(1, model.l + 1)))
        if 0 < s.dim < model.n
    ]
    for k in range(len(inner) + 1):
        for members in combinations(inner, k):
            yield _tower(model, (model.zero_subgroup(), *members, model.full_subgroup()))


def _verdict(model, chain, options):
    """The kind of `verify_chain`'s verdict ("ok" when it certifies), after
    checking it against the eager reference loop: the same violation kind,
    step and witness, or else the same candidates and equality witnesses."""
    try:
        cert = verify_chain(model, chain, options)
    except CertificateViolation as err:
        kind, library = err.kind, (err.kind, err.step, err.witness)
    else:
        kind = "ok"
        library = (cert.candidates_checked, cert.equality_witnesses, cert.candidates)
    try:
        reference = oracles.verify_candidates(model, chain, options)
    except CertificateViolation as err:
        reference = (err.kind, err.step, err.witness)
    if kind in POST_LOOP_KINDS:
        assert isinstance(reference[0], int), "the reference loop raised"
    else:
        assert library == reference
    return kind


# scale 1 puts every candidate of the line's model on the first segment, and
# the other lines leave the sandwich
SANDWICH = rational_model(2, [(1, -1)], (1,))


class TestVerifyAgainstEagerLoop:
    @settings(max_examples=60, deadline=None)
    @given(rational_models(), st.integers(1, 2), st.integers(0, 3), st.integers(0, 3))
    @example(SANDWICH, 1, 0, 0)
    @example(SANDWICH, 2, 3, 1)
    def test_rational_prefix_towers(self, model, height, random_count, seed):
        options = VerifyOptions(height=height, random_count=random_count, seed=seed)
        for chain in _prefix_towers(model):
            _verdict(model, chain, options)

    def test_towers_reach_every_loop_verdict(self):
        models = [
            SANDWICH,
            rational_model(3, [(0, 2, -2), (1, -1, -2)], (2, 1)),
            rational_model(2, [(1, 0), (0, 1)], (100, 10)),
        ]
        kinds = {
            _verdict(model, chain, VerifyOptions(height=1))
            for model in models for chain in _prefix_towers(model)
        }
        assert kinds == {"ok", "chi_positive", "equality_sandwich"}

    @pytest.mark.parametrize("name", sorted(
        path.stem for path in GOLDEN.glob("sym_*.json")
    ))
    def test_symbolic_goldens(self, name):
        cfg = cli.parse_config((GOLDEN / f"{name}.json").read_text())
        model = build_model(cfg.model)
        options = VerifyOptions(
            height=cfg.limits.candidate_height,
            random_count=cfg.limits.random_candidates,
            seed=cfg.seed,
        )
        kind = _verdict(model, build_chain(model), options)
        assert kind == ("chi_positive" if name == "sym_two_symbols" else "ok")
        for chain in _prefix_towers(model):
            _verdict(model, chain, options)


class TestDerivedDataInOnePlace:
    def test_closures_build_no_point_image(self, monkeypatch):
        # (1, 0, 2) + (0, 1, -1) = (1, 1, 1): a relation, and a proper top closure
        m = rational_model(3, [(1, 0, 2), (0, 1, -1), (1, 1, 1)], (12, 8, 5))

        def point_of(model, vector):
            raise AssertionError(f"point image built for {vector}")

        monkeypatch.setattr(GroupModel, "point_of", point_of)
        assert len(enumerate_closures(m, 2)) == 20
        chain = build_chain(m)
        assert chain.dims() == (0, 1, 2, 3)
        assert verify_chain(m, chain, VerifyOptions(height=2)).telescoping_ok

    def test_chain_verify_closes_each_prefix_lattice_once(self, tmp_path, monkeypatch):
        # the build, the closure walk's top closure and both scaling rebuilds
        # share one prefix closure per lattice Z^j x 0
        real_closure = model_module._closure
        closed = []

        def counting(model, rows):
            closed.append(rows)
            return real_closure(model, rows)

        monkeypatch.setattr(model_module, "_closure", counting)
        out = tmp_path / "report"
        argv = ["chain", "verify", "-c", str(GOLDEN / "sym_plane.json"), "--out", str(out)]
        assert cli.run(argv) == 0
        assert out.read_bytes() == (GOLDEN / "sym_plane.chain_verify.out").read_bytes()
        prefixes = [tuple(tuple(int(k == i) for k in range(3)) for i in range(j)) for j in range(4)]
        assert [closed.count(rows) for rows in prefixes] == [1, 1, 1, 1]


class TestNFormula:
    def test_full_over_zero(self):
        m = rational_model(2, [(1, 0), (0, 1)], (100, 10))
        assert n_formula(m, m.full_subgroup(), m.zero_subgroup()) == 1000

    def test_equal_pair(self):
        m = rational_model(2, [(1, 0), (0, 1)], (100, 10))
        diag = closure(m, [(1, 1)])
        assert n_formula(m, diag, diag) == 1

    def test_diagonal_over_zero(self):
        m = rational_model(2, [(1, 0), (0, 1)], (100, 10))
        diag = closure(m, [(1, 1)])
        assert n_formula(m, diag, m.zero_subgroup()) == 10

    def test_not_nested(self):
        m = rational_model(2, [(1, 0), (0, 1)], (100, 10))
        diag = closure(m, [(1, 1)])
        x_axis = closure(m, [(1, 0)])
        with pytest.raises(NotNested):
            n_formula(m, diag, x_axis)
        # one generator (1, 0): the x-axis and G share the lattice Z^1, but
        # G is not inside the x-axis
        m = rational_model(2, [(1, 0)], (3,))
        x_axis = closure(m, [(1,)])
        assert x_axis.coeff == m.full_subgroup().coeff
        with pytest.raises(NotNested):
            n_formula(m, x_axis, m.full_subgroup())
