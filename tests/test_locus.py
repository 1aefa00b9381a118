import math
import random
from fractions import Fraction as F
from itertools import chain as concat, islice
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from slopechain import (
    DimensionMismatch,
    InternalInvariantError,
    MatrixTooLarge,
    ModelConfig,
    SamplingExhausted,
    SymbolicModelNotSpecialized,
    build_chain,
    build_model,
    enumerate_gamma,
    eval_rank,
    in_base_locus,
    jet_matrix,
    kernel_basis,
    locus_probe,
    monomial_basis,
    threshold_sweep,
    translate_section,
)
from slopechain import linalg, locus
from oracles import evaluate_section


def rational_model(n, gens, scales):
    return build_model(ModelConfig(n=n, generators=tuple(gens), scales=tuple(scales)))


def line_model(s):
    return rational_model(1, [(1,)], (str(s),))


class TestMonomialBasis:
    def test_sizes(self):
        for n in range(1, 4):
            for d in range(1, 6):
                assert len(monomial_basis(n, d)) == math.comb(n + d, n)

    def test_graded_order(self):
        basis = monomial_basis(2, 2)
        degrees = [sum(e) for e in basis.exponents]
        assert degrees == sorted(degrees)


class TestJetMatrix:
    def test_evaluation_at_origin(self):
        m = line_model(2)
        jm = jet_matrix(m, [(F(0),)], 1, 2)
        assert jm.rows == ((F(1), F(0), F(0)),)

    def test_hasse_derivative_row(self):
        # at the point 2 with T = 2: value row (1, 2, 4), derivative row
        # binom(a,1) * 2^(a-1) = (0, 1, 4)
        m = line_model(2)
        jm = jet_matrix(m, [(F(2),)], 2, 2)
        assert jm.rows[0] == (F(1), F(2), F(4))
        assert jm.rows[1] == (F(0), F(1), F(4))

    def test_rational_point_rows_are_scaled_hasse_rows(self):
        # at 1/2 (p = 1, q = 2) with T = 2, D = 2: the Hasse rows (1, 1/2, 1/4)
        # and (0, 1, 1) times q^(D - |s|) = 4 and 2
        m = line_model(2)
        jm = jet_matrix(m, [(F(1, 2),)], 2, 2)
        assert jm.rows == ((4, 2, 1), (0, 2, 2))
        assert all(type(x) is int for row in jm.rows for x in row)

    def test_planar_origin_jets(self):
        m = rational_model(2, [(1, 0), (0, 1)], (2, 2))
        jm = jet_matrix(m, [(F(0), F(0))], 2, 1)
        assert len(jm.rows) == 3
        ident = [[F(1) if i == j else F(0) for j in range(3)] for i in range(3)]
        assert [list(r) for r in jm.rows] == ident

    def test_symbolic_model_rejected(self):
        m = build_model(ModelConfig(
            n=1,
            generators=(({"const": "0", "coeffs": {"t1": "1"}},),),
            scales=("2",),
            symbols=("tau",),
        ))
        with pytest.raises(SymbolicModelNotSpecialized):
            jet_matrix(m, [(F(0),)], 1, 2)

    def test_size_guard(self):
        m = line_model(2)
        with pytest.raises(MatrixTooLarge):
            jet_matrix(m, [(F(i),) for i in range(10)], 3, 12, limit=50)

    def test_size_guard_before_basis(self, monkeypatch):
        # D = 1500 in the plane is 1.1M monomials: refuse before building them
        def no_basis(n, degree):
            raise AssertionError("monomial basis built before the size check")
        monkeypatch.setattr(locus, "monomial_basis", no_basis)
        m = rational_model(2, [(1, 0), (0, 1)], (2, 2))
        with pytest.raises(MatrixTooLarge):
            jet_matrix(m, [(F(0), F(0))], 1, 1500)


class TestKernelBasis:
    def test_vandermonde_empty_kernel(self):
        m = line_model(2)
        pts = [(F(-1),), (F(0),), (F(1),)]
        kb = kernel_basis(m, pts, 1, 2)
        assert kb.vectors == ()

    def test_cubic_through_three_points(self):
        m = line_model(2)
        pts = [(F(-1),), (F(0),), (F(1),)]
        kb = kernel_basis(m, pts, 1, 3)
        # unique monic cubic with these roots: x^3 - x
        assert kb.vectors == ((F(0), F(-1), F(0), F(1)),)

    def test_squared_cubic(self):
        m = line_model(2)
        pts = [(F(-1),), (F(0),), (F(1),)]
        kb = kernel_basis(m, pts, 2, 6)
        # (x^3 - x)^2 = x^6 - 2 x^4 + x^2
        assert kb.vectors == ((F(0), F(0), F(1), F(0), F(-2), F(0), F(1)),)


class TestInBaseLocus:
    def test_empty_kernel_everything_inside(self):
        m = line_model(2)
        kb = kernel_basis(m, [(F(-1),), (F(0),), (F(1),)], 1, 2)
        assert in_base_locus(kb, (F(1234),))

    def test_cubic_membership(self):
        m = line_model(2)
        kb = kernel_basis(m, [(F(-1),), (F(0),), (F(1),)], 1, 3)
        assert not in_base_locus(kb, (F(2),))
        assert in_base_locus(kb, (F(1),))


class TestPointDimension:
    """Points with a coordinate count other than n are refused, never cut or
    padded to fit."""

    @pytest.mark.parametrize("call", [
        lambda m: jet_matrix(m, [(3,)], 1, 1),
        lambda m: jet_matrix(m, [(0, 0), (1, 2, 3)], 1, 1),
        lambda m: kernel_basis(m, [(3,)], 1, 1),
        lambda m: eval_rank(m, [(1, 2, 3)], 1, 1),
        lambda m: in_base_locus(kernel_basis(m, [(0, 0)], 1, 1), (5, 1, 7)),
        lambda m: in_base_locus(kernel_basis(m, [(0, 0)], 1, 1), (5,)),
        lambda m: translate_section(monomial_basis(2, 1), (0, 1, 0), (1,)),
    ], ids=["jet_matrix", "jet_matrix_second_point", "kernel_basis", "eval_rank",
            "in_base_locus_long", "in_base_locus_short", "translate_section"])
    def test_wrong_dimension_refused(self, call):
        m = rational_model(2, [(1, 0), (0, 1)], (2, 2))
        with pytest.raises(DimensionMismatch, match="coordinates, expected 2"):
            call(m)


class TestEvalRank:
    def test_vandermonde(self):
        m = line_model(2)
        r = eval_rank(m, [(F(-1),), (F(0),), (F(1),)], 1, 2)
        assert (r.rank, r.injective, r.surjective) == (3, True, True)

    def test_jet_order_exceeds_degree(self):
        m = line_model(2)
        r = eval_rank(m, [(F(0),)], 3, 1)
        assert (r.rank, r.rows, r.cols) == (2, 3, 2)
        assert r.injective and not r.surjective

    def test_empty_point_set(self):
        m = line_model(2)
        r = eval_rank(m, [], 1, 2)
        assert r.rank == 0 and r.surjective and not r.injective

    def test_order_zero_refused(self):
        with pytest.raises(ValueError, match="^order and degree must be >= 1$"):
            eval_rank(line_model(2), [(F(0),)], 0, 2)


class TestTranslateSection:
    def test_linear(self):
        basis = monomial_basis(1, 3)
        x = (F(0), F(1), F(0), F(0))
        assert translate_section(basis, x, (F(1),)) == (F(-1), F(1), F(0), F(0))

    def test_square(self):
        basis = monomial_basis(1, 2)
        x2 = (F(0), F(0), F(1))
        assert translate_section(basis, x2, (F(1),)) == (F(1), F(-2), F(1))

    @pytest.mark.parametrize("coeffs", [(1, 2), (1, 2, 3, 4)], ids=["short", "long"])
    def test_coefficient_count_refused(self, coeffs):
        # the degree-2 basis in one variable has 3 monomials; a vector of
        # another length is refused, never cut or padded to fit
        with pytest.raises(DimensionMismatch, match="3 monomials"):
            translate_section(monomial_basis(1, 2), coeffs, (1,))

    def test_equivariance_with_shifted_kernel(self):
        # membership commutes with translating both the point set and the test
        # point; oracle: recompute the kernel on the shifted points
        m = line_model(2)
        pts = [(F(-1),), (F(0),), (F(1),)]
        g = F(3, 2)
        kb = kernel_basis(m, pts, 1, 3)
        shifted = [(p[0] + g,) for p in pts]
        kb_shifted = kernel_basis(m, shifted, 1, 3)
        for x in [F(0), F(1), F(2), F(1, 2), F(-5, 3)]:
            assert in_base_locus(kb, (x,)) == in_base_locus(kb_shifted, (x + g,))

    def test_translated_sections_vanish_on_shifted_points(self):
        m = line_model(2)
        pts = [(F(-1),), (F(0),), (F(1),)]
        kb = kernel_basis(m, pts, 1, 3)
        g = (F(2),)
        for vec in kb.vectors:
            moved = translate_section(kb.basis, vec, g)
            for p in pts:
                assert evaluate_section(kb.basis, moved, (p[0] + g[0],)) == 0


class TestLocusProbe:
    def test_line_cubic_regime(self):
        m = line_model(2)
        chain = build_chain(m)
        entries = locus_probe(m, chain, 1, 3, F(1, 2), samples=40, seed=5)
        assert entries[0].lower and entries[0].upper

    def test_line_empty_kernel_regime(self):
        m = line_model(2)
        chain = build_chain(m)
        entries = locus_probe(m, chain, 1, 2, F(1, 2), samples=40, seed=5)
        last = entries[-1]
        assert last.subgroup_dim == 1 and last.lower and last.upper is None
        assert not entries[0].upper

    def test_omega_always_inside(self):
        m = line_model(3)
        omega = enumerate_gamma(m)
        kb = kernel_basis(m, omega.points, 1, 4)
        for p in omega.points:
            assert in_base_locus(kb, p)


def _brute_outside(points, sub, x):
    """x lies outside points + span(H) when no x - p lies in span(H)."""
    return not any(
        oracles.rank(sub.span + (tuple(a - b for a, b in zip(x, p)),)) == sub.dim
        for p in points
    )


def _fraction_outside(points, subgroup):
    """The predicate "x lies outside points + span(H)" from Fraction
    representatives mod span(H), the pivot columns of the span's integer
    echelon eliminated one row at a time: the oracle of the integer
    representatives of `locus._outside_translates`."""
    echelon = [
        (oracles.lead(row), row)
        for _, row in linalg._echelon(map(linalg._cleared, subgroup.span))
    ]

    def representative(x):
        for c, row in echelon:
            if x[c]:
                f = x[c] / row[c]
                x = [a - f * b for a, b in zip(x, row)]
        return tuple(x)

    reps = set(map(representative, points))
    return lambda x: representative(x) not in reps


def _rows(gamma_set):
    """The integer rows of a rational box set, over the model's denominator."""
    return list(zip(*gamma_set.columns[1]))


def _integer_point(x, scale=1):
    """The integer point (q, p) of the Fraction point p/q, q the lcm of its
    denominators, times `scale`."""
    q = math.lcm(*(c.denominator for c in x))
    return tuple(scale * v for v in (q, *(c.numerator * (q // c.denominator) for c in x)))


def _fraction_point(point):
    """The Fraction point p/q of the integer point (q, p)."""
    return tuple(F(p, point[0]) for p in point[1:])


class TestOutsideTranslates:
    @pytest.mark.parametrize("model", [
        line_model(3),
        rational_model(2, [(1, 0), (0, 1)], (3, 2)),
        rational_model(2, [(1, 2), (0, 1)], (6, 2)),
        rational_model(2, [(1, 0), (F(1, 2), 0), (0, 1)], (3, 2, 2)),  # two span rows
        rational_model(2, [(1, 2)], (4,)),  # generators do not span G
    ])
    def test_matches_rank_brute_force(self, model):
        rng = random.Random(3)
        omega_set, omega_two = enumerate_gamma(model), enumerate_gamma(model, 2)
        omega = omega_set.points
        queries = list(omega_two.points) + [
            tuple(F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(model.n))
            for _ in range(40)
        ]
        for node in build_chain(model).nodes:
            sub = node.subgroup
            if sub.dim > 1:
                continue
            shifted = []  # points of omega + span(H)
            for p in omega:
                for row in sub.span:
                    f = F(rng.randint(-9, 9), rng.randint(1, 4))
                    shifted.append(tuple(a + f * b for a, b in zip(p, row)))
            outside_row, outside = locus._outside_translates(omega_set, sub)
            verdicts = [outside(_integer_point(x)) for x in queries + shifted]
            assert verdicts == [_brute_outside(omega, sub, x) for x in queries + shifted]
            # a multiple of (q, p) is the same point
            assert [outside(_integer_point(x, 6)) for x in queries] == verdicts[:len(queries)]
            assert list(map(outside_row, _rows(omega_two))) == verdicts[:len(omega_two)]
            assert not any(verdicts[len(queries):])
            assert any(verdicts) == (sub.dim < model.n)


def _dense_samples(model, chain, omega, epsilon, samples, seed, limit):
    """The probe samples with each lower sample moved along every spanning
    row by a dense Fraction update, drawn in the sampler's order: the
    oracle of its sparse update.  Returns (lower, upper) per chain node."""
    rng = random.Random(seed)
    eps_points = enumerate_gamma(model, 1 - epsilon, limit).points
    omega_two = enumerate_gamma(model, F(2), limit)
    top = max(int(math.ceil(model.scales[0])) if model.l else 1, 1)
    coord_bound = 2 * top + 2
    lower, upper = [], []
    for sub in (node.subgroup for node in chain.nodes):
        pts = []
        for _ in range(samples):
            coords = list(eps_points[rng.randrange(len(eps_points))])
            for row in sub.span:
                factor = F(rng.randint(-9, 9), rng.randint(1, 4))
                if factor:
                    coords = [a + factor * b for a, b in zip(coords, row)]
            pts.append(tuple(coords))
        lower.append(tuple(pts))
        if sub.dim == model.n:
            upper.append(None)
            continue
        draws = (
            tuple(F(rng.randint(-coord_bound, coord_bound), rng.randint(1, 3))
                  for _ in range(model.n))
            for _ in range(50 * samples)
        )
        outside = _fraction_outside(omega.points, sub)
        upper.append(tuple(islice(filter(outside, concat(omega_two.points, draws)), samples)))
    return lower, upper


@st.composite
def probe_models(draw):
    """Rational models with n, l <= 3, zero, dependent and fractional
    generators, and tied scales."""
    n, l = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    coord = st.builds(F, st.integers(-2, 2), st.sampled_from((1, 1, 2, 3)))
    gens = [tuple(draw(coord) for _ in range(n)) for _ in range(l)]
    scales = [draw(st.sampled_from((1, F(3, 2), 2, 3))) for _ in range(l)]
    return rational_model(n, gens, scales)


@st.composite
def span_cases(draw):
    """A probe model, the rows of a span H of any dimension 0..n with
    fractional entries, and points with denominators 1-3."""
    model = draw(probe_models())
    n = model.n
    coord = st.builds(F, st.integers(-3, 3), st.integers(1, 3))
    point = st.tuples(*[coord] * n)
    rows = draw(st.lists(point, max_size=n))
    return model, tuple(rows), draw(st.lists(point, max_size=12))


class TestIntegerRepresentatives:
    """The integer representatives mod span(H) against the Fraction ones."""

    @settings(max_examples=80, deadline=None)
    @given(span_cases(), st.integers(0, 2 ** 32))
    def test_verdicts_equal_fraction_oracle(self, case, seed):
        model, rows, draws = case
        rng = random.Random(seed)
        sub = SimpleNamespace(span=rows)
        omega, omega_two = enumerate_gamma(model), enumerate_gamma(model, 2)
        oracle = _fraction_outside(omega.points, sub)
        outside_row, outside = locus._outside_translates(omega, sub)
        # points of omega moved along H lie inside
        shifted = []
        for p in omega.points:
            coords = list(p)
            for row in rows:
                f = F(rng.randint(-9, 9), rng.randint(1, 3))
                coords = [a + f * b for a, b in zip(coords, row)]
            shifted.append(tuple(coords))
        queries = list(omega_two.points) + draws + shifted
        verdicts = [outside(_integer_point(x, rng.randint(1, 4))) for x in queries]
        assert verdicts == [oracle(x) for x in queries]
        assert not any(verdicts[len(queries) - len(shifted):])
        assert list(map(outside_row, _rows(omega_two))) == verdicts[:len(omega_two)]


class TestProbeSamples:
    def test_draws_read_the_randrange_stream(self):
        # randrange(n) and randint(a, b) against `_below` on one interleaved
        # stream: every width 1..70, and powers of two (and their
        # neighbours) up to 2^70, where a draw of n.bit_length() bits is
        # rejected most often
        widths = [*range(1, 71), *(2 ** k + d for k in range(1, 71) for d in (-1, 0, 1))]
        for seed in range(100):
            pick = random.Random(-seed - 1)
            ours, reference = random.Random(seed), random.Random(seed)
            for _ in range(200):
                n = pick.choice(widths)
                if pick.random() < 0.5:
                    assert locus._below(ours.getrandbits, n) == reference.randrange(n)
                else:
                    a = pick.randint(-9, 9)
                    assert a + locus._below(ours.getrandbits, n) == reference.randint(a, a + n - 1)
            assert ours.getstate() == reference.getstate()

    @settings(max_examples=60, deadline=None)
    @given(probe_models(), st.integers(0, 2 ** 32), st.sampled_from((F(1, 2), F(1, 3))))
    def test_sparse_shifts_equal_dense_update(self, model, seed, epsilon):
        chain = build_chain(model)
        omega = enumerate_gamma(model)
        lower, upper = _dense_samples(model, chain, omega, epsilon, 12, seed, 10 ** 5)
        try:
            sampler = locus._ProbeSamples(model, chain, omega, epsilon, 12, seed, 10 ** 5)
        except SamplingExhausted:
            assert () in upper
            return
        samples = [pts for pts in sampler.lower + sampler.upper if pts is not None]
        assert all(type(c) is int for pts in samples for p in pts for c in p)
        # each sample is the integer point (q, p) of its point p/q, q the lcm
        # of the coordinate denominators
        assert all(p == _integer_point(_fraction_point(p)) for pts in samples for p in pts)

        def points(pts):
            return None if pts is None else tuple(map(_fraction_point, pts))

        assert list(map(points, sampler.lower)) == lower
        assert list(map(points, sampler.upper)) == upper


def _sweep_samples(model, chain, omega):
    """The sample points of the sweeps in `TestThresholdSweep` (epsilon 1/2,
    30 samples, seed 9), lower then upper per chain node."""
    sampler = locus._ProbeSamples(model, chain, omega, F(1, 2), 30, 9, 10 ** 7)
    return [
        p
        for lower, upper in zip(sampler.lower, sampler.upper)
        for p in lower + (upper or ())
    ]


class TestThresholdSweep:
    def test_univariate_double_order(self):
        # Hermite count 2 * 3 = 6: everything up to D = 5, the points after
        m = line_model(2)
        chain = build_chain(m)
        report = threshold_sweep(m, chain, 2, range(1, 8), F(1, 2), samples=40, seed=5)
        for row in report.rows:
            if row.degree <= 5:
                assert row.nullity == 0 and row.i_star == 1
            else:
                assert row.nullity == row.degree + 1 - 6
                assert row.i_star == 0

    def test_planar_three_regimes(self):
        m = rational_model(2, [(1, 0), (0, 1)], (3, 2))
        chain = build_chain(m)
        report = threshold_sweep(m, chain, 1, range(1, 7), F(1, 2), samples=60, seed=9)
        stars = {row.degree: row.i_star for row in report.rows}
        assert stars == {1: 2, 2: 2, 3: 1, 4: 1, 5: 0, 6: 0}
        assert report.transitions == ((1, 2), (3, 1), (5, 0))

    @pytest.mark.parametrize("model", [
        rational_model(2, [(1, 0), (0, 1), (1, 1)], (3, 2, 2)),     # eliminates
        rational_model(2, [(F(1, 2), 1), (F(1, 3), 0)], (3, 2)),    # closed form
    ])
    def test_unsorted_degrees_sweep_the_sorted_range(self, model):
        chain = build_chain(model)
        want = threshold_sweep(model, chain, 1, range(1, 6), F(1, 2), samples=10, seed=3)
        got = threshold_sweep(model, chain, 1, [4, 1, 5, 3, 2], F(1, 2), samples=10, seed=3)
        assert [row.degree for row in got.rows] == [1, 2, 3, 4, 5]
        assert got == want

    @pytest.mark.parametrize("epsilon", [0, 1, 2, F(-1, 2)])
    def test_epsilon_outside_the_open_unit_interval_refused(self, epsilon):
        m = line_model(3)
        chain = build_chain(m)
        with pytest.raises(ValueError, match=r"^epsilon must be in \(0,1\)"):
            threshold_sweep(m, chain, 1, range(1, 3), epsilon)
        with pytest.raises(ValueError, match=r"^epsilon must be in \(0,1\)"):
            locus_probe(m, chain, 1, 2, epsilon)

    def test_nullity_monotone(self):
        m = line_model(3)
        chain = build_chain(m)
        report = threshold_sweep(m, chain, 1, range(1, 10), F(1, 2), samples=20, seed=1)
        nullities = [row.nullity for row in report.rows]
        assert nullities == sorted(nullities)

    def test_one_power_table_per_sample(self, monkeypatch):
        # e1, e2, e1 + e2: a relation, so the sweep eliminates
        m = rational_model(2, [(1, 0), (0, 1), (1, 1)], (3, 2, 2))
        chain = build_chain(m)
        calls = []
        powers = locus._homogenized_powers
        monkeypatch.setattr(
            locus, "_homogenized_powers", lambda p, d: calls.append((p, d)) or powers(p, d)
        )
        threshold_sweep(m, chain, 1, range(1, 7), F(1, 2), samples=30, seed=9)
        omega = enumerate_gamma(m)
        samples = _sweep_samples(m, chain, omega)
        # the jet matrix at D = 6 builds one table per box point; the
        # probes of all six degrees build one per distinct sample point, at
        # D = 6, in the order of first evaluation
        assert len(set(samples)) < len(samples)
        assert calls == [(_integer_point(p), 6) for p in omega.points] + [
            (p, 6) for p in dict.fromkeys(samples)
        ]

    @pytest.mark.parametrize("tamper", ["scaled", "reversed"])
    def test_non_nested_kernels_refused(self, monkeypatch, tamper):
        # three points on the line, from two dependent generators (so the
        # sweep eliminates): nullity 1, 2, 3 at D = 3, 4, 5.  Each kernel
        # vector is kept divided by its content, which would undo a
        # positive factor, so the scaling is by a negative one
        m = rational_model(1, [(1,), (2,)], (2, 1))
        chain = build_chain(m)
        _tamper_kernels(monkeypatch, tamper)
        with pytest.raises(InternalInvariantError, match="not nested"):
            threshold_sweep(m, chain, 1, range(3, 6), F(1, 2), samples=10, seed=1)

    @pytest.mark.parametrize("tamper", ["scaled", "reversed"])
    def test_independent_sweep_reads_no_kernel(self, monkeypatch, tamper):
        # the same three points from one generator: the nullities come in
        # closed form, so the tampered read-off is never reached
        m = line_model(2)
        _tamper_kernels(monkeypatch, tamper)
        report = threshold_sweep(m, build_chain(m), 1, range(3, 6), F(1, 2), samples=10, seed=1)
        assert [row.nullity for row in report.rows] == [1, 2, 3]

    def test_independent_sweep_builds_no_power_table(self, monkeypatch):
        # e1, e2: no relation, so each distinct sample gets one exit degree
        # and no homogenized power table is built
        m = rational_model(2, [(1, 0), (0, 1)], (3, 2))
        chain = build_chain(m)
        calls, grids = [], []
        powers, grid = locus._homogenized_powers, locus._Grid
        monkeypatch.setattr(
            locus, "_homogenized_powers", lambda p, d: calls.append((p, d)) or powers(p, d)
        )
        monkeypatch.setattr(locus, "_Grid", lambda *args: grids.append(grid(*args)) or grids[-1])
        threshold_sweep(m, chain, 1, range(1, 7), F(1, 2), samples=30, seed=9)
        samples = _sweep_samples(m, chain, enumerate_gamma(m))
        assert calls == []
        assert len(grids) == 1 and list(grids[0].exits) == list(dict.fromkeys(samples))

    def test_trivial_chain_rank_bookkeeping(self):
        # no generators: Gamma(S) = {0}; with T = 2 the locus is everything
        # until degree... the origin constraints only ever cut 3 dimensions
        m = rational_model(2, [], ())
        chain = build_chain(m)
        assert chain.dims() == (0, 2)
        report = threshold_sweep(m, chain, 2, range(1, 4), F(1, 2), samples=10, seed=4)
        for row in report.rows:
            cols = (row.degree + 1) * (row.degree + 2) // 2
            assert row.rank == 3 and row.nullity == cols - 3
            # the single box point {0} is a proper locus once sections exist
            assert row.verdicts[0][0] is True
            assert row.verdicts[1][1] is None


def _tamper_kernels(monkeypatch, tamper):
    """Make `linalg._integer_kernel` return, for every column prefix short of
    the full width, its kernel scaled by -2 or reversed."""
    integer_kernel = linalg._integer_kernel

    def tampered(ech, ncols):
        vectors = integer_kernel(ech, ncols)
        if ech and ncols < len(ech[0][1]):
            if tamper == "scaled":
                return [[-2 * x for x in v] for v in vectors]
            return vectors[::-1]
        return vectors

    monkeypatch.setattr(linalg, "_integer_kernel", tampered)


def _per_degree_in_base_locus(kernel, point):
    """The per-degree membership path: the cleared sections of this degree's
    kernel evaluated afresh at the homogenized point (q, p) of the Fraction
    point, from a jet row with sigma = 0: the oracle of the sweep's one
    evaluation per sample."""
    if not kernel.vectors:
        return True
    values = locus._jet_row(
        locus._homogenized_powers(_integer_point(point), kernel.degree),
        (0,) * (len(point) + 1), kernel._exponents,
    )
    return not any(locus._dot(values, terms) for terms in kernel._terms)


class _PerDegreeMembers:
    """Stands in for `locus._Members`: every sample, as a Fraction point,
    evaluated against the kernel of every degree, however often it occurs."""

    def __init__(self, kernels):
        self.kernels = {k.degree: k for k in kernels}

    def nullity(self, degree):
        return len(self.kernels[degree].vectors)

    def inside(self, degree, point):
        return _per_degree_in_base_locus(self.kernels[degree], _fraction_point(point))


@st.composite
def sweep_cases(draw):
    """A probe model, T in {1, 2}, degrees 1..hi (at T = 2, or when the box
    points span, the range starts at nullity 0), epsilon and a probe seed."""
    return (
        draw(probe_models()), draw(st.sampled_from((1, 2))), draw(st.integers(1, 6)),
        draw(st.sampled_from((F(1, 2), F(1, 3)))), draw(st.integers(0, 2 ** 32)),
    )


class TestSweepMembershipAgainstPerDegreeOracle:
    """Membership read off one evaluation per sample at the largest degree
    against the per-degree evaluation: same rows, witnesses and probes."""

    @staticmethod
    def _run(model, chain, order, degrees, epsilon, seed):
        entries = []
        probe = locus._probe
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(locus, "_probe", lambda *args: entries.append(probe(*args)) or entries[-1])
            try:
                report = threshold_sweep(
                    model, chain, order, degrees, epsilon, samples=8, seed=seed
                )
            except SamplingExhausted:
                return None
        probes = [
            locus_probe(model, chain, order, d, epsilon, samples=8, seed=seed)
            for d in degrees
        ]
        return report, entries, probes

    @settings(max_examples=100, deadline=None)
    @given(sweep_cases())
    def test_sweep_and_probe_equal_oracle(self, case):
        # every model takes the elimination route, independent ones too
        model, order, hi, epsilon, seed = case
        chain = build_chain(model)
        degrees = range(1, hi + 1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(locus, "_is_grid", lambda model: False)
            got = self._run(model, chain, order, degrees, epsilon, seed)
            mp.setattr(locus, "_Members", _PerDegreeMembers)
            want = self._run(model, chain, order, degrees, epsilon, seed)
        assert got == want


def _hasse_row(point, sigma, basis):
    """The Fraction Hasse row binom(a, s) * w^(a-s): the oracle for the
    integer rows."""
    row = []
    for alpha in basis.exponents:
        if any(s > a for s, a in zip(sigma, alpha)):
            row.append(F(0))
            continue
        coeff = 1
        for a, s in zip(alpha, sigma):
            if s:
                coeff *= math.comb(a, s)
        value = F(coeff)
        for w, a, s in zip(point, alpha, sigma):
            if a - s:
                value *= w ** (a - s)
        row.append(value)
    return tuple(row)


@st.composite
def jet_cases(draw):
    n = draw(st.integers(1, 3))
    order = draw(st.integers(1, 2))
    lo = draw(st.integers(1, 6))
    hi = draw(st.integers(lo, 6))
    coord = st.builds(F, st.integers(-6, 6), st.integers(1, 6))
    point = st.tuples(*[coord] * n)
    points = draw(st.lists(point, max_size=8))
    probes = draw(st.lists(point, min_size=1, max_size=4))
    return n, order, range(lo, hi + 1), points, probes


class TestIntegerJetsAgainstFractionOracle:
    """One integer elimination per sweep against a Fraction elimination per
    degree: same ranks, same canonical kernels, same base-locus verdicts."""

    @settings(max_examples=50, deadline=None)
    @given(jet_cases())
    def test_sweep_kernels_equal_per_degree_oracle(self, case):
        n, order, degrees, points, probes = case
        m = rational_model(n, [], ())
        kernels = locus._kernels(m, points, order, list(degrees), 10 ** 6)
        for degree, kernel in zip(degrees, kernels):
            basis = monomial_basis(n, degree)
            rows = [
                _hasse_row(p, sigma, basis)
                for p in points for sigma in monomial_basis(n, order - 1).exponents
            ]
            oracle = tuple(oracles.nullspace(rows, len(basis)))
            assert kernel.basis == basis and kernel.degree == degree
            assert kernel.vectors == oracle, degree
            # the integer vectors are the oracle's cleared of denominators
            assert kernel.integer_vectors == tuple(map(tuple, map(linalg._cleared, oracle)))
            rank = len(basis) - len(kernel.vectors)
            assert rank == oracles.rat_rank(rows, len(basis))
            for x in probes + points:
                vanishes = all(evaluate_section(basis, v, x) == 0 for v in oracle)
                assert in_base_locus(kernel, x) == vanishes, (degree, x)


@st.composite
def grid_jets(draw, budget=3 * 10 ** 4):
    """A rational model whose generators bear no relation (n <= 3, l <= n,
    entries in -3..3 with some halves, scales <= 6), T <= 3 and D <= 16, its
    jet matrix at Gamma(S) of at most `budget` entries."""
    n, l = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    entry = st.builds(F, st.integers(-3, 3), st.sampled_from((1, 1, 2)))
    gens = draw(st.lists(st.tuples(*[entry] * n), min_size=min(l, n), max_size=min(l, n))
                .filter(lambda g: oracles.rank(g) == len(g)))
    scales = [draw(st.sampled_from((1, F(3, 2), 2, F(5, 2), 3, 4, 5, 6))) for _ in gens]
    model, order = rational_model(n, gens, scales), draw(st.integers(1, 3))
    rows = len(enumerate_gamma(model)) * math.comb(n + order - 1, n)
    top = max((d for d in range(1, 17) if rows * math.comb(n + d, n) <= budget), default=0)
    assume(top)
    return model, order, draw(st.integers(1, top))


class TestFatGridAgainstElimination:
    """The closed forms of `oracles.FatGrid` against the jet elimination, and
    the library's closed-form route against both."""

    @settings(max_examples=100, deadline=None)
    @given(grid_jets())
    def test_nullity_equals_eval_rank(self, case):
        model, order, degree = case
        omega, grid = enumerate_gamma(model), oracles.FatGrid(model)
        assert len(omega) == math.prod(grid.widths)
        result = eval_rank(model, omega.points, order, degree)
        assert result.cols - result.rank == grid.nullity(order, degree)
        assert locus._is_grid(model)
        assert locus._box_rank(model, omega, order, degree) == result

    @settings(max_examples=100, deadline=None)
    @given(grid_jets(), st.integers(0, 2 ** 32))
    def test_rule_equals_in_base_locus(self, case, seed):
        # each y_j on its slice C_j or, mostly off it, a fraction
        model, order, degree = case
        rng = random.Random(seed)
        grid = oracles.FatGrid(model)
        kernel = kernel_basis(model, enumerate_gamma(model).points, order, degree)
        library = locus._Grid(model, order, degree)
        assert library.nullity(degree) == grid.nullity(order, degree)
        for _ in range(30):
            y = [rng.randint(-b, b) if rng.random() < 0.6
                 else F(rng.randint(-9, 9), rng.randint(1, 3)) for b in grid.bounds]
            x = grid.point(y)
            inside = grid.inside(order, degree, x)
            assert in_base_locus(kernel, x) == inside, (y, x)
            assert library.inside(degree, _integer_point(x, rng.randint(1, 3))) == inside

    @settings(max_examples=40, deadline=None)
    @given(grid_jets(budget=10 ** 4), st.sampled_from((F(1, 2), F(1, 3))),
           st.integers(0, 2 ** 32))
    def test_probe_and_sweep_equal_elimination_route(self, case, epsilon, seed):
        model, order, degree = case
        chain = build_chain(model)

        def run():
            try:
                return (
                    locus_probe(model, chain, order, degree, epsilon, samples=8, seed=seed),
                    threshold_sweep(model, chain, order, range(1, degree + 1), epsilon,
                                    samples=8, seed=seed),
                )
            except SamplingExhausted as exc:
                return str(exc)

        closed = run()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(locus, "_is_grid", lambda model: False)
            eliminated = run()
        assert closed == eliminated
