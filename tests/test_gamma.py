import json
import math
import operator
import random
from fractions import Fraction as F
from itertools import combinations_with_replacement, product
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from slopechain import (
    CertificateViolation,
    DimensionMismatch,
    EnumerationTooLarge,
    GammaSet,
    GroupModel,
    ModelConfig,
    NotNested,
    Sublattice,
    ValidationError,
    build_chain,
    build_model,
    card_mod,
    card_translate,
    cli,
    closure,
    combine,
    counting_check,
    distribution_checks,
    enumerate_gamma,
    gamma,
    gamma_from_vectors,
    linalg,
)
from slopechain.gamma import _count_classes, box_bound
from slopechain.model import enumerate_closures, span_contains
from slopechain.polys import Poly

GOLDEN = Path(__file__).resolve().parent / "golden"


def rational_model(n, gens, scales):
    return build_model(ModelConfig(n=n, generators=tuple(gens), scales=tuple(scales)))


def plane_model(s1, s2):
    return rational_model(2, [(1, 0), (0, 1)], (s1, s2))


class TestEnumerate:
    def test_line_box(self):
        m = rational_model(1, [(1,)], ("3",))
        om = enumerate_gamma(m)
        assert sorted(p[0] for p in om.points) == [-2, -1, 0, 1, 2]

    def test_dependent_generators_collapse(self):
        # 9 tuples map onto the 7 points -3..3
        m = rational_model(1, [(1,), (2,)], ("2", "2"))
        om = enumerate_gamma(m)
        assert len(om) == 7
        assert sorted(p[0] for p in om.points) == list(range(-3, 4))

    def test_fractional_lambda(self):
        m = rational_model(1, [(1,)], ("3",))
        om = enumerate_gamma(m, F(1, 2))
        assert sorted(p[0] for p in om.points) == [-1, 0, 1]

    def test_monotone_in_lambda(self):
        m = plane_model("7/2", "2")
        small = enumerate_gamma(m, F(1))
        big = enumerate_gamma(m, F(2))
        assert len(small) <= len(big)
        small_reps = {e[0] for e in small.entries}
        big_reps = {e[0] for e in big.entries}
        assert small_reps <= big_reps

    def test_limit_guard(self):
        m = plane_model(100, 100)
        with pytest.raises(EnumerationTooLarge):
            enumerate_gamma(m, 1, limit=100)

    def test_witnesses_in_box(self):
        m = rational_model(1, [(1,), (2,)], ("5/2", "2"))
        om = enumerate_gamma(m)
        for _, witness in om.entries:
            assert abs(witness[0]) < F(5, 2)
            assert abs(witness[1]) < 2

    def test_points_follow_witnesses_and_are_built_once(self):
        m = rational_model(2, [("1/2", 0), ("1/3", "2/5"), (1, 0)], ("5/2", "2", "2"))
        om = enumerate_gamma(m)
        assert om.points is om.points
        assert om.points == tuple(m.point_of(w) for w in om.witnesses)
        assert len(set(om.points)) == len(om)


class TestLazyPoints:
    """`gamma count` and `gamma check` read witnesses only: the one image
    they need is that of the H' and H'' lattice generators, to close them.
    A rational `gamma enumerate` writes its points from integer columns and
    builds no Fraction point."""

    @pytest.mark.parametrize("config", ["plane_basic", "fractional_unsorted"])
    def test_rational_enumerate_builds_no_fraction_point(self, tmp_path, monkeypatch, config):
        def no_point(*args):
            raise AssertionError("Fraction box point built")

        monkeypatch.setattr(GroupModel, "point_of", no_point)
        monkeypatch.setattr(GammaSet, "points", property(no_point))
        out = tmp_path / "report"
        code = cli.run(["gamma", "enumerate", "-c", str(GOLDEN / f"{config}.json"), "--out", str(out)])
        assert code == 0
        assert out.read_bytes() == (GOLDEN / f"{config}.gamma_enumerate.out").read_bytes()

    @pytest.mark.parametrize("config", ["plane_basic", "dependent_three"])
    @pytest.mark.parametrize("action", ["count", "check"])
    def test_count_and_check_build_no_box_point(self, tmp_path, monkeypatch, config, action):
        real_closure, real_point_of = cli.closure, GroupModel.point_of
        closing = []

        def closure_only(model, lattice):
            closing.append(lattice)
            try:
                return real_closure(model, lattice)
            finally:
                closing.pop()

        def point_of(model, vector):
            if not closing:
                raise AssertionError(f"box point built for {vector}")
            return real_point_of(model, vector)

        monkeypatch.setattr(cli, "closure", closure_only)
        monkeypatch.setattr(GroupModel, "point_of", point_of)
        out = tmp_path / "report"
        code = cli.run(["gamma", action, "-c", str(GOLDEN / f"{config}.json"), "--out", str(out)])
        assert code == 0
        assert out.read_bytes() == (GOLDEN / f"{config}.gamma_{action}.out").read_bytes()


_ENTRIES = [F(0), F(1), F(-1), F(3), F(-2), F(1, 2), F(-2, 3), F(5, 6), F(-7, 4)]


@st.composite
def _model_specs(draw):
    """(n, generators, scales) of a small rational model, with a dependent
    generator or an all-zero coordinate column at times."""
    n, l = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    gens = [draw(st.lists(st.sampled_from(_ENTRIES), min_size=n, max_size=n)) for _ in range(l)]
    if l >= 2 and draw(st.booleans()):
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        gens.append([a * x + b * y for x, y in zip(gens[0], gens[1])])
    if gens and draw(st.booleans()):
        zero = draw(st.integers(0, n - 1))
        for gen in gens:
            gen[zero] = F(0)
    scales = draw(st.lists(
        st.sampled_from([F(1), F(3, 2), F(2)]), min_size=len(gens), max_size=len(gens)
    ))
    return n, gens, scales


def _enumerate_text(model, lam):
    """The `gamma enumerate` payload of Gamma(lam S) as the report writer
    writes it."""
    cfg = SimpleNamespace(lam=lam, limits=cli.Limits())
    return "".join(cli._report_chunks(cli._cmd_gamma_enumerate(cfg, model)))


class TestIntegerColumns:
    """Box points over Q from integer columns, against `point_of`, and the
    report text written from them, against the `_scalar_json` text of each
    coordinate of `point_of`."""

    @settings(max_examples=60, deadline=None)
    @given(spec=_model_specs(), lam=st.sampled_from([F(1, 2), F(1), F(2)]))
    @example(  # fractional, negative, zero and dependent (g1 + g3) generators
        spec=(2, [(F(1, 2), F(-2, 3)), (0, 0), (-1, F(5, 6)), (F(-1, 2), F(1, 6))], [2, 2, 2, 1]),
        lam=F(1, 2),
    )
    @example(spec=(3, [(1, 0, F(1, 3)), (F(-2, 5), 0, 2)], [2, 3]), lam=F(1))  # zero column
    @example(spec=(2, [], []), lam=F(2))  # l = 0
    def test_text_rows_equal_point_of(self, spec, lam):
        model = rational_model(*spec)
        omega = enumerate_gamma(model, lam)
        assert _enumerate_text(model, lam) == json.dumps({
            "lambda": str(lam),
            "cardinality": len(omega),
            "points": [[cli._scalar_json(c) for c in model.point_of(w)] for w in omega.witnesses],
            "witnesses": [list(w) for w in omega.witnesses],
        }, sort_keys=True, indent=2)
        assert omega.points == tuple(map(model.point_of, omega.witnesses))
        # sum and difference sets of a few points, through the same columns
        few = gamma_from_vectors(model, omega.witnesses[:8])
        sums = gamma_from_vectors(model, [
            tuple(map(operator.add, a, b)) for a, b in combinations_with_replacement(few.witnesses, 2)
        ]).witnesses
        diffs = gamma_from_vectors(model, [
            tuple(map(operator.sub, a, b)) for a in sums for b in sums
        ]).witnesses
        for mode, kept in (("sumset", sums), ("diffset", diffs)):
            points = combine(model, few, 2, mode)
            assert points == tuple(map(model.point_of, kept))
            assert all(type(c) is F for p in points for c in p)


def _refusal(vector):
    """(error type, message) refusing a coefficient vector of a model with
    l = 2: by its length, or else by its first entry, the non-integer one in
    these cases."""
    if len(vector) != 2:
        return DimensionMismatch, f"lattice vector has {len(vector)} entries, expected 2"
    return ValidationError, f"lattice: coefficient {vector[0]!r} is not an integer"


class TestCardMod:
    def test_full_over_zero_is_cardinality(self):
        m = plane_model(3, 2)
        om = enumerate_gamma(m)
        assert card_mod(m, 1, m.full_subgroup(), m.zero_subgroup()) == len(om)

    def test_diagonal_points(self):
        m = plane_model(3, 2)
        diag = closure(m, [(1, 1)])
        # direct enumeration oracle: points (k, k) need |k| < 2
        assert card_mod(m, 1, diag, m.zero_subgroup()) == 3

    @pytest.mark.parametrize("x_vector", [[0], [0, 0, 5], [F(1, 2), 0], [1.9, 0], [True, 0]])
    def test_translate_vector_of_wrong_length(self, x_vector):
        # l = 2: a short or long vector must not cut the box to its length,
        # and a non-integer entry must not be truncated to an integer
        m = plane_model(3, 2)
        with pytest.raises((DimensionMismatch, ValidationError)) as err:
            card_translate(m, 1, x_vector, m.full_subgroup())
        assert (err.type, str(err.value)) == _refusal(x_vector)

    @pytest.mark.parametrize("vector", [(1,), (1, 0, 0), (F(1, 2), 0), (1.9, 0)])
    def test_gamma_from_vector_of_wrong_length(self, vector):
        m = plane_model(3, 2)
        with pytest.raises((DimensionMismatch, ValidationError)) as err:
            gamma_from_vectors(m, [(0, 0), vector])
        assert (err.type, str(err.value)) == _refusal(vector)

    def test_classes_mod_x_axis(self):
        m = plane_model(3, 2)
        x_axis = closure(m, [(1, 0)])
        assert card_mod(m, 1, m.full_subgroup(), x_axis) == 3

    def test_not_nested(self):
        m = plane_model(3, 2)
        diag = closure(m, [(1, 1)])
        x_axis = closure(m, [(1, 0)])
        with pytest.raises(NotNested):
            card_mod(m, 1, diag, x_axis)
        # one generator (1, 0): the x-axis and G share the lattice Z^1, but
        # G is not inside the x-axis
        m = rational_model(2, [(1, 0)], (3,))
        x_axis = closure(m, [(1,)])
        full = m.full_subgroup()
        assert x_axis.coeff == full.coeff
        with pytest.raises(NotNested):
            card_mod(m, 1, x_axis, full)
        with pytest.raises(NotNested):
            counting_check(m, x_axis, full, [F(1), F(2)])

    def test_collapse_monotone(self):
        m = plane_model(3, 2)
        x_axis = closure(m, [(1, 0)])
        full = m.full_subgroup()
        assert card_mod(m, 1, full, m.zero_subgroup()) >= card_mod(m, 1, full, x_axis)

    @pytest.mark.parametrize("subgroup", ["full", "diagonal", "zero"])
    def test_subgroup_modulo_itself_is_one_class_with_no_walk(self, monkeypatch, subgroup):
        # every point of Gamma(S) cap H, 0 among them, lies in the class H;
        # the 15-tuple box is over the limit 1, which the walk would exceed
        m = plane_model(3, 2)
        h = {"full": m.full_subgroup(), "diagonal": closure(m, [(1, 1)]),
             "zero": m.zero_subgroup()}[subgroup]
        assert box_card_mod(enumerate_gamma(m).witnesses, h, h) == 1
        if subgroup != "zero":
            with pytest.raises(EnumerationTooLarge):
                _count_classes([-2, -1], [2, 1], h.coeff, h.coeff, 1)
        monkeypatch.setattr(gamma, "_count_classes", lambda *args: pytest.fail("walked"))
        assert card_mod(m, 1, h, h, limit=1) == 1

    def test_walk_limit(self):
        # G mod 0 on the 5 x 3 box: 5 first coordinates, then one counted
        # interval each, so 10 steps
        m = plane_model(3, 2)
        full, zero = m.full_subgroup(), m.zero_subgroup()
        assert card_mod(m, 1, full, zero, limit=10) == 15
        with pytest.raises(EnumerationTooLarge):
            card_mod(m, 1, full, zero, limit=9)
        with pytest.raises(ValueError):
            card_mod(m, 0, full, zero)

    def test_box_within_the_limit_is_counted(self):
        # G mod the x-axis on the 5 x 3 box: 5 first coordinates, then 15
        # points, so 20 steps; a limit the box of 15 tuples fits lets the walk
        # run to the end, a smaller one bounds its steps
        m = plane_model(3, 2)
        full, x_axis = m.full_subgroup(), closure(m, [(1, 0)])
        assert card_mod(m, 1, full, x_axis, limit=15) == 3
        with pytest.raises(EnumerationTooLarge):
            card_mod(m, 1, full, x_axis, limit=14)

    @pytest.mark.parametrize("limit", [4, 19, 64, 65])
    def test_walk_limit_modulo_a_line(self, limit):
        # G mod the line of (1, 1, 0) on the 5 x 3 x 3 box: 5 first
        # coordinates, 15 second ones, then an interval of 3 per prefix, so
        # 5 + 15 + 45 = 65 steps; each last interval is counted in full
        # before its points are queued for reduction
        m = rational_model(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], (3, 2, 2))
        full, line = m.full_subgroup().coeff, closure(m, [(1, 1, 0)]).coeff
        lo, hi = [-2, -1, -1], [2, 1, 1]
        if limit < 65:
            with pytest.raises(EnumerationTooLarge):
                _count_classes(lo, hi, full, line, limit)
        else:
            assert _count_classes(lo, hi, full, line, limit) == 7 * 3

    def test_sparse_relations_within_twice_the_box(self):
        # the box walk of G mod 0 on SPARSE_RELATIONS at lambda = 2 reduces
        # every one of its 44,919 tuples; the lattice walk stays under 2|B|
        # (`card_mod` would walk a box within its limit with no step limit)
        m = build_model(SPARSE_RELATIONS)
        bounds = [box_bound(s, 2) for s in m.scales]
        box = math.prod(2 * b + 1 for b in bounds)
        assert box == 44919
        full, zero = m.full_subgroup().coeff, m.zero_subgroup().coeff
        assert _count_classes([-b for b in bounds], bounds, full, zero, 2 * box) == box
        assert card_mod(m, 2, m.full_subgroup(), m.zero_subgroup()) == box

    @pytest.mark.parametrize("chunk", [1, gamma._CHUNK])
    def test_sparse_relations_over_many_chunks(self, chunk):
        # G mod 0 on SPARSE_RELATIONS at lambda = 2: the lattice of 0 is the
        # nonzero relation lattice, so the walk queues its 44,919 points and
        # reduces them `gamma._CHUNK` at a time, about eleven real chunks
        m = build_model(SPARSE_RELATIONS)
        assert m.zero_subgroup().coeff.rows
        with mock.patch.object(gamma, "_CHUNK", chunk):
            assert card_mod(m, 2, m.full_subgroup(), m.zero_subgroup()) == 44919


def box_classes(lo, hi, outer, inner):
    """The box walk oracle of `_count_classes`: the integer points of the
    box lo..hi in the lattice `outer`, identified modulo `inner`."""
    box = product(*(range(a, b + 1) for a, b in zip(lo, hi)))
    return len({inner.reduce(v) for v in box if outer.contains(v)})


def _lattice(ncols, *rows):
    return Sublattice(ncols, tuple(map(tuple, linalg.hnf(rows, ncols))))


# (lo, hi, L', L'', steps) for `_count_classes`, each last level a slab
_SLAB_CASES = {
    # the last row (0, 1, 0) leaves column 2 at 0, and the row before moves
    # it: column 0 gives c_1 the 7 values -3..3, column 2 cuts them to -1..1,
    # and each keeps the last interval -2..2; 7 + 3 steps modulo 0, and
    # 7 + 3 * 5 modulo the lattice of (0, 2, 0)
    "still_column": ([-3, -2, -1], [3, 2, 1], _lattice(3, (1, 0, 1), (0, 1, 0)), _lattice(3), 10),
    "still_column_mod_line": (
        [-3, -2, -1], [3, 2, 1], _lattice(3, (1, 0, 1), (0, 1, 0)), _lattice(3, (0, 2, 0)), 22,
    ),
    # negative entries: column 2 is -2 c_1, cutting the 6 values -3..2 of
    # c_1 to -2..1, and the last row moves column 3 by -1 per step; each c_1
    # keeps the last interval -1..1, so 6 + 4 * 3 steps modulo a line
    "still_column_negative": (
        [-3, -4, -3, -2], [2, 5, 4, 1], _lattice(4, (1, 0, -2, 0), (0, 3, 0, -1)),
        _lattice(4, (2, 3, -4, -1)), 18,
    ),
    # one row: the root is a level with the one value 0, so the zero column
    # 1 must hold 0, and column 2 cuts c to -2..2; one step modulo 0, the
    # interval's 5 points modulo the lattice of (2, 0, 4)
    "one_row": ([-3, -1, -4], [3, 1, 4], _lattice(3, (1, 0, 2)), _lattice(3), 1),
    "one_row_mod_line": ([-3, -1, -4], [3, 1, 4], _lattice(3, (1, 0, 2)), _lattice(3, (2, 0, 4)), 5),
    "one_row_out_of_box": ([-3, 1, -4], [3, 2, 4], _lattice(3, (1, 0, 2)), _lattice(3), 0),
}


class TestSlabs:
    """The last level of `_count_classes`, resolved a slab at a time, against
    the box walk, with the exact step count: a limit equal to it passes and
    one less raises."""

    @pytest.mark.parametrize("case", _SLAB_CASES.values(), ids=_SLAB_CASES)
    @pytest.mark.parametrize("chunk", [1, gamma._CHUNK])
    def test_count_and_steps(self, case, chunk):
        lo, hi, outer, inner, steps = case
        want = box_classes(lo, hi, outer, inner)
        with mock.patch.object(gamma, "_CHUNK", chunk):
            assert _count_classes(lo, hi, outer, inner, steps) == want
            if steps:
                with pytest.raises(EnumerationTooLarge):
                    _count_classes(lo, hi, outer, inner, steps - 1)


def box_card_mod(witnesses, h_prime, h_dprime):
    """The box walk that `card_mod` replaced, kept as its oracle: of the
    witnesses of a GammaSet (one per point), those in the H' lattice,
    identified modulo the H'' lattice."""
    return len({h_dprime.coeff.reduce(w) for w in witnesses if h_prime.coeff.contains(w)})


def box_card_translate(witnesses, x_vector, h):
    """The box walk that `card_translate` replaced: the witnesses whose
    difference with x_vector lies in the H lattice."""
    return sum(
        1 for w in witnesses if h.coeff.contains([a - x for a, x in zip(w, x_vector)])
    )


# generators whose relation lattice is spanned by (33, -61, 52, -38): most
# integer classes inside the rational image of the box have empty fibres
SPARSE_RELATIONS = ModelConfig(
    n=3,
    generators=((-1, -1, F(-1, 3)), (0, F(-1, 3), -1), (1, 0, F(1, 2)), (F(1, 2), F(-1, 3), 2)),
    scales=(8, 6, F(5, 2), 2),
)

LAMBDAS = (F(1, 2), F(1), F(3, 2), F(2))
# widest box side per number of generators, so the oracle box stays small
BOX_SIDE = {1: 41, 2: 15, 3: 7, 4: 5}


@st.composite
def box_cases(draw):
    """(config, lambda, closure height): a rational or one-symbol model with
    n <= 3 and l <= 4 generators, some of them zero or integer combinations
    of earlier ones, fractional scales and a lambda from LAMBDAS, with every
    box side at most BOX_SIDE[l]; its pairs come from the height-1 closures."""
    n, l, m = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(0, 1))
    entry = st.sampled_from((0, 0, 1, -1, 2, F(1, 2), F(-1, 3)))

    def coordinate():
        if not m:
            return draw(entry)
        return Poly.const(draw(entry), 1) + Poly.symbol(1, 1) * draw(entry)

    gens = []
    for _ in range(l):
        kind = draw(st.sampled_from(("free", "free", "zero", "dependent")))
        if kind == "zero":
            gens.append((Poly() if m else 0,) * n)
        elif kind == "dependent" and gens:
            a, b = draw(st.sampled_from(gens)), draw(st.sampled_from(gens))
            c = draw(st.sampled_from((1, -1, 2)))
            gens.append(tuple(x + y * c for x, y in zip(a, b)))
        else:
            gens.append(tuple(coordinate() for _ in range(n)))
    lam = draw(st.sampled_from(LAMBDAS))
    sides = [F(k, 2) for k in range(2, 42) if 2 * box_bound(F(k, 2), lam) + 1 <= BOX_SIDE[l]]
    scales = tuple(draw(st.sampled_from(sides)) for _ in range(l))
    config = ModelConfig(
        n=n, generators=tuple(gens), scales=scales, symbols=("tau",) if m else ()
    )
    return config, lam, 1


def _walk_limit(model, lam):
    """Twice the box when every side holds at least 3 values, l times the
    box otherwise: one walk step per prefix, and a prefix is a box point on
    the columns its rows lead."""
    sides = [2 * box_bound(s, lam) + 1 for s in model.scales]
    return (2 if min(sides) >= 3 else model.l) * math.prod(sides)


# chunk sizes for `gamma._CHUNK`: streams of several chunks, and the real one
_CHUNKS = st.sampled_from((1, 2, 3, 7, gamma._CHUNK))


class TestLatticeWalkAgainstBoxWalk:
    """`card_mod` and `card_translate` walk the lattice of H'; the box walks
    they replaced are the oracle, on every nested pair among the closures of
    height <= `height` and {0, G}.  A box within their limit is walked with
    no step limit, so each walk is also run by `_count_classes` under a step
    limit of twice the box (see `_walk_limit`) and must not reach it.  The
    walks reduce their queued points `gamma._CHUNK` at a time, with the chunk
    size drawn from `_CHUNKS`, so no count may depend on where the chunk
    boundaries fall."""

    @staticmethod
    def pool(model, height):
        subgroups = [model.zero_subgroup(), model.full_subgroup()]
        if height:
            subgroups += enumerate_closures(model, height)
        return list({(h.dim, h.coeff): h for h in subgroups}.values())

    @settings(max_examples=30, deadline=None)
    @given(box_cases(), st.lists(st.lists(st.integers(-4, 4), min_size=4, max_size=4),
                                 min_size=1, max_size=2), _CHUNKS)
    # the 44,919-tuple box: pairs among {0, G} only
    @example((SPARSE_RELATIONS, F(2), 0), [[3, -2, 1, 0]], gamma._CHUNK)
    def test_counts_equal_box_walk(self, case, translates, chunk):
        config, lam, height = case
        model = build_model(config)
        omega = enumerate_gamma(model, lam)
        limit = _walk_limit(model, lam)
        bounds = [box_bound(s, lam) for s in model.scales]
        pool = self.pool(model, height)
        with mock.patch.object(gamma, "_CHUNK", chunk):
            for hp in pool:
                # the oracle filters the witnesses once per H'
                inside = [w for w in omega.witnesses if hp.coeff.contains(w)]
                for hdp in pool:
                    if span_contains(model, hp, hdp):
                        want = box_card_mod(inside, hp, hdp)
                        assert card_mod(model, lam, hp, hdp) == want, (hp, hdp)
                        lo = [-b for b in bounds]
                        assert _count_classes(lo, bounds, hp.coeff, hdp.coeff, limit) == want
                for x in translates:
                    x = x[:model.l]
                    want = box_card_translate(omega.witnesses, x, hp)
                    assert card_translate(model, lam, x, hp) == want, (hp, x)
                    lo = [-b - a for b, a in zip(bounds, x)]
                    hi = [b - a for b, a in zip(bounds, x)]
                    kernel = model.kernel_lattice()
                    assert _count_classes(lo, hi, hp.coeff, kernel, limit) == want


@st.composite
def reduction_cases(draw):
    """(l, HNF rows, witness stream): a lattice of rank 0..l in Z^l,
    `linalg.hnf` of a few small integer rows, so pivots other than 1 occur,
    and up to 40 tuples drawn from a few, so representatives repeat."""
    l = draw(st.integers(1, 4))
    rows = draw(st.lists(
        st.lists(st.integers(-6, 6), min_size=l, max_size=l),
        max_size=draw(st.integers(0, l)),
    ))
    pool = draw(st.lists(st.tuples(*[st.integers(-30, 30)] * l), min_size=1, max_size=8))
    return l, linalg.hnf(rows, l), draw(st.lists(st.sampled_from(pool), max_size=40))


def box_tuples(model, lam):
    """The tuples of the box |n_j| < lam S_j, in the order `enumerate_gamma`
    reads them."""
    return product(*(range(-b, b + 1) for b in (box_bound(s, lam) for s in model.scales)))


class TestColumnReductionAgainstOracle:
    """Box tuples reduced column-wise in chunks (`gamma._first_witnesses`,
    `linalg.lattice_reduce_columns`) against one `Sublattice.reduce` per
    tuple (`oracles.first_witnesses`): the same representatives, the same
    first witness of each and the same order."""

    @settings(max_examples=150, deadline=None)
    @given(reduction_cases(), _CHUNKS)
    @example((2, (), [(1, 2), (1, 2), (0, -1)]), 1)  # relation lattice 0
    @example((3, ((2, 1, 5), (0, 3, 4)), []), 1)  # empty stream
    def test_first_witnesses(self, case, chunk):
        l, rows, stream = case
        model = SimpleNamespace(kernel_lattice=lambda: Sublattice(l, rows))
        with mock.patch.object(gamma, "_CHUNK", chunk):
            got = gamma._first_witnesses(model, iter(stream))
        assert list(got.items()) == list(oracles.first_witnesses(model, stream).items())
        pivots = Sublattice(l, rows).pivots
        reduced = linalg.lattice_reduce_columns(
            rows, pivots, [[v[j] for v in stream] for j in range(l)]
        )
        assert len(reduced) == l
        assert list(zip(*reduced)) == [linalg.lattice_reduce(rows, pivots, v) for v in stream]

    @settings(max_examples=40, deadline=None)
    @given(box_cases(), _CHUNKS)
    @example((SPARSE_RELATIONS, F(1), 1), 7)
    @example((ModelConfig(  # symbolic, g3 = g1 + g2
        n=2, generators=((Poly.symbol(1, 1), Poly.const(1, 1)), (Poly.const(2, 1), Poly()),
                         (Poly.symbol(1, 1) + Poly.const(2, 1), Poly.const(1, 1))),
        scales=(2, 2, 2), symbols=("tau",),
    ), F(1), 1), 3)
    def test_box_sets(self, case, chunk):
        config, lam, _ = case
        model = build_model(config)
        with mock.patch.object(gamma, "_CHUNK", chunk):
            omega = enumerate_gamma(model, lam)
            few = gamma_from_vectors(model, omega.witnesses[:6])
            got = [combine(model, few, 2, mode) for mode in ("sumset", "diffset")]
        want = oracles.first_witnesses(model, box_tuples(model, lam))
        assert omega.entries == tuple(sorted(want.items()))
        with mock.patch.object(gamma, "_first_witnesses", oracles.first_witnesses):
            assert got == [combine(model, few, 2, mode) for mode in ("sumset", "diffset")]

    def test_stream_of_many_chunks(self):
        # 44,919 tuples, eleven chunks of the real size, and a relation lattice
        # whose pivot is not 1
        model = build_model(SPARSE_RELATIONS)
        assert [r[0] for r in model.kernel_lattice().rows] == [33]
        omega = enumerate_gamma(model, 2)
        want = tuple(sorted(oracles.first_witnesses(model, box_tuples(model, 2)).items()))
        assert len(omega) == 44919 > 10 * gamma._CHUNK
        assert omega.entries == want


@st.composite
def free_cases(draw):
    """(config, lambda): a rational or one-symbol model with n <= 3 and
    l <= 3 generators whose relation lattice is 0, half-integer scales and
    lambda in {1/3, 1, 2}, with every box side at most BOX_SIDE[l]."""
    n, l, m = draw(st.integers(1, 3)), draw(st.integers(0, 3)), draw(st.integers(0, 1))
    entry = st.sampled_from((0, 1, -1, 2, F(1, 2), F(-1, 3)))

    def coordinate():
        if not m:
            return draw(entry)
        return Poly.const(draw(entry), 1) + Poly.symbol(1, 1) * draw(entry)

    gens = tuple(tuple(coordinate() for _ in range(n)) for _ in range(l))
    lam = draw(st.sampled_from((F(1, 3), F(1), F(2))))
    sides = [F(k, 2) for k in range(2, 42) if 2 * box_bound(F(k, 2), lam) + 1 <= BOX_SIDE.get(l, 1)]
    scales = tuple(draw(st.sampled_from(sides)) for _ in range(l))
    config = ModelConfig(n=n, generators=gens, scales=scales, symbols=("tau",) if m else ())
    assume(not build_model(config).kernel_lattice().rows)
    return config, lam


class TestRepetitionRoute:
    """With relation lattice 0, `enumerate_gamma` builds the witness
    columns by repetition: the same box set as the box tuples reduced one by
    one (`gamma_from_vectors` over `itertools.product`), in product order."""

    @settings(max_examples=80, deadline=None)
    @given(free_cases())
    @example((ModelConfig(n=2, generators=(), scales=()), F(2)))  # l = 0
    @example((ModelConfig(n=1, generators=((1,), (F(1, 2),)), scales=(F(5, 2), F(3, 2))), F(1, 3)))
    def test_equals_reduced_box(self, case):
        config, lam = case
        model = build_model(config)
        omega = enumerate_gamma(model, lam)
        want = gamma_from_vectors(model, box_tuples(model, lam), lam)
        assert len(omega) == len(want) == math.prod(
            2 * box_bound(s, lam) + 1 for s in model.scales
        )
        assert "entries" not in omega.__dict__ and "witnesses" not in omega.__dict__
        assert omega.witnesses == want.witnesses == tuple(box_tuples(model, lam))
        assert omega.entries == want.entries
        assert omega.witness_columns == want.witness_columns
        assert omega.columns == want.columns
        assert omega.points == want.points
        assert omega == want and hash(omega) == hash(want)

    @pytest.mark.parametrize("symbols", [(), ("tau",)])
    def test_no_generators(self, symbols):
        model = build_model(ModelConfig(n=2, generators=(), scales=(), symbols=symbols))
        omega = enumerate_gamma(model)
        assert len(omega) == 1 and omega.witness_columns == ()
        assert omega.witnesses == ((),) and omega.entries == (((), ()),)
        assert omega.points == (model.point_of(()),)
        report = json.loads(_enumerate_text(model, F(1)))
        assert report["witnesses"] == [[]] and report["points"] == [["0", "0"]]

    @pytest.mark.parametrize("generators", [
        ((1, 0), (0, 1), (1, 1), (F(1, 2), 3)),   # relation lattice of rank 2
        ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),   # relation lattice 0
    ])
    def test_huge_box_is_refused_before_any_column(self, generators):
        # 1999^4 > 10^13 tuples: nothing of the box may be built
        def no_box(*args):
            raise AssertionError("box built before the size check")

        model = build_model(ModelConfig(
            n=len(generators[0]), generators=generators, scales=(1000,) * 4
        ))
        with mock.patch.object(gamma, "product", no_box), \
                mock.patch.object(gamma, "repeat", no_box):
            with pytest.raises(EnumerationTooLarge, match="box of 15968023992001 tuples"):
                enumerate_gamma(model)


class TestCombine:
    def test_singleton(self):
        m = rational_model(1, [(1,)], ("2",))
        om = gamma_from_vectors(m, [(0,)])
        assert combine(m, om, 3, "sumset") == ((F(0),),)
        assert combine(m, om, 3, "diffset") == ((F(0),),)

    def test_pair_sums_and_differences(self):
        m = rational_model(1, [(1,)], ("2",))
        om = gamma_from_vectors(m, [(0,), (1,)])
        sums = sorted(p[0] for p in combine(m, om, 2, "sumset"))
        assert sums == [0, 1, 2]
        diffs = sorted(p[0] for p in combine(m, om, 2, "diffset"))
        assert diffs == [-2, -1, 0, 1, 2]

    def test_sumset_inclusion_in_scaled_box(self):
        # exhaustive: Gamma(2)[2]—so sums of two elements—sits inside Gamma(3)
        m = rational_model(1, [(1,)], ("2",))
        om = enumerate_gamma(m)
        sums = combine(m, om, 2, "sumset")
        m3 = rational_model(1, [(1,)], ("3",))
        target = {p for p in enumerate_gamma(m3).points}
        assert set(sums) <= target

    @pytest.mark.parametrize("count, mode, limit, error, match", [
        (2, "product", 10 ** 7, ValueError, "^mode must be sumset or diffset, got 'product'$"),
        (0, "sumset", 10 ** 7, ValueError, "^need at least one summand, got 0$"),
        (2, "sumset", 14, EnumerationTooLarge, "^15 sums exceed the limit 14$"),
        (2, "diffset", 15, EnumerationTooLarge, "^81 differences exceed the limit 15$"),
    ])
    def test_refusals(self, count, mode, limit, error, match):
        # Gamma(S) = {-2..2}: 15 sums of two, 9 distinct, 81 differences
        m = rational_model(1, [(1,)], ("3",))
        with pytest.raises(error, match=match):
            combine(m, enumerate_gamma(m), count, mode, limit)


class TestCountingCheck:
    def test_box_count_example(self):
        m = plane_model(100, 10)
        report = counting_check(m, m.full_subgroup(), m.zero_subgroup(), ["1"])
        # closed-form box count (2*100-1)(2*10-1)
        assert report.raw_count == 3781
        assert report.n_formula_value == 1000
        assert report.ratio == F(3781, 1000)

    def test_diagonal_ratio_bracket(self):
        for s1, s2 in [(5, 3), (9, 4), ("13/2", "7/2")]:
            m = plane_model(s1, s2)
            diag = closure(m, [(1, 1)])
            report = counting_check(m, diag, m.zero_subgroup(), ["1"])
            assert 1 < report.ratio <= 2

    def test_lambda_sweep_exponent(self):
        m = plane_model(9, 5)
        report = counting_check(
            m, m.full_subgroup(), m.zero_subgroup(), ["1", "2", "4"]
        )
        assert report.rank == 2
        assert round(report.fitted_exponent) == 2
        diag = closure(m, [(1, 1)])
        report = counting_check(m, diag, m.zero_subgroup(), ["1", "2", "4"])
        assert report.rank == 1
        assert round(report.fitted_exponent) == 1

    def test_no_lambda_refused(self):
        m = plane_model(3, 2)
        with mock.patch.object(gamma, "card_mod") as walk:
            with pytest.raises(ValueError, match="at least one lambda"):
                counting_check(m, m.full_subgroup(), m.zero_subgroup(), [])
        walk.assert_not_called()

    def test_translate_bound(self):
        # counting in a coset never beats the doubled box count in the group
        m = plane_model(4, 3)
        om = enumerate_gamma(m, 1)
        x_axis = closure(m, [(1, 0)])
        rng = random.Random(41)
        base = card_mod(m, 2, x_axis, m.zero_subgroup())
        for _ in range(10):
            x = rng.choice(om.witnesses)
            assert card_translate(m, 1, x, x_axis) <= base


class TestDistributionChecks:
    def test_plane_model_bounded(self):
        m = plane_model(9, 3)
        chain = build_chain(m)
        report = distribution_checks(m, chain, F(1, 2), height=1)
        assert report.bracket_ok
        upper_base = report.upper[1]
        # the motivating candidate H = G appears at the last step
        last = chain.r - 1
        assert any(e.candidate == m.full_subgroup().coeff.rows for e in upper_base[last])
        lower_base = report.lower[1]
        for i, entries in lower_base.items():
            for e in entries:
                assert e.count > 0

    def test_scaling_check_rejects_chain_of_other_scales(self):
        # the (3, 3) chain has dims (0, 2); the (9, 3) model's has (0, 1, 2)
        m = plane_model(9, 3)
        chain = build_chain(plane_model(3, 3))
        with pytest.raises(CertificateViolation) as err:
            distribution_checks(m, chain, F(1, 2), height=1)
        assert err.value.kind == "scaling"
        assert "S -> S^1" in str(err.value)

    def test_degenerate_chain_empty_candidates(self):
        m = rational_model(2, [], ())
        chain = build_chain(m)
        report = distribution_checks(m, chain, F(1, 2))
        assert all(not entries for entries in report.upper[1].values())
        assert all(not entries for entries in report.lower[1].values())
