import math
import random
import sys
import time
from fractions import Fraction as F
from itertools import product
from operator import add

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
import slopechain.model as model_module
from slopechain import (
    DimensionMismatch,
    DuplicateSymbol,
    InvalidScale,
    MissingSymbol,
    ModelConfig,
    Poly,
    ValidationError,
    build_model,
    closure,
    enumerate_closures,
    rank_profile,
    span_contains,
    specialize,
)
from slopechain import linalg
from slopechain.model import (
    Subgroup,
    _closure,
    _rational_closure,
    box_primitives,
    image_lines,
)


def rational_model(n, gens, scales):
    return build_model(ModelConfig(n=n, generators=tuple(gens), scales=tuple(scales)))


def model_b(s1="5", s2="5"):
    """gamma1 = (1, 0), gamma2 = (tau, 0): a line carrying a rank-2 subgroup."""
    return build_model(ModelConfig(
        n=2,
        generators=(("1", "0"), ({"const": "0", "coeffs": {"t1": "1"}}, "0")),
        scales=(s1, s2),
        symbols=("tau",),
    ))


class TestBuildModel:
    def test_scale_sorting_records_permutation(self):
        m = rational_model(2, [(1, 0), (0, 1)], ("10", "100"))
        assert m.scales == (F(100), F(10))
        assert m.permutation == (2, 1)
        assert m.generators[0] == (F(0), F(1))

    def test_empty_generator_model(self):
        m = rational_model(1, [], ())
        assert m.l == 0 and m.n == 1

    def test_scale_below_one_rejected(self):
        with pytest.raises(InvalidScale):
            rational_model(1, [(1,)], ("1/2",))

    def test_generator_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            rational_model(2, [(1, 0, 0)], ("3",))

    def test_ambient_dimension_below_one_rejected(self):
        with pytest.raises(DimensionMismatch, match="^ambient dimension must be >= 1, got 0$"):
            rational_model(0, [], ())

    def test_scale_count_mismatch(self):
        with pytest.raises(DimensionMismatch, match="^1 scales for 2 generators$"):
            rational_model(1, [(1,), (2,)], ("3",))

    def test_power_below_one_rejected(self):
        with pytest.raises(InvalidScale, match="^power 0 must be >= 1$"):
            rational_model(1, [(1,)], ("3",)).powered(0)

    def test_duplicate_symbol(self):
        with pytest.raises(DuplicateSymbol):
            build_model(ModelConfig(
                n=1, generators=((1,),), scales=("2",), symbols=("t", "t")
            ))

    def test_undeclared_symbol_message(self):
        def build(coeffs):
            return build_model(ModelConfig(
                n=1, generators=((1,), ({"coeffs": coeffs},)), scales=(2, 2),
                symbols=("a", "b"),
            ))

        with pytest.raises(
            MissingSymbol, match=r"^generator 2 references t3 but only 2 symbols are declared$"
        ):
            build({"t1": 1, "t3": 1})
        # a zero coefficient names no symbol
        assert build({"t1": 1, "t3": 0}).generators == build({"t1": 1}).generators

    def test_poly_coordinates(self):
        t = Poly.symbol(1, 1)

        def build(coord):
            return build_model(ModelConfig(
                n=1, generators=((coord,),), scales=(2,), symbols=("a",)
            ))

        affine = build(t * 2 + Poly.const(1, 1))
        assert affine.generators == build({"const": 1, "coeffs": {"t1": 2}}).generators
        with pytest.raises(ValidationError, match=r"^generators: .*not affine-linear"):
            build(t * t)


class TestKernelLattice:
    def test_dependent_generators(self):
        m = rational_model(1, [(1,), (2,)], ("3", "3"))
        assert m.kernel_lattice().rows == ((2, -1),)

    def test_independent_generators(self):
        m = rational_model(2, [(1, 0), (0, 1)], ("3", "2"))
        assert m.kernel_lattice().rows == ()

    def test_zero_generator(self):
        m = rational_model(1, [(0,), (1,)], ("3", "3"))
        assert m.kernel_lattice().rows == ((1, 0),)

    def test_symbolic_kernel_splits_monomials(self):
        # v1 * 1 + v2 * tau = 0 forces v1 = v2 = 0
        assert model_b().kernel_lattice().rows == ()


class TestClosure:
    def test_symbolic_line_swallows_both_generators(self):
        m = model_b()
        sub = closure(m, [(1, 0)])
        assert sub.dim == 1
        assert sub.coeff.rows == ((1, 0), (0, 1))
        # oracle: (tau, 0) is a Q(tau)-multiple of (1, 0), so the 2x1 system
        # (tau,0) = c*(1,0) is solvable; the x-axis closure must contain gamma2
        assert sub.coeff.contains((0, 1))

    def test_zero_lattice_gives_zero_subgroup(self):
        m = model_b()
        sub = closure(m, [])
        assert sub.dim == 0
        assert sub.coeff.rows == m.kernel_lattice().rows

    def test_rational_diagonal(self):
        m = rational_model(2, [(1, 0), (0, 1)], ("3", "2"))
        sub = closure(m, [(1, 1)])
        assert sub.dim == 1
        assert sub.coeff.rows == ((1, 1),)

    def test_idempotent(self):
        rng = random.Random(21)
        for _ in range(20):
            n = rng.randint(1, 3)
            l = rng.randint(1, 3)
            m = rational_model(
                n,
                [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(l)],
                tuple(rng.randint(1, 9) for _ in range(l)),
            )
            rows = [tuple(rng.randint(-2, 2) for _ in range(l))]
            first = closure(m, rows)
            again = closure(m, first.coeff)
            assert (first.dim, first.coeff.rows) == (again.dim, again.coeff.rows)

    @pytest.mark.parametrize("row", [(F(1, 2), 0), (1.9, 0), (True, 0), ("1", 0)])
    def test_non_integer_coefficients_are_refused(self, row):
        # not truncated: (1/2, 0) would close to 0 and (1.9, 0) to the x-axis
        m = rational_model(2, [(1, 0), (0, 1)], ("3", "2"))
        with pytest.raises(ValidationError) as err:
            closure(m, [row])
        assert str(err.value) == f"lattice: coefficient {row[0]!r} is not an integer"
        # a Fraction with denominator 1 is an integer
        assert closure(m, [(F(2), 0)]) == closure(m, [(1, 0)])

    def test_monotone(self):
        m = rational_model(3, [(1, 0, 0), (0, 1, 0), (1, 1, 1)], (9, 5, 2))
        small = closure(m, [(1, 0, 0)])
        large = closure(m, [(1, 0, 0), (0, 1, 0)])
        assert small.dim <= large.dim
        assert oracles.contains_lattice(large.coeff, small.coeff)


class TestRankProfile:
    def test_full_is_gamma_ranks(self):
        m = rational_model(2, [(1, 0), (0, 1)], (3, 2))
        assert rank_profile(m, m.full_subgroup()).gamma_ranks == (1, 2)

    def test_zero_is_zero(self):
        m = rational_model(2, [(1, 0), (0, 1)], (3, 2))
        assert rank_profile(m, m.zero_subgroup()).gamma_ranks == (0, 0)

    def test_model_b_x_axis(self):
        m = model_b()
        sub = closure(m, [(1, 0)])
        profile = rank_profile(m, sub)
        assert profile.dim == 1
        assert profile.gamma_ranks == (1, 2)

    def test_flag_property(self):
        rng = random.Random(22)
        for _ in range(20):
            n = rng.randint(1, 3)
            l = rng.randint(0, 3)
            m = rational_model(
                n,
                [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(l)],
                tuple(rng.randint(1, 9) for _ in range(l)),
            )
            for sub in enumerate_closures(m, 1):
                ranks = (0,) + rank_profile(m, sub).gamma_ranks
                for j in range(1, len(ranks)):
                    assert ranks[j] - ranks[j - 1] in (0, 1)
                    assert ranks[j] <= min(j, sub.dim)

    def test_rational_profile_equals_span_dimension(self):
        # in the rational model rk(Gamma_j cap H) = dim(H cap span Gamma_j)
        rng = random.Random(23)
        for _ in range(15):
            n = rng.randint(1, 3)
            l = rng.randint(1, 3)
            m = rational_model(
                n,
                [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(l)],
                tuple(rng.randint(1, 9) for _ in range(l)),
            )
            for sub in enumerate_closures(m, 1):
                ranks = rank_profile(m, sub).gamma_ranks
                span_h = [[F(c) for c in p] for p in sub.span]
                for j in range(1, m.l + 1):
                    span_gj = [list(m.point_of(r)) for r in m.prefix_lattice(j).rows]
                    rk_g = oracles.rank(span_gj) if span_gj else 0
                    stacked = span_gj + span_h
                    inter = rk_g + sub.dim - (oracles.rank(stacked) if stacked else 0)
                    assert ranks[j - 1] == inter


def _prefix_sublattice(hnf_rows, ncols, j):
    """HNF basis of {v in L : v[j:] = 0}, i.e. L intersected with Z^j x 0,
    from the left kernel of the tail coordinates: the oracle for the rank
    identity behind rank_profile."""
    rows = [tuple(r) for r in hnf_rows]
    if not rows:
        return ()
    if j >= ncols:
        return linalg.hnf(rows, ncols)
    combos = linalg.left_kernel([row[j:] for row in rows], ncols - j)
    gens = []
    for combo in combos:
        vec = [0] * ncols
        for coeff, row in zip(combo, rows):
            for k in range(ncols):
                vec[k] += coeff * row[k]
        gens.append(vec)
    return linalg.hnf(gens, ncols)


class TestPrefixRanks:
    def test_lattice_prefix_ranks_match_prefix_sublattice(self):
        rng = random.Random(18)
        for _ in range(60):
            cols = rng.randint(1, 5)
            rows = linalg.hnf(
                [[rng.randint(-4, 4) for _ in range(cols)]
                 for _ in range(rng.randint(0, 4))],
                cols,
            )
            expected = tuple(
                len(_prefix_sublattice(rows, cols, j)) for j in range(cols + 1)
            )
            assert oracles._prefix_ranks(rows, cols) == expected

    def test_rank_profile_matches_prefix_sublattice(self):
        rng = random.Random(24)
        for _ in range(15):
            n = rng.randint(1, 3)
            l = rng.randint(1, 4)
            m = rational_model(
                n,
                [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(l)],
                tuple(rng.randint(1, 9) for _ in range(l)),
            )
            kern = m.kernel_lattice().rows
            kern_prefix = [len(_prefix_sublattice(kern, l, j)) for j in range(l + 1)]
            assert m.kernel_prefix_ranks() == tuple(kern_prefix)
            for sub in enumerate_closures(m, 1):
                expected = tuple(
                    len(_prefix_sublattice(sub.coeff.rows, l, j)) - kern_prefix[j]
                    for j in range(1, l + 1)
                )
                assert rank_profile(m, sub).gamma_ranks == expected


class TestPointMembership:
    def test_box_membership_matches_coeff_lattice(self):
        # iota(v) in H iff v in the coefficient lattice, exhaustively
        m = rational_model(2, [(1, 0), (1, 2)], (5, 3))
        subs = enumerate_closures(m, 2)
        for sub in subs:
            if sub.dim == m.n or sub.dim == 0:
                continue
            span = [[F(c) for c in p] for p in sub.span]
            for v1 in range(-2, 3):
                for v2 in range(-2, 3):
                    point = m.point_of((v1, v2))
                    stacked = span + [list(point)]
                    in_span = oracles.rank(stacked) == sub.dim
                    assert in_span == sub.coeff.contains((v1, v2))


@st.composite
def models_with_lattice(draw, size=3, symbols=(0, 2), rows=(1, 3)):
    """A model with n, l <= `size` and a number of symbols in the range
    `symbols` (small integer coordinates, many of them zero), and a number of
    coefficient vectors of height <= 2 in the range `rows`."""
    n, l, m = draw(st.integers(1, size)), draw(st.integers(1, size)), draw(st.integers(*symbols))
    small = st.integers(-2, 2)
    entry = st.sampled_from((0, 1, -1, 2, -2))

    def coordinate():
        return {"const": draw(entry), "coeffs": {f"t{k}": draw(entry) for k in range(1, m + 1)}}

    model = build_model(ModelConfig(
        n=n,
        generators=tuple(tuple(coordinate() for _ in range(n)) for _ in range(l)),
        scales=(2,) * l,
        symbols=tuple(f"s{k}" for k in range(m)),
    ))
    return model, draw(st.lists(st.tuples(*[small] * l), min_size=rows[0], max_size=rows[1]))


def growth_model(m, n):
    """gamma_j = e_j for j < n and gamma_n = (t1 + ... + tm) on the first
    n - 1 coordinates, with the rows e_1..e_{n-1}.  Their closure is the
    hyperplane of the first n - 1 coordinates, which holds gamma_n: it
    swallows e_n, so no specialization ever cuts the coefficient lattice."""
    units = [tuple(int(i == j) for i in range(n)) for j in range(n - 1)]
    total = {"coeffs": {f"t{k}": 1 for k in range(1, m + 1)}}
    model = build_model(ModelConfig(
        n=n,
        generators=(*units, (total,) * (n - 1) + (0,)),
        scales=(2,) * n,
        symbols=tuple(f"s{k}" for k in range(m)),
    ))
    return model, units


class TestClosureOracle:
    @settings(max_examples=60, deadline=None)
    @given(models_with_lattice())
    @example((  # a line in dimension 3 needs both kernel directions
        build_model(ModelConfig(
            n=3,
            generators=((1, 0, 0), ({"coeffs": {"t1": 1}}, 0, 0), (0, 0, 1)),
            scales=(2, 2, 2),
            symbols=("tau",),
        )),
        [(1, 0, 0)],
    ))
    def test_box_membership_matches_rank(self, case):
        # for every v of height <= 2: v is a relation iff iota(v) is zero, and
        # iota(v) lies in the closure of each prefix of the drawn vectors iff
        # adding it keeps the rank of the closure's span
        model, rows = case
        kernel = model.kernel_lattice()
        box = [(v, model.point_of(v)) for v in product(range(-2, 3), repeat=model.l)]
        for v, point in box:
            assert kernel.contains(v) == (not any(point))
        for k in range(len(rows) + 1):
            sub = closure(model, rows[:k])
            assert oracles.rank(sub.span) == sub.dim
            for v, point in box:
                assert sub.coeff.contains(v) == (oracles.rank(sub.span + (point,)) == sub.dim)


def _rank_span_contains(model, container, contained):
    """`span_contains` as a rank elimination over Q or Q[t1..tm]."""
    if contained.dim > container.dim:
        return False
    if container.dim == model.n or contained.dim == 0:
        return True
    return oracles.rank(container.span + contained.span) == container.dim


class TestSpanContainsOracle:
    @settings(max_examples=60, deadline=None)
    @given(models_with_lattice())
    @example((rational_model(2, [(1, 0)], (2,)), [(1,)]))  # G is not closure(Z^1)
    @example((model_b(), [(1, 0)]))
    def test_lattice_rule_matches_rank_rule(self, case):
        # every pair of height-1 closures, the zero subgroup, G and
        # closure(Z^l): inclusion by lattices equals inclusion by rank
        model, _ = case
        subgroups = list(enumerate_closures(model, 1)) + [
            model.zero_subgroup(),
            model.full_subgroup(),
            closure(model, model.prefix_lattice(model.l)),
        ]
        for container, contained in product(subgroups, repeat=2):
            assert span_contains(model, container, contained) == _rank_span_contains(
                model, container, contained
            )


def _old_point_of(model, vector):
    """iota(v) as the sum of v_j gamma_j, one Fraction operation at a time."""
    coords = list(model.zero_point())
    for c, gen in zip(vector, model.generators):
        if c:
            for i in range(model.n):
                coords[i] = coords[i] + c * gen[i]
    return tuple(coords)


@st.composite
def rational_models_with_vectors(draw):
    """A rational model with n <= 4 and l <= 4 (l = 0 included) whose
    generators are fresh (entry denominators up to 12), zero, or repeats of
    an earlier generator, with a few integer vectors of entries in [-50, 50]."""
    n, l = draw(st.integers(1, 4)), draw(st.integers(0, 4))
    entry = st.builds(F, st.integers(-30, 30), st.integers(1, 12))
    gens = []
    for _ in range(l):
        kind = draw(st.sampled_from(("fresh", "zero", "repeat")))
        if kind == "zero":
            gens.append((F(0),) * n)
        elif kind == "repeat" and gens:
            gens.append(draw(st.sampled_from(gens)))
        else:
            gens.append(draw(st.tuples(*[entry] * n)))
    model = build_model(ModelConfig(n=n, generators=tuple(gens), scales=(2,) * l))
    vector = st.tuples(*[st.integers(-50, 50)] * l)
    return model, draw(st.lists(vector, min_size=1, max_size=5))


class TestPointOf:
    @settings(max_examples=200, deadline=None)
    @given(rational_models_with_vectors())
    @example((rational_model(2, [("1/2", "-5/6"), ("1/3", "1/12")], (2, 2)), [(1, 1)]))
    @example((rational_model(3, [], ()), [()]))
    def test_cleared_columns_match_fraction_sum(self, case):
        model, vectors = case
        for v in vectors:
            point = model.point_of(v)
            assert point == _old_point_of(model, v)
            assert len(point) == model.n
            assert all(type(x) is F for x in point)

    def test_symbolic_point_is_poly_sum(self):
        m = model_b()
        assert m.point_of((2, -3)) == _old_point_of(m, (2, -3))
        assert all(isinstance(x, Poly) for x in m.point_of((2, -3)))

    def test_derived_models_share_generator_cache(self):
        m = rational_model(2, [(1, 0), (2, 0), ("1/2", 3)], (5, 3, 2))
        for derived in (m.powered(2), m.equal_scale_model()):
            assert derived.kernel_lattice() is m.kernel_lattice()
            assert derived.full_subgroup() is m.full_subgroup()
        assert m.powered(2).scales == (25, 9, 4)


class TestSpecialize:
    def test_explicit_assignment(self):
        m = model_b()
        flat = specialize(m, {"tau": "22/7"})
        assert flat.m == 0
        assert flat.generators[1] == (F(22, 7), F(0))

    def test_identity_on_rational(self):
        m = rational_model(1, [(1,)], ("2",))
        assert specialize(m) is m

    def test_seed_determinism(self):
        m = model_b()
        a = specialize(m, seed=99)
        b = specialize(m, seed=99)
        assert a.generators == b.generators
        c = specialize(m, seed=100)
        assert c.generators != a.generators

    def test_missing_symbol(self):
        m = build_model(ModelConfig(
            n=1,
            generators=(({"const": "0", "coeffs": {"t1": "1"}},),
                        ({"const": "0", "coeffs": {"t2": "1"}},)),
            scales=("2", "2"),
            symbols=("a", "b"),
        ))
        with pytest.raises(MissingSymbol):
            specialize(m, {"a": "3"})


class TestEnumerateClosures:
    def test_contains_zero_and_prefix_closures(self):
        m = rational_model(2, [(1, 0), (0, 1)], (3, 2))
        subs = enumerate_closures(m, 2)
        keys = {(s.dim, s.coeff.rows) for s in subs}
        zero = m.zero_subgroup()
        assert (zero.dim, zero.coeff.rows) in keys
        x_axis = closure(m, [(1, 0)])
        assert (x_axis.dim, x_axis.coeff.rows) in keys
        full = m.full_subgroup()
        assert (full.dim, full.coeff.rows) in keys

    def test_symbolic_path_collapses_to_two_closures(self):
        # in model B every nonzero coefficient vector spans the x-axis
        subs = enumerate_closures(model_b(), 3)
        assert [s.dim for s in subs] == [0, 1]

    def test_span_contains(self):
        m = rational_model(2, [(1, 0), (0, 1)], (3, 2))
        x_axis = closure(m, [(1, 0)])
        assert span_contains(m, m.full_subgroup(), x_axis)
        assert span_contains(m, x_axis, m.zero_subgroup())
        assert not span_contains(m, x_axis, m.full_subgroup())


def _old_enumerate_closures_rational(model, height):
    """The rational walk: every image line against every span of lines."""
    n = model.n
    lines = image_lines(model, height)
    seen = {(): None}
    frontier = [()]
    while frontier:
        nxt = []
        for ech in frontier:
            if len(ech) == n:
                continue
            for rep in lines:
                rem = linalg._echelon_reduce(ech, rep)
                if rem is None:
                    continue
                grown = linalg._echelon_insert(ech, rem)
                if grown not in seen:
                    seen[grown] = None
                    nxt.append(grown)
        frontier = nxt
    subgroups = [oracles.subgroup(model, [row for _, row in ech]) for ech in seen]
    subgroups.sort(key=lambda s: (s.dim, s.coeff.rows))
    return tuple(subgroups)


def _old_enumerate_closures_symbolic(model, height):
    """The symbolic walk: every box vector outside each closure, closed from
    the closure's coefficient rows."""
    vectors = box_primitives(model.l, height)
    zero = model.zero_subgroup()
    seen = {(zero.dim, zero.coeff.rows): zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for node in frontier:
            if node.dim == model.n:
                continue
            for v in vectors:
                if node.coeff.contains(v):
                    continue
                grown = oracles.closure(model, node.coeff.rows + (v,))
                key = (grown.dim, grown.coeff.rows)
                if key not in seen:
                    seen[key] = grown
                    nxt.append(grown)
        frontier = nxt
    subgroups = sorted(seen.values(), key=lambda s: (s.dim, s.coeff.rows))
    return tuple(subgroups)


def _as_tuples(subgroups):
    """(dim, lattice, span) of each subgroup, in the library's order of
    `enumerate_closures`, (dim, basis)."""
    return [(s.dim, s.coeff.rows, s.span) for s in sorted(subgroups, key=lambda s: (s.dim, s.basis))]


@st.composite
def rational_enumeration_cases(draw):
    """n, l <= 4 with zero generators and generators that are integer
    combinations of earlier ones; height 2 only for l <= 3, where the box
    stays small."""
    n, l = draw(st.integers(1, 4)), draw(st.integers(0, 4))
    entry = st.sampled_from((0, 1, -1, 2, F(1, 2)))
    gens = []
    for _ in range(l):
        kind = draw(st.sampled_from(("fresh", "zero", "dependent")))
        if kind == "zero":
            gens.append((0,) * n)
        elif kind == "dependent" and gens:
            a, b = draw(st.sampled_from(gens)), draw(st.sampled_from(gens))
            x, y = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            gens.append(tuple(x * p + y * q for p, q in zip(a, b)))
        else:
            gens.append(tuple(draw(entry) for _ in range(n)))
    height = draw(st.integers(1, 2 if l <= 3 else 1))
    return rational_model(n, gens, (2,) * l), height


# edge cases of the top closure T = closure(Z^l): every image in one plane of
# Q^3 (T is not G), one nonzero generator (the start node is already co-rank
# 1), all-zero generators (T is the zero subgroup) and l = 0
PLANE_IMAGES = rational_model(3, [(1, 0, 0), (0, 1, 0), (1, 1, 0)], (2,) * 3)
ONE_NONZERO = rational_model(3, [(0, 0, 0), (1, 2, -1)], (2,) * 2)
ALL_ZERO = rational_model(2, [(0, 0), (0, 0)], (2,) * 2)
NO_GENERATORS = rational_model(3, [], ())

# (1, 0) and (t1, 0) span one line over Q(t1): the closure of (1, 0, 0) is
# larger than its saturation, the grown coefficient span
SWALLOWING = build_model(ModelConfig(
    n=2,
    generators=((1, 0), ({"coeffs": {"t1": 1}}, 0), (0, 1)),
    scales=(2, 2, 2),
    symbols=("tau",),
))


@st.composite
def rational_closure_cases(draw):
    """A `rational_enumeration_cases` model with 0-3 coefficient rows, each
    a box vector, a kernel row, a zero row, the sum of two earlier rows or a
    unit vector (the unit vectors together close to closure(Z^l))."""
    model, height = draw(rational_enumeration_cases())
    l = model.l
    kinds = {
        "box": st.tuples(*[st.integers(-height, height)] * l),
        "zero": st.just((0,) * l),
    }
    if model.kernel_lattice().rows:
        kinds["kernel"] = st.sampled_from(model.kernel_lattice().rows)
    if l:
        kinds["unit"] = st.sampled_from(model.prefix_lattice(l).rows)
    rows = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(sorted(kinds) + (["sum"] if rows else [])))
        if kind == "sum":
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append(tuple(map(add, a, b)))
        else:
            rows.append(draw(kinds[kind]))
    return model, rows


class TestRationalClosureOracle:
    @settings(max_examples=100, deadline=None)
    @given(rational_closure_cases())
    @example((NO_GENERATORS, [()]))
    @example((ALL_ZERO, [(1, 0), (0, 1)]))
    @example((PLANE_IMAGES, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]))  # the top is a plane
    def test_saturation_matches_image_elimination(self, case):
        # the integer saturation of Q.L + Q.L0 against the Fraction
        # elimination in image space: same dimension, lattice and span
        model, rows = case
        assert closure(model, rows) == oracles.closure(model, rows)


class TestSymbolicClosure:
    @settings(max_examples=100, deadline=None)
    @given(models_with_lattice(size=4, symbols=(1, 3), rows=(0, 4)))
    @example(growth_model(1, 4))
    @example(growth_model(2, 4))
    @example(growth_model(3, 4))
    @example((  # iota(e1) = (t1, 0) vanishes at t1 = 0, where the rank drops
        build_model(ModelConfig(
            n=2,
            generators=(({"coeffs": {"t1": 1}}, 0), (1, 0)),
            scales=(2, 2),
            symbols=("tau",),
        )),
        [(1, 0)],
    ))
    def test_matches_bareiss_closure(self, case):
        # integer eliminations at the points of a simplex against one
        # fraction-free kernel over Q[t]
        model, rows = case
        assert _closure(model, tuple(map(tuple, rows))) == oracles.closure(model, rows)

    def test_growth_family_specializes_each_simplex_point_once(self, monkeypatch):
        # m = 3, n = 6: r = 5 and no condition ever cuts, so the closure visits
        # every point a with |a| <= 2r + 1 = 11, and specializes each once
        points = []
        real_specialize = model_module.specialize

        def specialize(model, assignment=None, seed=None):
            points.append(tuple(assignment[t] for t in range(1, model.m + 1)))
            return real_specialize(model, assignment, seed)

        monkeypatch.setattr(model_module, "specialize", specialize)
        model, rows = growth_model(3, 6)
        start = time.perf_counter()
        sub = closure(model, rows)
        assert time.perf_counter() - start < 2
        assert sub.dim == 5 and sub.coeff == model.prefix_lattice(6)
        d = 11
        assert sorted(points) == [a for a in product(range(d + 1), repeat=3) if sum(a) <= d]
        assert len(points) == math.comb(d + 3, 3)


class TestEnumerateClosuresOracle:
    @settings(max_examples=40, deadline=None)
    @given(rational_enumeration_cases())
    @example((  # planes grow into 3-spaces only when n = 4
        rational_model(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 2)], (2,) * 4), 1,
    ))
    @example((PLANE_IMAGES, 2))
    @example((ONE_NONZERO, 2))
    @example((ALL_ZERO, 2))
    @example((NO_GENERATORS, 2))
    def test_rational_matches_image_line_walk(self, case):
        model, height = case
        assert _as_tuples(enumerate_closures(model, height)) == _as_tuples(
            _old_enumerate_closures_rational(model, height)
        )

    @settings(max_examples=40, deadline=None)
    @given(rational_enumeration_cases())
    def test_saturated_grown_echelon_is_the_closure(self, case):
        # over Q a grown echelon is already closed: its integer saturation,
        # with the nonzero images of its rows, is the subgroup its images span
        model, height = case
        # echelons in the key's columns, the coefficient columns reversed
        grown_echelons = set()
        for sub in enumerate_closures(model, height):
            ech = linalg._echelon(row[::-1] for row in sub.coeff.rows)
            for v in box_primitives(model.l, height):
                rem = linalg._echelon_reduce(ech, v[::-1])
                if rem is not None:
                    grown_echelons.add(linalg._echelon_insert(ech, rem))
        for grown in grown_echelons:
            rows = [row[::-1] for _, row in grown]
            assert _rational_closure(model, grown) == oracles.closure(model, rows)

    @settings(max_examples=20, deadline=None)
    @given(models_with_lattice())
    @example((PLANE_IMAGES, []))
    @example((ONE_NONZERO, []))
    @example((ALL_ZERO, []))
    @example((NO_GENERATORS, []))
    @example((  # (1, 0, 0), (t1, 0, 0) and (0, 1, 0) span a plane: the top is not G
        build_model(ModelConfig(
            n=3,
            generators=((1, 0, 0), ({"coeffs": {"t1": 1}}, 0, 0), (0, 1, 0)),
            scales=(2, 2, 2),
            symbols=("tau",),
        )),
        [(1, 0, 0)],
    ))
    def test_symbolic_matches_closure_walk(self, case):
        # n, l <= 3 and up to two symbols, height 1
        model, _ = case
        assert _as_tuples(enumerate_closures(model, 1)) == _as_tuples(
            _old_enumerate_closures_symbolic(model, 1)
        )

    def test_closure_larger_than_grown_span(self):
        # closing Q.(1, 0, 0) swallows (0, 1, 0)
        model = SWALLOWING
        subs = enumerate_closures(model, 1)
        assert _as_tuples(subs) == _as_tuples(_old_enumerate_closures_symbolic(model, 1))
        x_axis = closure(model, [(1, 0, 0)])
        assert x_axis.coeff.rows == ((1, 0, 0), (0, 1, 0))
        assert x_axis in subs


def _check_span_contains(model, subgroups):
    """`span_contains` on echelons against lattice membership, on every
    ordered pair of `subgroups`."""
    for big in subgroups:
        for small in subgroups:
            nested = small.dim <= big.dim and oracles.contains_lattice(big.coeff, small.coeff)
            assert span_contains(model, big, small) == nested


class TestSpanContainsOnEchelons:
    @settings(max_examples=40, deadline=None)
    @given(rational_enumeration_cases())
    @example((PLANE_IMAGES, 1))  # G and the top plane share the lattice Z^3
    @example((ONE_NONZERO, 2))
    @example((ALL_ZERO, 2))
    def test_rational_closures(self, case):
        model, height = case
        subs = enumerate_closures(model, height)
        assert list(subs) == sorted(subs, key=lambda s: (s.dim, s.basis))
        _check_span_contains(model, (*subs, model.full_subgroup()))

    @settings(max_examples=20, deadline=None)
    @given(models_with_lattice())
    def test_symbolic_closures(self, case):
        model, rows = case
        subs = enumerate_closures(model, 1)
        assert list(subs) == sorted(subs, key=lambda s: (s.dim, s.basis))
        _check_span_contains(model, (*subs, closure(model, rows), model.full_subgroup()))


class TestOneClosureStep:
    """Each vector is reduced once, and the walk closes its grown echelon
    with the closure of the model's ring, on Q and on Q[t] alike."""

    @pytest.mark.parametrize("model, close", [
        (rational_model(3, [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)], (2,) * 4),
         "_rational_closure"),
        (build_model(ModelConfig(
            n=3,
            generators=((1, 0, 0), ({"coeffs": {"t1": 1}}, 0, 0), (0, 1, 0), (0, 0, 1)),
            scales=(2,) * 4,
            symbols=("tau",),
        )), "_symbolic_closure"),
    ], ids=["rational", "symbolic"])
    def test_walk_closes_grown_echelons(self, monkeypatch, model, close):
        model.prefix_closure(model.l)  # the top closure, not a walk step
        inserting = []
        grown_by_walk = []
        closed = []
        real_reduce, real_insert = linalg._echelon_reduce, linalg._echelon_insert
        real_primitive, real_close = linalg.primitive, getattr(model_module, close)

        def reduce(ech, vec):
            assert not inserting, "_echelon_insert reduced its argument again"
            return real_reduce(ech, vec)

        def primitive(vector):
            assert not inserting or tuple(vector) != inserting[-1], "primitive of the remainder"
            return real_primitive(vector)

        def insert(ech, rem):
            inserting.append(rem)
            try:
                grown = real_insert(ech, rem)
            finally:
                inserting.pop()
            if sys._getframe(1).f_code is enumerate_closures.__code__:
                grown_by_walk.append(grown)
            return grown

        def closure_of(model, ech):
            closed.append(ech is grown_by_walk[-1])
            return real_close(model, ech)

        def refuse(model, ech):
            raise AssertionError("the closure of the other ring was called")

        monkeypatch.setattr(linalg, "_echelon_reduce", reduce)
        monkeypatch.setattr(linalg, "_echelon_insert", insert)
        monkeypatch.setattr(linalg, "primitive", primitive)
        monkeypatch.setattr(model_module, close, closure_of)
        other = {"_rational_closure", "_symbolic_closure"} - {close}
        monkeypatch.setattr(model_module, other.pop(), refuse)
        subs = enumerate_closures(model, 1)
        # every closure the walk ran was handed the echelon it had just grown
        assert closed and all(closed)
        monkeypatch.undo()
        model._cache.clear()
        if model.m:
            assert _as_tuples(subs) == _as_tuples(_old_enumerate_closures_symbolic(model, 1))
        else:
            assert _as_tuples(subs) == _as_tuples(_old_enumerate_closures_rational(model, 1))


def _check_profiles(model, subgroups):
    for sub in subgroups:
        assert rank_profile(model, sub) == oracles.rank_profile(model, sub)


class TestRankProfileCountsPivots:
    """`rank_profile` counts the pivots of the column-reversed key against
    one elimination of each lattice's column-reversed rows."""

    @settings(max_examples=60, deadline=None)
    @given(rational_enumeration_cases())
    @example((PLANE_IMAGES, 2))
    @example((ONE_NONZERO, 2))
    @example((ALL_ZERO, 2))
    @example((NO_GENERATORS, 2))
    def test_rational_closures(self, case):
        # every closure, each rebuilt from its points by the oracle (through
        # `Subgroup.of_lattice`), the zero subgroup and G
        model, height = case
        subs = enumerate_closures(model, height)
        rebuilt = [oracles.subgroup(model, sub.span) for sub in subs]
        _check_profiles(model, (*subs, *rebuilt, model.zero_subgroup(), model.full_subgroup()))

    @settings(max_examples=20, deadline=None)
    @given(models_with_lattice(symbols=(1, 2)))
    @example((SWALLOWING, [(1, 0, 0)]))
    @example(growth_model(2, 3))
    def test_symbolic_closures(self, case):
        # one and two symbols: the height-1 closures, the closure of the
        # drawn rows and the oracle's, the zero subgroup and G
        model, rows = case
        subs = (
            *enumerate_closures(model, 1),
            closure(model, rows),
            oracles.closure(model, rows),
            model.zero_subgroup(),
            model.full_subgroup(),
        )
        _check_profiles(model, subs)

    def test_closure_larger_than_its_saturation(self):
        sub = closure(SWALLOWING, [(1, 0, 0)])
        assert sub.coeff.rows == ((1, 0, 0), (0, 1, 0))
        assert rank_profile(SWALLOWING, sub).gamma_ranks == (1, 2, 2)
        _check_profiles(SWALLOWING, [sub, oracles.closure(SWALLOWING, [(1, 0, 0)])])


@st.composite
def integer_spans(draw):
    """l <= 5 and up to l + 1 integer rows of width l, entries in [-6, 6]."""
    l = draw(st.integers(1, 5))
    return l, draw(st.lists(st.tuples(*[st.integers(-6, 6)] * l), max_size=l + 1))


class TestLatticeFromReversedKey:
    @settings(max_examples=150, deadline=None)
    @given(integer_spans())
    # the reversed rows (2, 1) and (4, 0, 3) have pivot entries 2 and 4: the
    # saturation takes the annihilator route
    @example((2, [(1, 2)]))
    @example((3, [(3, 0, 4), (0, 1, 0)]))
    def test_coeff_is_the_saturation_of_the_first_pivot_echelon(self, case):
        # the lattice read back from the key equals the saturation of the
        # echelon of the same span in coefficient order
        l, rows = case
        model = rational_model(1, [(1,)] * l, (2,) * l)
        key = linalg._echelon(row[::-1] for row in rows)
        sub = Subgroup(len(key), key, model)
        assert sub.coeff.rows == linalg._saturation(linalg._echelon(rows), l)

    def test_repr_prints_rows_in_coefficient_order(self):
        model = rational_model(1, [(1,)] * 3, (2,) * 3)
        sub = Subgroup(1, linalg._echelon([(0, 1, 2)[::-1]]), model)
        assert repr(sub) == "Subgroup(dim=1, basis=[[0, 1, 2]])"


class TestRankProfileRunsNoElimination:
    """Rank profiles are pivot counts: no echelon is built, reduced or grown
    while they are read, on Q and on Q[t] alike."""

    @pytest.mark.parametrize("model", [
        rational_model(3, [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)], (2,) * 4),
        build_model(ModelConfig(
            n=3,
            generators=((1, 0, 0), ({"coeffs": {"t1": 1}}, 0, 0), (0, 1, 0), (0, 0, 1)),
            scales=(2,) * 4,
            symbols=("tau",),
        )),
    ], ids=["rational", "symbolic"])
    def test_no_echelon_call(self, monkeypatch, model):
        model._cache.clear()
        subs = (*enumerate_closures(model, 1), model.full_subgroup(), closure(model, [(1, 0, 0, 0)]))
        expected = [oracles.rank_profile(model, sub) for sub in subs]

        def refuse(*args):
            raise AssertionError("rank_profile ran an elimination")

        for name in ("_echelon", "_echelon_reduce", "_echelon_insert"):
            monkeypatch.setattr(linalg, name, refuse)
        # the kernel's pivot counts are first read here, under the guard
        profiles = [rank_profile(model, sub) for sub in subs]
        monkeypatch.undo()
        assert profiles == expected
