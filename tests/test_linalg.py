import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from slopechain import Sublattice, linalg
from slopechain.polys import Poly


def P(c):
    return Poly.const(c, 1)


T = Poly.symbol(1, 1)


class TestRank:
    def test_identity(self):
        assert oracles.rank([[1, 0], [0, 1]]) == 2

    def test_proportional_rows_over_symbol_field(self):
        # rows (1, t) and (2, 2t)
        m = [[P(1), T], [P(2), T * 2]]
        assert oracles.rank(m) == 1

    def test_symbolic_full_rank(self):
        # oracle: the 2x2 determinant 1 - t^2 is a nonzero polynomial
        a, b, c, d = P(1), T, T, P(1)
        det = a * d - b * c
        assert not det.is_zero()
        assert oracles.rank([[a, b], [c, d]]) == 2

    def test_rank_equals_transpose_rank(self):
        rng = random.Random(11)
        for _ in range(25):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            m = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
                 for _ in range(rows)]
            mt = [[m[i][j] for i in range(rows)] for j in range(cols)]
            assert oracles.rank(m) == oracles.rank(mt)

    def test_rank_plus_nullity(self):
        rng = random.Random(12)
        for _ in range(25):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            m = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
            kernel = linalg._integer_kernel(linalg._echelon(m), cols)
            assert oracles.rank(m) + len(kernel) == cols


class TestRatRref:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_fraction_gauss_jordan(self, data):
        # zero rows, repeated rows, zero columns and large denominators; tall
        # matrices (up to 12 rows over at most 4 columns) often reach full
        # column rank before their last row
        ncols = data.draw(st.integers(0, 6))
        nrows = data.draw(st.integers(0, 12 if ncols <= 4 else 6))
        entry = st.one_of(
            st.just(F(0)),
            st.integers(-9, 9).map(F),
            st.fractions(-100, 100, max_denominator=10 ** 6),
        )
        m = [data.draw(st.lists(entry, min_size=ncols, max_size=ncols))
             for _ in range(nrows)]
        for i in range(nrows):
            kind = data.draw(st.sampled_from(["keep", "keep", "zero", "repeat"]))
            if kind == "zero":
                m[i] = [F(0)] * ncols
            elif kind == "repeat":
                m[i] = list(m[data.draw(st.integers(0, nrows - 1))])
        for c in range(ncols):
            if data.draw(st.integers(0, 3)) == 0:
                for row in m:
                    row[c] = F(0)
        ech, pivots = linalg.rat_rref(map(linalg._cleared, m), ncols)
        # a canonical integer echelon: primitive integer rows, positive leads
        for row, c in zip(ech, pivots):
            assert all(type(x) is int for x in row)
            assert linalg.primitive(row) == row and linalg._lead(row) == c
        view = [tuple(F(x, row[c]) for x in row) for row, c in zip(ech, pivots)]
        assert (view, pivots) == oracles.rref(m, ncols)

    @pytest.mark.parametrize("ncols", [0, 1, 3])
    def test_stops_at_full_column_rank(self, ncols):
        # the rows after the one that fills the rank are never read
        rows = [[2, 4, 0], [1, 2, 0], [0, 3, 2], [1, 0, 10]]

        def stream():
            yield from (row[:ncols] for row in rows)
            raise AssertionError("a row was read after the rank reached ncols")

        identity = tuple(tuple(int(i == j) for j in range(ncols)) for i in range(ncols))
        assert linalg.rat_rref(stream(), ncols) == (identity, tuple(range(ncols)))


class TestNullspace:
    """The right kernel over Q, read in integers off the echelon: one vector
    per free column."""

    @staticmethod
    def kernel(rows, ncols):
        return linalg._integer_kernel(linalg._echelon(rows), ncols)

    def test_single_row(self):
        assert self.kernel([[1, 1]], 2) == [[-1, 1]]

    def test_identity_empty(self):
        assert self.kernel([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3) == []

    def test_multiply_back(self):
        m = [[1, 2, 3], [2, 4, 6]]
        basis = self.kernel(m, 3)
        assert len(basis) == 2
        for vec in basis:
            for row in m:
                assert sum(a * b for a, b in zip(row, vec)) == 0

    def test_deterministic(self):
        m = [[1, 2, 3, 5], [0, 1, 1, 1]]
        assert self.kernel(m, 4) == self.kernel(m, 4)


class TestPolyNullspace:
    def test_annihilates(self):
        m = [[P(1), T, P(0)], [T, T * T, P(0)]]
        basis = oracles.poly_nullspace(m)
        assert len(basis) == 2
        for vec in basis:
            for row in m:
                acc = Poly()
                for e, v in zip(row, vec):
                    acc = acc + e * v
                assert acc.is_zero()

    def test_dependent_row_before_pivot_row(self):
        # Bareiss swaps the zero row below the pivot row; the kernel is the
        # line spanned by (0, 1), never the zero vector
        (vec,) = oracles.poly_nullspace([[0, 0], [1, 0]])
        assert vec[0].is_zero() and not vec[1].is_zero()

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_kernel_basis_properties(self, data):
        # entries a + b*t1; zero rows and zero leading columns force swaps
        nrows = data.draw(st.integers(1, 4))
        ncols = data.draw(st.integers(1, 4))
        affine = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
        m = []
        for _ in range(nrows):
            entries = data.draw(st.lists(affine, min_size=ncols, max_size=ncols))
            row = [P(a) + T * b for a, b in entries]
            if data.draw(st.booleans()):
                row[0] = Poly()
            if data.draw(st.integers(0, 4)) == 0:
                row = [Poly() for _ in range(ncols)]
            m.append(row)
        basis = oracles.poly_nullspace(m)
        assert len(basis) == ncols - oracles.poly_rank(m)
        for vec in basis:
            assert any(not v.is_zero() for v in vec)
            for row in m:
                acc = Poly()
                for e, v in zip(row, vec):
                    acc = acc + e * v
                assert acc.is_zero()

    def test_rank_matches_random_substitution(self):
        # probabilistic cross-check: substitute the symbol by 20 random
        # rationals; the max rational rank must equal the symbolic rank
        rng = random.Random(13)
        for _ in range(12):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            m = [
                [P(rng.randint(-2, 2)) + T * rng.randint(-2, 2) for _ in range(cols)]
                for _ in range(rows)
            ]
            symbolic = oracles.poly_rank(m)
            best = 0
            for _ in range(20):
                val = F(rng.randint(-100, 100), rng.randint(1, 40))
                sub = [[e.evaluate((val,)) for e in row] for row in m]
                best = max(best, oracles.rat_rank(sub, cols))
            assert symbolic == best


class TestHNF:
    def test_already_hnf(self):
        assert linalg.hnf([[2, 0], [0, 3]], 2) == ((2, 0), (0, 3))

    def test_row_reduction(self):
        # by hand: (1,1), (1,-1) -> (1,1), (0,2); the index-2 sublattice
        assert linalg.hnf([[1, 1], [1, -1]], 2) == ((1, 1), (0, 2))

    def test_zero_rows_dropped(self):
        assert linalg.hnf([[0, 0]], 2) == ()

    def test_idempotent_and_lattice_preserving(self):
        rng = random.Random(14)
        for _ in range(30):
            cols = rng.randint(1, 4)
            rows = [
                [rng.randint(-5, 5) for _ in range(cols)]
                for _ in range(rng.randint(1, 4))
            ]
            h = linalg.hnf(rows, cols)
            assert linalg.hnf(h, cols) == h
            for row in rows:
                assert Sublattice(cols, h).contains(row)
            for row in h:
                assert _in_integer_span(rows, row, cols)

    def test_index_preserved(self):
        # lattice index oracle: |det| of a full-rank basis
        h = linalg.hnf([[1, 1], [1, -1]], 2)
        det = h[0][0] * h[1][1] - h[0][1] * h[1][0]
        assert abs(det) == abs(1 * (-1) - 1 * 1)


def _in_integer_span(rows, target, cols):
    """Brute-force membership of target in the row lattice (HNF oracle-free:
    solve with the transform)."""
    h, u = oracles.hnf_transform(rows, cols)
    vec = list(target)
    for i, row in enumerate(h):
        piv = next((j for j, x in enumerate(row) if x), None)
        if piv is None:
            continue
        if vec[piv] % row[piv] == 0:
            q = vec[piv] // row[piv]
            vec = [a - q * b for a, b in zip(vec, row)]
    return not any(vec)


class TestLeftKernel:
    def test_annihilates_and_counts(self):
        rng = random.Random(17)
        for _ in range(25):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            m = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
            kernel = linalg.left_kernel(m, cols)
            for vec in kernel:
                combo = [
                    sum(vec[i] * m[i][j] for i in range(rows)) for j in range(cols)
                ]
                assert not any(combo)
            assert len(kernel) == rows - oracles.rank([[F(x) for x in r] for r in m])


def _draw_integer_matrix(data):
    """0..6 rows by 0..6 columns, with zero rows, repeated rows and zero
    columns, entries up to 10^9 in size."""
    nrows = data.draw(st.integers(0, 6))
    ncols = data.draw(st.integers(0, 6))
    entry = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-10 ** 9, 10 ** 9))
    m = [data.draw(st.lists(entry, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    for i in range(nrows):
        kind = data.draw(st.sampled_from(["keep", "keep", "zero", "repeat"]))
        if kind == "zero":
            m[i] = [0] * ncols
        elif kind == "repeat":
            m[i] = list(m[data.draw(st.integers(0, nrows - 1))])
    for c in range(ncols):
        if data.draw(st.integers(0, 3)) == 0:
            for row in m:
                row[c] = 0
    return m, ncols


@st.composite
def _echelons(draw):
    """(canonical integer echelon, ncols): rows with leads 1..4 at increasing
    pivot columns, zero in the other pivot columns, made canonical by
    `_echelon` as (pivot, row) pairs, so both unit and non-unit pivots
    occur."""
    ncols = draw(st.integers(1, 6))
    pivots = sorted(draw(st.sets(st.integers(0, ncols - 1), max_size=ncols)))
    rows = []
    for c in pivots:
        row = [0] * ncols
        row[c] = draw(st.sampled_from([1, 1, 2, 3, 4]))
        for j in range(c + 1, ncols):
            if j not in pivots:
                row[j] = draw(st.integers(-6, 6))
        rows.append(row)
    ech = linalg._echelon(rows)
    assert [c for c, _ in ech] == pivots
    assert linalg._echelon(row for _, row in ech) == ech
    return ech, ncols


class TestCarriedPivots:
    @settings(max_examples=300, deadline=None)
    @given(_echelons(), st.data())
    def test_pivots_are_the_leads(self, case, data):
        # an echelon grown by more rows still carries the lead of each row as
        # its pivot, in increasing order, and clears it in the other rows;
        # rat_rref is that echelon split into rows and pivots
        start, ncols = case
        row = st.lists(st.integers(-9, 9), min_size=ncols, max_size=ncols)
        rows = [r for _, r in start] + data.draw(st.lists(row, max_size=4))
        ech = linalg._echelon(rows)
        pivots = tuple(c for c, _ in ech)
        assert pivots == tuple(sorted(set(pivots))) == oracles.rref(rows, ncols)[1]
        for c, r in ech:
            assert c == oracles.lead(r)
            assert [other[c] != 0 for _, other in ech] == [other is r for _, other in ech]
        assert linalg.rat_rref(rows, ncols) == (tuple(r for _, r in ech), pivots)

    @pytest.mark.parametrize("ncols", [0, 1, 3])
    def test_stops_at_full_rank(self, ncols):
        # the rows after the one that fills the rank are never read
        rows = [[2, 4, 0], [1, 2, 0], [0, 3, 2], [1, 0, 10]]

        def stream():
            yield from (row[:ncols] for row in rows)
            raise AssertionError("a row was read after the rank reached the width")

        identity = tuple((i, tuple(int(i == j) for j in range(ncols))) for i in range(ncols))
        assert linalg._echelon(stream()) == identity

    @settings(max_examples=300, deadline=None)
    @given(_echelons(), st.data())
    def test_insert_places_the_reduced_remainder(self, case, data):
        # placing the remainder of v is growing the echelon by v, in either
        # order of the rows, and gives the Gauss-Jordan RREF scaled to
        # primitive integer rows; no remainder means v is in the span
        ech, ncols = case
        v = data.draw(st.lists(st.integers(-9, 9), min_size=ncols, max_size=ncols))
        rows = [row for _, row in ech]
        rem = linalg._echelon_reduce(ech, v)
        if rem is None:
            assert linalg._echelon(rows + [v]) == linalg._echelon([v] + rows) == ech
            return
        grown = linalg._echelon_insert(ech, rem)
        assert grown == linalg._echelon(rows + [v]) == linalg._echelon([v] + rows)
        view = [tuple(F(x, row[c]) for x in row) for c, row in grown]
        assert (view, tuple(c for c, _ in grown)) == oracles.rref(rows + [v], ncols)


class TestIntegerKernelsAgainstOracles:
    """The lattice kernels against the unimodular-transform references of
    `oracles`."""

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_equal_oracles(self, data):
        m, ncols = _draw_integer_matrix(data)
        assert linalg.hnf(m, ncols) == oracles.hnf(m, ncols)
        assert linalg.left_kernel(m, ncols) == oracles.left_kernel(m, ncols)
        for row in m:
            assert linalg.primitive(row) == oracles.primitive(row)
            if any(row):
                assert linalg._lead(row) == oracles.lead(row)

    @settings(max_examples=300, deadline=None)
    @given(_echelons())
    @example(case=(((0, (1, 0, 2)), (1, (0, 1, -3))), 3))
    @example(case=(((0, (2, 1, 0)), (2, (0, 0, 1))), 3))
    @example(case=(((0, (3, 0, 1, 2)),), 4))
    @example(case=((), 2))
    def test_saturation_equals_annihilator_of_kernel(self, case):
        ech, ncols = case
        kernel = linalg._integer_kernel(ech, ncols)
        transposed = [[w[j] for w in kernel] for j in range(ncols)]
        reference = oracles.left_kernel(transposed, len(kernel))
        assert linalg._saturation(ech, ncols) == linalg._annihilator(kernel, ncols) == reference

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_prefix_kernels_equal_fraction_reference(self, data):
        # on every column prefix, the integer kernel of the echelon is the
        # Gauss-Jordan kernel (1 at each free column) times its free entry
        m, ncols = _draw_integer_matrix(data)
        ech = linalg._echelon(m)
        for k in range(ncols + 1):
            prefix = [row[:k] for row in m]
            reference = oracles.nullspace(prefix, k)
            free = sorted(set(range(k)) - set(oracles.rref(prefix, k)[1]))
            kernel = linalg._integer_kernel(ech, k)
            assert len(kernel) == len(reference) == len(free)
            for vec, ref, f in zip(kernel, reference, free):
                assert vec[f] > 0 and vec == [vec[f] * x for x in ref]

    def test_unit_pivots_need_no_left_kernel(self, monkeypatch):
        def refuse(rows, ncols):
            raise AssertionError("left_kernel called")

        monkeypatch.setattr(linalg, "left_kernel", refuse)
        ech = linalg._echelon([[1, 2, 0, 3], [0, 0, 1, -4]])
        assert linalg._saturation(ech, 4) == ((1, 2, 0, 3), (0, 0, 1, -4))
        # a pivot of 2 still takes the kernel route
        with pytest.raises(AssertionError, match="left_kernel called"):
            linalg._saturation(linalg._echelon([[2, 1, 0, 0]]), 4)


class TestDeterminism:
    def test_bit_identical_reruns(self):
        rows = [[3, -1, 4], [1, 5, -9], [2, 6, 5]]
        assert linalg.hnf(rows, 3) == linalg.hnf([r[:] for r in rows], 3)
