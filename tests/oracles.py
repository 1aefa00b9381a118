"""Reference eliminations the tests compare the library against.

Fraction Gauss-Jordan elimination (`rref`) gives the RREF over Q, and the
rank and the canonical right kernel over Q are read off it, independently
of the library's integer echelon.  Fraction-free (Bareiss) elimination
over Q[t1..tm] gives the rank and the right kernel of a matrix of `Poly`s,
and `subgroup` closes a set of points from that kernel: the closure over
Q(t) the library computes by integer specialization in
`model._symbolic_closure`.  `rank` and `nullspace` take either ring.

The integer lattice kernels the library had before it computed left
kernels from one HNF of [A | I] are kept here too: `primitive`, `lead`,
`hnf_transform` (the HNF with its unimodular transform), and `hnf` and
`left_kernel` built on it.  So is the reduction of box tuples modulo the
relation lattice one tuple at a time, `first_witnesses`, that
`gamma._first_witnesses` replaced by column-wise chunks, and the value of a
section at a Fraction point, `evaluate_section`, against which the locus
tests check the integer evaluation.
"""

from fractions import Fraction
from functools import reduce
from math import gcd
from operator import add, mul

from slopechain.model import Subgroup, Sublattice, _relations
from slopechain.polys import Poly


def _is_poly(rows):
    return any(isinstance(e, Poly) for row in rows for e in row)


def rref(rows, ncols):
    """Fraction Gauss-Jordan elimination: (RREF rows, pivot columns)."""
    work = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(work)):
            if work[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = 1 / work[r][c]
        work[r] = [x * inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    return [tuple(row) for row in work[:r]], tuple(pivots)


def rat_rank(rows, ncols) -> int:
    return len(rref(rows, ncols)[1])


def rank(rows) -> int:
    """Rank over the fraction field of the entry ring (Q or Q[t1..tm])."""
    rows = list(rows)
    if not rows:
        return 0
    if _is_poly(rows):
        return poly_rank(rows)
    return rat_rank(rows, len(rows[0]))


def nullspace(rows, ncols):
    """Right kernel basis over Q[t1..tm], or the canonical one over Q read off
    `rref`: one vector per free column, entry 1 there and minus the RREF
    entries of that column at the pivots."""
    if _is_poly(rows):
        return poly_nullspace(rows)
    reduced, pivots = rref(rows, ncols)
    basis = []
    for free in sorted(set(range(ncols)) - set(pivots)):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row, c in zip(reduced, pivots):
            vec[c] = -row[free]
        basis.append(tuple(vec))
    return basis


def _poly_entry(x) -> Poly:
    return x if isinstance(x, Poly) else Poly.const(x, 0)


def _bareiss(rows):
    """Fraction-free elimination.  Returns (echelon rows, pivot (row,col) list).

    Pivot choice is the first row with a nonzero entry in the current column,
    which makes the result deterministic.
    """
    work = [[_poly_entry(e) for e in row] for row in rows]
    m = len(work)
    ncols = len(work[0]) if m else 0
    pivots = []
    prev = Poly.const(1, 0)
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, m):
            if not work[i][c].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        piv = work[r][c]
        for i in range(r + 1, m):
            for j in range(c + 1, ncols):
                num = piv * work[i][j] - work[i][c] * work[r][j]
                work[i][j] = num.exact_div(prev)
            work[i][c] = Poly()
        pivots.append((r, c))
        prev = piv
        r += 1
    return work, pivots


def poly_rank(rows) -> int:
    return len(_bareiss(rows)[1])


def poly_nullspace(rows):
    """Basis of the right kernel of a polynomial matrix, one vector per free
    column, by fraction-free back substitution on the Bareiss echelon.

    The free entry is the last Bareiss pivot, the determinant of the pivot
    block, so by Cramer's rule every pivot entry is a polynomial and each
    back-substitution division is exact; the last pivot row needs none, its
    pivot being that determinant.  Each vector is checked to annihilate
    every row.
    """
    rows = [[_poly_entry(e) for e in row] for row in rows]
    if not rows:
        return []
    ncols = len(rows[0])
    echelon, pivots = _bareiss(rows)
    pivot_cols = {c for _, c in pivots}
    det = echelon[pivots[-1][0]][pivots[-1][1]] if pivots else Poly.const(1, 0)
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        vec = [Poly() for _ in range(ncols)]
        vec[free] = det
        if pivots:
            r, c = pivots[-1]
            vec[c] = -echelon[r][free]
        for r, c in reversed(pivots[:-1]):
            acc = Poly()
            for e, v in zip(echelon[r][c + 1:], vec[c + 1:]):
                if not (e.is_zero() or v.is_zero()):
                    acc = acc + e * v
            vec[c] = (-acc).exact_div(echelon[r][c])
        for row in rows:
            acc = Poly()
            for e, v in zip(row, vec):
                acc = acc + e * v
            assert acc.is_zero(), "poly_nullspace produced a non-kernel vector"
        basis.append(tuple(vec))
    return basis


def subgroup(model, points) -> Subgroup:
    """The subgroup spanned by `points` (over Q or Q[t1..tm]), from one
    elimination: its dimension is n minus the number of kernel directions of
    the points, and a coefficient vector lands in it exactly when its image is
    annihilated by every kernel direction, which makes the coefficient lattice
    the relations among the generators' pairings with those directions."""
    kernel_dirs = nullspace(points, model.n)
    if not kernel_dirs:
        return model.full_subgroup()
    if len(kernel_dirs) == model.n:
        return model.zero_subgroup()
    coeff = _relations(
        [[reduce(add, map(mul, gen, w)) for w in kernel_dirs] for gen in model.generators]
    )
    return Subgroup(model.n - len(kernel_dirs), Sublattice(model.l, coeff), model)


def closure(model, rows) -> Subgroup:
    """The closure of the integer coefficient `rows`, by `subgroup` of their
    images."""
    return subgroup(model, [model.point_of(r) for r in rows])


def lead(row):
    return next(j for j, x in enumerate(row) if x)


def primitive(vector):
    """Divide out the content; first nonzero entry made positive."""
    g = 0
    for x in vector:
        g = gcd(g, abs(int(x)))
    if g == 0:
        return tuple(0 for _ in vector)
    vec = [int(x) // g for x in vector]
    for x in vec:
        if x:
            if x < 0:
                vec = [-y for y in vec]
            break
    return tuple(vec)


def _ident(k):
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def hnf_transform(rows, ncols):
    """(H, U) with U unimodular, U*A = H, H in row echelon with positive
    pivots and reduced entries above them.  Zero rows of H sit at the bottom;
    the matching rows of U span the left kernel of A."""
    work = [list(map(int, row)) for row in rows]
    m = len(work)
    unimod = _ident(m)
    r = 0
    for c in range(ncols):
        while True:
            nonzero = [i for i in range(r, m) if work[i][c]]
            if not nonzero:
                break
            i0 = min(nonzero, key=lambda i: (abs(work[i][c]), i))
            if i0 != r:
                work[r], work[i0] = work[i0], work[r]
                unimod[r], unimod[i0] = unimod[i0], unimod[r]
            done = True
            for i in range(r + 1, m):
                if work[i][c]:
                    q = work[i][c] // work[r][c]
                    work[i] = [a - q * b for a, b in zip(work[i], work[r])]
                    unimod[i] = [a - q * b for a, b in zip(unimod[i], unimod[r])]
                    if work[i][c]:
                        done = False
            if done:
                break
        if r < m and work[r][c]:
            if work[r][c] < 0:
                work[r] = [-x for x in work[r]]
                unimod[r] = [-x for x in unimod[r]]
            for i in range(r):
                q = work[i][c] // work[r][c]
                if q:
                    work[i] = [a - q * b for a, b in zip(work[i], work[r])]
                    unimod[i] = [a - q * b for a, b in zip(unimod[i], unimod[r])]
            r += 1
    return [tuple(row) for row in work], [tuple(row) for row in unimod]


def hnf(rows, ncols):
    """Canonical row-style Hermite normal form; zero rows dropped."""
    h, _ = hnf_transform(rows, ncols)
    return tuple(row for row in h if any(row))


def left_kernel(rows, ncols):
    """HNF basis of {v in Z^m : v A = 0}, from the unimodular transform: the
    rows of U that map to zero rows of H, reduced to HNF."""
    m = len(rows)
    h, u = hnf_transform(rows, ncols)
    kernel_rows = [u[i] for i in range(m) if not any(h[i])]
    return hnf(kernel_rows, m)


def first_witnesses(model, witnesses) -> dict:
    """{canonical representative mod iota^{-1}(0): first witness reducing to
    it}, in the order of first occurrence, one `Sublattice.reduce` per
    tuple."""
    reduce = model.kernel_lattice().reduce
    seen = {}
    for witness in witnesses:
        rep = reduce(witness)
        if rep not in seen:
            seen[rep] = witness
    return seen


def evaluate_section(basis, coeffs, point) -> Fraction:
    """The section with `coeffs` on the monomial `basis`, evaluated at the
    Fraction point term by term."""
    total = Fraction(0)
    for c, alpha in zip(coeffs, basis.exponents):
        if not c:
            continue
        term = c
        for x, a in zip(point, alpha):
            if a:
                term *= x ** a
        total += term
    return total
