"""Exact dense linear algebra over Q, and integer row lattices.

Matrices are sequences of rows.  Rational routines share one fraction-free
integer echelon, (pivot column, row) pairs that carry each row's pivot:
`_echelon` folds integer rows in, each reduced once by `_echelon_reduce` and
then placed by `_echelon_insert`, until the rank is the row width, and
`rat_rref` splits it into rows and pivots.  Kernels are read off it in
integers by `_integer_kernel`, for all columns or for any prefix.  Lattice
routines return canonical row-style Hermite normal forms (pivots positive,
entries above a pivot reduced into [0, pivot), zero rows dropped), so
lattice equality is plain tuple equality.  They share one HNF routine,
`hnf`, which tracks no unimodular transform: a left kernel is read off one
HNF of [A | I], and a saturation needs none when the echelon's pivots are
all 1.
Coset representatives modulo an HNF come one vector at a time
(`lattice_reduce`) or many at once, column by column
(`lattice_reduce_columns`).  Everything is pure and deterministic.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import floordiv, mul, sub


# ---------------------------------------------------------------------------
# rational matrices


def _lead(row):
    return row.index(next(filter(None, row)))


def _echelon_reduce(ech, vec):
    """The primitive remainder of an integer vector modulo a canonical integer
    echelon (its pivot columns cleared), or None if the vector lies in the
    echelon's span over Q.  Two vectors have equal remainders exactly when
    they extend the span to the same space."""
    v = list(vec)
    for c, row in ech:
        if v[c]:
            f, g = row[c], v[c]
            v = [f * a - g * b for a, b in zip(v, row)]
    return primitive(v) if any(v) else None


def _echelon_insert(ech, rem):
    """Place a remainder that `_echelon_reduce` returned into the canonical
    integer echelon `ech`, the scaled RREF as (pivot, row) pairs: pivots
    increasing, rows primitive with positive leads, pivot columns cleared
    elsewhere.  Only the remainder's lead column is cleared in the rows.

    All arithmetic is fraction-free, which is what makes exhaustive span
    enumeration affordable; it is the one elimination over Q, and every
    kernel is read off it by `_integer_kernel`.
    """
    lead = _lead(rem)
    out = []
    for c, row in ech:
        if row[lead]:
            f, g = rem[lead], row[lead]
            row = primitive([f * a - g * b for a, b in zip(row, rem)])
        out.append((c, row))
    # clearing column `lead` moves no other row's pivot, so only rem is placed
    insort(out, (lead, rem))
    return tuple(out)


def _echelon(rows):
    """The canonical integer echelon of the span of integer rows: each row
    reduced by `_echelon_reduce`, then placed by `_echelon_insert`.  Folding
    stops once its rank is the row width, the identity: the rows after the
    one that filled the rank are never read."""
    ech = ()
    for row in rows:
        rem = _echelon_reduce(ech, row)
        if rem is not None:
            ech = _echelon_insert(ech, rem)
        if len(ech) == len(row):
            break
    return ech


def _integer_kernel(ech, ncols):
    """The right kernel of the first `ncols` columns of a canonical integer
    echelon, read off it in integers, one vector per free column: the lcm of
    the pivots there, and at each pivot minus the column's entry in that
    row times the lcm over the pivot, so no Fraction is formed.  The echelon
    of a column prefix is the echelon cut to the prefix without the rows
    whose pivot is at or past `ncols`, which come last; so one echelon
    serves every prefix."""
    ech = [(c, row) for c, row in ech if c < ncols]
    scale = lcm(*(row[c] for c, row in ech))
    kernel = []
    for free in sorted(set(range(ncols)).difference(c for c, _ in ech)):
        vec = [0] * ncols
        vec[free] = scale
        for c, row in ech:
            vec[c] = -row[free] * (scale // row[c])
        kernel.append(vec)
    return kernel


def _annihilator(vectors, ncols):
    """HNF basis of the v in Z^ncols orthogonal to every one of `vectors`."""
    return left_kernel([[w[j] for w in vectors] for j in range(ncols)], len(vectors))


def _saturation(ech, ncols):
    """HNF basis of Z^ncols cap span_Q(rows) for a canonical integer echelon:
    the integer vectors that annihilate its right kernel.

    An echelon whose pivots are all 1 is its own saturation, and already in
    HNF (its pivot columns are cleared): an integer x = sum c_i E_i in its
    span has c_i = x[p_i] at the pivot p_i of row E_i, so every c_i is an
    integer.
    """
    if all(row[c] == 1 for c, row in ech):
        return tuple(row for _, row in ech)
    return _annihilator(_integer_kernel(ech, ncols), ncols)


def _cleared(row):
    scale = lcm(*(x.denominator for x in row))
    return [x.numerator * (scale // x.denominator) for x in row]


def rat_rref(rows, ncols):
    """`_echelon` of integer rows of width `ncols`, split into (rows, pivot
    columns): each row over its pivot entry is the RREF over Q."""
    ech = _echelon(rows)
    return tuple(row for _, row in ech), tuple(c for c, _ in ech)


def _monic(vector):
    """An integer kernel vector over Q, scaled to 1 at its free column, its
    last nonzero entry."""
    d = next(filter(None, reversed(vector)))
    return tuple(Fraction(x, d) for x in vector)


# ---------------------------------------------------------------------------
# integer row lattices


def hnf(rows, ncols):
    """Canonical row-style Hermite normal form of integer rows; zero rows
    dropped.

    Column by column, the rows not yet placed that are nonzero there are
    folded into one by Euclid's algorithm on whole rows; that row, made
    positive at the column, reduces the entries of the rows placed above
    it into [0, pivot).
    """
    work = [row for row in rows if any(row)]
    basis = []
    for c in range(ncols):
        pivot = None
        rest = []
        for row in work:
            if not row[c]:
                rest.append(row)
                continue
            if pivot is None:
                pivot = row
                continue
            while row[c]:
                q = pivot[c] // row[c]
                pivot, row = row, [a - q * b for a, b in zip(pivot, row)]
            if any(row):
                rest.append(row)
        if pivot is None:
            continue
        p = pivot[c]
        if p < 0:
            pivot, p = [-x for x in pivot], -p
        for i, row in enumerate(basis):
            q = row[c] // p
            if q:
                basis[i] = [a - q * b for a, b in zip(row, pivot)]
        basis.append(pivot)
        work = rest
    return tuple(map(tuple, basis))


def left_kernel(rows, ncols):
    """HNF basis of {v in Z^m : v A = 0} for an integer matrix A (m rows).

    One HNF of [A | I_m], read off the rows whose A-part is zero.  The rows
    of [A | I_m] span {(uA, u) : u in Z^m}, so the rows of an echelon basis
    with a pivot past column ncols span its vectors (0, v), those with
    vA = 0; they are in HNF among themselves, so by the uniqueness of the
    HNF they are the HNF of the left kernel.
    """
    m = len(rows)
    stacked = []
    for i, row in enumerate(rows):
        unit = [0] * m
        unit[i] = 1
        stacked.append([*row, *unit])
    return tuple(row[ncols:] for row in hnf(stacked, ncols + m) if not any(row[:ncols]))


def lattice_reduce(hnf_rows, pivots, vector):
    """Canonical coset representative of `vector` modulo the HNF lattice
    with lead columns `pivots` (found once per lattice, `Sublattice.pivots`)."""
    vec = list(map(int, vector))
    for row, c in zip(hnf_rows, pivots):
        q = vec[c] // row[c]
        if q:
            for j in range(c, len(vec)):
                vec[j] -= q * row[j]
    return tuple(vec)


def lattice_reduce_columns(hnf_rows, pivots, columns):
    """`lattice_reduce` of many vectors at once, given as `columns` (entry j
    holds coordinate j of every vector): the same steps, each one C-level
    map over a whole column.  Returns the columns of the representatives;
    a column no step touches is returned as given."""
    columns = list(columns)
    for row, c in zip(hnf_rows, pivots):
        q = list(map(floordiv, columns[c], repeat(row[c])))
        for j in range(c, len(columns)):
            if row[j]:
                columns[j] = list(map(sub, columns[j], map(mul, q, repeat(row[j]))))
    return columns


def primitive(vector):
    """Divide out the content; first nonzero entry made positive.  The
    entries must be integers."""
    g = gcd(*vector)
    if not g:
        return tuple(vector)
    if next(filter(None, vector)) < 0:
        g = -g
    return tuple(vector) if g == 1 else tuple([x // g for x in vector])
