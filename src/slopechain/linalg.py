"""Exact dense linear algebra over Q, and integer row lattices.

Matrices are sequences of rows.  Rational routines share one fraction-free
integer echelon (`_echelon_insert`): rows are cleared of denominators, and
Fractions appear only when the RREF is read off the echelon.  Kernels are
read off the RREF by `_rref_kernel`, for all columns or for any prefix, and
off the echelon itself, in integers, by `_integer_kernel`.  Lattice routines
return canonical row-style Hermite normal forms (pivots positive, entries
above a pivot reduced into [0, pivot), zero rows dropped), so lattice
equality is plain tuple equality.  Everything is pure and deterministic.
"""

from __future__ import annotations

from bisect import bisect, bisect_left
from fractions import Fraction
from math import gcd, lcm


# ---------------------------------------------------------------------------
# rational matrices


def _lead(row):
    return next(j for j, x in enumerate(row) if x)


def _echelon_reduce(rows, vec):
    """The primitive remainder of an integer vector modulo a canonical integer
    echelon (its pivot columns cleared), or None if the vector lies in the
    echelon's span over Q.  Two vectors have equal remainders exactly when
    they extend the span to the same space."""
    v = list(vec)
    for row in rows:
        c = _lead(row)
        if v[c]:
            f, g = row[c], v[c]
            v = [f * a - g * b for a, b in zip(v, row)]
    return primitive(v) if any(v) else None


def _echelon_insert(rows, vec):
    """Insert an integer vector into a canonical integer echelon (scaled RREF:
    pivot columns strictly increasing, each row primitive with positive lead,
    pivot columns eliminated everywhere else).  None if dependent.

    All arithmetic is fraction-free, which is what makes exhaustive span
    enumeration affordable; it is the one elimination over Q, and rat_rref
    reads the RREF off it.
    """
    v = _echelon_reduce(rows, vec)
    if v is None:
        return None
    lead = _lead(v)
    out = []
    for row in rows:
        if row[lead]:
            f, g = v[lead], row[lead]
            row = primitive([f * a - g * b for a, b in zip(row, v)])
        out.append(row)
    # clearing column `lead` moves no other row's lead, so only v needs placing
    out.insert(bisect(out, lead, key=_lead), v)
    return tuple(out)


def _echelon(rows):
    """The canonical integer echelon of the span of integer rows."""
    ech = ()
    for row in rows:
        ech = _echelon_insert(ech, row) or ech
    return ech


def _integer_kernel(rows, ncols):
    """The right kernel of a canonical integer echelon, read off it in
    integers, one vector per free column: the vector of `_rref_kernel` scaled
    by the lcm of the pivots, so no Fraction is formed."""
    pivots = [_lead(row) for row in rows]
    scale = lcm(*(row[c] for row, c in zip(rows, pivots)))
    kernel = []
    for free in sorted(set(range(ncols)) - set(pivots)):
        vec = [0] * ncols
        vec[free] = scale
        for row, c in zip(rows, pivots):
            vec[c] = -row[free] * (scale // row[c])
        kernel.append(vec)
    return kernel


def _annihilator(vectors, ncols):
    """HNF basis of the v in Z^ncols orthogonal to every one of `vectors`."""
    return left_kernel([[w[j] for w in vectors] for j in range(ncols)], len(vectors))


def _saturation(rows, ncols):
    """HNF basis of Z^ncols cap span_Q(rows) for a canonical integer echelon:
    the integer vectors that annihilate its right kernel."""
    return _annihilator(_integer_kernel(rows, ncols), ncols)


def _cleared(row):
    scale = lcm(*(x.denominator for x in row))
    return [x.numerator * (scale // x.denominator) for x in row]


def rat_rref(rows, ncols):
    """Reduced row echelon form over Q of rows of ints or Fractions.  Returns
    (rref rows, pivot columns).

    Each row is cleared of denominators and folded into the integer echelon;
    the RREF is canonical, so dividing each echelon row by its pivot gives it.
    """
    ech = _echelon(map(_cleared, rows))
    pivots = tuple(map(_lead, ech))
    rref = [tuple(Fraction(x, row[c]) for x in row) for row, c in zip(ech, pivots)]
    return rref, pivots


def nullspace(rows, ncols):
    """Canonical basis of the right kernel {v : M v = 0} over Q, one vector
    per free column: entry 1 there, pivot entries read off the RREF."""
    return _rref_kernel(*rat_rref(rows, ncols), ncols)


def _rref_kernel(rref, pivots, ncols):
    """Canonical kernel basis of the first `ncols` columns of an RREF: one
    vector per free column, entry 1 there and minus the RREF entries of that
    column at the pivots.  The RREF of a column prefix is the RREF cut to the
    prefix (rows with a later pivot vanish), so one RREF serves every
    prefix."""
    k = bisect_left(pivots, ncols)
    pivot_set = set(pivots[:k])
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row, pc in zip(rref[:k], pivots):
            vec[pc] = -row[free]
        basis.append(tuple(vec))
    return basis


# ---------------------------------------------------------------------------
# integer row lattices


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
    """HNF basis of {v in Z^m : v A = 0} for an integer matrix A (m rows)."""
    m = len(rows)
    h, u = hnf_transform(rows, ncols)
    kernel_rows = [u[i] for i in range(m) if not any(h[i])]
    return hnf(kernel_rows, m)


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
