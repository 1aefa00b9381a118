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
tests check the integer evaluation.  `FatGrid` gives the jet ranks and the
base loci of a box with independent generators in closed form, by a proof
that runs no elimination.  `verify_candidates` is the candidate loop of
`chain.verify_chain` before the library read candidates off their Q-span
echelons: every candidate's lattice is built and the loop visits them all.
`rank_profile` reads a profile off one elimination of the lattice's
column-reversed rows (`_prefix_ranks`), where the library counts the pivots
of its key, and `contains_lattice` decides inclusion of lattices row by row.
"""

from fractions import Fraction
from functools import reduce
from itertools import product
from math import ceil, gcd
from operator import add, mul

from slopechain.chain import (
    CandidateCheck,
    _chi,
    _random_lattice_closures,
    phi_from_profile,
    phi_sign,
)
from slopechain.errors import CertificateViolation
from slopechain.model import (
    RankProfile,
    Subgroup,
    Sublattice,
    _relations,
    enumerate_closures,
)
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


def _prefix_ranks(rows, l):
    """Entry j (0 <= j <= l) is rk(L intersect Z^j x 0) for the lattice L
    spanned by the integer `rows`.

    That intersection is the kernel of cutting L to coordinates j..l-1, so its
    rank is rk L minus the rank of the cut rows.  One RREF of the
    column-reversed rows gives every cut at once: its rank is the number of
    pivots below l - j.
    """
    _, pivots = rref([row[::-1] for row in rows], l)
    return tuple(len(pivots) - sum(c < l - j for c in pivots) for j in range(l + 1))


def rank_profile(model, sub) -> RankProfile:
    """rk(Gamma_j cap H) for j = 1..l from `_prefix_ranks` of H's lattice
    minus that of iota^{-1}(0), with no reading of `sub.basis`."""
    prefix = _prefix_ranks(sub.coeff.rows, model.l)
    kern = _prefix_ranks(model.kernel_lattice().rows, model.l)
    return RankProfile(sub.dim, tuple(a - k for a, k in zip(prefix[1:], kern[1:])))


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
    return Subgroup.of_lattice(model.n - len(kernel_dirs), Sublattice(model.l, coeff), model)


def closure(model, rows) -> Subgroup:
    """The closure of the integer coefficient `rows`, by `subgroup` of their
    images."""
    return subgroup(model, [model.point_of(r) for r in rows])


def contains_lattice(big, small) -> bool:
    """Whether the Sublattice `big` contains every row of `small`."""
    return all(big.contains(row) for row in small.rows)


def verify_candidates(model, chain, options):
    """The eager candidate loop of `verify_chain`: every candidate of the
    pool saturated, sorted by (dim, HNF rows) and checked in that order, its
    rank profile read off its lattice and inclusion decided by lattice
    membership.  Raises the first CertificateViolation the loop meets, else
    returns (candidates checked, equality witnesses, candidate checks)."""
    pool = dict.fromkeys([
        *enumerate_closures(model, options.height),
        *_random_lattice_closures(model, options),
        *chain.subgroups,
        model.full_subgroup(),
    ])

    def inside(big, small):
        return small.dim <= big.dim and contains_lattice(big.coeff, small.coeff)

    chain_profiles = [rank_profile(model, s) for s in chain.subgroups]
    checks = []
    equality_witnesses = []
    for cand in sorted(pool, key=lambda s: (s.dim, s.coeff.rows)):
        lattice = cand.coeff.rows
        profile = rank_profile(model, cand)
        phi_k = phi_from_profile(profile)
        chis = [_chi(cand.dim, phi_k, lo, hi) for lo, hi in zip(chain.nodes, chain.nodes[1:])]
        signs = tuple(phi_sign(model.scales, chi) for chi in chis)
        equal_steps = []
        for i, sign in enumerate(signs):
            lo, hi = chain.nodes[i], chain.nodes[i + 1]
            if sign > 0:
                raise CertificateViolation("chi_positive", "", step=i, witness=lattice)
            if sign == 0:
                equal_steps.append(i)
                if not (inside(cand, lo.subgroup) and inside(hi.subgroup, cand)):
                    raise CertificateViolation("equality_sandwich", "", step=i, witness=lattice)
                equality_witnesses.append((i, lattice))
        for idx, (member, cp) in enumerate(zip(chain.subgroups, chain_profiles)):
            if profile == cp and (cand.dim, lattice) != (member.dim, member.coeff.rows):
                raise CertificateViolation("psi_injectivity", "", step=idx, witness=lattice)
        checks.append(CandidateCheck(
            lattice=lattice,
            dim=cand.dim,
            gamma_ranks=profile.gamma_ranks,
            chi_exponents=tuple(chi.exponents for chi in chis),
            chi_signs=signs,
            equality_steps=tuple(equal_steps),
        ))
    return len(pool), tuple(equality_witnesses), tuple(checks)


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


class FatGrid:
    """Jet ranks and base loci of Gamma(S) for a rational model whose
    generators bear no relation, in closed form.

    Complete the generators gamma_1..gamma_l by unit vectors to a basis M of
    Q^n (`basis`) and set y = M^-1 x (`coordinates`).  Gamma(S) is the grid
    C_1 x ... x C_n in y, where C_j = {-b_j..b_j}, b_j = ceil(S_j) - 1, for
    j <= l and C_j = {0} for j > l; let d_j = |C_j| and
    f_j = prod_{c in C_j} (y_j - c), monic of degree d_j in y_j alone, and
    I = (f_1, ..., f_n), the ideal of the grid.  The jet matrix of order T
    and degree D at the grid has for kernel the polynomials of degree <= D
    in I^(T), the intersection of the m_p^T over the grid points p.

    Step 1: I^(T) = I^T.  B = Q[y] is free over A = Q[f_1..f_n] (a
    polynomial ring, since f_j is monic in y_j) with basis the y^r,
    0 <= r_j < d_j.  So B / I^T = B / (f)^T B is free over A / (f)^T, of
    dimension N * C(n + T - 1, n) over Q, N = prod d_j the number of grid
    points.  By the Chinese remainder theorem B / I^(T) is the product of
    the B / m_p^T, of the same dimension.  I^T lies in I^(T), since I lies
    in every m_p; so they are equal.  (Powers of a complete intersection
    are unmixed: Matsumura, Commutative Ring Theory, section 17.)

    Step 2: the nullity.  Write gamma in N^n as a d + r with
    a_j = floor(gamma_j / d_j) and r_j < d_j, and let g_gamma = f^a y^r.  By
    step 1 and freeness, the g_gamma are a basis of B and those with
    |a| >= T a basis of I^T.  The leading form of g_gamma is the monomial
    y^gamma, so a combination of distinct g_gamma has the degree of its
    largest gamma: the part of degree <= D of I^T has the basis of the
    g_gamma with |gamma| <= D and sum_j floor(gamma_j / d_j) >= T.  This
    count is the nullity (`nullity`); the rank is C(n + D, n) minus it.

    Step 3: the base locus.  x lies in it at degree D when every g_gamma
    above vanishes at x.  Let J(x) = {j : y_j not in C_j}, where f_j(y)
    does not vanish.  Taking r = 0, some g_gamma does not vanish at x
    exactly when some a with |a| >= T, support in J(x) and a.d <= D
    exists; the least a.d is T min_{j in J(x)} d_j.  So x lies in the base
    locus exactly when J(x) is empty or D < T min_{j in J(x)} d_j
    (`inside`).
    """

    def __init__(self, model):
        n = model.n
        gens = [tuple(map(Fraction, g)) for g in model.generators]
        pivots = rref(gens, n)[1] if gens else ()
        units = [tuple(Fraction(int(i == c)) for i in range(n))
                 for c in range(n) if c not in pivots]
        self.basis = gens + units
        augmented = [
            [*(b[i] for b in self.basis), *(Fraction(int(i == k)) for k in range(n))]
            for i in range(n)
        ]
        reduced, pivots = rref(augmented, 2 * n)
        assert pivots == tuple(range(n)), "the generators are dependent"
        self.inverse = [row[n:] for row in reduced]
        self.bounds = [ceil(s) - 1 for s in model.scales] + [0] * len(units)
        self.widths = [2 * b + 1 for b in self.bounds]

    def point(self, y):
        """x = M y."""
        return tuple(sum(c * b[i] for c, b in zip(y, self.basis)) for i in range(len(y)))

    def coordinates(self, x):
        """y = M^-1 x."""
        return tuple(sum(a * Fraction(c) for a, c in zip(row, x)) for row in self.inverse)

    def nullity(self, order, degree):
        return sum(
            1 for gamma in product(range(degree + 1), repeat=len(self.widths))
            if sum(gamma) <= degree
            and sum(g // d for g, d in zip(gamma, self.widths)) >= order
        )

    def inside(self, order, degree, x):
        outside = [
            d for y, b, d in zip(self.coordinates(x), self.bounds, self.widths)
            if y.denominator != 1 or abs(y) > b
        ]
        return not outside or degree < order * min(outside)
