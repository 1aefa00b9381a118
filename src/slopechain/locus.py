"""Jet evaluation and base-locus probing on the affine chart of P^n.

Sections of degree D are polynomials of total degree <= D in the chart
coordinates (graded-lex monomial basis).  Vanishing to order T at a point is
imposed through Hasse-normalized derivative rows: the row for (point w,
multi-index s) has entry binom(a, s) * w^(a-s) at monomial a.  Binomials
rather than falling factorials keep the integers small; over characteristic
zero the vanishing conditions are the same.

Rows are integers.  A point is written p/q, with q the lcm of its coordinate
denominators, and the row for (p/q, s) is the Hasse row times q^(D-|s|):
binom(a, s) * p^(a-s) * q^(D-|a|) at monomial a, the Hasse derivative of the
homogenized monomial q^(D-|a|) x^a at the integer point (q, p).  A nonzero
multiple of a row imposes the same condition.

The graded basis of degree D is a prefix of the basis of any larger degree
E, and the degree-E rows cut to that prefix are the degree-D rows times
q^(E-D).  The echelon of a column prefix is the prefix of the echelon, so
one integer elimination at the largest degree gives the rank and the
canonical kernel of every degree of a sweep, read off the echelon in
integers: divided by its content, sign kept, each vector is the canonical
one (1 at its free column) cleared of denominators, which only a reader of
`KernelBasis.vectors` turns into Fractions.  The kernel vector of free
column f is zero past f, so the degree-D kernel is the first nullity(D)
vectors of the largest degree's kernel cut to the degree-D columns.  That
nesting is checked, and each vector is re-checked once against every jet
row of the largest degree.

The one elimination stops once its rank is the column count (the kernel is
then empty), so the jet rows after that are never read.

The base locus of (points, T, D) is the common zero set of the kernel of the
jet matrix.  Membership is tested by evaluating the kernel basis (computed
once), never by re-running eliminations per point, because probe loops
evaluate thousands of points: the integer kernel vectors are evaluated at
the homogenized point (q, p), which vanishes exactly where the section does.
Evaluated at degree E >= D, a degree-D section takes q^(E-D) times its
degree-D value.  So a sweep evaluates each distinct sample point once, at
its largest degree, and keeps the position of the first vector that does
not vanish there: the point is in the degree-D base locus iff it is >=
nullity(D).

When the generators bear no relation, none of that runs for `locus probe`,
`locus sweep` or `locus rank`: Gamma(S) is then a product grid in adapted
coordinates, and `_Grid` reads the rank, the nullity and the membership of
every degree off closed forms (proved beside their oracle in
`tests/oracles.py`).  `_members` picks the route from the model alone, and
both routes answer the one membership interface of the verdict loop.  The
public functions, which take arbitrary points, always eliminate.

The probe's samples are integer points (q, p) from the draw to the
evaluation, with q the lcm of the coordinate denominators, so sampling,
the outside test against Gamma(S) + H and membership form no Fraction; only
a witness that a report prints becomes the Fraction point p/q.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, islice, repeat
from operator import getitem, mul

from . import linalg
from .chain import Chain
from .errors import (
    CertificateViolation,
    DimensionMismatch,
    EnumerationTooLarge,
    InternalInvariantError,
    MatrixTooLarge,
    SamplingExhausted,
    SymbolicModelNotSpecialized,
)
from .gamma import box_bound, enumerate_gamma
from .model import GroupModel
from .polys import as_fraction


@dataclass(frozen=True)
class MonomialBasis:
    n: int
    degree: int
    exponents: tuple[tuple[int, ...], ...]

    def index(self):
        return {e: i for i, e in enumerate(self.exponents)}

    def __len__(self):
        return len(self.exponents)


def monomial_basis(n: int, degree: int) -> MonomialBasis:
    """Multi-indices of total degree <= degree, graded lexicographic.

    They are walked in plain lexicographic order, without recursion, so any
    n works: the successor of e bumps its last entry while the degree allows,
    and otherwise clears the last nonzero entry and bumps the one before it.
    """
    exps = []
    e, total = [0] * n, 0
    while True:
        exps.append(tuple(e))
        if total < degree:
            i = n - 1
        else:
            i = next((k for k in reversed(range(n)) if e[k]), 0) - 1
        if i < 0:
            break
        total += 1 - sum(e[i + 1:])
        e[i + 1:] = [0] * (n - i - 1)
        e[i] += 1
    exps.sort(key=lambda e: (sum(e), e))
    return MonomialBasis(n, degree, tuple(exps))


def _jet_orders(n: int, order: int):
    """Multi-indices s with |s| < order, same ordering as the basis."""
    return monomial_basis(n, order - 1).exponents


@dataclass(frozen=True)
class JetMatrix:
    basis: MonomialBasis
    points: tuple
    order: int
    rows: tuple            # integer rows: Hasse row of (p/q, s) times q^(D-|s|)


@dataclass(frozen=True)
class KernelBasis:
    basis: MonomialBasis
    points: tuple
    order: int
    degree: int
    integer_vectors: tuple   # each divided by its content, sign kept

    @cached_property
    def vectors(self):
        """The canonical basis over Q: each vector 1 at its free column."""
        return tuple(map(linalg._monic, self.integer_vectors))

    @cached_property
    def _exponents(self):
        return _homogenized_exponents(self.basis)

    @cached_property
    def _terms(self):
        """Each vector as (columns, coefficients) of its nonzero entries."""
        terms = []
        for vec in self.integer_vectors:
            cols = tuple(j for j, c in enumerate(vec) if c)
            terms.append((cols, tuple(vec[j] for j in cols)))
        return tuple(terms)


def _require_rational(model: GroupModel):
    if model.m != 0:
        raise SymbolicModelNotSpecialized(
            "jet evaluation needs a rational model; specialize() first"
        )


def _check_jet(model: GroupModel, npoints: int, order: int, degrees, limit):
    """Refuse a symbolic model, a degree or order below 1, or a jet matrix of
    more than `limit` entries, before anything is built.

    `degrees` ascend and the size grows with the degree, so only the last is
    checked, and when it is too large the first oversized degree is found by
    bisection; a range of degrees is never listed.
    """
    _require_rational(model)
    if order < 1 or degrees[0] < 1:
        raise ValueError("order and degree must be >= 1")
    n = model.n

    def size(i):
        return math.comb(n + degrees[i], n) * npoints * math.comb(n + order - 1, n)

    # index(), not len(): a range longer than sys.maxsize has no len()
    lo, hi = 0, degrees.index(degrees[-1])
    if size(hi) <= limit:
        return
    while lo < hi:
        mid = (lo + hi) // 2
        if size(mid) > limit:
            hi = mid
        else:
            lo = mid + 1
    raise MatrixTooLarge(f"jet matrix with {size(lo)} entries exceeds {limit}")


def _homogenized_exponents(basis: MonomialBasis):
    """Exponents (D - |a|, a) of the basis monomials homogenized at degree D."""
    return tuple((basis.degree - sum(a),) + a for a in basis.exponents)


def _fraction_points(n, points):
    """The points as Fraction tuples; DimensionMismatch unless each has n."""
    points = tuple(tuple(map(as_fraction, p)) for p in points)
    for p in points:
        if len(p) != n:
            raise DimensionMismatch(f"point has {len(p)} coordinates, expected {n}")
    return points


def _content_free(vector):
    """An integer vector divided by its content, its sign kept."""
    g = math.gcd(*vector)
    return tuple(vector) if g == 1 else tuple([x // g for x in vector])


def _homogenized(point):
    """The integer point (q, p) of the Fraction point p/q, q the lcm of its
    coordinate denominators."""
    q = math.lcm(*(x.denominator for x in point))
    return (q,) + tuple(x.numerator * (q // x.denominator) for x in point)


def _fraction_point(point):
    """The Fraction point p/q of the integer point (q, p)."""
    q = point[0]
    return tuple(Fraction(x, q) for x in point[1:])


def _homogenized_powers(point, degree):
    """Powers 0..degree of each coordinate of the integer point (q, p)."""
    return [list(accumulate(repeat(c, degree), mul, initial=1)) for c in point]


def _jet_row(powers, sigma, exponents):
    """binom(e, sigma) * (q, p)^(e - sigma) at each homogenized exponent e;
    sigma carries a leading 0 for the q coordinate."""
    row = []
    for alpha in exponents:
        value = 1
        for pw, a, s in zip(powers, alpha, sigma):
            if a < s:
                value = 0
                break
            value *= math.comb(a, s) * pw[a - s] if s else pw[a]
        row.append(value)
    return row


def _dot(row, terms) -> int:
    cols, coeffs = terms
    return sum(map(mul, map(row.__getitem__, cols), coeffs))


def jet_matrix(model: GroupModel, points, order: int, degree: int,
               limit=10 ** 6) -> JetMatrix:
    """Evaluation-with-derivatives matrix of the degree-D basis at `points`,
    one integer row per (point, derivative multi-index of total degree <
    order): the Hasse row of the point p/q times q^(D - |s|)."""
    points = tuple(points)
    _check_jet(model, len(points), order, (degree,), limit)
    points = _fraction_points(model.n, points)
    basis = monomial_basis(model.n, degree)
    exponents = _homogenized_exponents(basis)
    sigmas = _jet_orders(model.n, order)
    rows = []
    for point in points:
        powers = _homogenized_powers(_homogenized(point), degree)
        for sigma in sigmas:
            rows.append(tuple(_jet_row(powers, (0,) + sigma, exponents)))
    return JetMatrix(basis, points, order, tuple(rows))


def _kernels(model: GroupModel, points, order: int, degrees, limit):
    """The canonical KernelBasis of every one of the ascending `degrees`,
    from one elimination of the jet matrix at the largest.

    Every size is checked before anything is built, so an oversized range
    fails at its first oversized degree.  Each degree's kernel is read off
    the prefix of the integer echelon and checked to be the first vectors of
    the largest degree's kernel cut to its columns, zero past the cut.  So
    each distinct vector is re-checked once against every jet row of the
    largest degree: cut to a prefix, those are the jet rows of every
    smaller degree up to nonzero factors.
    """
    points = tuple(points)
    _check_jet(model, len(points), order, degrees, limit)
    jm = jet_matrix(model, points, order, degrees[-1], limit)
    rows, pivots = linalg.rat_rref(jm.rows, len(jm.basis))
    echelon = tuple(zip(pivots, rows))
    kernels = []
    for degree in degrees:
        ncols = math.comb(model.n + degree, model.n)
        basis = MonomialBasis(model.n, degree, jm.basis.exponents[:ncols])
        vectors = tuple(map(_content_free, linalg._integer_kernel(echelon, ncols)))
        kernels.append(KernelBasis(basis, jm.points, order, degree, vectors))
    for kernel in kernels:
        vectors = kernel.integer_vectors
        ncols, head = len(kernel.basis), kernels[-1].integer_vectors[:len(vectors)]
        if vectors != tuple(v[:ncols] for v in head) or any(any(v[ncols:]) for v in head):
            raise InternalInvariantError(f"kernel at D={kernel.degree} is not nested")
    for terms in kernels[-1]._terms:
        if any(_dot(row, terms) for row in jm.rows):
            raise InternalInvariantError("kernel vector fails a jet constraint")
    return kernels


def kernel_basis(model: GroupModel, points, order: int, degree: int,
                 limit=10 ** 6) -> KernelBasis:
    """Canonical basis of sections vanishing to order `order` at all points.
    Every basis vector is re-checked against every jet constraint."""
    return _kernels(model, points, order, (degree,), limit)[0]


def _first_outside(kernel: KernelBasis, point) -> int:
    """The position of the first kernel vector whose section does not vanish
    at the point p/q, given as the integer point (q, p) with q > 0, or the
    nullity if every one does.  The integer sections are evaluated at
    (q, p): the value of q^(D-|a|) x^a there is a plain product of powers,
    and scaling (q, p) scales every value by the same nonzero factor."""
    terms = kernel._terms
    if not terms:
        return 0
    powers = _homogenized_powers(point, kernel.degree)
    values = [math.prod(map(getitem, powers, e)) for e in kernel._exponents]
    return next((i for i, t in enumerate(terms) if _dot(values, t)), len(terms))


class _Members:
    """Nullities and base-locus membership of a sweep's sample points in the
    nested `kernels` of its ascending degrees: one evaluation per distinct
    sample point (q, p), normalized, against the kernel of the largest
    degree, serves every degree."""

    def __init__(self, kernels):
        self.top = kernels[-1]
        self.nullities = {k.degree: len(k.integer_vectors) for k in kernels}
        self.first = {}

    def nullity(self, degree) -> int:
        return self.nullities[degree]

    def inside(self, degree, point) -> bool:
        first = self.first.get(point)
        if first is None:
            first = self.first[point] = _first_outside(self.top, point)
        return first >= self.nullities[degree]


class _Grid:
    """Nullities and base-locus membership for Gamma(S) of a rational model
    whose generators bear no relation, in closed form up to `degree`.

    Complete the generators by unit vectors to a basis M of Q^n and set
    y = M^-1 x.  Gamma(S) is the grid of the y with y_j in C_j, where
    C_j = {-b_j..b_j}, b_j = ceil(S_j) - 1, has d_j = 2 b_j + 1 points for a
    generator and C_j = {0}, d_j = 1, for a unit vector.  Then (proof in
    `tests/oracles.py`) the rank at degree D counts the beta in N^n with
    |beta| <= D and sum_j floor(beta_j / d_j) < T, and x lies in the base
    locus at D exactly when D < T * min{d_j : y_j not in C_j} (no minimum:
    infinite), one exit degree per point for every D.

    y is found in integers: the echelon of the rows of [M | I] is [P | R]
    with P diagonal, so den * M^-1 is an integer matrix A for den the lcm of
    P, and at the integer point (q, p) of x = p/q, y = A p / (den q).
    """

    def __init__(self, model: GroupModel, order: int, degree: int):
        n = self.n = model.n
        taken = {c for c, _ in linalg._echelon(map(linalg._cleared, model.generators))}
        basis = [*model.generators,
                 *(tuple(int(i == c) for i in range(n)) for c in range(n) if c not in taken)]
        ech = linalg._echelon(
            linalg._cleared([*(b[i] for b in basis), *(int(i == k) for k in range(n))])
            for i in range(n)
        )
        self.den = math.lcm(*(row[c] for c, row in ech))
        self.inverse = [[x * (self.den // row[c]) for x in row[n:]] for c, row in ech]
        self.bounds = [box_bound(s, 1) for s in model.scales] + [0] * (n - model.l)
        self.order = order
        self.exits = {}
        # ways[s, k]: the beta on the coordinates so far with |beta| = s
        # and sum floor(beta_j / d_j) = k < T
        ways = {(0, 0): 1}
        for d in (2 * b + 1 for b in self.bounds):
            grown = Counter()
            for (s, k), w in ways.items():
                for e in range(degree - s + 1):
                    if k + e // d == order:
                        break
                    grown[s + e, k + e // d] += w
            ways = grown
        by_degree = [0] * (degree + 1)
        for (s, _), w in ways.items():
            by_degree[s] += w
        self.ranks = list(accumulate(by_degree))

    def nullity(self, degree) -> int:
        return math.comb(self.n + degree, self.n) - self.ranks[degree]

    def inside(self, degree, point) -> bool:
        exit_degree = self.exits.get(point)
        if exit_degree is None:
            q = self.den * point[0]
            widths = []
            for row, b in zip(self.inverse, self.bounds):
                z = sum(map(mul, row, point[1:]))
                if z % q or abs(z // q) > b:
                    widths.append(2 * b + 1)
            exit_degree = self.exits[point] = self.order * min(widths, default=math.inf)
        return degree < exit_degree


def _is_grid(model: GroupModel) -> bool:
    """Whether Gamma(S) is a product grid in adapted coordinates: the model
    is rational and its relation lattice is 0."""
    return model.m == 0 and model.kernel_lattice().rank == 0


def _members(model: GroupModel, omega, order: int, degrees, limit):
    """The nullity and membership of each of the ascending `degrees` for the
    box set omega = Gamma(S), sized from len(omega) before anything is
    built: a `_Grid` when `_is_grid`, else `_Members` of one elimination
    at the points of omega."""
    _check_jet(model, len(omega), order, degrees, limit)
    if _is_grid(model):
        return _Grid(model, order, degrees[-1])
    return _Members(_kernels(model, omega.points, order, degrees, limit))


def in_base_locus(kernel: KernelBasis, point) -> bool:
    """Whether every kernel section vanishes at the point; an empty kernel
    means the base locus is everything."""
    (point,) = _fraction_points(kernel.basis.n, (point,))
    return _first_outside(kernel, _homogenized(point)) == len(kernel.integer_vectors)


@dataclass(frozen=True)
class EvalRank:
    rank: int
    injective: bool
    surjective: bool
    rows: int
    cols: int


def _eval_rank(n, npoints, order, degree, nullity) -> EvalRank:
    rows = npoints * math.comb(n + order - 1, n)
    cols = math.comb(n + degree, n)
    rank = cols - nullity
    return EvalRank(rank, rank == cols, rank == rows, rows, cols)


def eval_rank(model: GroupModel, points, order: int, degree: int,
              limit=10 ** 6) -> EvalRank:
    """Rank of the jet evaluation map; injectivity certifies a trivial base
    locus regime, surjectivity the interpolation regime."""
    points = tuple(points)
    (kernel,) = _kernels(model, points, order, (degree,), limit)
    return _eval_rank(model.n, len(points), order, degree, len(kernel.integer_vectors))


def _box_rank(model: GroupModel, omega, order: int, degree: int,
             limit=10 ** 6) -> EvalRank:
    """`eval_rank` at the points of the box set omega = Gamma(S), by the
    route `_members` picks."""
    nullity = _members(model, omega, order, (degree,), limit).nullity(degree)
    return _eval_rank(model.n, len(omega), order, degree, nullity)


def translate_section(basis: MonomialBasis, coeffs, shift) -> tuple:
    """Coefficients of P(x - g); translation is plain substitution on the
    vector group, and the degree never grows.  DimensionMismatch unless
    `coeffs` has one coefficient per monomial of the basis."""
    if len(coeffs) != len(basis):
        raise DimensionMismatch(
            f"section has {len(coeffs)} coefficients, the basis {len(basis)} monomials"
        )
    (shift,) = _fraction_points(basis.n, (shift,))
    index = basis.index()
    out = [Fraction(0)] * len(basis)
    for c, alpha in zip(coeffs, basis.exponents):
        if not c:
            continue
        expansion = {(): c}
        for i, a in enumerate(alpha):
            nxt = {}
            for mon, coeff in expansion.items():
                for k in range(a + 1):
                    term = coeff * math.comb(a, k) * (-shift[i]) ** (a - k)
                    if term:
                        key = mon + (k,)
                        nxt[key] = nxt.get(key, Fraction(0)) + term
            expansion = nxt
        for mon, coeff in expansion.items():
            out[index[mon]] += coeff
    return tuple(out)


# ---------------------------------------------------------------------------
# membership in Gamma(S) + H


def _outside_translates(omega, subgroup):
    """The predicates "x lies outside omega + span(H)" for the box set
    `omega` of a rational model: one on the integer rows of a box set of the
    same model (numerators over its denominator D, as in `omega.columns`),
    one on integer points (e, w) of x = w/e, e > 0.

    Two vectors lie in one translate of span(H) exactly when they have the
    same canonical representative mod span(H): the vector with the pivot
    columns of the span's fully reduced integer echelon eliminated, row k
    subtracted x[c_k] / lead_k times.  Representatives are kept times
    K = D * lcm(leads), so for a box point every division is exact.  A
    point w/e is reduced as K w, and its representative times K is that
    over e, an integer vector only if e divides it; so any positive multiple
    of (e, w) gives the same verdict.  The representatives of `omega` are
    built once, so each query is one reduction and one set lookup, whatever
    the dimension of H.
    """
    echelon = linalg._echelon(map(linalg._cleared, subgroup.span))
    den, columns = omega.columns
    leads = math.lcm(*(row[c] for c, row in echelon))
    scale = den * leads

    def reduced(z):
        for c, row in echelon:
            if z[c]:
                f = z[c] // row[c]
                z = [a - f * b for a, b in zip(z, row)]
        return tuple(z)

    def lifted(row):
        return reduced(list(map(mul, row, repeat(leads))))

    reps = set(map(lifted, zip(*columns)))

    def outside_point(point):
        e = point[0]
        z = reduced([w * scale for w in point[1:]])
        return any(a % e for a in z) or tuple(a // e for a in z) not in reps

    return (lambda row: lifted(row) not in reps), outside_point


# ---------------------------------------------------------------------------
# probing the base locus against the chain


@dataclass(frozen=True)
class LocusEntry:
    step: int
    subgroup_dim: int
    lower: bool
    upper: bool | None
    lower_witness: tuple | None
    upper_witness: tuple | None
    upper_sample_count: int


@dataclass(frozen=True)
class SweepRow:
    degree: int
    rank: int
    nullity: int
    verdicts: tuple          # (lower, upper) per chain index
    i_star: int | None


@dataclass(frozen=True)
class LocusReport:
    rows: tuple
    transitions: tuple       # (degree, new i_star)
    thresholds: tuple        # (i, exact T * frak_S_i, display approx)


def _epsilon(value) -> Fraction:
    epsilon = as_fraction(value)
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0,1), got {epsilon}")
    return epsilon


class _ProbeSamples:
    """Seed-reproducible sample points around Gamma(S) = `omega`, built once
    and reused across degrees so that membership verdicts are comparable.

    Each sample is an integer point (q, p) of p/q, normalized as
    `_homogenized` gives it, and is built in integers from the draw on.
    Every box set and span point is read over the model's denominator D (a
    span point is an integer combination of generators, or a unit vector).
    A lower sample is a row of Gamma((1-eps)S) moved by a/b (b in 1..4)
    along each spanning point of H, over the common denominator 12 * D * D.
    The upper samples are the rows of Gamma(2S) outside Gamma(S) + H,
    filtered as integer rows over D, then random draws outside it.
    `_fraction_point` gives the point p/q of a sample that a report prints.

    Every draw is read from `getrandbits` by `_below`, whose stream is
    `random.Random(seed).randrange`'s, so the samples are those that
    `randrange` and `randint` draws would give.
    """

    def __init__(self, model, chain, omega, epsilon, samples, seed, limit):
        bits = random.Random(seed).getrandbits
        den, eps_columns = enumerate_gamma(model, 1 - epsilon, limit).columns
        eps_rows = list(zip(*eps_columns))
        two_rows = list(zip(*enumerate_gamma(model, Fraction(2), limit).columns[1]))
        top = max(int(math.ceil(model.scales[0])) if model.l else 1, 1)
        coord_bound = 2 * top + 2
        unit = 12 * den
        head, count = unit * den, len(eps_rows)
        # the move a/b along a span point is a * steps[b] over unit
        steps = [None, unit, unit // 2, unit // 3, unit // 4]

        self.lower = []
        self.upper = []
        for node_idx, sub in enumerate(node.subgroup for node in chain.nodes):
            support = [
                [(i, x.numerator * (den // x.denominator)) for i, x in enumerate(row) if x]
                for row in sub.span
            ]
            pts = []
            for _ in range(samples):
                coords = list(map(mul, eps_rows[_below(bits, count)], repeat(unit)))
                for entries in support:
                    a, b = _below(bits, 19) - 9, _below(bits, 4) + 1
                    if a:
                        f = a * steps[b]
                        for i, x in entries:
                            coords[i] += f * x
                pts.append(linalg.primitive((head, *coords)))
            self.lower.append(tuple(pts))

            if sub.dim == model.n:
                self.upper.append(None)
                continue
            draws = (_draw(bits, model.n, coord_bound) for _ in range(50 * samples))
            outside_row, outside_point = _outside_translates(omega, sub)
            found = [
                linalg.primitive((den, *row))
                for row in islice(filter(outside_row, two_rows), samples)
            ]
            found.extend(islice(filter(outside_point, draws), samples - len(found)))
            if not found:
                raise SamplingExhausted(
                    f"no points outside Gamma(S) + H_{node_idx} were found"
                )
            self.upper.append(tuple(found))


def _below(getrandbits, n):
    """A draw from range(n), n > 0, read from `getrandbits` as
    `random.Random.randrange(n)` reads it: k = n.bit_length() bits at a
    time, drawn again while the value is n or more.  So randrange(n) is
    `_below(rng.getrandbits, n)` and randint(a, b) is
    `a + _below(rng.getrandbits, b - a + 1)`, draw for draw."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _draw(bits, n, bound):
    """A random point of coordinates a/b, |a| <= bound and b in 1..3 (a
    drawn before b, both by `_below` from `bits`), as an integer point
    (q, p)."""
    width = 2 * bound + 1
    pairs = [(_below(bits, width) - bound, _below(bits, 3) + 1) for _ in range(n)]
    q = math.lcm(*(b for _, b in pairs))
    return linalg.primitive((q, *(a * (q // b) for a, b in pairs)))


def _witness(members, degree, points, inside_wanted, memory):
    """The first sample whose membership in the base locus at `degree`, as
    `members` decides it, is not `inside_wanted`, or None.  Without `memory`
    it stops at that witness; with it (a sweep's record of earlier
    memberships, by sample point) it evaluates every sample and checks that
    none re-enters the base locus."""
    witness = None
    for p in points:
        inside = members.inside(degree, p)
        if memory is not None:
            if memory.get(p) is False and inside:
                raise CertificateViolation(
                    "locus_monotonicity",
                    f"point re-entered the base locus at D={degree}",
                )
            memory[p] = inside
        if inside != inside_wanted and witness is None:
            witness = p
            if memory is None:
                break
    return witness


def _probe(sampler, chain, members, degree, memory):
    """One LocusEntry per chain index, from the sampler's fixed points."""
    entries = []
    for idx, node in enumerate(chain.nodes):
        lower_witness = _witness(members, degree, sampler.lower[idx], True, memory)
        outside = sampler.upper[idx]
        if outside is None:
            upper, upper_witness = None, None
        else:
            upper_witness = _witness(members, degree, outside, False, memory)
            upper = upper_witness is None
        entries.append(LocusEntry(
            idx, node.dim, lower_witness is None, upper,
            lower_witness and _fraction_point(lower_witness),
            upper_witness and _fraction_point(upper_witness),
            0 if outside is None else len(outside),
        ))
    return tuple(entries)


def _check_samples(chain: Chain, samples: int, enum_limit: int):
    """Refuse more samples in all than `enum_limit`, `samples` at each chain
    step, before any work."""
    total = samples * len(chain.nodes)
    if total > enum_limit:
        raise EnumerationTooLarge(f"{total} probe samples exceed the limit {enum_limit}")


def locus_probe(model: GroupModel, chain: Chain, order: int, degree: int,
                epsilon, samples=100, seed=0, limit=10 ** 6,
                enum_limit=10 ** 7):
    """Verdict pair per chain index i: whether every sampled point of
    Gamma((1-eps)S) + H_i lies in the base locus, and whether every sampled
    point outside Gamma(S) + H_i lies outside it.  For the full group the
    upper test is vacuous and reported as None.  More samples in all than
    `enum_limit` are refused first; the jet matrix is sized from the number
    of points of Gamma(S) before any of them is built or any sample is
    drawn, also where `_members` builds none."""
    _require_rational(model)
    epsilon = _epsilon(epsilon)
    _check_samples(chain, samples, enum_limit)
    omega = enumerate_gamma(model, Fraction(1), enum_limit)
    members = _members(model, omega, order, (degree,), limit)
    sampler = _ProbeSamples(model, chain, omega, epsilon, samples, seed, enum_limit)
    return _probe(sampler, chain, members, degree, None)


def threshold_sweep(model: GroupModel, chain: Chain, order: int, degrees,
                    epsilon, samples=100, seed=0, limit=10 ** 6,
                    enum_limit=10 ** 7) -> LocusReport:
    """Run the probe across a degree range with one fixed sample set.

    The base locus can only shrink as D grows (the kernel gains sections),
    so membership of a fixed point may switch from inside to outside but
    never back, and the index achieving the both-true verdict pair can only
    decrease; both are asserted exactly.  Empirical transition degrees are
    reported beside the exact step thresholds T * frak_S_i for comparison
    (display only: the proportionality constants are not effective).  The
    nullities and memberships of all degrees come from one `_members`: in
    closed form, or from one jet matrix at the largest degree and one
    elimination.  The jet matrix is sized from the number of points of
    Gamma(S) before any of them is built or any sample is drawn (more
    samples in all than `enum_limit` are refused before that); an ascending
    range of degrees is not listed before its sizes are checked.  Each
    distinct sample point is decided once, for every degree.
    """
    _require_rational(model)
    epsilon = _epsilon(epsilon)
    if not (isinstance(degrees, range) and degrees.step > 0):
        degrees = sorted(int(d) for d in degrees)
    _check_samples(chain, samples, enum_limit)
    omega = enumerate_gamma(model, Fraction(1), enum_limit)
    members = _members(model, omega, order, degrees, limit) if degrees else None
    sampler = _ProbeSamples(model, chain, omega, epsilon, samples, seed, enum_limit)
    rows = []
    prev_members: dict = {}
    prev_nullity = -1
    prev_istar = None
    transitions = []
    for degree in degrees:
        nullity = members.nullity(degree)
        rank = math.comb(model.n + degree, model.n) - nullity
        if nullity < prev_nullity:
            raise CertificateViolation(
                "locus_monotonicity", f"nullity dropped at D={degree}"
            )
        prev_nullity = nullity
        entries = _probe(sampler, chain, members, degree, prev_members)
        verdicts = [(e.lower, e.upper) for e in entries]
        # the first index whose lower verdict holds and upper one holds or is vacuous
        i_star = next(
            (i for i, (lo, up) in enumerate(verdicts) if lo and up is not False), None
        )
        if i_star is not None and prev_istar is not None and i_star > prev_istar:
            raise CertificateViolation(
                "locus_monotonicity",
                f"both-true index increased from {prev_istar} to {i_star} at D={degree}",
            )
        if i_star is not None and i_star != prev_istar:
            transitions.append((degree, i_star))
            prev_istar = i_star
        rows.append(SweepRow(degree, rank, nullity, tuple(verdicts), i_star))
    # exact T * frak_S_i as a RootedRational, with a display float or None
    thresholds = []
    for i, step in enumerate(chain.steps):
        approx = step.frak_s.approx()
        thresholds.append((i, step.frak_s.times(order), approx and order * approx))
    return LocusReport(tuple(rows), tuple(transitions), tuple(thresholds))
