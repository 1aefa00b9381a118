"""Box point sets: enumeration of Gamma(S), coset counting, sum/difference
sets, and the empirical side of the counting and distribution estimates.

Gamma(lambda S) is the image of the integer box |n_j| < lambda*S_j under
iota.  Members are group points, not coefficient tuples: tuples are reduced
modulo the relation lattice iota^{-1}(0) to canonical coset representatives,
so dependent or repeated generators never inflate a count.  Tuples are
reduced in fixed-size chunks, column by column, with one C-level map per
column and HNF row (`linalg.lattice_reduce_columns`).  When the relation
lattice is 0, each tuple is its own representative and the box in
`itertools.product` order is already sorted, so the box set is built by
repetition of each side's range, with no tuple and no reduction.  A box set
keeps one in-box witness tuple per point, as l integer columns, and builds
every other view (the tuples, the (representative, witness) pairs, the
points) only when it is read, the points over Q as integer columns over
the model's one denominator D; sum/difference sets work on witnesses.
Coset counts enumerate no box: they walk the points of the coefficient
lattice of H' in the box, coordinate by coordinate of its Hermite normal
form, and resolve the last coordinate for every value of the one before it
at once, a slab of C-level maps; the slabs' points are counted by length
modulo 0, and otherwise queued and reduced `_CHUNK` points at a time.  A
count of H' modulo itself is 1 with no walk.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, cmp_to_key
from itertools import chain, combinations_with_replacement, islice, product, repeat
from operator import add, floordiv, itemgetter, mul, sub

from . import linalg
from .chain import Chain, RootedRational, _scaled_chain, log_rational, n_formula
from .errors import CertificateViolation, EnumerationTooLarge, NotNested
from .model import (
    GroupModel,
    Subgroup,
    _coefficient_vectors,
    by_lattice,
    enumerate_closures,
    rank_profile,
    span_contains,
)
from .polys import as_fraction


@dataclass(frozen=True)
class GammaSet:
    """Deduplicated box points with one in-box witness tuple per point, in
    the order of their canonical representatives mod iota^{-1}(0).

    The witnesses are held as l integer columns (`witness_columns`, entry j
    holding coefficient j of every witness) with their `count`, which
    `len()` reads.  Every other form is a view built on first read, in the
    same order: `witnesses`, the tuples; `entries`, the pairs
    (representative, witness); `columns` (rational models only, None over
    Q[t]), (D, columns) with D the model's denominator and per coordinate
    the integer numerators of the points over D; `points`, iota of each
    witness as a tuple of scalars, Fractions over Q.
    """

    lam: Fraction
    witness_columns: tuple
    count: int
    model: GroupModel = field(compare=False, repr=False)

    @cached_property
    def columns(self):
        return _integer_columns(self.model, self.witness_columns, self.count)

    @cached_property
    def points(self):
        return _points(self.model, self.witnesses, self.columns)

    @cached_property
    def witnesses(self):
        if not self.witness_columns:
            return ((),) * self.count
        return tuple(zip(*self.witness_columns))

    @cached_property
    def entries(self):
        kernel = self.model.kernel_lattice()
        if not kernel.rows:
            return tuple(zip(self.witnesses, self.witnesses))
        reps = zip(*linalg.lattice_reduce_columns(
            kernel.rows, kernel.pivots, self.witness_columns
        ))
        return tuple(zip(reps, self.witnesses))

    def __len__(self):
        return self.count


def _integer_columns(model: GroupModel, witness_columns, count):
    """iota of the `count` witnesses given by their `witness_columns`, for
    a rational model as (D, columns), or None for a symbolic model: D and
    the generators' columns as `GroupModel._cleared_columns` gives them,
    and per coordinate that coordinate of every point as a numerator over D.

    Each column is built with one C-level vector add over all witnesses per
    nonzero generator entry, with no Fraction per coordinate; a coordinate
    read off one generator with entry 1 is that witness column itself.
    """
    if model.m:
        return None
    den, generator_columns = model._cleared_columns()
    columns = []
    for nums in generator_columns:
        acc = None
        for c, coefficients in zip(nums, witness_columns):
            if c:
                term = coefficients if c == 1 else list(map(mul, coefficients, repeat(c)))
                acc = term if acc is None else list(map(add, acc, term))
        columns.append([0] * count if acc is None else acc)
    return den, tuple(columns)


def _points(model: GroupModel, witnesses, columns):
    """iota of each witness: over Q the rows of the integer `columns`
    (D, columns) of these witnesses as Fractions over D, exactly
    `model.point_of` of each witness; over Q[t] (`columns` None)
    `model.point_of` itself."""
    if columns is None:
        return tuple(map(model.point_of, witnesses))
    den, columns = columns
    if den == 1:
        return tuple(zip(*(map(Fraction, nums) for nums in columns)))
    return tuple(zip(*(map(Fraction, nums, repeat(den)) for nums in columns)))


def box_bound(scale, lam) -> int:
    """Largest allowed |n_j| for |n_j| < lam * S_j: ceil(lam S_j) - 1."""
    return math.ceil(lam * scale) - 1


def _box_bounds(model: GroupModel, lam) -> list[int]:
    lam = as_fraction(lam)
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    return [box_bound(s, lam) for s in model.scales]


def enumerate_gamma(model: GroupModel, lam=Fraction(1), limit=10 ** 7) -> GammaSet:
    """Gamma(lam S): the box |n_j| < lam S_j, deduplicated as group points.

    The box size is checked against `limit` before anything is allocated.
    When the relation lattice iota^{-1}(0) is 0, each tuple is its own
    representative, and `itertools.product` order is the sorted order, so
    the witness columns are built by repetition: column j repeats each
    value of its range once per tuple of the later sides, and that run once
    per tuple of the earlier ones, with no tuple, dict or sort.  Otherwise
    the box tuples are reduced by `_first_witnesses`.
    """
    lam = as_fraction(lam)
    bounds = _box_bounds(model, lam)
    size = math.prod(2 * b + 1 for b in bounds)
    if size > limit:
        raise EnumerationTooLarge(
            f"box of {size} tuples exceeds the limit {limit}"
        )
    if model.kernel_lattice().rows:
        tuples = product(*(range(-b, b + 1) for b in bounds))
        return _gamma_set(model, lam, _first_witnesses(model, tuples))
    columns, outer, inner = [], 1, size
    for b in bounds:
        inner //= 2 * b + 1
        runs = map(repeat, range(-b, b + 1), repeat(inner))
        columns.append(tuple(chain.from_iterable(runs)) * outer)
        outer *= 2 * b + 1
    return GammaSet(lam, tuple(columns), size, model)


def gamma_from_vectors(model: GroupModel, vectors, lam=Fraction(1)) -> GammaSet:
    """Build a GammaSet from explicit coefficient tuples (mostly for tests)."""
    vectors = _coefficient_vectors(model, vectors)
    return _gamma_set(model, as_fraction(lam), _first_witnesses(model, vectors))


# witnesses, or queued points of the lattice walk's slabs, reduced per
# `linalg.lattice_reduce_columns` call: bounds the columns held at once,
# whatever the size of the box, to this many points (plus one slab)
_CHUNK = 4096


def _first_witnesses(model: GroupModel, witnesses) -> dict:
    """{canonical representative mod iota^{-1}(0): first witness reducing
    to it}, in the order of first occurrence, so each group point is kept
    once with its first witness.

    The witness tuples are reduced `_CHUNK` at a time, as columns, by
    `linalg.lattice_reduce_columns`; when iota^{-1}(0) = 0 each witness is
    its own representative.  `dict.setdefault` mapped over the chunk keeps
    the first witness of each representative with no Python step per tuple.
    """
    kernel = model.kernel_lattice()
    seen = {}
    witnesses = iter(witnesses)
    while chunk := list(islice(witnesses, _CHUNK)):
        reps = chunk
        if kernel.rows:
            reps = zip(*linalg.lattice_reduce_columns(
                kernel.rows, kernel.pivots, zip(*chunk)
            ))
        deque(map(seen.setdefault, reps, chunk), 0)
    return seen


def _gamma_set(model: GroupModel, lam, first: dict) -> GammaSet:
    """The GammaSet of the `_first_witnesses` dict `first`: its witnesses
    sorted by representative, as columns."""
    kept = list(map(first.__getitem__, sorted(first)))
    columns = tuple(tuple(map(itemgetter(j), kept)) for j in range(model.l))
    return GammaSet(lam, columns, len(kept), model)


def card_mod(model: GroupModel, lam, h_prime: Subgroup, h_dprime: Subgroup,
             limit=10 ** 7) -> int:
    """card((Gamma(lam S) cap H') / H''), counted by `_count_in_box` on the
    box |n_j| < lam S_j with L' = iota^{-1}(H') and L'' = iota^{-1}(H'').
    H'' must lie in H' (NotNested otherwise), which also gives the walk's
    precondition L'' in L'.  When H'' also contains H', so that both have
    the same key `Subgroup.basis`, then L'' = L': every point of
    Gamma(lam S) cap H', 0 among them, lies in one class, and the count is
    1 with no walk.
    """
    if not span_contains(model, h_prime, h_dprime):
        raise NotNested("H'' is not contained in H'")
    bounds = _box_bounds(model, lam)
    if h_dprime.basis == h_prime.basis:
        return 1
    return _count_in_box(
        [-b for b in bounds], bounds, h_prime.coeff, h_dprime.coeff, limit
    )


def card_translate(model: GroupModel, lam, x_vector, h: Subgroup, limit=10 ** 7) -> int:
    """card(Gamma(lam S) cap (x + H)) for x = iota(x_vector): the points
    n - x of L = iota^{-1}(H) in the box shifted by -x, counted by
    `_count_in_box` modulo iota^{-1}(0), which every coefficient lattice
    contains."""
    (x_vector,) = _coefficient_vectors(model, [x_vector])
    bounds = _box_bounds(model, lam)
    return _count_in_box(
        [-b - x for b, x in zip(bounds, x_vector)],
        [b - x for b, x in zip(bounds, x_vector)],
        h.coeff, model.kernel_lattice(), limit,
    )


def _count_in_box(lo, hi, outer, inner, limit) -> int:
    """`_count_classes` with `limit` read as the size limit of a box: a box
    of at most `limit` tuples is walked with no step limit, the walk being
    bounded by l |B| steps anyway, so no count whose box fits the limit is
    refused; in a larger box the walk may take at most `limit` steps."""
    size = math.prod(b - a + 1 for a, b in zip(lo, hi))
    return _count_classes(lo, hi, outer, inner, math.inf if size <= limit else limit)


def _interval(lo, hi, partial, row, columns):
    """The integer interval (low, high) of the c with lo_j <= partial_j +
    c row_j <= hi_j on every column j of `columns`, with an infinite end
    where no column bounds c, or None when it is empty (a column the row
    leaves at 0 admits every c or none)."""
    low, high = -math.inf, math.inf
    for j in columns:
        a, s = row[j], partial[j]
        if a:
            # lo_j <= s + c a <= hi_j, solved for c
            first, second = -((s - lo[j]) // a), (hi[j] - s) // a
            if a < 0:
                first, second = -((s - hi[j]) // a), (lo[j] - s) // a
            low, high = max(low, first), min(high, second)
        elif not lo[j] <= s <= hi[j]:
            return None
    return (low, high) if low <= high else None


def _runs(x, y, low, high):
    """x + c y for c = low..high: a `range`, or a `repeat` when y = 0."""
    return range(x + low * y, x + (high + 1) * y, y) if y else repeat(x, high - low + 1)


def _count_classes(lo, hi, outer, inner, limit) -> int:
    """card((B cap L') / L'') for the integer box B = {v : lo <= v <= hi}
    and lattices L'' in L' (`Sublattice`s, L'' in L' is not checked).

    B cap L' is walked in the HNF coordinates of L' (Fincke-Pohst with a box
    for the ellipsoid): a point is sum c_i r_i over the HNF rows r_i, and
    once c_1..c_{i-1} are fixed, the columns from the pivot of r_i up to the
    next pivot depend on c_i alone, so their box inequalities give c_i an
    exact integer interval (empty when a column r_i does not touch is out of
    the box).  Each prefix is thus a distinct box point on the columns its
    rows lead, and the walk, one step per prefix, takes at most 1.5 |B|
    steps when every side of B holds at least 3 values (at most l |B| in
    any case); more than `limit` raise EnumerationTooLarge.

    The last level is resolved a slab at a time: for every value c of the
    level before it (the root, with the one value 0, when L' has one row),
    in one batch of C-level maps.  The columns of the last span that the
    last row leaves at 0 but the row before moves limit c first; each other
    column gives the last coordinate an interval whose ends are floor
    divisions of a `range` over c, and the columns are combined by `max`
    and `min` maps.  A slab takes one step per c with a nonempty last
    interval when L'' = 0, and the length of that interval otherwise, and
    its steps are checked before any of its points is built.  The points
    are identified modulo L'' by their canonical representatives; when
    L'' = 0 the last intervals are counted by their lengths, and otherwise
    the slab's points partial + c r + d r_last are queued column by column,
    from `range` and `repeat` runs, and reduced `_CHUNK` points at a time
    (`linalg.lattice_reduce_columns`), so one call serves many slabs and at
    most `_CHUNK` points plus one slab are held.
    """
    rows, pivots = outer.rows, outer.pivots
    width = len(lo)
    if any(lo[j] > 0 or hi[j] < 0 for j in range(pivots[0] if rows else width)):
        return 0                        # the columns before the first pivot are 0
    if not rows:
        return 1
    spans = [range(p, e) for p, e in zip(pivots, pivots[1:] + (width,))]
    last, last_row = len(rows) - 1, rows[-1]
    moved = [j for j in spans[last] if last_row[j]]
    still = [j for j in spans[last] if not last_row[j]]
    by_length = not inner.rows
    classes = set()
    queued = [[] for _ in range(width)]     # points of whole slabs, by column
    count = steps = 0

    def take(n):
        nonlocal steps
        steps += n
        if steps > limit:
            raise EnumerationTooLarge(f"lattice walk exceeds the limit of {limit} steps")

    def reduce_queued():
        classes.update(zip(*linalg.lattice_reduce_columns(
            inner.rows, inner.pivots, queued
        )))
        for column in queued:
            column.clear()

    def slab(partial, row, low, high):
        # the last level for partial + c row, c = low..high
        nonlocal count
        cut = _interval(lo, hi, partial, row, still)
        if cut is None:
            return
        low, high = max(low, cut[0]), min(high, cut[1])
        if low > high:
            return
        firsts, stops = [], []
        for j in moved:
            a, s, r = last_row[j], partial[j], row[j]
            lower, upper, sign = (lo[j], hi[j], 1) if a > 0 else (hi[j], lo[j], -1)
            # ceil((lower - s_c) / a) and floor((upper - s_c) / a) + 1 for
            # s_c = s + c r, as floor divisions of runs over c
            firsts.append(map(floordiv, _runs(lower - s + a - sign, -r, low, high), repeat(a)))
            stops.append(map(floordiv, _runs(upper - s + a, -r, low, high), repeat(a)))
        firsts = list(map(max, *firsts) if len(firsts) > 1 else firsts[0])
        stops = list(map(min, *stops) if len(stops) > 1 else stops[0])
        lengths = list(map(sub, stops, firsts))
        nonempty = list(filter((0).__lt__, lengths))
        if by_length:
            take(len(nonempty))
            count += sum(nonempty)
            return
        take(sum(nonempty))
        for column, s, r, a in zip(queued, partial, row, last_row):
            if a:
                starts = map(add, _runs(s, r, low, high), map(mul, firsts, repeat(a)))
                ends = map(add, _runs(s, r, low, high), map(mul, stops, repeat(a)))
                column.extend(chain.from_iterable(map(range, starts, ends, repeat(a))))
            else:
                column.extend(chain.from_iterable(map(repeat, _runs(s, r, low, high), lengths)))
        if len(queued[0]) >= _CHUNK:
            reduce_queued()

    def walk(i, partial):
        row = rows[i]
        interval = _interval(lo, hi, partial, row, spans[i])
        if interval is None:
            return
        low, high = interval
        take(high - low + 1)
        if i == last - 1:
            slab(partial, row, low, high)
            return
        point = [s + low * a for s, a in zip(partial, row)]
        for _ in range(low, high + 1):
            walk(i + 1, point)
            point = [s + a for s, a in zip(point, row)]

    if last:
        walk(0, [0] * width)
    else:
        slab([0] * width, [0] * width, 0, 0)
    if queued[0]:
        reduce_queued()
    return count + len(classes)


def combine(model: GroupModel, omega: GammaSet, count: int, mode: str, limit=10 ** 7):
    """All sums of exactly `count` elements (sumset) or the difference set of
    that sumset (diffset).  Returns points, deduplicated as group elements
    and ordered by canonical representative."""
    if mode not in ("sumset", "diffset"):
        raise ValueError(f"mode must be sumset or diffset, got {mode!r}")
    if count < 1:
        raise ValueError(f"need at least one summand, got {count}")
    base = len(omega)
    n_sums = math.comb(base + count - 1, count) if base else 0
    if n_sums > limit:
        raise EnumerationTooLarge(f"{n_sums} sums exceed the limit {limit}")
    sums = _first_witnesses(model, (
        tuple(sum(col) for col in zip(*combo))
        for combo in combinations_with_replacement(omega.witnesses, count)
    ))
    if mode == "diffset":
        if len(sums) ** 2 > limit:
            raise EnumerationTooLarge(
                f"{len(sums) ** 2} differences exceed the limit {limit}"
            )
        kept = list(sums.values())
        sums = _first_witnesses(model, (
            tuple(a - b for a, b in zip(wa, wb)) for wa in kept for wb in kept
        ))
    return _gamma_set(model, None, sums).points


# ---------------------------------------------------------------------------
# the counting estimate, empirically


@dataclass(frozen=True)
class CountReport:
    raw_count: int
    n_formula_value: Fraction
    ratio: Fraction
    sweep: tuple                       # (lambda, count, exact ratio) per lambda
    rank: int                          # rk of (Gamma cap H')/(Gamma cap H'')
    fitted_exponent: float | None
    ratio_bounds: tuple


def counting_check(model: GroupModel, h_prime: Subgroup, h_dprime: Subgroup,
                   lambdas, limit=10 ** 7) -> CountReport:
    """Counts against the closed-form predictor across a lambda sweep.

    Per lambda the exact ratio count / (lambda^rk * N) is recorded; the
    min/max bracket plays the role of the unknowable constants.  The growth
    exponent is also fitted on log(count) vs log(lambda), when the float
    logs of the lambdas take at least two values (otherwise it is None).
    The fit is for display only and decides nothing: on a short sweep of
    small boxes the counts need not grow like lambda^rk yet, so a float fit
    far from the exact rank is no violation.  Each count is one `card_mod`
    lattice walk over the points of iota^{-1}(H') in the box, with `limit`
    bounding the walk as in `_count_in_box`; H'' must lie in H'.
    ValueError unless there is at least one lambda.
    """
    lambdas = [as_fraction(x) for x in lambdas]
    if not lambdas:
        raise ValueError("need at least one lambda")
    nval = n_formula(model, h_prime, h_dprime)
    rk_hi = rank_profile(model, h_prime).gamma_ranks
    rk_lo = rank_profile(model, h_dprime).gamma_ranks
    rank = (rk_hi[-1] - rk_lo[-1]) if model.l else 0

    sweep = []
    counts = []
    for lam in lambdas:
        c = card_mod(model, lam, h_prime, h_dprime, limit)
        ratio = Fraction(c) / (lam ** rank * nval)
        sweep.append((lam, c, ratio))
        counts.append(c)

    fitted = None
    xs = [log_rational(lam) for lam in lambdas]
    if len(set(xs)) >= 2:
        ys = [math.log(c) for c in counts]
        xbar = sum(xs) / len(xs)
        ybar = sum(ys) / len(ys)
        sxx = sum((x - xbar) ** 2 for x in xs)
        sxy = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
        fitted = sxy / sxx  # sxx > 0: two distinct logs differ by at least 1e-16

    ratios = [entry[2] for entry in sweep]
    base = next((e for e in sweep if e[0] == 1), sweep[0])
    return CountReport(
        raw_count=base[1],
        n_formula_value=nval,
        ratio=base[2],
        sweep=tuple(sweep),
        rank=rank,
        fitted_exponent=fitted,
        ratio_bounds=(min(ratios), max(ratios)),
    )


# ---------------------------------------------------------------------------
# distribution of the box points against the chain


@dataclass(frozen=True)
class DistributionEntry:
    step: int
    candidate: tuple
    count: int
    ratio: RootedRational


@dataclass(frozen=True)
class DistributionReport:
    upper: dict
    lower: dict
    bracket: Fraction
    bracket_ok: bool


def _ratio(count: int, frak: RootedRational, k: int) -> RootedRational:
    return RootedRational(Fraction(count ** frak.root) / frak.radicand ** k, frak.root)


# the multiplicative bracket both distribution ratios must stay within
DISTRIBUTION_BRACKET = Fraction(8)

# S and S^2: the powers of the scales the distribution ratios are compared at
DISTRIBUTION_ALPHAS = (1, 2)


def _side_entries(model, powered, pchain, candidates, side, epsilon, limit):
    """{step i: entries} of one side of `distribution_checks` for the chain
    `pchain` of the model `powered`.

    Upper side, per step i < r: the candidates H strictly above H_i, each
    with the count of Gamma(2n S) in H mod H_i and its ratio to frak_S_i.
    Lower side, per step i >= 1: the candidates H strictly below H_i, each
    with the count of Gamma(eps/dim H_i * S) in H_i mod H and its ratio to
    frak_S_{i-1}.  The ratio's power is the dimension gap.
    """
    upper = side == "upper"
    out = {}
    for i in range(pchain.r) if upper else range(1, pchain.r + 1):
        node = pchain.nodes[i].subgroup
        frak = pchain.steps[i if upper else i - 1].frak_s
        lam = 2 * model.n if upper else epsilon / node.dim
        entries = []
        for cand in candidates:
            big, small = (cand, node) if upper else (node, cand)
            if big.dim <= small.dim or not span_contains(model, big, small):
                continue
            count = card_mod(powered, lam, big, small, limit)
            entries.append(DistributionEntry(
                i, cand.coeff.rows, count, _ratio(count, frak, big.dim - small.dim)
            ))
        out[i] = tuple(entries)
    return out


def distribution_checks(model: GroupModel, chain: Chain, epsilon,
                        height=2, limit=10 ** 7) -> DistributionReport:
    """Empirical form of the two distribution estimates.

    Per side (see `_side_entries`) and step, the largest upper ratio and the
    smallest lower ratio must stay within DISTRIBUTION_BRACKET when S is
    replaced by S^2, and the lower one is required positive.

    Each count is one `card_mod` lattice walk over the points of the upper
    subgroup's coefficient lattice in the box, with `limit` bounding the
    walk as in `_count_in_box`; no box is enumerated.  Only nested pairs
    are counted, so the lower lattice always lies in the upper one.
    """
    epsilon = as_fraction(epsilon)
    bracket = DISTRIBUTION_BRACKET
    # Z^0 has no sublattices, so a generator-free model has no candidates;
    # entries list them by (dim, HNF rows), and every count walks a lattice
    candidates = sorted(enumerate_closures(model, height), key=by_lattice) if model.l else ()
    sides = {"upper": {}, "lower": {}}
    for alpha in DISTRIBUTION_ALPHAS:
        powered = model.powered(alpha)
        pchain = _scaled_chain(model, chain, alpha)
        for side, per_alpha in sides.items():
            per_alpha[alpha] = _side_entries(
                model, powered, pchain, candidates, side, epsilon, limit
            )

    for side, per_alpha in sides.items():
        extreme = max if side == "upper" else min
        base, scaled = (per_alpha[alpha] for alpha in DISTRIBUTION_ALPHAS)
        for i in base:
            if not (base[i] and scaled[i]):
                continue
            a, b = (
                extreme((e.ratio for e in entries[i]), key=cmp_to_key(RootedRational.compare))
                for entries in (base, scaled)
            )
            if side == "lower" and (a.radicand <= 0 or b.radicand <= 0):
                raise CertificateViolation(
                    "distribution_positive", f"lower ratio at step {i} is not positive",
                    step=i,
                )
            if b.compare(a.times(bracket)) > 0 or a.compare(b.times(bracket)) > 0:
                raise CertificateViolation(
                    "distribution_bracket",
                    f"{side} ratio at step {i} moved beyond the bracket {bracket}",
                    step=i,
                )
    return DistributionReport(
        upper=sides["upper"], lower=sides["lower"], bracket=bracket, bracket_ok=True
    )
