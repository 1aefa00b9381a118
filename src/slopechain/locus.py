"""Jet evaluation and base-locus probing on the affine chart of P^n.

Sections of degree D are polynomials of total degree <= D in the chart
coordinates (graded-lex monomial basis).  Vanishing to order T at a point is
imposed through Hasse-normalized derivative rows: the row for (point w,
multi-index s) has entry binom(a, s) * w^(a-s) at monomial a.  Binomials
rather than falling factorials keep the integers small; over characteristic
zero the vanishing conditions are the same.

The base locus of (points, T, D) is the common zero set of the kernel of the
jet matrix.  Membership is tested by evaluating the kernel basis (computed
once), never by re-running eliminations per point, because probe loops
evaluate thousands of points.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .chain import Chain, RootedRational
from .errors import (
    CertificateViolation,
    InternalInvariantError,
    MatrixTooLarge,
    SamplingExhausted,
    SymbolicModelNotSpecialized,
)
from .gamma import GammaSet, enumerate_gamma
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
    rows: tuple
    row_index: tuple       # (point position, derivative multi-index) per row


@dataclass(frozen=True)
class KernelBasis:
    basis: MonomialBasis
    points: tuple
    order: int
    degree: int
    vectors: tuple


def _require_rational(model: GroupModel):
    if model.m != 0:
        raise SymbolicModelNotSpecialized(
            "jet evaluation needs a rational model; specialize() first"
        )


def _hasse_row(point, sigma, basis: MonomialBasis):
    row = []
    for alpha in basis.exponents:
        if any(s > a for s, a in zip(sigma, alpha)):
            row.append(Fraction(0))
            continue
        coeff = 1
        for a, s in zip(alpha, sigma):
            if s:
                coeff *= math.comb(a, s)
        value = Fraction(coeff)
        for w, a, s in zip(point, alpha, sigma):
            if a - s:
                value *= w ** (a - s)
        row.append(value)
    return tuple(row)


def jet_matrix(model: GroupModel, points, order: int, degree: int,
               limit=10 ** 6) -> JetMatrix:
    """Evaluation-with-derivatives matrix of the degree-D basis at `points`,
    one row per (point, derivative multi-index of total degree < order)."""
    _require_rational(model)
    if order < 1 or degree < 1:
        raise ValueError("order and degree must be >= 1")
    points = tuple(tuple(as_fraction(c) for c in p) for p in points)
    n = model.n
    size = math.comb(n + degree, n) * len(points) * math.comb(n + order - 1, n)
    if size > limit:
        raise MatrixTooLarge(f"jet matrix with {size} entries exceeds {limit}")
    basis = monomial_basis(n, degree)
    sigmas = _jet_orders(n, order)
    rows = []
    row_index = []
    for p_idx, point in enumerate(points):
        for sigma in sigmas:
            rows.append(_hasse_row(point, sigma, basis))
            row_index.append((p_idx, sigma))
    return JetMatrix(basis, points, order, tuple(rows), tuple(row_index))


def kernel_basis(model: GroupModel, points, order: int, degree: int,
                 limit=10 ** 6) -> KernelBasis:
    """Canonical basis of sections vanishing to order `order` at all points.
    Every basis vector is re-checked against every jet constraint."""
    jm = jet_matrix(model, points, order, degree, limit)
    vectors = linalg.nullspace(jm.rows, len(jm.basis))
    for vec in vectors:
        for row in jm.rows:
            if sum(a * b for a, b in zip(row, vec)):
                raise InternalInvariantError("kernel vector fails a jet constraint")
    return KernelBasis(jm.basis, jm.points, order, degree, tuple(vectors))


def evaluate_section(basis: MonomialBasis, coeffs, point) -> Fraction:
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


def in_base_locus(kernel: KernelBasis, point) -> bool:
    """Whether every kernel section vanishes at the point; an empty kernel
    means the base locus is everything."""
    point = tuple(as_fraction(c) for c in point)
    return all(
        evaluate_section(kernel.basis, vec, point) == 0 for vec in kernel.vectors
    )


@dataclass(frozen=True)
class EvalRank:
    rank: int
    injective: bool
    surjective: bool
    rows: int
    cols: int


def eval_rank(model: GroupModel, points, order: int, degree: int,
              limit=10 ** 6) -> EvalRank:
    """Rank of the jet evaluation map; injectivity certifies a trivial base
    locus regime, surjectivity the interpolation regime."""
    jm = jet_matrix(model, points, order, degree, limit)
    rank = linalg.rat_rank(jm.rows, len(jm.basis))
    return EvalRank(
        rank=rank,
        injective=(rank == len(jm.basis)),
        surjective=(rank == len(jm.rows)),
        rows=len(jm.rows),
        cols=len(jm.basis),
    )


def translate_section(basis: MonomialBasis, coeffs, shift) -> tuple:
    """Coefficients of P(x - g); translation is plain substitution on the
    vector group, and the degree never grows."""
    shift = tuple(as_fraction(c) for c in shift)
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
            if coeff:
                out[index[mon]] += coeff
    return tuple(out)


# ---------------------------------------------------------------------------
# membership in Gamma(S) + H


class _TranslateMembership:
    """Fast exact test for x in points + span(H)."""

    def __init__(self, model: GroupModel, omega: GammaSet, subgroup):
        self.n = model.n
        self.dim = subgroup.dim
        self.points = omega.points
        self.point_set = set(omega.points) if subgroup.dim == 0 else None
        if 0 < subgroup.dim < model.n:
            rows = [[as_fraction(c) for c in p] for p in subgroup.span]
            self.rref, self.pivots = linalg.rat_rref(rows, model.n)
        else:
            self.rref, self.pivots = (), ()

    def _in_span(self, vec):
        v = list(vec)
        for row, c in zip(self.rref, self.pivots):
            if v[c]:
                f = v[c]
                v = [a - f * b for a, b in zip(v, row)]
        return not any(v)

    def __contains__(self, x):
        if self.dim == self.n:
            return True
        if self.dim == 0:
            return x in self.point_set
        for p in self.points:
            if self._in_span(tuple(a - b for a, b in zip(x, p))):
                return True
        return False


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


class _ProbeSamples:
    """Seed-reproducible sample points, built once and reused across degrees
    so that membership verdicts are comparable."""

    def __init__(self, model, chain, order_epsilon, samples, seed, limit):
        epsilon = as_fraction(order_epsilon)
        if not 0 < epsilon < 1:
            raise ValueError(f"epsilon must be in (0,1), got {epsilon}")
        rng = random.Random(seed)
        self.omega = enumerate_gamma(model, Fraction(1), limit)
        omega_eps = enumerate_gamma(model, 1 - epsilon, limit)
        omega_two = enumerate_gamma(model, Fraction(2), limit)
        top = max(int(math.ceil(model.scales[0])) if model.l else 1, 1)
        coord_bound = 2 * top + 2

        self.lower = []
        self.upper = []
        for node_idx, sub in enumerate(node.subgroup for node in chain.nodes):
            span_rows = [[as_fraction(c) for c in p] for p in sub.span]
            pts = []
            for _ in range(samples):
                base = omega_eps.points[rng.randrange(len(omega_eps.points))]
                coords = list(base)
                for row in span_rows:
                    factor = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                    if factor:
                        coords = [a + factor * b for a, b in zip(coords, row)]
                pts.append(tuple(coords))
            self.lower.append(tuple(pts))

            if sub.dim == model.n:
                self.upper.append(None)
                continue
            member = _TranslateMembership(model, self.omega, sub)
            outside = []
            for p in omega_two.points:
                if p not in member:
                    outside.append(p)
                    if len(outside) >= samples:
                        break
            attempts = 0
            while len(outside) < samples and attempts < 50 * samples:
                attempts += 1
                x = tuple(
                    Fraction(rng.randint(-coord_bound, coord_bound), rng.randint(1, 3))
                    for _ in range(model.n)
                )
                if x not in member:
                    outside.append(x)
            if not outside:
                raise SamplingExhausted(
                    f"no points outside Gamma(S) + H_{node_idx} were found"
                )
            self.upper.append(tuple(outside))


def _witness(kernel, points, inside_wanted, memory, key):
    """The first sample whose base-locus membership is not `inside_wanted`,
    or None.  Without `memory` it stops at that witness; with it (a sweep's
    record of earlier memberships, by `key` and sample position) it
    evaluates every sample and checks that none re-enters the base locus."""
    witness = None
    for p_idx, p in enumerate(points):
        inside = in_base_locus(kernel, p)
        if memory is not None:
            if memory.get(key + (p_idx,)) is False and inside:
                raise CertificateViolation(
                    "locus_monotonicity",
                    f"point re-entered the base locus at D={kernel.degree}",
                )
            memory[key + (p_idx,)] = inside
        if inside != inside_wanted and witness is None:
            witness = p
            if memory is None:
                break
    return witness


def _probe(sampler, chain, kernel, memory):
    """One LocusEntry per chain index, from the sampler's fixed points."""
    entries = []
    for idx, node in enumerate(chain.nodes):
        lower_witness = _witness(kernel, sampler.lower[idx], True, memory, ("lower", idx))
        outside = sampler.upper[idx]
        if outside is None:
            upper, upper_witness = None, None
        else:
            upper_witness = _witness(kernel, outside, False, memory, ("upper", idx))
            upper = upper_witness is None
        entries.append(LocusEntry(
            idx, node.dim, lower_witness is None, upper, lower_witness, upper_witness,
            0 if outside is None else len(outside),
        ))
    return tuple(entries)


def locus_probe(model: GroupModel, chain: Chain, order: int, degree: int,
                epsilon, samples=100, seed=0, limit=10 ** 6,
                enum_limit=10 ** 7):
    """Verdict pair per chain index i: whether every sampled point of
    Gamma((1-eps)S) + H_i lies in the base locus, and whether every sampled
    point outside Gamma(S) + H_i lies outside it.  For the full group the
    upper test is vacuous and reported as None."""
    _require_rational(model)
    sampler = _ProbeSamples(model, chain, epsilon, samples, seed, enum_limit)
    kernel = kernel_basis(model, sampler.omega.points, order, degree, limit)
    return _probe(sampler, chain, kernel, None)


def threshold_sweep(model: GroupModel, chain: Chain, order: int, degrees,
                    epsilon, samples=100, seed=0, limit=10 ** 6,
                    enum_limit=10 ** 7) -> LocusReport:
    """Run the probe across a degree range with one fixed sample set.

    The base locus can only shrink as D grows (the kernel gains sections),
    so membership of a fixed point may switch from inside to outside but
    never back, and the index achieving the both-true verdict pair can only
    decrease; both are asserted exactly.  Empirical transition degrees are
    reported beside the exact step thresholds T * frak_S_i for comparison
    (display only: the proportionality constants are not effective).
    """
    _require_rational(model)
    degrees = sorted(int(d) for d in degrees)
    sampler = _ProbeSamples(model, chain, epsilon, samples, seed, enum_limit)
    rows = []
    prev_members: dict = {}
    prev_nullity = -1
    prev_istar = None
    transitions = []
    for degree in degrees:
        kernel = kernel_basis(model, sampler.omega.points, order, degree, limit)
        rank = len(kernel.basis) - len(kernel.vectors)
        nullity = len(kernel.vectors)
        if nullity < prev_nullity:
            raise CertificateViolation(
                "locus_monotonicity", f"nullity dropped at D={degree}"
            )
        prev_nullity = nullity
        verdicts = [
            (e.lower, e.upper) for e in _probe(sampler, chain, kernel, prev_members)
        ]
        both = [
            idx
            for idx, (lo, up) in enumerate(verdicts)
            if lo and (up if up is not None else True)
        ]
        i_star = min(both) if both else None
        if i_star is not None and prev_istar is not None and i_star > prev_istar:
            raise CertificateViolation(
                "locus_monotonicity",
                f"both-true index increased from {prev_istar} to {i_star} at D={degree}",
            )
        if i_star is not None:
            if prev_istar is None or i_star != prev_istar:
                transitions.append((degree, i_star))
            prev_istar = i_star
        rows.append(SweepRow(degree, rank, nullity, tuple(verdicts), i_star))
    # exact T * frak_S_i as a RootedRational, with a display float beside it
    thresholds = tuple(
        (
            i,
            RootedRational(
                Fraction(order) ** chain.steps[i].frak_s.root
                * chain.steps[i].frak_s.radicand,
                chain.steps[i].frak_s.root,
            ),
            order * chain.steps[i].frak_s.approx(),
        )
        for i in range(chain.r)
    )
    return LocusReport(tuple(rows), tuple(transitions), thresholds)
