"""The slope filtration: a canonical tower {0} = H_0 < H_1 < ... < H_r = G.

The chain is built from one functional, the weighted rank functional of a
connected subgroup K,

    phi(K) = sum_j (rk(Gamma_j cap K) - rk(Gamma_{j-1} cap K)) * log S_j,

kept as an integer exponent vector over the multiset {log S_j}: logarithms
are never evaluated, and every comparison reduces to an exact rational
power-product comparison, because the equality cases carry structure that
floating point would destroy.

The tower is the unique chain such that each H_{i+1} maximizes the slope
(phi(K) - phi(H_i)) / (dim K - dim H_i) over subgroups K of larger dimension,
ties broken by maximal dimension.  Equivalently, the points (dim K, phi(K))
all lie on or below the convex polygon through the (dim H_i, phi(H_i)), and
a point lands on an edge only when H_i <= K <= H_{i+1}.

Two constructions are implemented and cross-checked:

* a closed form for rational models: the maximal phi per dimension is the
  concave profile f(d) = sum_j min(r_j, d) log(S_j / S_{j+1}) with
  r_j = rk Gamma_j, so the chain members are the closures of the Gamma_j
  whose rank is a dimension where the scales drop;
* the greedy maximal-slope construction over a candidate set (prefix
  closures and the full group), which is the definitional route and the one
  used for symbolic models.

`verify_chain` then checks the defining inequality exactly against an
exhaustive family of candidate subgroups and fails loudly with the witness
when anything is off.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import log

from .errors import (
    AmbiguousCandidates,
    CertificateViolation,
    IndexOutOfRange,
    InternalInvariantError,
    NotNested,
)
from .model import (
    GroupModel,
    RankProfile,
    Subgroup,
    by_lattice,
    closure,
    enumerate_closures,
    rank_profile,
    span_contains,
)
from .polys import as_fraction


# ---------------------------------------------------------------------------
# exact values built on exponent vectors


def log_rational(x) -> float:
    """log x for a positive rational x; where float(x) is out of range,
    through the logs of its integer numerator and denominator."""
    try:
        return log(float(x))
    except (OverflowError, ValueError):
        return log(x.numerator) - log(x.denominator)


@dataclass(frozen=True)
class PhiValue:
    """sum_j exponents[j] * log S_j, exact."""

    exponents: tuple[int, ...]

    def __add__(self, other):
        return PhiValue(tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def __sub__(self, other):
        return PhiValue(tuple(a - b for a, b in zip(self.exponents, other.exponents)))

    def scaled(self, k: int):
        return PhiValue(tuple(k * e for e in self.exponents))

    def approx(self, scales) -> float:
        return float(sum(e * log_rational(s) for e, s in zip(self.exponents, scales) if e))


def power_product(scales, exponents) -> Fraction:
    prod = Fraction(1)
    for s, e in zip(scales, exponents):
        if e and s != 1:
            prod *= Fraction(s) ** e
    return prod


def phi_sign(scales, value: PhiValue) -> int:
    """Sign of sum e_j log S_j, decided by comparing prod S_j^{e_j} with 1."""
    prod = power_product(scales, value.exponents)
    return (prod > 1) - (prod < 1)


@dataclass(frozen=True)
class SlopeValue:
    """A phi difference divided by a positive dimension difference."""

    numerator: PhiValue
    denominator: int

    def approx(self, scales) -> float:
        return self.numerator.approx(scales) / self.denominator


def compare_slopes(model: GroupModel, a: SlopeValue, b: SlopeValue) -> int:
    """-1 / 0 / +1 as a < b, a = b, a > b; exact."""
    diff = a.numerator.scaled(b.denominator) - b.numerator.scaled(a.denominator)
    return phi_sign(model.scales, diff)


@dataclass(frozen=True)
class RootedRational:
    """radicand ** (1/root) with radicand a positive rational."""

    radicand: Fraction
    root: int

    def compare(self, other: "RootedRational") -> int:
        left = self.radicand ** other.root
        right = other.radicand ** self.root
        return (left > right) - (left < right)

    def compare_fraction(self, value: Fraction) -> int:
        value = as_fraction(value)
        right = value ** self.root
        return (self.radicand > right) - (self.radicand < right)

    def times(self, factor) -> "RootedRational":
        """factor * self for a positive rational factor."""
        return RootedRational(factor ** self.root * self.radicand, self.root)

    def approx(self) -> float | None:
        """The value as a float, or None when the radicand does not fit one."""
        try:
            return float(self.radicand) ** (1.0 / self.root)
        except OverflowError:
            return None


# ---------------------------------------------------------------------------
# phi and the chain


def phi(model: GroupModel, subgroup: Subgroup) -> PhiValue:
    """Exponent vector of phi(H): the per-j rank jumps of its rank profile.

    The S_{l+1} = 1 rewriting sum_j rk(Gamma_j cap H) log(S_j/S_{j+1}) has
    the same exponent vector, r_j - r_{j-1} on log S_j, so it is not
    computed separately.
    """
    return phi_from_profile(rank_profile(model, subgroup))


def phi_from_profile(profile: RankProfile) -> PhiValue:
    """The per-j rank jumps r_j - r_{j-1} of the profile, with r_0 = 0."""
    ranks = (0,) + profile.gamma_ranks
    return PhiValue(tuple(b - a for a, b in zip(ranks, ranks[1:])))


@dataclass(frozen=True)
class ChainNode:
    subgroup: Subgroup
    dim: int
    phi: PhiValue


@dataclass(frozen=True)
class ChainStep:
    frak_s: RootedRational
    slope: SlopeValue


@dataclass(frozen=True)
class Chain:
    nodes: tuple[ChainNode, ...]
    steps: tuple[ChainStep, ...]

    @property
    def r(self) -> int:
        return len(self.steps)

    @property
    def subgroups(self):
        return tuple(node.subgroup for node in self.nodes)

    def dims(self):
        return tuple(node.dim for node in self.nodes)


def _assemble(model: GroupModel, subgroups) -> Chain:
    """Chain nodes and steps; frak_S of a step is exp of its slope, the
    radicand prod S_j^{e_j} of the slope's phi difference under the root
    dim H_{i+1} - dim H_i."""
    nodes = [ChainNode(sub, sub.dim, phi(model, sub)) for sub in subgroups]
    steps = []
    for lo, hi in zip(nodes, nodes[1:]):
        if hi.dim <= lo.dim:
            raise InternalInvariantError("chain dimensions must strictly increase")
        slope = SlopeValue(hi.phi - lo.phi, hi.dim - lo.dim)
        frak = RootedRational(
            power_product(model.scales, slope.numerator.exponents), slope.denominator
        )
        steps.append(ChainStep(frak, slope))
    for i in range(len(steps) - 1):
        if compare_slopes(model, steps[i].slope, steps[i + 1].slope) <= 0:
            raise InternalInvariantError("chain slopes must strictly decrease")
    return Chain(tuple(nodes), tuple(steps))


def _build_chain_fast(model: GroupModel) -> Chain:
    """Closed form for rational models.

    Write r_j = rk Gamma_j and c_j = log(S_j/S_{j+1}) >= 0 with S_{l+1} = 1.
    The best phi in dimension d is f(d) = sum_j min(r_j, d) c_j, and the
    chain dimensions are 0, n and the d where the slope of f strictly drops.
    The term min(r_j, d) c_j drops its slope by c_j at d = r_j and nowhere
    else, so f drops its slope at d by the sum of the c_j with r_j = d, and
    c_j > 0 exactly when S_j > S_{j+1}: the chain dimensions are 0, n and
    every r_j with 0 < r_j < n and S_j > S_{j+1}.  Over Q, rk Gamma_j =
    dim span Gamma_j, so all Gamma_j with r_j = d span one subspace; the
    vertex of dimension d is the prefix closure of the first such j.
    """
    ranks = rank_profile(model, model.full_subgroup()).gamma_ranks
    scales = model.scales + (1,)
    drops = {r for r, s, t in zip(ranks, scales, scales[1:]) if 0 < r < model.n and s > t}
    subgroups = [model.zero_subgroup()]
    for d in sorted(drops):
        vertex = model.prefix_closure(ranks.index(d) + 1)
        if vertex.dim != d:
            raise InternalInvariantError("prefix closure has unexpected dimension")
        subgroups.append(vertex)
    subgroups.append(model.full_subgroup())
    return _assemble(model, subgroups)


def _prefix_candidates(model: GroupModel):
    """Distinct prefix closures (the zero subgroup first) and the full group."""
    prefixes = map(model.prefix_closure, range(model.l + 1))
    return list(dict.fromkeys([*prefixes, model.full_subgroup()]))


def _greedy_tower(model: GroupModel, info):
    """The definitional construction over (candidate, phi) pairs with the
    zero subgroup first: from H_i pick the candidate of larger dimension with
    maximal slope, breaking ties by maximal dimension, until dimension n.
    Returns the positions of the tower members in `info`.  Raises
    AmbiguousCandidates when two distinct subgroups survive both criteria,
    which would contradict uniqueness and must reach the caller."""
    tower = [0]
    while info[tower[-1]][0].dim < model.n:
        current, current_phi = info[tower[-1]]
        best = []
        best_slope = None
        for pos, (cand, cand_phi) in enumerate(info):
            if cand.dim <= current.dim:
                continue
            slope = SlopeValue(cand_phi - current_phi, cand.dim - current.dim)
            if best_slope is None:
                best, best_slope = [pos], slope
                continue
            cmp = compare_slopes(model, slope, best_slope)
            if cmp > 0:
                best, best_slope = [pos], slope
            elif cmp == 0:
                best.append(pos)
        dmax = max(info[pos][0].dim for pos in best)
        top = [pos for pos in best if info[pos][0].dim == dmax]
        tied = list(dict.fromkeys(info[pos][0] for pos in top))
        if len(tied) > 1:
            raise AmbiguousCandidates(
                "two distinct maximal-dimension slope maximizers",
                tied[0].coeff.rows, tied[1].coeff.rows,
            )
        tower.append(top[0])
    return tower


def build_chain_greedy(model: GroupModel) -> Chain:
    """The greedy maximal-slope tower over the prefix closures and the full
    group; raises AmbiguousCandidates as `_greedy_tower` does."""
    candidates = _prefix_candidates(model)
    info = [(c, phi(model, c)) for c in candidates]
    return _assemble(model, [candidates[i] for i in _greedy_tower(model, info)])


def build_chain(model: GroupModel) -> Chain:
    """Rational models take the closed form; symbolic models the greedy
    construction over prefix closures.  The two agree wherever both apply
    (enforced by the test suite and the certificate)."""
    if model.m == 0:
        return _build_chain_fast(model)
    return build_chain_greedy(model)


def frak_S(model: GroupModel, chain: Chain, i: int) -> RootedRational:
    if not 0 <= i <= chain.r - 1:
        raise IndexOutOfRange(f"step {i} outside 0..{chain.r - 1}")
    return chain.steps[i].frak_s


# ---------------------------------------------------------------------------
# mu exponents (equal scales)


@dataclass(frozen=True)
class MuReport:
    mu: Fraction
    mu_star: Fraction
    mu_list: tuple[Fraction, ...]
    well_distributed: bool
    chain: Chain


def mu_exponents(model: GroupModel) -> MuReport:
    """Build the chain at one common scale (the subgroups are scale-free) and
    read off the per-step rank-jump / dimension-jump ratios.  mu* is the
    first, mu the last; a single step means the generators are spread as
    evenly as possible."""
    equal = model.equal_scale_model()
    chain = build_chain(equal)
    mu_list = []
    for i in range(chain.r):
        jump = chain.nodes[i + 1].phi - chain.nodes[i].phi
        ddim = chain.nodes[i + 1].dim - chain.nodes[i].dim
        mu_list.append(Fraction(sum(jump.exponents), ddim))
    return MuReport(
        mu=mu_list[-1],
        mu_star=mu_list[0],
        mu_list=tuple(mu_list),
        well_distributed=(chain.r == 1),
        chain=chain,
    )


# ---------------------------------------------------------------------------
# the closed-form count predictor


def n_formula(model: GroupModel, h_prime: Subgroup, h_dprime: Subgroup) -> Fraction:
    """prod S_j ** e_j with e_j the rank jumps of (Gamma_j cap H')/(Gamma_j
    cap H''); the closed-form predictor of box-point counts in H' mod H''."""
    if not span_contains(model, h_prime, h_dprime):
        raise NotNested("H'' is not contained in H'")
    jumps = phi(model, h_prime) - phi(model, h_dprime)
    return power_product(model.scales, jumps.exponents)


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class CandidateCheck:
    lattice: tuple[tuple[int, ...], ...]
    dim: int
    gamma_ranks: tuple[int, ...]
    chi_exponents: tuple[tuple[int, ...], ...]
    chi_signs: tuple[int, ...]
    equality_steps: tuple[int, ...]


@dataclass(frozen=True)
class ChainCertificate:
    equality_witnesses: tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]
    scaling_alphas: tuple[int, ...]
    psi_injective: bool
    telescoping_ok: bool
    slopes_strictly_decreasing: bool
    # {candidate: (rank profile, chi exponents, chi signs)}, in pool order
    pool: dict = field(compare=False, repr=False)

    @property
    def candidates_checked(self) -> int:
        return len(self.pool)

    @cached_property
    def candidates(self) -> tuple[CandidateCheck, ...]:
        """One check per candidate, sorted by (dimension, HNF rows); every
        candidate's lattice is built here, on first read."""
        return tuple(
            CandidateCheck(
                lattice=cand.coeff.rows,
                dim=cand.dim,
                gamma_ranks=profile.gamma_ranks,
                chi_exponents=chi_exps,
                chi_signs=chi_signs,
                equality_steps=tuple(i for i, sign in enumerate(chi_signs) if sign == 0),
            )
            for cand, (profile, chi_exps, chi_signs) in sorted(
                self.pool.items(), key=lambda item: by_lattice(item[0])
            )
        )


@dataclass(frozen=True)
class VerifyOptions:
    height: int = 2
    random_count: int = 0
    seed: int = 0


# the powers alpha of the scaling check S_j -> S_j^alpha
SCALING_ALPHAS = (2, 3)


def _scaled_chain(model: GroupModel, chain: Chain, alpha: int) -> Chain:
    """The chain of model.powered(alpha), which must have the members of
    `chain`; raises CertificateViolation("scaling") otherwise."""
    rebuilt = build_chain(model.powered(alpha))
    if rebuilt.subgroups != chain.subgroups:
        raise CertificateViolation("scaling", f"chain changed under S -> S^{alpha}")
    return rebuilt


def _chi(dim_k: int, phi_k: PhiValue, lo: ChainNode, hi: ChainNode) -> PhiValue:
    """Left side of the segment inequality for one step: <= 0 always, with
    equality exactly on the segment through (dim, phi) of the two nodes."""
    ddim = hi.dim - lo.dim
    dphi = hi.phi - lo.phi
    const = hi.phi.scaled(lo.dim) - lo.phi.scaled(hi.dim)
    return phi_k.scaled(ddim) - dphi.scaled(dim_k) + const


def _random_lattice_closures(model, options):
    """The distinct closures of `options.random_count` random lattices, in
    the order first drawn."""
    rng = random.Random(options.seed)
    out = {}
    for _ in range(options.random_count):
        k = rng.randint(1, max(1, model.l))
        rows = [
            [rng.randint(-2 * options.height, 2 * options.height) for _ in range(model.l)]
            for _ in range(k)
        ]
        out[closure(model, rows)] = None
    return out


def verify_chain(model: GroupModel, chain: Chain, options: VerifyOptions | None = None) -> ChainCertificate:
    """Exact certificate for a chain.

    Candidates are every distinct closure of a sublattice generated by
    vectors of entry height <= options.height, plus optional random lattices,
    the chain members and the full group.  For each candidate K and step i
    the segment excess is checked to be <= 0 exactly, with the sandwich
    H_i <= K <= H_{i+1} on equality; the rank-profile map is checked to
    separate chain members from every candidate; the chain must be invariant
    under S_j -> S_j^alpha; and the product of the step radicands must
    telescope to prod S_j^{rk Gamma_j - rk Gamma_{j-1}}.

    phi(K) and every chi_i(K) depend on K's rank profile only, which is read
    off K's Q-span echelon.  A candidate whose chi signs are all negative
    and whose profile is no chain member's passes every check, so only the
    others, the flagged ones, go through the check loop, in the order
    (dim K, HNF of K's lattice); only they have their lattice built, as the
    witness a violation or an equality names.  The first failure is
    therefore the one a loop over every candidate in that order would meet.

    Any failure raises CertificateViolation carrying the offending candidate
    and step; with honest inputs that means either a bug or, for symbolic
    models, a candidate family the prefix-closure construction missed.
    """
    options = options or VerifyOptions()
    pool = dict.fromkeys([
        *enumerate_closures(model, options.height),
        *_random_lattice_closures(model, options),
        *chain.subgroups,
        model.full_subgroup(),
    ])
    chain_profiles = [rank_profile(model, s) for s in chain.subgroups]

    # chi_i(K) and its sign depend on the position vector (dim K, ranks) only
    segment_excess = {}
    flagged = []
    for cand in pool:
        profile = rank_profile(model, cand)
        if profile not in segment_excess:
            phi_k = phi_from_profile(profile)
            chis = [_chi(cand.dim, phi_k, lo, hi) for lo, hi in zip(chain.nodes, chain.nodes[1:])]
            segment_excess[profile] = (
                profile,
                tuple(chi.exponents for chi in chis),
                tuple(phi_sign(model.scales, chi) for chi in chis),
            )
        _, _, chi_signs = pool[cand] = segment_excess[profile]
        if any(sign >= 0 for sign in chi_signs) or profile in chain_profiles:
            flagged.append(cand)

    equality_witnesses = []
    for cand in sorted(flagged, key=by_lattice):
        lattice = cand.coeff.rows
        profile, _, chi_signs = pool[cand]
        for i, sign in enumerate(chi_signs):
            lo, hi = chain.nodes[i], chain.nodes[i + 1]
            if sign > 0:
                raise CertificateViolation(
                    "chi_positive",
                    f"candidate {lattice} lies above segment {i}",
                    step=i,
                    witness=lattice,
                )
            if sign == 0:
                if not (
                    span_contains(model, cand, lo.subgroup)
                    and span_contains(model, hi.subgroup, cand)
                ):
                    raise CertificateViolation(
                        "equality_sandwich",
                        f"candidate {lattice} is on segment {i} but not between "
                        "its endpoints",
                        step=i,
                        witness=lattice,
                    )
                equality_witnesses.append((i, lattice))
        for idx, (member, cp) in enumerate(zip(chain.subgroups, chain_profiles)):
            if profile == cp and cand != member:
                raise CertificateViolation(
                    "psi_injectivity",
                    f"candidate {lattice} shares the rank profile of chain "
                    f"member {idx}",
                    step=idx,
                    witness=lattice,
                )

    for i in range(chain.r - 1):
        if compare_slopes(model, chain.steps[i].slope, chain.steps[i + 1].slope) <= 0:
            raise CertificateViolation(
                "slope_order", f"slope does not strictly decrease at step {i}", step=i
            )
    for i in range(chain.r - 1):
        if chain.steps[i].frak_s.compare(chain.steps[i + 1].frak_s) <= 0:
            raise CertificateViolation(
                "frak_order", f"frak_S does not strictly decrease at step {i}", step=i
            )
    if chain.steps and chain.steps[-1].frak_s.compare_fraction(Fraction(1)) < 0:
        raise CertificateViolation("frak_order", "last frak_S is below 1", step=chain.r - 1)

    for alpha in SCALING_ALPHAS:
        _scaled_chain(model, chain, alpha)

    telescoped = phi(model, model.full_subgroup()) - phi(model, model.zero_subgroup())
    expected = power_product(model.scales, telescoped.exponents)
    actual = Fraction(1)
    for step in chain.steps:
        actual *= step.frak_s.radicand
    if actual != expected:
        raise CertificateViolation(
            "telescoping",
            f"product of radicands {actual} != {expected}",
        )

    return ChainCertificate(
        equality_witnesses=tuple(equality_witnesses),
        scaling_alphas=SCALING_ALPHAS,
        psi_injective=True,
        telescoping_ok=True,
        slopes_strictly_decreasing=True,
        pool=pool,
    )


# ---------------------------------------------------------------------------
# polygon export


def polygon_rows(model: GroupModel, chain: Chain):
    """(dim, display phi, exact exponents) per chain node: the vertices of
    the convex polygon swept by (dim K, phi(K))."""
    rows = []
    for node in chain.nodes:
        rows.append((node.dim, node.phi.approx(model.scales), node.phi.exponents))
    return rows
