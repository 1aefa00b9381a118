"""The ambient vector group, generator tuples, and connected subgroups.

A model is the vector group of dimension n together with generators
gamma_1..gamma_l and box scales S_1 >= ... >= S_l >= 1.  Coordinates are
rational (m = 0, `Fraction`s) or affine-linear `Poly`s in formal symbols
t1..tm that stand for algebraically independent transcendentals; the second
kind is what makes the group-theoretic ranks differ from plain linear algebra
over Q (a line can carry a rank-2 subgroup).

Connected algebraic subgroups of a vector group are exactly the linear
subspaces.  A subgroup H is carried as (dimension, Q-span echelon), where the
echelon is the canonical integer echelon of Q.iota^{-1}(H), its coefficient
columns reversed, and iota maps an integer vector v to sum v_j gamma_j.  The
coefficient lattice iota^{-1}(H) is saturated and contains iota^{-1}(0), so
it is Z^l cap (its Q-span): the echelon determines it, and subgroup equality
is plain equality of (dimension, echelon).  Each pivot marks the last nonzero
coefficient of its row, so rank profiles are pivot counts.  The lattice, in
Hermite normal form, and spanning points are built from the echelon when
read.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, product
from operator import mul

from . import linalg
from .errors import (
    DimensionMismatch,
    DuplicateSymbol,
    InvalidScale,
    MissingSymbol,
    ValidationError,
)
from .polys import Poly, as_fraction


@dataclass(frozen=True)
class Sublattice:
    """Integer row lattice in Z^ncols, basis in canonical HNF."""

    ncols: int
    rows: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.rows)

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        """The lead column of each basis row, found once per lattice."""
        return tuple(map(linalg._lead, self.rows))

    def contains(self, vector) -> bool:
        return not any(self.reduce(vector))

    def reduce(self, vector) -> tuple[int, ...]:
        return linalg.lattice_reduce(self.rows, self.pivots, vector)


@dataclass(frozen=True)
class Subgroup:
    """A connected algebraic subgroup of the vector group, determined by its
    dimension and `basis`, the canonical integer echelon (`linalg._echelon`
    pairs) of the Q-span of its coefficient lattice with the coefficient
    columns reversed: the rows of `basis` are coefficient vectors read from
    slot l down to slot 1, and the pivot c of a row marks its last nonzero
    coefficient, slot l - c.

    The lattice is Z^l cap (that Q-span), so `basis` names it as well as its
    HNF does; `coeff` saturates `basis` on first read, unless the subgroup
    was made from its lattice (`of_lattice`).  `model` only builds `coeff`
    and `span`.
    """

    dim: int
    basis: tuple[tuple[int, tuple[int, ...]], ...]
    model: GroupModel = field(compare=False, repr=False)

    @classmethod
    def of_lattice(cls, dim: int, coeff: Sublattice, model: GroupModel) -> "Subgroup":
        """The subgroup of dimension `dim` with the saturated lattice `coeff`."""
        sub = cls(dim, linalg._echelon(row[::-1] for row in coeff.rows), model)
        sub.__dict__["coeff"] = coeff
        return sub

    @cached_property
    def coeff(self) -> Sublattice:
        """The coefficient lattice iota^{-1}(H), in HNF: Z^l cap span_Q(basis),
        saturated in the reversed columns, turned back and put in HNF."""
        l = self.model.l
        rows = [row[::-1] for row in linalg._saturation(self.basis, l)]
        return Sublattice(l, linalg.hnf(rows, l))

    @cached_property
    def span(self) -> tuple:
        """Points spanning H over the symbol fraction field: the identity
        basis for the full group, otherwise the nonzero images of the
        coefficient basis."""
        model = self.model
        if self.dim == model.n:
            one = Fraction(1) if model.m == 0 else Poly.const(1, model.m)
            zero = model.zero_point()
            return tuple(zero[:i] + (one,) + zero[i + 1:] for i in range(model.n))
        return tuple(pt for pt in map(model.point_of, self.coeff.rows) if any(pt))

    def __repr__(self):
        return f"Subgroup(dim={self.dim}, basis={[list(r[::-1]) for _, r in self.basis]})"


def by_lattice(subgroup: Subgroup):
    """Sort key (dimension, HNF rows): the order in which reports list
    subgroups.  It builds the lattice of each subgroup it keys."""
    return subgroup.dim, subgroup.coeff.rows


@dataclass(frozen=True)
class RankProfile:
    """dim H together with the vector of ranks of Gamma_j intersect H.

    This is the invariant that separates chain members from every other
    subgroup: no two distinct closed subgroups in a chain share it.
    """

    dim: int
    gamma_ranks: tuple[int, ...]


@dataclass(frozen=True)
class ModelConfig:
    n: int
    generators: tuple
    scales: tuple
    symbols: tuple = ()


class GroupModel:
    """Immutable bundle of (n, symbols, generators, sorted scales)."""

    def __init__(self, n, m, symbols, generators, scales, permutation, provenance=None):
        self.n = n
        self.m = m
        self.symbols = tuple(symbols)
        self.generators = tuple(tuple(g) for g in generators)
        self.scales = tuple(scales)
        self.permutation = tuple(permutation)
        self.provenance = dict(provenance or {})
        self._cache = {}

    @property
    def l(self) -> int:
        return len(self.generators)

    def zero_point(self):
        return (Fraction(0) if self.m == 0 else Poly(),) * self.n

    def point_of(self, vector):
        """iota(v) = sum v_j gamma_j.

        Over Q each coordinate is one integer dot product of v with the
        generators' column over the model's denominator D, then one Fraction,
        with no gcd where D is 1.
        """
        if self.m == 0:
            den, columns = self._cleared_columns()
            if den == 1:
                return tuple(Fraction(sum(map(mul, nums, vector))) for nums in columns)
            return tuple(Fraction(sum(map(mul, nums, vector)), den) for nums in columns)
        coords = list(self.zero_point())
        for c, gen in zip(vector, self.generators):
            if c:
                for i in range(self.n):
                    coords[i] = coords[i] + c * gen[i]
        return tuple(coords)

    def _cleared_columns(self):
        """(D, columns) of a rational model: D the lcm of the denominators of
        all generator entries, and per coordinate the integer numerators of
        the generators' entries over D."""
        if "cleared" not in self._cache:
            den = math.lcm(*(x.denominator for gen in self.generators for x in gen))
            self._cache["cleared"] = den, tuple(
                tuple(gen[i].numerator * (den // gen[i].denominator) for gen in self.generators)
                for i in range(self.n)
            )
        return self._cache["cleared"]

    def _specialized_matrix(self, point):
        """N_a: the generators specialized at the integer point t = a, as
        integer rows, one per coordinate, over the specialized model's D, with
        the generators in reverse order, the column order of `Subgroup.basis`."""
        key = ("specialized", point)
        if key not in self._cache:
            flat = specialize(self, dict(zip(range(1, self.m + 1), point)))
            self._cache[key] = tuple(row[::-1] for row in flat._cleared_columns()[1])
        return self._cache[key]

    def kernel_lattice(self) -> Sublattice:
        """iota^{-1}(0): integer relations among the generators."""
        if "kernel" not in self._cache:
            self._cache["kernel"] = Sublattice(self.l, _relations(self.generators))
        return self._cache["kernel"]

    def zero_subgroup(self) -> Subgroup:
        if "zero" not in self._cache:
            self._cache["zero"] = Subgroup.of_lattice(0, self.kernel_lattice(), self)
        return self._cache["zero"]

    def full_subgroup(self) -> Subgroup:
        if "full" not in self._cache:
            self._cache["full"] = Subgroup.of_lattice(self.n, self.prefix_lattice(self.l), self)
        return self._cache["full"]

    def prefix_lattice(self, j) -> Sublattice:
        rows = tuple(
            tuple(1 if k == i else 0 for k in range(self.l)) for i in range(j)
        )
        return Sublattice(self.l, rows)

    def prefix_closure(self, j) -> Subgroup:
        """The closure of Gamma_j, i.e. of the prefix lattice Z^j x 0, closed
        on first request; the one place a prefix lattice is closed."""
        key = ("prefix_closure", j)
        if key not in self._cache:
            self._cache[key] = _closure(self, self.prefix_lattice(j).rows)
        return self._cache[key]

    def kernel_prefix_ranks(self):
        """Entry j (0 <= j <= l) is rk(iota^{-1}(0) cap Z^j x 0), counted off
        the zero subgroup's echelon."""
        if "kernel_prefix" not in self._cache:
            self._cache["kernel_prefix"] = _pivot_counts(self.zero_subgroup().basis, self.l)
        return self._cache["kernel_prefix"]

    def _rescaled(self, scales, permutation, provenance) -> "GroupModel":
        """Same generators under other scales.  Every cache entry depends on
        the generators only, so the derived model shares this one's cache."""
        model = GroupModel(
            self.n, self.m, self.symbols, self.generators, scales, permutation, provenance
        )
        model._cache = self._cache
        return model

    def powered(self, alpha: int) -> "GroupModel":
        """Same model with scales S_j replaced by S_j ** alpha."""
        if alpha < 1:
            raise InvalidScale(f"power {alpha} must be >= 1")
        return self._rescaled(
            tuple(s ** alpha for s in self.scales),
            self.permutation,
            dict(self.provenance, powered=alpha),
        )

    def equal_scale_model(self) -> "GroupModel":
        """All box scales set to 2; the chain of this model is scale-free,
        which is what the mu exponents are read off from."""
        return self._rescaled(
            (Fraction(2),) * self.l,
            tuple(range(1, self.l + 1)),
            dict(self.provenance, equal_scale="2"),
        )

    def __repr__(self):
        return (
            f"GroupModel(n={self.n}, l={self.l}, m={self.m}, "
            f"scales={[str(s) for s in self.scales]})"
        )


def _parse_coordinate(raw):
    """Accept Fraction/int/"p/q"/Poly/{"const":..,"coeffs":{"t<k>":..}} with
    k >= 1: a rational (Fraction, int, str) is returned as a Fraction, and a
    Poly or dict as an affine-linear Poly as wide as the largest symbol
    index it names; anything else, including a Poly term of degree > 1, is a
    ValidationError on "generators"."""
    if isinstance(raw, Poly):
        if any(sum(mon) > 1 for mon in raw.terms):
            raise ValidationError("generators", f"{raw!r} is not affine-linear")
        return raw
    try:
        if not isinstance(raw, dict):
            return as_fraction(raw)
        coeffs = raw.get("coeffs") or {}
        if not isinstance(coeffs, dict):
            raise TypeError(f"coeffs must be an object, got {coeffs!r}")
        parsed = {}
        for key, val in coeffs.items():
            index = key
            if isinstance(key, str) and key[:1] == "t" and key[1:].isdigit():
                index = int(key[1:])
            if isinstance(index, bool) or not isinstance(index, int) or index < 1:
                raise ValueError(f"bad symbol name {key!r}")
            parsed[index] = as_fraction(val)
        width = max(parsed, default=0)
        terms = {(0,) * width: as_fraction(raw.get("const", 0))}
        for index, c in parsed.items():
            terms[tuple(int(i == index - 1) for i in range(width))] = c
        return Poly(terms)
    except (TypeError, ValueError) as exc:
        raise ValidationError("generators", str(exc)) from None


def _max_symbol(value) -> int:
    if not isinstance(value, Poly):
        return 0
    return max((i + 1 for mon in value.terms for i, e in enumerate(mon) if e), default=0)


def _coordinate(value, m: int):
    """A coordinate parsed by `_parse_coordinate` as the model stores it: a
    Fraction when m = 0, else a Poly over exactly m symbols (none beyond t_m
    may occur)."""
    if not isinstance(value, Poly):
        return value if m == 0 else Poly.const(value, m)
    terms = {mon[:m] + (0,) * (m - len(mon)): c for mon, c in value.terms.items()}
    return terms.get((), Fraction(0)) if m == 0 else Poly(terms)


def build_model(config: ModelConfig, provenance=None) -> GroupModel:
    """Validate a configuration and produce a model with scales sorted
    descending; the permutation applied to the generators is recorded
    (1-based positions into the original order)."""
    n = int(config.n)
    if n < 1:
        raise DimensionMismatch(f"ambient dimension must be >= 1, got {n}")
    symbols = tuple(config.symbols)
    if len(set(symbols)) != len(symbols):
        raise DuplicateSymbol(f"duplicate symbol names in {symbols}")
    m = len(symbols)

    gens = []
    for idx, gen in enumerate(config.generators):
        coords = tuple(_parse_coordinate(c) for c in gen)
        if len(coords) != n:
            raise DimensionMismatch(
                f"generator {idx + 1} has {len(coords)} coordinates, expected {n}"
            )
        for c in coords:
            if _max_symbol(c) > m:
                raise MissingSymbol(
                    f"generator {idx + 1} references t{_max_symbol(c)} "
                    f"but only {m} symbols are declared"
                )
        gens.append(tuple(_coordinate(c, m) for c in coords))

    scales = [as_fraction(s) for s in config.scales]
    if len(scales) != len(gens):
        raise DimensionMismatch(
            f"{len(scales)} scales for {len(gens)} generators"
        )
    for s in scales:
        if s < 1:
            raise InvalidScale(f"scale {s} is < 1")

    order = sorted(range(len(scales)), key=lambda i: (-scales[i], i))
    generators = tuple(gens[i] for i in order)
    sorted_scales = tuple(scales[i] for i in order)
    permutation = tuple(i + 1 for i in order)
    return GroupModel(n, m, symbols, generators, sorted_scales, permutation, provenance)


def specialize(model: GroupModel, assignment=None, seed=None) -> GroupModel:
    """Substitute rationals for all symbols, producing a rational model.

    With no assignment, values are drawn deterministically from `seed` as
    large-height rationals (heights around 10^6, so accidental collisions in
    later rank computations are implausible).
    """
    if model.m == 0 and not assignment:
        return model
    if assignment is not None:
        values = []
        named = dict(assignment)
        for t in range(1, model.m + 1):
            key = t if t in named else model.symbols[t - 1] if model.symbols[t - 1] in named else None
            if key is None:
                raise MissingSymbol(f"no value for symbol t{t}")
            values.append(as_fraction(named[key]))
    else:
        rng = random.Random(seed)
        values = [
            Fraction(
                rng.choice([-1, 1]) * rng.randint(10 ** 6, 10 ** 7),
                rng.randint(10 ** 6, 2 * 10 ** 6),
            )
            for _ in range(model.m)
        ]
    generators = tuple(
        tuple(
            (c.evaluate(values) if isinstance(c, Poly) else c)
            for c in gen
        )
        for gen in model.generators
    )
    provenance = dict(model.provenance)
    provenance["specialized"] = {
        f"t{t}": str(v) for t, v in zip(range(1, model.m + 1), values)
    }
    if seed is not None:
        provenance["specialize_seed"] = seed
    return GroupModel(model.n, 0, (), generators, model.scales, model.permutation, provenance)


# ---------------------------------------------------------------------------
# closures


def _relations(values):
    """HNF basis of the integer relations among per-generator values: the
    v in Z^l with sum_j v_j values[j] = 0, for rows of Fractions or of Polys.
    A Poly column counts as one column per monomial coefficient; each column
    is cleared of denominators."""
    cond = [[] for _ in values]
    for col in zip(*values):
        if isinstance(col[0], Poly):
            monomials = sorted({mon for p in col for mon in p.terms})
            cols = [[p.terms.get(mon, 0) for p in col] for mon in monomials]
        else:
            cols = [col]
        for c in cols:
            for row, x in zip(cond, linalg._cleared(c)):
                row.append(x)
    return linalg.left_kernel(cond, len(cond[0]) if cond else 0)


def _rational_closure(model: GroupModel, ech) -> Subgroup:
    """The closure over Q of the span of a canonical integer echelon `ech`,
    in the columns of `Subgroup.basis`, that contains L0 = iota^{-1}(0):
    iota^{-1}(span iota(L)) is Z^l cap (Q.L + Q.L0), so `ech` is its echelon,
    and its dimension is len(ech) - rk L0.  No elimination runs, in image
    space or in integers."""
    dim = len(ech) - model.kernel_lattice().rank
    if dim == 0:
        return model.zero_subgroup()
    if dim == model.n:
        return model.full_subgroup()
    return Subgroup(dim, ech, model)


def _simplex(m, d):
    """The simplex of degree d: the points a in N^m with |a| <= d."""
    if m == 0:
        return [()]
    return [(k,) + a for a in _simplex(m - 1, d) for k in range(d + 1 - sum(a))]


def _symbolic_closure(model: GroupModel, ech) -> Subgroup:
    """The closure over Q(t) of Q.L + Q.L0, given by its canonical integer
    echelon B = `ech`, read off integer eliminations at the points a of
    simplices.  N_a is the n x l integer matrix of the generators
    specialized at t = a, over one common denominator, its columns in the
    order of B's (`GroupModel._specialized_matrix`), so that rows of N_a
    pair with rows of B and conditions are read in that order too.

    Let r = rk_{Q(t)} iota(L).  The entries of iota(B) are affine-linear in
    t, so its k-minors have total degree <= k, and a polynomial of total
    degree <= d that vanishes on the simplex of degree d is zero (Chung &
    Yao 1977).  So r is the largest rank of N_a B over the simplex of degree
    min(n, rk B - rk L0), a bound on r.  At each point a of the simplex of
    degree 2r + 1 where N_a B has rank r, every integer w with w N_a B = 0
    gives the condition c -> w N_a c.  The coefficient lattice C of the
    closure is Z^l cap ker(conditions):

    * C lies in it: at a an r-minor of iota(B) is nonzero, so by Cramer's
      rule iota(c)(a) lies in the column span of N_a B for every c in C.
    * Nothing else does: for c outside C, an r-minor of iota(B) times an
      (r + 1)-minor of iota([B c]) is a nonzero polynomial of total degree
      <= 2r + 1.  So it is nonzero at some point of that simplex, where N_a B
      has rank r and N_a c leaves its column span, failing a condition.

    The conditions vanish on B, so the walk stops once they have rank
    l - rk B; C is then the saturation of B, and B is its echelon.
    Otherwise, when C is larger than that saturation, it visits all
    C(2r+1+m, m) points: 1,716 at m = 6 and r = 3, 0.5 s on a 2-core Xeon
    host, where one fraction-free kernel over Q[t] takes 1 ms; the Q-span of
    C is then the kernel of the conditions, read off their echelon in
    integers, and its echelon is the subgroup's.
    """
    bound = min(model.n, len(ech) - model.kernel_lattice().rank)

    def image_echelon(matrix):
        return linalg._echelon([sum(map(mul, row, b)) for row in matrix] for _, b in ech)

    r = 0
    for a in _simplex(model.m, bound):
        r = max(r, len(image_echelon(model._specialized_matrix(a))))
        if r == bound:
            break
    if r == 0:
        return model.zero_subgroup()
    if r == model.n:
        return model.full_subgroup()
    conditions = ()
    for a in _simplex(model.m, 2 * r + 1):
        matrix = model._specialized_matrix(a)
        image = image_echelon(matrix)
        if len(image) < r:
            continue
        for w in linalg._integer_kernel(image, model.n):
            cond = [sum(map(mul, w, col)) for col in zip(*matrix)]
            rem = linalg._echelon_reduce(conditions, cond)
            if rem is not None:
                conditions = linalg._echelon_insert(conditions, rem)
        if len(conditions) == model.l - len(ech):
            return Subgroup(r, ech, model)
    return Subgroup(r, linalg._echelon(linalg._integer_kernel(conditions, model.l)), model)


def _closure(model: GroupModel, rows) -> Subgroup:
    """`closure` of a tuple of integer coefficient rows of length l, unchecked."""
    close = _symbolic_closure if model.m else _rational_closure
    return close(model, linalg._echelon(row[::-1] for row in model.kernel_lattice().rows + rows))


def closure(model: GroupModel, lattice) -> Subgroup:
    """Smallest connected algebraic subgroup containing iota(lattice),
    returned with its full coefficient lattice iota^{-1}(H)."""
    rows = lattice.rows if isinstance(lattice, Sublattice) else lattice
    return _closure(model, _coefficient_vectors(model, rows))


def _coefficient_vectors(model: GroupModel, vectors) -> tuple:
    """The vectors as integer tuples.  ValidationError on "lattice" unless
    every entry is an int other than a bool or a Fraction with denominator
    1; DimensionMismatch unless each vector has l entries."""
    rows = tuple(map(tuple, vectors))
    for row in rows:
        for x in row:
            if isinstance(x, bool) or not isinstance(x, (int, Fraction)) or x.denominator != 1:
                raise ValidationError("lattice", f"coefficient {x!r} is not an integer")
        if len(row) != model.l:
            raise DimensionMismatch(f"lattice vector has {len(row)} entries, expected {model.l}")
    return tuple(tuple(map(int, row)) for row in rows)


def _pivot_counts(basis, l):
    """Entry j (0 <= j <= l) is dim(span_Q(basis) cap Q^j x 0) for an echelon
    in the columns of `Subgroup.basis`: the number of its pivots at or past
    l - j."""
    counts = [0] * (l + 1)
    for c, _ in basis:
        counts[l - c] += 1
    return tuple(accumulate(counts))


def rank_profile(model: GroupModel, subgroup: Subgroup) -> RankProfile:
    """Entry j is rk(Gamma_j intersect H): the rank of the coefficient
    vectors supported on the first j slots that land in H, minus the rank of
    those that map to zero.

    A rank of lattice vectors in a rational subspace is a dimension of the
    lattice's Q-span, and the echelon `basis` reads that span from slot l
    down, so the pivot of each row marks the row's last nonzero coefficient,
    slot l - c.  A combination of rows lies in Q^j x 0 exactly when every
    row it uses has its last nonzero coefficient in the first j slots, so
    dim(span cap Q^j x 0) is the number of pivots at or past l - j.  The
    profile is that count minus the zero subgroup's; no elimination runs
    and no lattice is built."""
    counts = _pivot_counts(subgroup.basis, model.l)
    ranks = tuple(a - k for a, k in zip(counts[1:], model.kernel_prefix_ranks()[1:]))
    return RankProfile(subgroup.dim, ranks)


# ---------------------------------------------------------------------------
# exhaustive closure enumeration


def box_primitives(l, height):
    """Canonical primitive nonzero vectors of the box [-height, height]^l,
    one representative per line of coefficient vectors."""
    out = []
    for v in product(range(-height, height + 1), repeat=l):
        if any(v) and linalg.primitive(v) == v:
            out.append(v)
    return out


def enumerate_closures(model: GroupModel, height=2):
    """All distinct closures of sublattices generated by vectors of entry
    height <= `height`, each computed once, sorted by (dimension, `basis`),
    `basis` being the echelon of the column-reversed Q-span.

    The walk grows coefficient spans from the echelon of the kernel lattice
    L0, trying one box vector per distinct Q.L0 + Q.v (over Q, one per image
    line).  A closure H, L = iota^{-1}(H), grows by each v outside L to
    Q.L + Q.v, named by the primitive remainder of v, and H + Q.iota(v) has
    dimension dim H + 1.  Closures are keyed by `basis`, the echelon of their
    coefficient lattice's Q-span with the columns reversed, with which they
    are in bijection.  The walk works in those reversed columns throughout:
    reversing the columns maps the box onto itself, so its primitive vectors,
    read in reversed columns, still give one per line of the box.  Two
    arguments keep the walk in proportion to the closures it finds:

    * Co-rank 1.  Every closure lies in the top closure T = closure(Z^l), and
      a closure inside T of dimension dim T is T.  So a node with
      dim H >= dim T - 1 can only grow into T; it is not expanded, and T is
      emitted once, as the model's prefix closure of Z^l.  This holds
      over Q[t] as well.
    * One closure step.  The ring's closure closes the grown echelon, of
      Q.L + Q.v.  Its lattice contains the grown one, so at equal ranks
      they span one Q-space and the grown echelon is its `basis`.  Over Q
      the ranks are equal: iota^{-1}(H + Q.iota(v)) = Q.L + Q.v, since Q.L
      contains the kernel Q.L0 of iota, so no elimination runs, in image
      space or in integers.  Over Q[t] they are equal when the closure is
      the saturation; when it is larger, the memo of grown echelons keeps it
      from being computed again.
    """
    close = _symbolic_closure if model.m else _rational_closure
    top = model.prefix_closure(model.l)
    zero = model.zero_subgroup()
    vectors = {}
    for v in box_primitives(model.l, height):
        rem = linalg._echelon_reduce(zero.basis, v)
        if rem is not None:
            vectors.setdefault(rem, v)
    seen = {zero.basis}
    nodes = [zero]
    for node in nodes:  # breadth first: found closures are appended
        if node.dim >= top.dim - 1:
            continue
        tried = set()
        for v in vectors.values():
            rem = linalg._echelon_reduce(node.basis, v)
            if rem is None or rem in tried:
                continue
            tried.add(rem)
            grown = linalg._echelon_insert(node.basis, rem)
            if grown in seen:
                continue
            sub = close(model, grown)
            if sub.basis not in seen:
                nodes.append(sub)
            seen.update((grown, sub.basis))
    found = nodes + ([top] if top.dim else [])
    return tuple(sorted(found, key=lambda s: (s.dim, s.basis)))


def image_lines(model, height):
    """One primitive integer direction per line met by box-vector images."""
    lines = []
    seen = set()
    for v in box_primitives(model.l, height):
        img = model.point_of(v)
        if not any(img):
            continue
        key = linalg.primitive(linalg._cleared(img))
        if key not in seen:
            seen.add(key)
            lines.append(key)
    return lines


# ---------------------------------------------------------------------------
# subgroup inclusion


def span_contains(model: GroupModel, container: Subgroup, contained: Subgroup) -> bool:
    """Whether `contained` is a subgroup of `container`, from canonical forms.

    Every subgroup K other than G is the span of iota(iota^{-1}(K)), so for
    such K, K <= H exactly when iota^{-1}(K) lies in iota^{-1}(H): one way
    because iota^{-1} is monotone, the other because iota(iota^{-1}(K)) then
    lies in H and spans K.  Both lattices are saturated, Z^l cap their
    Q-spans, so they are nested exactly when their Q-spans are: when every
    row of `contained.basis` reduces to zero against `container.basis`.  G
    has the lattice Z^l, which H shares only when H is G or the closure of
    Z^l; when the generators do not span G the latter is a proper subgroup,
    and the dimension check keeps it from containing G.  No lattice is
    built.
    """
    return contained.dim <= container.dim and all(
        linalg._echelon_reduce(container.basis, row) is None for _, row in contained.basis
    )
