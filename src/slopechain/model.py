"""The ambient vector group, generator tuples, and connected subgroups.

A model is the vector group of dimension n together with generators
gamma_1..gamma_l and box scales S_1 >= ... >= S_l >= 1.  Coordinates are
rational (m = 0) or live in the Q-span of formal symbols t1..tm that stand
for algebraically independent transcendentals; the second kind is what makes
the group-theoretic ranks differ from plain linear algebra over Q (a line can
carry a rank-2 subgroup).

Connected algebraic subgroups of a vector group are exactly the linear
subspaces.  A subgroup H is carried as (dimension, coefficient lattice
iota^{-1}(H) in Z^l, spanning points), where iota maps an integer vector v to
sum v_j gamma_j.  Coefficient lattices are saturated, contain iota^{-1}(0),
and are kept in Hermite normal form, so subgroup equality is plain equality
of (dimension, lattice).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm

from . import linalg
from .errors import (
    DimensionMismatch,
    DuplicateSymbol,
    InvalidScale,
    MissingSymbol,
    ValidationError,
)
from .polys import Poly, SymbolicScalar, as_fraction


@dataclass(frozen=True)
class Sublattice:
    """Integer row lattice in Z^ncols, basis in canonical HNF."""

    ncols: int
    rows: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.rows)

    def contains(self, vector) -> bool:
        return linalg.lattice_contains(self.rows, vector)

    def contains_lattice(self, other: "Sublattice") -> bool:
        return all(self.contains(row) for row in other.rows)

    def reduce(self, vector) -> tuple[int, ...]:
        return linalg.lattice_reduce(self.rows, vector)


@dataclass(frozen=True)
class Subgroup:
    """A connected algebraic subgroup of the vector group.

    `span` is a tuple of points (iota of the coefficient basis, zero images
    dropped; the identity basis for the full group), spanning H over the
    symbol fraction field.
    """

    dim: int
    coeff: Sublattice
    span: tuple

    def __repr__(self):
        return f"Subgroup(dim={self.dim}, coeff={[list(r) for r in self.coeff.rows]})"


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

    def zero_scalar(self):
        return Fraction(0) if self.m == 0 else SymbolicScalar(0)

    def zero_point(self):
        z = self.zero_scalar()
        return tuple(z for _ in range(self.n))

    def point_of(self, vector):
        """iota(v) = sum v_j gamma_j."""
        coords = list(self.zero_point())
        for c, gen in zip(vector, self.generators):
            if c:
                for i in range(self.n):
                    coords[i] = coords[i] + c * gen[i]
        return tuple(coords)

    def point_matrix(self, points):
        """Rows suitable for rank computations: Fractions when rational,
        polynomials otherwise."""
        if self.m == 0:
            return [[_scalar_fraction(c) for c in p] for p in points]
        return [[_scalar_poly(c, self.m) for c in p] for p in points]

    def kernel_lattice(self) -> Sublattice:
        """iota^{-1}(0): integer relations among the generators."""
        if "kernel" not in self._cache:
            rows = []
            for gen in self.generators:
                flat = []
                for coord in gen:
                    if self.m == 0:
                        flat.append(_scalar_fraction(coord))
                    else:
                        s = coord if isinstance(coord, SymbolicScalar) else SymbolicScalar(coord)
                        flat.append(s.const)
                        flat.extend(s.coeffs.get(t, Fraction(0)) for t in range(1, self.m + 1))
                rows.append(flat)
            width = len(rows[0]) if rows else 0
            kernel = linalg.left_kernel_rational(rows, width) if rows else ()
            self._cache["kernel"] = Sublattice(self.l, kernel)
        return self._cache["kernel"]

    def zero_subgroup(self) -> Subgroup:
        if "zero" not in self._cache:
            self._cache["zero"] = Subgroup(0, self.kernel_lattice(), ())
        return self._cache["zero"]

    def full_subgroup(self) -> Subgroup:
        if "full" not in self._cache:
            ident = tuple(
                tuple(1 if i == j else 0 for j in range(self.l)) for i in range(self.l)
            )
            span = []
            one = Fraction(1) if self.m == 0 else SymbolicScalar(1)
            zero = self.zero_scalar()
            for i in range(self.n):
                span.append(tuple(one if j == i else zero for j in range(self.n)))
            self._cache["full"] = Subgroup(self.n, Sublattice(self.l, ident), tuple(span))
        return self._cache["full"]

    def prefix_lattice(self, j) -> Sublattice:
        rows = tuple(
            tuple(1 if k == i else 0 for k in range(self.l)) for i in range(j)
        )
        return Sublattice(self.l, rows)

    def kernel_prefix_ranks(self):
        if "kernel_prefix" not in self._cache:
            self._cache["kernel_prefix"] = _prefix_ranks(self.kernel_lattice().rows, self.l)
        return self._cache["kernel_prefix"]

    def powered(self, alpha: int) -> "GroupModel":
        """Same model with scales S_j replaced by S_j ** alpha."""
        if alpha < 1:
            raise InvalidScale(f"power {alpha} must be >= 1")
        return GroupModel(
            self.n,
            self.m,
            self.symbols,
            self.generators,
            tuple(s ** alpha for s in self.scales),
            self.permutation,
            dict(self.provenance, powered=alpha),
        )

    def equal_scale_model(self, scale=Fraction(2)) -> "GroupModel":
        """All box scales set to one common value; the chain of this model is
        scale-free, which is what the mu exponents are read off from."""
        scale = as_fraction(scale)
        if scale < 1:
            raise InvalidScale(f"scale {scale} must be >= 1")
        return GroupModel(
            self.n,
            self.m,
            self.symbols,
            self.generators,
            tuple(scale for _ in range(self.l)),
            tuple(range(1, self.l + 1)),
            dict(self.provenance, equal_scale=str(scale)),
        )

    def __repr__(self):
        return (
            f"GroupModel(n={self.n}, l={self.l}, m={self.m}, "
            f"scales={[str(s) for s in self.scales]})"
        )


def _scalar_fraction(x) -> Fraction:
    if isinstance(x, SymbolicScalar):
        return x.as_fraction()
    return as_fraction(x)


def _scalar_poly(x, m) -> Poly:
    if isinstance(x, Poly):
        return x
    if isinstance(x, SymbolicScalar):
        return x.to_poly(m)
    return Poly.const(x, m)


def _parse_coordinate(raw):
    """Accept Fraction/int/"p/q"/SymbolicScalar/{"const":..,"coeffs":{"t<k>":..}}
    with k >= 1; anything else is a ValidationError on "generators"."""
    if isinstance(raw, SymbolicScalar):
        return raw
    try:
        if not isinstance(raw, dict):
            return SymbolicScalar(raw)
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
        return SymbolicScalar(raw.get("const", 0), parsed)
    except (TypeError, ValueError) as exc:
        raise ValidationError("generators", str(exc)) from None


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
            if c.max_symbol() > m:
                raise MissingSymbol(
                    f"generator {idx + 1} references t{c.max_symbol()} "
                    f"but only {m} symbols are declared"
                )
        gens.append(coords)

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

    if m == 0:
        generators = tuple(
            tuple(c.as_fraction() for c in gen) for gen in generators
        )
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
            (c.evaluate(values) if isinstance(c, SymbolicScalar) else as_fraction(c))
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


def _make_subgroup(model: GroupModel, dim: int, coeff_rows) -> Subgroup:
    if dim == model.n:
        return model.full_subgroup()
    if dim == 0:
        return model.zero_subgroup()
    span = []
    for row in coeff_rows:
        pt = model.point_of(row)
        if any(not (c == 0) for c in pt):
            span.append(pt)
    return Subgroup(dim, Sublattice(model.l, tuple(coeff_rows)), tuple(span))


def _closure_symbolic(model: GroupModel, points) -> Subgroup:
    rows = model.point_matrix(points)
    dim = linalg.poly_rank(rows) if rows else 0
    if dim == model.n:
        return model.full_subgroup()
    if dim == 0:
        return model.zero_subgroup()
    kernel_dirs = linalg.poly_nullspace(rows)
    cond = [[] for _ in model.generators]
    for w in kernel_dirs:
        exprs = []
        for gen in model.generators:
            acc = Poly()
            for c, wi in zip(gen, w):
                acc = acc + _scalar_poly(c, model.m) * wi
            exprs.append(acc)
        monomials = sorted({mon for e in exprs for mon in e.terms})
        for row, e in zip(cond, exprs):
            row.extend(e.terms.get(mon, Fraction(0)) for mon in monomials)
    coeff = linalg.left_kernel_rational(cond, len(cond[0]) if cond else 0)
    return _make_subgroup(model, dim, coeff)


def closure(model: GroupModel, lattice) -> Subgroup:
    """Smallest connected algebraic subgroup containing iota(lattice),
    returned with its full coefficient lattice iota^{-1}(H)."""
    if isinstance(lattice, Sublattice):
        rows = lattice.rows
    else:
        rows = tuple(tuple(int(x) for x in r) for r in lattice)
    for row in rows:
        if len(row) != model.l:
            raise DimensionMismatch(
                f"lattice vector has {len(row)} entries, expected {model.l}"
            )
    points = [model.point_of(r) for r in rows]
    if model.m == 0:
        return _subgroup_from_echelon(model, linalg.rat_rref(points, model.n)[0])
    return _closure_symbolic(model, points)


def _prefix_ranks(rows, l):
    """Entry j (0 <= j <= l) is rk(L intersect Z^j x 0) for the lattice L
    spanned by the integer `rows`.

    That intersection is the kernel of cutting L to coordinates j..l-1, so its
    rank is rk L minus the rank of the cut rows.  One echelon of the
    column-reversed rows gives every cut at once: its rank is the number of
    pivots below l - j.
    """
    ech = ()
    for row in rows:
        ech = linalg._echelon_insert(ech, row[::-1]) or ech
    leads = [next(c for c, x in enumerate(row) if x) for row in ech]
    return tuple(len(ech) - sum(c < l - j for c in leads) for j in range(l + 1))


def rank_profile(model: GroupModel, subgroup: Subgroup) -> RankProfile:
    """Entry j is rk(Gamma_j intersect H): the rank of the coefficient
    vectors supported on the first j slots that land in H, minus the rank of
    those that map to zero."""
    kern_prefix = model.kernel_prefix_ranks()
    prefix = _prefix_ranks(subgroup.coeff.rows, model.l)
    ranks = tuple(a - k for a, k in zip(prefix[1:], kern_prefix[1:]))
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
    height <= `height`, found by growing spans one generator at a time.

    Distinct closures are in bijection with their coefficient lattices, which
    is what the dedup keys use.
    """
    if model.m == 0:
        return _enumerate_closures_rational(model, height)
    return _enumerate_closures_symbolic(model, height)


def image_lines(model, height):
    """One primitive integer direction per line met by box-vector images."""
    lines = []
    seen = set()
    for v in box_primitives(model.l, height):
        img = model.point_of(v)
        if not any(img):
            continue
        scale = lcm(*(x.denominator for x in img))
        key = linalg.primitive([int(x * scale) for x in img])
        if key not in seen:
            seen.add(key)
            lines.append(key)
    return lines


def _subgroup_from_echelon(model, ech) -> Subgroup:
    """The subgroup whose span has the echelon rows `ech` as a basis (a
    rational RREF or a scaled integer echelon); rational models only."""
    dim = len(ech)
    if dim == model.n:
        return model.full_subgroup()
    kernel_dirs = linalg.nullspace(ech, model.n)
    cond = [
        [sum(g * wi for g, wi in zip(gen, w)) for w in kernel_dirs]
        for gen in model.generators
    ]
    coeff = linalg.left_kernel_rational(cond, len(kernel_dirs))
    return _make_subgroup(model, dim, coeff)


def _enumerate_closures_rational(model, height):
    n = model.n
    lines = image_lines(model, height)
    seen = {(): None}
    frontier = [()]
    while frontier:
        nxt = []
        for ech in frontier:
            if len(ech) == n:
                continue
            for rep in lines:
                grown = linalg._echelon_insert(ech, rep)
                if grown is not None and grown not in seen:
                    seen[grown] = None
                    nxt.append(grown)
        frontier = nxt
    subgroups = [_subgroup_from_echelon(model, ech) for ech in seen]
    subgroups.sort(key=lambda s: (s.dim, s.coeff.rows))
    return tuple(subgroups)


def _enumerate_closures_symbolic(model, height):
    vectors = box_primitives(model.l, height)
    zero = model.zero_subgroup()
    seen = {(zero.dim, zero.coeff.rows): zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for node in frontier:
            if node.dim == model.n:
                continue
            for v in vectors:
                if node.coeff.contains(v):
                    continue
                grown = closure(model, node.coeff.rows + (v,))
                key = (grown.dim, grown.coeff.rows)
                if key not in seen:
                    seen[key] = grown
                    nxt.append(grown)
        frontier = nxt
    subgroups = sorted(seen.values(), key=lambda s: (s.dim, s.coeff.rows))
    return tuple(subgroups)


# ---------------------------------------------------------------------------
# span containment (exact, over the symbol fraction field)


def span_contains(model: GroupModel, container: Subgroup, contained: Subgroup) -> bool:
    if contained.dim > container.dim:
        return False
    if container.dim == model.n:
        return True
    if contained.dim == 0:
        return True
    rows = model.point_matrix(container.span + contained.span)
    return linalg.rank(rows) == container.dim
