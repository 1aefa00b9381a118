"""Exact scalar types: rationals and polynomials.

Every coefficient in this package is a `fractions.Fraction`; floats are never
accepted.  A `Poly` is a multivariate polynomial in formal symbols t1..tm
with rational coefficients.  It is the one scalar type over Q[t1..tm]: the
coordinates of group elements in a symbolic model are affine-linear `Poly`s.
Nothing eliminates over Q[t1..tm]; symbolic closures are read off integer
specializations (`model._symbolic_closure`).

Monomials are exponent tuples of fixed width m; the zero polynomial has no
terms and is width-agnostic.  Term order is graded lexicographic, which is
what makes leading-term exact division terminate.
"""

from __future__ import annotations

from fractions import Fraction

Monomial = tuple[int, ...]


def as_fraction(value) -> Fraction:
    """Coerce int / str("p/q") / Fraction to Fraction.  Floats and bools are
    rejected (TypeError), as are malformed strings and zero denominators
    (ValueError)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"expected an exact rational, got {type(value).__name__}: {value!r}")


def _grade(mon: Monomial):
    return (sum(mon), mon)


class Poly:
    """Immutable multivariate polynomial with Fraction coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        cleaned = {}
        if terms:
            for mon, coeff in terms.items():
                coeff = as_fraction(coeff)
                if coeff:
                    cleaned[tuple(mon)] = coeff
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @staticmethod
    def const(value, nvars: int) -> "Poly":
        value = as_fraction(value)
        if not value:
            return Poly()
        return Poly({(0,) * nvars: value})

    @staticmethod
    def symbol(index: int, nvars: int) -> "Poly":
        """The symbol t_index, 1-based."""
        if not 1 <= index <= nvars:
            raise ValueError(f"symbol index {index} outside 1..{nvars}")
        mon = tuple(1 if i == index - 1 else 0 for i in range(nvars))
        return Poly({mon: Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other: "Poly") -> "Poly":
        terms = dict(self.terms)
        for mon, c in other.terms.items():
            s = terms.get(mon, 0) + c
            if s:
                terms[mon] = s
            else:
                terms.pop(mon, None)
        out = Poly()
        object.__setattr__(out, "terms", terms)
        return out

    def __neg__(self) -> "Poly":
        out = Poly()
        object.__setattr__(out, "terms", {m: -c for m, c in self.terms.items()})
        return out

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = as_fraction(other)
            if not other:
                return Poly()
            out = Poly()
            object.__setattr__(out, "terms", {m: c * other for m, c in self.terms.items()})
            return out
        terms: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mon = tuple(a + b for a, b in zip(m1, m2)) if m1 and m2 else (m1 or m2)
                s = terms.get(mon, 0) + c1 * c2
                if s:
                    terms[mon] = s
                else:
                    terms.pop(mon, None)
        out = Poly()
        object.__setattr__(out, "terms", terms)
        return out

    __rmul__ = __mul__

    def leading(self) -> tuple[Monomial, Fraction]:
        mon = max(self.terms, key=_grade)
        return mon, self.terms[mon]

    def exact_div(self, divisor: "Poly") -> "Poly":
        """Quotient self / divisor, valid only when the division is exact."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        quotient: dict = {}
        rem = self
        dmon, dcoeff = divisor.leading()
        while rem.terms:
            rmon, rcoeff = rem.leading()
            if dmon:
                qmon = tuple(a - b for a, b in zip(rmon, dmon))
            else:
                qmon = rmon
            if any(e < 0 for e in qmon):
                raise ValueError("inexact polynomial division")
            qcoeff = rcoeff / dcoeff
            quotient[qmon] = quotient.get(qmon, 0) + qcoeff
            rem = rem - Poly({qmon: qcoeff}) * divisor
        return Poly(quotient)

    def evaluate(self, values) -> Fraction:
        total = Fraction(0)
        for mon, coeff in self.terms.items():
            prod = coeff
            for e, v in zip(mon, values):
                if e:
                    prod *= v ** e
            total += prod
        return total

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: _grade(t[0]))

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(tuple(self.sorted_terms()))

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        parts = []
        for mon, coeff in self.sorted_terms():
            syms = "*".join(
                f"t{i + 1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(mon)
                if e
            )
            parts.append(f"{coeff}" + (f"*{syms}" if syms else ""))
        return "Poly(" + " + ".join(parts) + ")"
