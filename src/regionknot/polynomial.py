"""Exact single-variable Laurent polynomials with integer coefficients."""

from __future__ import annotations

from typing import Iterator, Mapping


class LaurentPolynomial:
    """Immutable Laurent polynomial; terms are exponent -> nonzero int coeff."""

    __slots__ = ("_terms", "variable")

    def __init__(self, terms: Mapping[int, int] | None = None, variable: str = "A"):
        self._terms: dict[int, int] = {}
        if terms:
            for e, c in terms.items():
                if c:
                    self._terms[int(e)] = int(c)
        self.variable = variable

    @classmethod
    def zero(cls, variable: str = "A") -> LaurentPolynomial:
        return cls({}, variable)

    @classmethod
    def one(cls, variable: str = "A") -> LaurentPolynomial:
        return cls({0: 1}, variable)

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self._terms.items()))

    def is_zero(self) -> bool:
        return not self._terms

    def is_one(self) -> bool:
        return self._terms == {0: 1}

    def exponents(self) -> tuple[int, ...]:
        return tuple(sorted(self._terms))

    def span(self) -> int:
        """max exponent - min exponent (0 for the zero polynomial)."""
        if not self._terms:
            return 0
        return max(self._terms) - min(self._terms)

    def __add__(self, other: LaurentPolynomial) -> LaurentPolynomial:
        out = dict(self._terms)
        for e, c in other._terms.items():
            out[e] = out.get(e, 0) + c
        return LaurentPolynomial(out, self.variable)

    def __mul__(self, other: LaurentPolynomial) -> LaurentPolynomial:
        out: dict[int, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPolynomial(out, self.variable)

    def scale(self, coeff: int, exp: int = 0) -> LaurentPolynomial:
        """Multiply by coeff * var**exp."""
        if coeff == 0:
            return LaurentPolynomial.zero(self.variable)
        return LaurentPolynomial(
            {e + exp: c * coeff for e, c in self._terms.items()}, self.variable
        )

    def invert_variable(self) -> LaurentPolynomial:
        """Substitute var -> var**-1 (mirror of a knot polynomial)."""
        return LaurentPolynomial({-e: c for e, c in self._terms.items()}, self.variable)

    def evaluate(self, x: int) -> int:
        """Exact integer evaluation; x must be a unit (1 or -1) if exponents are negative."""
        total = 0
        for e, c in self._terms.items():
            if e >= 0:
                total += c * x**e
            else:
                if x not in (1, -1):
                    raise ValueError("negative exponents need x in {1, -1}")
                total += c * x ** (-e)
        return total

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for e, c in sorted(self._terms.items()):
            if e == 0:
                mono = str(abs(c))
            else:
                v = self.variable if e == 1 else f"{self.variable}^{e}"
                mono = v if abs(c) == 1 else f"{abs(c)}*{v}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, mono))
        first_sign, first = parts[0]
        text = ("-" if first_sign == "-" else "") + first
        for sign, mono in parts[1:]:
            text += f" {sign} {mono}"
        return text

    def __repr__(self) -> str:
        return f"LaurentPolynomial({dict(sorted(self._terms.items()))!r}, {self.variable!r})"
