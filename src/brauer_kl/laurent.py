"""Integer-coefficient Laurent polynomials in a single variable ``v``.

A polynomial is a mapping ``{exponent: coefficient}`` with no zero
coefficients stored, wrapped in an immutable class.  Its int terms are kept
as given; equality and the hash read their set, and printing sorts them.
This is all the canonical-basis machinery needs: addition, multiplication,
the bar involution ``v -> 1/v``, and evaluation at ``v = 1``.

>>> p = LaurentPoly({0: 1, 1: 2})
>>> p * LaurentPoly.v()
LaurentPoly({1: 1, 2: 2})
>>> p.bar()
LaurentPoly({-1: 2, 0: 1})
>>> (p + p).evaluate_at_one()
6
"""

from __future__ import annotations

from typing import Mapping


class LaurentPoly:
    """An immutable Laurent polynomial with integer coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        self._coeffs = {e: c for e, c in coeffs.items() if c} if coeffs else {}

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly()

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly({0: 1})

    @staticmethod
    def v(exp: int = 1, coeff: int = 1) -> "LaurentPoly":
        """The monomial ``coeff * v**exp``."""
        return LaurentPoly({exp: coeff})

    # -- inspection ---------------------------------------------------

    def coeff(self, exp: int) -> int:
        return self._coeffs.get(exp, 0)

    def evaluate_at_one(self) -> int:
        return sum(self._coeffs.values())

    def in_positive_part(self) -> bool:
        """True iff every exponent is >= 1 (the polynomial lies in v*Z[v])."""
        return all(e >= 1 for e in self._coeffs)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self._coeffs)
        for exp, c in other._coeffs.items():
            out[exp] = out.get(exp, 0) + c
        return LaurentPoly(out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self._coeffs)
        for exp, c in other._coeffs.items():
            out[exp] = out.get(exp, 0) - c
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self._coeffs.items()})

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            return LaurentPoly({e: c * other for e, c in self._coeffs.items()})
        out: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return LaurentPoly(out)

    __rmul__ = __mul__

    def bar(self) -> "LaurentPoly":
        """The involution v -> 1/v."""
        return LaurentPoly({-e: c for e, c in self._coeffs.items()})

    # -- comparison / hashing ------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self._coeffs == ({0: other} if other else {})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(sorted(self._coeffs.items()))!r})"

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        terms = []
        for e, c in sorted(self._coeffs.items()):
            if e == 0:
                terms.append(f"{c}")
            else:
                base = "v" if e == 1 else f"v^{e}"
                if c == 1:
                    terms.append(base)
                elif c == -1:
                    terms.append(f"-{base}")
                else:
                    terms.append(f"{c}{base}")
        return " + ".join(terms).replace("+ -", "- ")
