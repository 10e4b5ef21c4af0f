"""Exact sparse Laurent polynomials over the integers in the variable v.

Every coefficient in this package is one of these.  Kazhdan-Lusztig
polynomials are classically written in a variable q; here q is identified
with v**-2, so an ordinary polynomial in q embeds as a Laurent polynomial
in v with even, nonpositive exponents.  Keeping v as the internal variable
lets prefactors like q**(-c/2) with odd c stay integral.  Conversion to the
q picture happens only at input/output boundaries.

Coefficients are Python ints, so they never overflow.  Values are immutable
after construction and safe to share between threads.
"""

from __future__ import annotations

from typing import Iterator, Mapping


class NotAQPolynomial(ValueError):
    """The value does not lie in the image of Z[q] under q -> v**-2."""


class LaurentPoly:
    """An integer Laurent polynomial in v, stored as {exponent: coefficient}.

    Zero coefficients are never stored, so equality of values is equality
    of the coefficient maps.

    >>> p = LaurentPoly.v(-1) - LaurentPoly.v(1)
    >>> str(p * LaurentPoly.v(1))
    '1-v^2'
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        clean: dict[int, int] = {}
        if coeffs:
            for e, c in coeffs.items():
                if c:
                    clean[int(e)] = int(c)
        self._coeffs = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        """The zero polynomial, one shared value."""
        return _ZERO

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def of_nonzero(cls, coeffs: dict[int, int]) -> "LaurentPoly":
        """The polynomial of coeffs, int exponents to nonzero int
        coefficients, taken as it is: the result owns the dict."""
        res = cls.__new__(cls)
        res._coeffs = coeffs
        return res

    @classmethod
    def v(cls, exponent: int = 1, coefficient: int = 1) -> "LaurentPoly":
        """The monomial coefficient * v**exponent."""
        res = cls.__new__(cls)
        res._coeffs = {int(exponent): int(coefficient)} if coefficient else {}
        return res

    @classmethod
    def from_q_coeffs(cls, qcoeffs: Mapping[int, int]) -> "LaurentPoly":
        """Embed a polynomial in q, given as {q-exponent: coefficient}."""
        return cls({-2 * int(j): c for j, c in qcoeffs.items()})

    # -- ring structure ----------------------------------------------------

    @staticmethod
    def _coerce(other) -> "LaurentPoly | None":
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int):
            return LaurentPoly({0: other})
        return None

    def __add__(self, other) -> "LaurentPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self._coeffs)
        for e, c in o._coeffs.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        res = LaurentPoly.__new__(LaurentPoly)
        res._coeffs = out
        return res

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        res = LaurentPoly.__new__(LaurentPoly)
        res._coeffs = {e: -c for e, c in self._coeffs.items()}
        return res

    def __sub__(self, other) -> "LaurentPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "LaurentPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> "LaurentPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in o._coeffs.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        res = LaurentPoly.__new__(LaurentPoly)
        res._coeffs = out
        return res

    __rmul__ = __mul__

    def shifted(self, e: int) -> "LaurentPoly":
        """self * v**e, every exponent moved by e."""
        res = LaurentPoly.__new__(LaurentPoly)
        res._coeffs = {d + e: c for d, c in self._coeffs.items()}
        return res

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._coeffs

    def is_one(self) -> bool:
        return self._coeffs == {0: 1}

    def items(self) -> Iterator[tuple[int, int]]:
        """(exponent, coefficient) pairs in increasing exponent order."""
        return iter(sorted(self._coeffs.items()))

    def min_exponent(self) -> int:
        if not self._coeffs:
            raise ValueError("the zero polynomial has no exponents")
        return min(self._coeffs)

    def as_q_polynomial(self) -> dict[int, int]:
        """The unique preimage under q -> v**-2, as {q-exponent: coefficient}.

        Raises NotAQPolynomial when any v-exponent is odd or positive.
        """
        out: dict[int, int] = {}
        for e, c in self._coeffs.items():
            if e % 2 != 0 or e > 0:
                raise NotAQPolynomial(
                    f"v-exponent {e} is not of the form -2j with j >= 0"
                )
            out[-e // 2] = c
        return out

    # -- hashing and comparison --------------------------------------------

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._coeffs == o._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    # -- serialization and display -----------------------------------------

    def to_json(self, var: str = "v") -> dict:
        """JSON form {"var": ..., "coeffs": {"<exponent>": coefficient}}."""
        if var == "v":
            coeffs = {str(e): c for e, c in sorted(self._coeffs.items())}
        elif var == "q":
            coeffs = {str(j): c for j, c in sorted(self.as_q_polynomial().items())}
        else:
            raise ValueError(f"unknown variable {var!r}")
        return {"var": var, "coeffs": coeffs}

    @classmethod
    def from_json(cls, data: Mapping) -> "LaurentPoly":
        var = data.get("var", "v")
        coeffs = {int(e): int(c) for e, c in data["coeffs"].items()}
        if var == "v":
            return cls(coeffs)
        if var == "q":
            return cls.from_q_coeffs(coeffs)
        raise ValueError(f"unknown variable {var!r}")

    def format(self, var: str = "v") -> str:
        """Human form, e.g. '1+q' or 'v^-1-v'.  Terms in increasing exponent."""
        if var == "q":
            terms = sorted(self.as_q_polynomial().items())
        else:
            terms = sorted(self._coeffs.items())
        if not terms:
            return "0"
        parts: list[str] = []
        for e, c in terms:
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                power = var if e == 1 else f"{var}^{e}"
                body = power if mag == 1 else f"{mag}{power}"
            if not parts:
                parts.append(f"-{body}" if c < 0 else body)
            else:
                parts.append(f"{sign}{body}")
        return "".join(parts)

    def __str__(self) -> str:
        return self.format("v")

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(sorted(self._coeffs.items()))!r})"


_ZERO = LaurentPoly.v(0, 0)
