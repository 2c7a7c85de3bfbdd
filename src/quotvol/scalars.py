"""Exact arithmetic tower underlying every volume computation.

All arithmetic is over arbitrary-precision rationals (``fractions.Fraction``;
no floating point anywhere):

* ``TPoly`` -- polynomials in the formal stability variable.  Volumes are
  returned as elements of this ring.
* ``ULaurent`` -- one monomial ``coeff * u^exponent`` over ``TPoly``, with
  no arithmetic: the value the ``u^0`` guard of ``quot_volume`` reads.

``quot_volume`` computes with ``TPoly`` alone; the tests' series oracle is ``_oracle``.

All values are immutable after construction and all operations are pure, so
instances may be shared freely across threads.

``Record`` is the base of the package's parameter records (``QuotProblem``
and the like), and ``InputError`` the error their checks raise when a value
names a field; both live here because every module imports this one.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

__all__ = ["TPoly", "falling_factorial", "general_binomial"]


def falling_factorial(g: int, k: int) -> Fraction:
    """g(g-1)...(g-k+1); 1 for k = 0 (empty product), 0 for k > g >= 0."""
    if g < 0 or k < 0:
        raise ValueError("falling_factorial requires non-negative arguments")
    return Fraction(math.perm(g, k))


def general_binomial(e: int, k: int) -> Fraction:
    """Binomial coefficient C(e, k) = e(e-1)...(e-k+1)/k! for any integer e.

    For negative e this is the generalized coefficient appearing in the
    binomial series of ``(1 + z)^e``.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    num = 1
    for i in range(k):
        num *= e - i
    return Fraction(num, math.factorial(k))


class Record:
    """Immutable value record whose fields are the subclass's ``__slots__``.

    Records compare and hash as the tuple of their fields, print as
    ``Name(field=value, ...)`` and refuse assignment once built.  A subclass
    ``__init__`` normalizes its arguments and passes them here in field
    order.  This stands in for ``dataclasses``, whose import (it loads
    ``inspect``) is a large share of a ``quotvol`` process start.
    """

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class InputError(ValueError):
    """Invalid input; carries a pointer to the offending field."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"at {field_name!r}: {message}")
        self.field_name = field_name


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class TPoly:
    """Polynomial in the stability variable with Fraction coefficients.

    ``coeffs[k]`` is the coefficient of degree ``k``; trailing zeros are
    trimmed.  The zero polynomial has degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def variable(cls) -> TPoly:
        return cls((Fraction(0), Fraction(1)))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __call__(self, value) -> Fraction:
        """Evaluate at an exact rational point (Horner)."""
        x = _as_fraction(value)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    @staticmethod
    def _coerce(other) -> "TPoly | None":
        if isinstance(other, TPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return TPoly((other,))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        return TPoly(
            tuple(self.coefficient(k) + o.coefficient(k) for k in range(n))
        )

    __radd__ = __add__

    def __neg__(self) -> TPoly:
        return TPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return TPoly(tuple(c * other for c in self.coeffs))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.coeffs or not o.coeffs:
            return TPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(o.coeffs):
                out[i + j] += a * b
        return TPoly(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> TPoly:
        if not isinstance(e, int) or e < 0:
            raise ValueError("TPoly powers must be non-negative integers")
        result = TPoly((1,))
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        if self.degree <= 0:
            return hash(self.coefficient(0))
        return hash(self.coeffs)

    def format_terms(self, coeff, power, joiner: str) -> str:
        """The nonzero terms from the top degree down, with signs between them.

        ``coeff(|c|)`` prints a coefficient magnitude and ``power(k)`` the
        k-th power of the variable (k >= 1); ``joiner`` goes between the two,
        and a coefficient of magnitude 1 is left out.
        """
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = coeff(mag)
            else:
                body = power(k) if mag == 1 else coeff(mag) + joiner + power(k)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def _plain(self, var: str = "t") -> str:
        return self.format_terms(str, lambda k: var if k == 1 else f"{var}^{k}", "*")

    def __repr__(self) -> str:
        return f"TPoly('{self._plain()}')"


class ULaurent(Record):
    """The monomial ``coeff * u^exponent``, with ``coeff`` over ``TPoly``: the
    value the ``u^0`` guard of ``quot_volume`` reads."""

    __slots__ = ("exponent", "coeff")

    def __init__(self, exponent: int, coeff: TPoly | Fraction | int):
        super().__init__(exponent, coeff if isinstance(coeff, TPoly) else TPoly((coeff,)))

    @classmethod
    def monomial(cls, coeff, exponent: int) -> ULaurent:
        return cls(exponent, coeff)


def __getattr__(name: str):  # perfbench/tracer.py patches these here; ROADMAP item 1 deletes it
    if name in ("TruncSeries", "series_pow_int", "series_exp"):
        from . import _oracle
        return getattr(_oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
