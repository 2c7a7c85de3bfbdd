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

``Record`` is the base of the package's parameter records, ``QuotProblem``
and ``WeightVector`` the records the engines share, and ``InputError`` the
error raised when a value names a field; ``parse_fraction``, ``_require_int``
and ``_require_int_list`` read JSON values and raise it; ``_product_price``,
``_fraction_price`` and ``_print_price`` price every engine's work count, in
microseconds, each timed once in process on a 2 vCPU box (CPython 3.11, best
of 7; the box's speed varies by about 1.8x), ``_row_price`` the fixed work of
each result row, and ``_within_budget`` refuses a count past ``WORK_LIMIT``.
They live here because every module imports this one.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from typing import Iterable, Sequence

from . import _EXPORTS

__all__ = list(_EXPORTS["scalars"])


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


class QuotProblem(Record):
    """Full-rank Quot problem: genus ``g``, splitting degrees ``l``, total
    colength ``d``.  The volume is a polynomial in the stability variable."""

    __slots__ = ("g", "r", "l", "d")

    def __init__(self, g: int, r: int, l: Sequence[int], d: int):
        g, r, d = operator.index(g), operator.index(r), operator.index(d)
        l = tuple(operator.index(x) for x in l)
        if g < 0:
            raise ValueError("genus must be non-negative")
        if r < 1:
            raise ValueError("rank must be positive")
        if d < 0:
            raise ValueError("d must be non-negative")
        if len(l) != r:
            raise ValueError("l must list one degree per summand")
        super().__init__(g, r, l, d)

    @property
    def l_total(self) -> int:
        return sum(self.l)

    @property
    def gbar(self) -> int:
        return self.g - 1


class WeightVector(Record):
    """Pairwise distinct rational torus weights."""

    __slots__ = ("w",)

    def __init__(self, w: Sequence[Fraction | int]):
        w = tuple(_as_fraction(x) for x in w)
        if len(set(w)) != len(w):
            raise ValueError("weights must be pairwise distinct")
        super().__init__(w)


def default_weights(r: int) -> WeightVector:
    return WeightVector(tuple(Fraction(i) for i in range(1, r + 1)))


# An integer or num/den in ASCII digits; Fraction would also read exponents such as
# "1e999999999", building a huge integer before any check runs, and int() alone reads
# other scripts' digits, surrounding spaces and underscores.
_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _ascii_int(text: str) -> int:
    """The integer ``text`` spells as ``[+-]?[0-9]+``; anything else is a ``ValueError``."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"not an ASCII integer: {text!r}")
    return int(text)


def parse_fraction(value, field_name: str) -> Fraction:
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL.fullmatch(value):
            raise InputError(field_name, f"bad rational literal {value!r}: "
                             "expected an integer or 'num/den'")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(field_name, f"bad rational literal {value!r}: {exc}") from None
    raise InputError(field_name, "expected a rational 'num/den' string or integer")


def _require_int(value, field_name: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(field_name, "expected an integer")
    if minimum is not None and value < minimum:
        raise InputError(field_name, f"expected an integer >= {minimum}, got {value}")
    return value


def _require_int_list(value, field_name: str, minimum: int | None = None) -> tuple[int, ...]:
    if not isinstance(value, (list, tuple)):
        raise InputError(field_name, "expected a list of integers")
    return tuple(
        _require_int(x, f"{field_name}[{i}]", minimum) for i, x in enumerate(value)
    )


# A job whose estimated running time passes WORK_LIMIT microseconds is refused before it
# starts.  Each engine's ``_*_work`` counts its operations from the job's sizes, each
# clamped at the limit, and prices them with the three functions below.
WORK_LIMIT = 10 ** 7  # ten seconds


def _within_budget(work: float, field_name: str) -> None:
    if work > WORK_LIMIT:
        raise InputError(field_name, f"estimated {work:.1e} microseconds of work, over the "
                         f"limit of {WORK_LIMIT:.0e}; the job is refused before it starts")


def _bits(x: Fraction) -> int:
    return x.numerator.bit_length() + x.denominator.bit_length()


def _product_price(a: int, b: int) -> float:
    """A product of a and b bits: 0.11 a step (of ``acc[j] += y * x``, 20-bit integers), and
    0.0014 a product of 30-bit digits (timed at 600 to 2000 bits), schoolbook up to 70 digits,
    past that in blocks of the smaller factor by Karatsuba, 3^k digit products per 2^k."""
    small, big = sorted((a // 30 + 1, b // 30 + 1))
    return 0.11 + 0.0014 * min(small, 70 * (small / 70) ** (math.log2(3) - 1)) * big


def _fraction_price(s: int) -> float:
    """A Fraction add or multiply at s bits: 2.0 at 8 bits, and the gcd 0.0002 s^1.5 (timed
    at s = 3000 to 30000)."""
    return 2.0 + 0.0002 * s * math.isqrt(s)


def _print_price(s: int) -> float:
    """``str()`` of an integer of s bits: s^2/600000 (timed at s = 10^4 to 10^5)."""
    return s * s / 600000


def _row_price(k: int) -> float:
    """One result row of k coefficients, its problem built, its volume function called and
    its coefficients emitted and printed as JSON: 20 a row and 6.5 a coefficient (timed as
    whole ``sweep`` processes of 100 000 rows at r = 1 and d = 0, 1, 2, best of 5)."""
    return 20 + 6.5 * k


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


def __getattr__(name: str):  # perfbench/tracer.py patches these names; delete once it stops
    if name in ("TruncSeries", "series_pow_int", "series_exp"):
        from . import _oracle
        return getattr(_oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
