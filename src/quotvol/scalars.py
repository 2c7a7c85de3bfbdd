"""Exact arithmetic tower underlying every volume computation.

All arithmetic is over arbitrary-precision rationals (``fractions.Fraction``;
no floating point anywhere):

* ``TPoly`` -- polynomials in the formal stability variable.  Volumes are
  returned as elements of this ring.
* ``TruncSeries`` -- sparse series over ``TPoly`` in variable pairs
  ``(x_1, y_1), ..., (x_r, y_r)`` and the equivariant variable ``u``,
  truncated by the joint caps ``deg(x_i) + deg(y_i) <= d_i``.  Every
  operation discards monomials beyond the caps, so each ``x_i``, ``y_i`` is
  nilpotent; this is what makes ``series_pow_int`` with negative exponents
  and ``series_exp`` terminate.  The power of ``u`` is one more exponent,
  signed and never truncated: negative powers produced by binomial
  expansions cancel only once the ``u^0`` part is extracted at the very end.
* ``ULaurent`` -- one monomial ``coeff * u^exponent`` over ``TPoly``, with
  no arithmetic: the value the ``u^0`` guard of ``quot_volume`` reads.

``quot_volume`` computes with ``TPoly`` alone; ``TruncSeries`` carries the
unreduced localization pipeline that tests keep as its oracle.  Only
``TPoly`` is exported; the oracle stays importable from here.

All values are immutable after construction and all operations are pure, so
instances may be shared freely across threads.

``Record`` is the base of the package's parameter records (``QuotProblem``
and the like), and ``InputError`` the error their checks raise when a value
names a field; both live here because every module imports this one.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping

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


class TruncSeries:
    """Sparse truncated series over ``TPoly`` in ``(x_i, y_i)``, i = 1..r, and ``u``.

    Terms are keyed by exponent vectors ``(a_1, b_1, ..., a_r, b_r, k)`` for
    ``x^a y^b u^k``.  The x/y exponents are subject to ``a_i + b_i <= caps[i]``;
    anything beyond the caps is dropped, so a cap of 0 makes the corresponding
    pair of variables identically zero.  The u exponent ``k`` is any integer
    and is never truncated.
    """

    __slots__ = ("caps", "terms")

    def __init__(self, caps: Iterable[int],
                 terms: Mapping[tuple[int, ...], TPoly | Fraction | int] | None = None):
        caps = tuple(int(c) for c in caps)
        if any(c < 0 for c in caps):
            raise ValueError("caps must be non-negative")
        self.caps = caps
        out: dict[tuple[int, ...], TPoly] = {}
        if terms:
            for key, val in terms.items():
                key = tuple(key)
                if len(key) != 2 * len(caps) + 1 or any(e < 0 for e in key[:-1]):
                    raise ValueError(f"bad exponent vector {key!r}")
                if self._within_caps(key) and val:
                    out[key] = val if isinstance(val, TPoly) else TPoly((val,))
        self.terms = out

    def _within_caps(self, key: tuple[int, ...]) -> bool:
        caps = self.caps
        return all(key[2 * i] + key[2 * i + 1] <= caps[i] for i in range(len(caps)))

    @property
    def nilpotency(self) -> int:
        """Total-degree bound: products of more than this many variables vanish."""
        return sum(self.caps)

    @classmethod
    def monomial(cls, caps, value=1, u: int = 0, x: int | None = None,
                 y: int | None = None) -> TruncSeries:
        """``value`` times the ``u``-th power of ``u``, times ``x_x`` and
        ``y_y`` (1-based) when given; zero when their caps leave no room."""
        caps = tuple(caps)
        key = [0] * (2 * len(caps)) + [u]
        if x is not None:
            key[2 * x - 2] = 1
        if y is not None:
            key[2 * y - 1] = 1
        return cls(caps, {tuple(key): value})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _coerce(self, other) -> TruncSeries | None:
        """``other`` as a series with these caps; a scalar sits at ``u^0``."""
        if isinstance(other, TruncSeries):
            if self.caps != other.caps:
                raise ValueError(f"cap mismatch: {self.caps} vs {other.caps}")
            return other
        if isinstance(other, (TPoly, int, Fraction)):
            return TruncSeries.monomial(self.caps, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for key, val in o.terms.items():
            s = out.pop(key, TPoly()) + val
            if s:
                out[key] = s
        result = TruncSeries(self.caps)
        result.terms = out
        return result

    __radd__ = __add__

    def __neg__(self) -> TruncSeries:
        result = TruncSeries(self.caps)
        result.terms = {k: -v for k, v in self.terms.items()}
        return result

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out: dict[tuple[int, ...], TPoly] = {}
        for ka, va in self.terms.items():
            for kb, vb in o.terms.items():
                key = tuple(a + b for a, b in zip(ka, kb))
                if not self._within_caps(key):
                    continue
                s = out.pop(key, TPoly()) + va * vb
                if s:
                    out[key] = s
        result = TruncSeries(self.caps)
        result.terms = out
        return result

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.caps == other.caps and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return f"TruncSeries(caps={self.caps}, 0)"
        parts = [f"{key}: {val!r}" for key, val in sorted(self.terms.items())]
        return f"TruncSeries(caps={self.caps}, {{" + ", ".join(parts) + "})"


def _pow_repeated(base: TruncSeries, e: int) -> TruncSeries:
    result = TruncSeries.monomial(base.caps)
    b = base
    while e:
        if e & 1:
            result = result * b
        e >>= 1
        if e:
            b = b * b
    return result


def series_pow_int(base: TruncSeries, e: int) -> TruncSeries:
    """``base ** e`` in the truncated ring; ``e`` may be negative.

    When the x/y-free part of the base is a single unit monomial ``c * u^k``,
    the power is computed by factoring the unit out and applying the
    generalized binomial series to the nilpotent remainder, which terminates
    by cap-nilpotency.  Otherwise only ``e >= 0`` is possible and plain
    multiplication is used.
    """
    if not isinstance(e, int):
        raise TypeError("exponent must be an integer")
    if e == 0:
        return TruncSeries.monomial(base.caps)
    free = [(key[-1], val) for key, val in base.terms.items() if not any(key[:-1])]
    if len(free) != 1 or free[0][1].degree != 0:
        if e < 0:
            raise ValueError("non-unit base for negative power")
        return _pow_repeated(base, e)
    k, c = free[0][0], free[0][1].coefficient(0)
    # base = c u^k (1 + z) with z nilpotent, so base^e = c^e u^{ke} sum C(e,j) z^j.
    z = base * TruncSeries.monomial(base.caps, 1 / c, -k) - 1
    acc = TruncSeries.monomial(base.caps)
    zpow = acc
    for j in range(1, base.nilpotency + 1):
        zpow = zpow * z
        if not zpow:
            break
        acc = acc + zpow * general_binomial(e, j)
    return acc * TruncSeries.monomial(base.caps, c ** e, k * e)


def series_exp(arg: TruncSeries) -> TruncSeries:
    """``sum arg^k / k!``; requires every term to carry an x or a y.

    Terminates because the argument is nilpotent under the caps.
    """
    if any(not any(key[:-1]) for key in arg.terms):
        raise ValueError("exponential of non-nilpotent argument")
    acc = TruncSeries.monomial(arg.caps)
    term = acc
    for k in range(1, arg.nilpotency + 1):
        term = term * arg * Fraction(1, k)
        if not term:
            break
        acc = acc + term
    return acc
