"""Exact arithmetic tower underlying every volume computation.

Three nested rings, all over arbitrary-precision rationals
(``fractions.Fraction``; no floating point anywhere):

* ``TPoly`` -- polynomials in the formal stability variable.  Volumes are
  returned as elements of this ring.
* ``ULaurent`` -- Laurent polynomials in the equivariant variable ``u`` with
  ``TPoly`` coefficients and a finite exponent window.  The window is never
  pre-truncated: negative powers produced by binomial expansions cancel only
  once the ``u^0`` part is extracted at the very end.
* ``TruncSeries`` -- sparse multivariate series in variable pairs
  ``(x_1, y_1), ..., (x_r, y_r)`` over ``ULaurent``, truncated by the joint
  caps ``deg(x_i) + deg(y_i) <= d_i``.  Every operation discards monomials
  beyond the caps, so each ``x_i``, ``y_i`` is nilpotent; this is what makes
  ``series_pow_int`` with negative exponents and ``series_exp`` terminate.

``quot_volume`` computes with ``TPoly`` alone; ``ULaurent`` and
``TruncSeries`` carry the unreduced localization pipeline that tests keep as
its oracle, and ``ULaurent`` also carries the ``u^0`` guard.  Of the three
rings only ``TPoly`` is exported; the oracle stays importable from here.

All values are immutable after construction and all operations are pure, so
instances may be shared freely across threads.

``Record`` is the base of the package's parameter records (``QuotProblem``
and the like); it lives here because every module imports this one.
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


class ULaurent:
    """Laurent polynomial in the equivariant variable ``u`` over ``TPoly``.

    Stored as a finite window ``coeffs[j]`` = coefficient of
    ``u^(low + j)``, with zero coefficients trimmed at both ends.
    """

    __slots__ = ("low", "coeffs")

    def __init__(self, low: int = 0, coeffs: Iterable[TPoly | Fraction | int] = ()):
        cs = [c if isinstance(c, TPoly) else TPoly((c,)) for c in coeffs]
        start = 0
        while start < len(cs) and not cs[start]:
            start += 1
        end = len(cs)
        while end > start and not cs[end - 1]:
            end -= 1
        if start == end:
            self.low = 0
            self.coeffs = ()
        else:
            self.low = low + start
            self.coeffs = tuple(cs[start:end])

    @classmethod
    def zero(cls) -> ULaurent:
        return cls()

    @classmethod
    def monomial(cls, coeff, exponent: int) -> ULaurent:
        return cls(exponent, (coeff,))

    @classmethod
    def from_scalar(cls, value) -> ULaurent:
        return cls(0, (value,))

    @property
    def high(self) -> int:
        """Largest exponent with a (possibly zero) stored coefficient."""
        return self.low + len(self.coeffs) - 1

    def coefficient(self, k: int) -> TPoly:
        j = k - self.low
        if 0 <= j < len(self.coeffs):
            return self.coeffs[j]
        return TPoly()

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @staticmethod
    def _coerce(other) -> "ULaurent | None":
        if isinstance(other, ULaurent):
            return other
        if isinstance(other, (TPoly, int, Fraction)):
            return ULaurent(0, (other,))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.coeffs:
            return o
        if not o.coeffs:
            return self
        low = min(self.low, o.low)
        high = max(self.high, o.high)
        return ULaurent(
            low,
            tuple(self.coefficient(k) + o.coefficient(k) for k in range(low, high + 1)),
        )

    __radd__ = __add__

    def __neg__(self) -> ULaurent:
        return ULaurent(self.low, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.coeffs or not o.coeffs:
            return ULaurent()
        out = [TPoly() for _ in range(len(self.coeffs) + len(o.coeffs) - 1)]
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(o.coeffs):
                if b:
                    out[i + j] = out[i + j] + a * b
        return ULaurent(self.low + o.low, out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.low == o.low and self.coeffs == o.coeffs

    def as_unit_monomial(self) -> tuple[Fraction, int] | None:
        """Return ``(c, k)`` when this equals ``c * u^k`` with ``c`` a nonzero
        rational constant; ``None`` otherwise (including the zero value)."""
        if len(self.coeffs) != 1:
            return None
        c = self.coeffs[0]
        if c.degree != 0:
            return None
        return c.coefficient(0), self.low

    def __repr__(self) -> str:
        if not self.coeffs:
            return "ULaurent('0')"
        parts = [
            f"({c._plain()})*u^{self.low + j}"
            for j, c in enumerate(self.coeffs)
            if c
        ]
        return "ULaurent('" + " + ".join(parts) + "')"


class TruncSeries:
    """Sparse truncated series in pairs ``(x_i, y_i)``, i = 1..r, over ``ULaurent``.

    Terms are keyed by exponent vectors ``(a_1, b_1, ..., a_r, b_r)`` subject
    to ``a_i + b_i <= caps[i]``; anything beyond the caps is dropped, so a cap
    of 0 makes the corresponding pair of variables identically zero.
    """

    __slots__ = ("caps", "terms")

    def __init__(self, caps: Iterable[int], terms: Mapping[tuple[int, ...], ULaurent] | None = None):
        caps = tuple(int(c) for c in caps)
        if any(c < 0 for c in caps):
            raise ValueError("caps must be non-negative")
        self.caps = caps
        out: dict[tuple[int, ...], ULaurent] = {}
        if terms:
            for key, val in terms.items():
                key = tuple(key)
                if len(key) != 2 * len(caps) or any(e < 0 for e in key):
                    raise ValueError(f"bad exponent vector {key!r}")
                if not self._within_caps(key):
                    continue
                if val:
                    out[key] = val
        self.terms = out

    def _within_caps(self, key: tuple[int, ...]) -> bool:
        caps = self.caps
        return all(key[2 * i] + key[2 * i + 1] <= caps[i] for i in range(len(caps)))

    @property
    def r(self) -> int:
        return len(self.caps)

    @property
    def nilpotency(self) -> int:
        """Total-degree bound: products of more than this many variables vanish."""
        return sum(self.caps)

    @classmethod
    def zero(cls, caps) -> TruncSeries:
        return cls(caps)

    @classmethod
    def scalar(cls, caps, value) -> TruncSeries:
        ul = value if isinstance(value, ULaurent) else ULaurent.from_scalar(value)
        key = (0,) * (2 * len(tuple(caps)))
        return cls(caps, {key: ul})

    @classmethod
    def one(cls, caps) -> TruncSeries:
        return cls.scalar(caps, 1)

    @classmethod
    def x(cls, caps, i: int) -> TruncSeries:
        """The variable x_i (1-based); zero when caps[i-1] == 0."""
        caps = tuple(caps)
        key = [0] * (2 * len(caps))
        key[2 * (i - 1)] = 1
        return cls(caps, {tuple(key): ULaurent.from_scalar(1)})

    @classmethod
    def y(cls, caps, i: int) -> TruncSeries:
        caps = tuple(caps)
        key = [0] * (2 * len(caps))
        key[2 * (i - 1) + 1] = 1
        return cls(caps, {tuple(key): ULaurent.from_scalar(1)})

    def constant_term(self) -> ULaurent:
        return self.terms.get((0,) * (2 * self.r), ULaurent())

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _require_compatible(self, other: TruncSeries):
        if self.caps != other.caps:
            raise ValueError(f"cap mismatch: {self.caps} vs {other.caps}")

    @staticmethod
    def _coerce_scalar(value) -> ULaurent | None:
        if isinstance(value, ULaurent):
            return value
        if isinstance(value, (TPoly, int, Fraction)):
            return ULaurent.from_scalar(value)
        return None

    def __add__(self, other):
        if not isinstance(other, TruncSeries):
            ul = self._coerce_scalar(other)
            if ul is None:
                return NotImplemented
            other = TruncSeries.scalar(self.caps, ul)
        self._require_compatible(other)
        out = dict(self.terms)
        for key, val in other.terms.items():
            s = out.get(key, ULaurent()) + val
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        result = TruncSeries(self.caps)
        result.terms = out
        return result

    __radd__ = __add__

    def __neg__(self) -> TruncSeries:
        result = TruncSeries(self.caps)
        result.terms = {k: -v for k, v in self.terms.items()}
        return result

    def __sub__(self, other):
        if isinstance(other, TruncSeries):
            self._require_compatible(other)
            return self + (-other)
        ul = self._coerce_scalar(other)
        if ul is None:
            return NotImplemented
        return self + TruncSeries.scalar(self.caps, -ul)

    def __mul__(self, other):
        if not isinstance(other, TruncSeries):
            ul = self._coerce_scalar(other)
            if ul is None:
                return NotImplemented
            if not ul:
                return TruncSeries(self.caps)
            result = TruncSeries(self.caps)
            result.terms = {k: v * ul for k, v in self.terms.items()}
            return result
        self._require_compatible(other)
        caps = self.caps
        r = len(caps)
        out: dict[tuple[int, ...], ULaurent] = {}
        for ka, va in self.terms.items():
            for kb, vb in other.terms.items():
                key = tuple(ka[i] + kb[i] for i in range(2 * r))
                if not self._within_caps(key):
                    continue
                s = out.get(key, ULaurent()) + va * vb
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        result = TruncSeries(caps)
        result.terms = out
        return result

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncSeries):
            ul = self._coerce_scalar(other)
            if ul is None:
                return NotImplemented
            other = TruncSeries.scalar(self.caps, ul)
        return self.caps == other.caps and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return f"TruncSeries(caps={self.caps}, 0)"
        parts = [f"{key}: {val!r}" for key, val in sorted(self.terms.items())]
        return f"TruncSeries(caps={self.caps}, {{" + ", ".join(parts) + "})"


def _pow_repeated(base: TruncSeries, e: int) -> TruncSeries:
    result = TruncSeries.one(base.caps)
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

    When the constant term (all x, y exponents zero) is a unit monomial
    ``c * u^k``, the power is computed by factoring the unit out and applying
    the generalized binomial series to the nilpotent remainder, which
    terminates by cap-nilpotency.  Otherwise only ``e >= 0`` is possible and
    plain multiplication is used.
    """
    if not isinstance(e, int):
        raise TypeError("exponent must be an integer")
    if e == 0:
        return TruncSeries.one(base.caps)
    unit = base.constant_term().as_unit_monomial()
    if unit is None:
        if e < 0:
            raise ValueError("non-unit base for negative power")
        return _pow_repeated(base, e)
    c, k = unit
    # base = c u^k (1 + z) with z nilpotent, so base^e = c^e u^{ke} sum C(e,j) z^j.
    z = base * ULaurent.monomial(TPoly((Fraction(1) / c,)), -k) - 1
    acc = TruncSeries.one(base.caps)
    zpow = TruncSeries.one(base.caps)
    for j in range(1, base.nilpotency + 1):
        zpow = zpow * z
        if not zpow:
            break
        acc = acc + zpow * general_binomial(e, j)
    return acc * ULaurent.monomial(TPoly((c ** e,)), k * e)


def series_exp(arg: TruncSeries) -> TruncSeries:
    """``sum arg^k / k!``; requires a vanishing constant term.

    Terminates because the argument is nilpotent under the caps.
    """
    if arg.constant_term():
        raise ValueError("exponential of non-nilpotent argument")
    acc = TruncSeries.one(arg.caps)
    term = TruncSeries.one(arg.caps)
    for k in range(1, arg.nilpotency + 1):
        term = term * arg * Fraction(1, k)
        if not term:
            break
        acc = acc + term
    return acc
