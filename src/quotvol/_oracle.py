"""The unreduced fixed-point pipeline, kept as the tests' oracle for ``quot_volume``.

``integrand`` builds one composition's integrand as a ``TruncSeries``: sparse, over
``TPoly``, in pairs ``(x_i, y_i)`` capped by ``deg(x_i) + deg(y_i) <= d_i``, so each
variable is nilpotent and ``series_pow_int`` (negative exponents too) and ``series_exp``
terminate.  The power of ``u`` is one more key exponent, signed and never truncated:
negative powers from binomial expansions cancel only once the ``u^0`` part is taken.
``evaluate_composition`` passes each monomial of exact multi-degree through
``_u_concentrated`` and weights it by falling factorials.  No CLI job loads this module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .localization import Composition, _u_concentrated, stability_weights
from .scalars import (QuotProblem, TPoly, ULaurent, WeightVector, falling_factorial,
                      general_binomial)


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


def integrand(p: QuotProblem, c: Composition, w: WeightVector) -> TruncSeries:
    """Fixed-point integrand for one composition.

    ((sum_i s_i x_i + y_i) - (sum_i s_i w_i) u)^(rd)
      * prod_{i != j} ((w_j - w_i) u + x_i)^(gbar + l_i - d_i - l_j)
                      exp(y_i / ((w_j - w_i) u + x_i))
      / prod_{i < j} ((w_j - w_i) u + (x_i - x_j))^(2 gbar)
    """
    if len(w.w) != p.r:
        raise ValueError("weight vector length must equal the rank")
    caps = c.parts
    s = stability_weights(p, c)
    gbar = p.gbar

    kahler = TruncSeries(caps)
    for i in range(1, p.r + 1):
        kahler = kahler + TruncSeries.monomial(caps, s[i - 1], x=i) + TruncSeries.monomial(caps, y=i)
    s_dot_w = TPoly()
    for i in range(p.r):
        s_dot_w = s_dot_w + s[i] * w.w[i]
    kahler = kahler - TruncSeries.monomial(caps, s_dot_w, u=1)
    f = series_pow_int(kahler, p.r * p.d)

    for i in range(1, p.r + 1):
        for j in range(1, p.r + 1):
            if i == j:
                continue
            wji = w.w[j - 1] - w.w[i - 1]
            base = TruncSeries.monomial(caps, x=i) + TruncSeries.monomial(caps, wji, u=1)
            exponent = gbar + p.l[i - 1] - c.parts[i - 1] - p.l[j - 1]
            f = f * series_pow_int(base, exponent)
            f = f * series_exp(TruncSeries.monomial(caps, y=i) * series_pow_int(base, -1))

    for i in range(1, p.r + 1):
        for j in range(i + 1, p.r + 1):
            base = (
                TruncSeries.monomial(caps, x=i)
                - TruncSeries.monomial(caps, x=j)
                + TruncSeries.monomial(caps, w.w[j - 1] - w.w[i - 1], u=1)
            )
            f = f * series_pow_int(base, -2 * gbar)
    return f


def evaluate_composition(p: QuotProblem, c: Composition, w: WeightVector) -> TPoly:
    """Contribution of one fixed-point component, before the global sign and
    the 1/(rd)! normalization.

    Only monomials of exact multi-degree (d_1, ..., d_r) enter; each is
    checked to sit at u^0 and weighted by the product of falling factorials
    from the theta-power intersection numbers.
    """
    f = integrand(p, c, w)
    parts = c.parts
    total = TPoly()
    for key, value in f.terms.items():
        if any(key[2 * i] + key[2 * i + 1] != parts[i] for i in range(p.r)):
            continue
        value = _u_concentrated(ULaurent.monomial(value, key[-1]))
        weight = Fraction(1)
        for i in range(p.r):
            weight *= falling_factorial(p.g, key[2 * i + 1])
            if weight == 0:
                break
        if weight:
            total = total + value * weight
    return total
