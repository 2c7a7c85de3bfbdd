"""Fixed-point localization for full-rank Quot spaces over a curve.

For a split bundle ``E_0 = L_1 + ... + L_r`` the scaling torus acts on the
Quot space of full-rank subsheaves of total colength ``d``; the fixed locus
is indexed by weak compositions ``(d_1, ..., d_r)`` of ``d`` and each
component is a product of symmetric powers.  The volume is the signed sum,
over compositions, of one coefficient of a fixed-point integrand, divided
by ``(rd)!``.

``quot_volume`` evaluates that coefficient in reduced form.  The integrand
is homogeneous in ``(x, y, u)`` jointly, so its multi-degree ``(d_1, ..., d_r)``
part is a single power of the equivariant variable ``u`` and ``u = 1``; the theta
classes ``y_i`` are integrated out by the symmetric-power intersection
numbers, ``L(y^k e^(yC)) = g(g-1)...(g-k+1) (1 + C)^(g-k)``; and ``x_i``
and ``y_i`` merge into one variable ``t_i`` capped at degree ``d_i``.  With
``N = rd``, ``s_i = ttilde + l_i - d_i`` and torus weights ``w_i``, each
composition contributes the ``prod_i t_i^(d_i)`` coefficient of

    sum_k N!/(N-|k|)! A^(N-|k|) prod_i C(g, k_i) t_i^(k_i) (1 + t_i c_i)^(g-k_i)
          * prod_{i != j} (w_j - w_i + t_i)^(gbar + l_i - d_i - l_j)
          * prod_{i < j} (w_j - w_i + t_i - t_j)^(-2 gbar),

where ``A = sum_i s_i t_i - sum_i s_i w_i`` and
``c_i = sum_{j != i} 1/(w_j - w_i + t_i)``.  Everything but ``A`` is free of
``ttilde``, so it is built once per composition as one truncated series with
rational coefficients in ``(t_1, ..., t_r, z)``: by the binomial theorem
``sum_k C(g, k) (t_i z)^k (1 + t_i c_i)^(g-k) = (1 + t_i (c_i + z))^g``, so
the exponent of ``z`` records ``K = |k|``.  Only the contraction with the
multinomial expansion of ``A^(N-K)`` carries ``TPoly`` coefficients, and it
produces the one coefficient needed and nothing else.

Setting ``u = 1`` is checked, never assumed: the homogeneity degree is
summed from the actual factor exponents, and each composition's coefficient
passes through ``_u_concentrated`` at ``u^(degree - d)``, which raises
unless that exponent is 0.

The unreduced pipeline, which the tests keep as this engine's oracle, is ``_oracle``.

The result is independent of the (pairwise distinct) torus weights; that
freedom is kept as an end-to-end consistency check.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Sequence

from .scalars import Record, TPoly, ULaurent, _as_fraction, general_binomial

__all__ = [
    "QuotProblem",
    "Composition",
    "WeightVector",
    "WeightIndependenceReport",
    "compositions",
    "default_weights",
    "stability_weights",
    "quot_volume",
    "verify_weight_independence",
]


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


class Composition(Record):
    """Weak composition (d_1, ..., d_r); indexes one fixed-point component."""

    __slots__ = ("parts",)

    def __init__(self, parts: Sequence[int]):
        parts = tuple(operator.index(x) for x in parts)
        if any(p < 0 for p in parts):
            raise ValueError("parts must be non-negative")
        super().__init__(parts)

    @property
    def total(self) -> int:
        return sum(self.parts)


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


def compositions(d: int, r: int) -> list[Composition]:
    """All weak length-r compositions of d, in descending lexicographic order."""
    if d < 0 or r < 1:
        raise ValueError("need d >= 0 and r >= 1")
    out: list[Composition] = []

    def build(prefix: list[int], remaining: int, slots: int):
        if slots == 1:
            out.append(Composition(tuple(prefix + [remaining])))
            return
        for first in range(remaining, -1, -1):
            build(prefix + [first], remaining - first, slots - 1)

    build([], d, r)
    return out


def stability_weights(p: QuotProblem, c: Composition) -> list[TPoly]:
    """s_i = ttilde + l_i - d_i, one per summand."""
    return [TPoly((p.l[i] - c.parts[i], 1)) for i in range(p.r)]


def _u_concentrated(value: ULaurent) -> TPoly:
    """The u^0 part of a monomial, insisting nothing lives at other u-degrees."""
    if value.exponent and value.coeff:
        raise ArithmeticError("nonzero u-degree in top coefficient")
    return value.coeff


def _sign(p: QuotProblem) -> int:
    # Orientation of the equivariant Euler class of the normal bundle after
    # standardizing each cross factor to the i < j ordering; without it the
    # colength-0 Quot space (a single point) would not have volume 1.
    parity = (p.gbar * math.comb(p.r, 2) + (p.r - 1) * (p.l_total - p.d)) % 2
    return -1 if parity else 1


def _linear_power(w: Fraction, e: int, cap: int) -> list[Fraction]:
    """Coefficients of ``(w + t)^e`` up to ``t^cap``; ``w != 0``, any integer ``e``."""
    return [general_binomial(e, k) * w ** (e - k) for k in range(cap + 1)]


def _poly_mul(a: list[Fraction], b: list[Fraction], cap: int) -> list[Fraction]:
    """Product of two coefficient lists, truncated above ``t^cap``."""
    out = [Fraction(0)] * (cap + 1)
    for i, x in enumerate(a[: cap + 1]):
        if x:
            for j, y in enumerate(b[: cap + 1 - i]):
                out[i + j] += x * y
    return out


def _series_mul(a: dict, b: dict, caps: tuple[int, ...]) -> dict:
    """Product of two multivariate series ``{exponents: Fraction}`` within ``caps``."""
    if len(b) == 1:
        ((kb, c),) = b.items()
        if not any(kb):  # a constant: every key of a stays within caps
            return {k: v * c for k, v in a.items()}
    out: dict[tuple[int, ...], Fraction] = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            if all(e <= c for e, c in zip(key, caps)):
                out[key] = out.get(key, 0) + va * vb
    return out


def _cross_factor(w: Fraction, e: int, i: int, j: int, caps: tuple[int, ...]) -> dict:
    """``(w + t_i - t_j)^e`` as a series within ``caps``."""
    out: dict[tuple[int, ...], Fraction] = {}
    for k, lead in enumerate(_linear_power(w, e, caps[i] + caps[j])):
        if not lead:
            continue
        for a in range(max(0, k - caps[j]), min(k, caps[i]) + 1):
            key = [0] * len(caps)
            key[i], key[j] = a, k - a
            out[tuple(key)] = lead * math.comb(k, a) * (-1) ** (k - a)
    return out


def _reduced_composition(p: QuotProblem, c: Composition, w: WeightVector) -> tuple[TPoly, int]:
    """The ``prod_i t_i^(d_i)`` coefficient of the reduced integrand (see the
    module docstring) together with its homogeneity degree in ``(x, y, u)``.

    The coefficient equals ``_oracle.evaluate_composition(p, c, w)`` whenever the
    degree equals ``c.total``.
    """
    r, g, gbar = p.r, p.g, p.gbar
    caps = c.parts
    n = r * p.d
    degree = n

    # One series in (t_1, ..., t_r, z), where z counts K = |k|: first the
    # cross factors, while the series is still free of z and so smaller, then
    # per summand i the t_i-only factors.  By the binomial theorem the sum
    # over k_i is own_i (1 + t_i (c_i + z))^g, whose z^k part
    # C(g, k) t_i^k own_i (1 + t_i c_i)^(g-k) comes off the ladder
    # own_i (1 + t_i c_i)^m, m = 0..g.
    bounds = caps + (n,)
    series: dict[tuple[int, ...], Fraction] = {(0,) * (r + 1): Fraction(1)}
    for i in range(r):
        for j in range(i + 1, r):
            degree -= 2 * gbar
            factor = _cross_factor(w.w[j] - w.w[i], -2 * gbar, i, j, bounds)
            series = _series_mul(series, factor, bounds)
    for i in range(r):
        cap = caps[i]
        own = [Fraction(1)] + [Fraction(0)] * cap
        c_i = [Fraction(0)] * (cap + 1)
        for j in range(r):
            if j == i:
                continue
            wji = w.w[j] - w.w[i]
            e = gbar + p.l[i] - caps[i] - p.l[j]
            degree += e
            own = _poly_mul(own, _linear_power(wji, e, cap), cap)
            c_i = [x + y for x, y in zip(c_i, _linear_power(wji, -1, cap))]
        one_plus = [Fraction(1)] + c_i[:cap]  # 1 + t_i c_i
        ladder = [own]
        for _ in range(g):
            ladder.append(_poly_mul(ladder[-1], one_plus, cap))
        factor = {}
        for k in range(min(cap, g) + 1):
            for a, x in enumerate(ladder[g - k][: cap + 1 - k]):
                if x:
                    key = [0] * (r + 1)
                    key[i], key[r] = a + k, k
                    factor[tuple(key)] = x * math.comb(g, k)
        series = _series_mul(series, factor, bounds)

    # [prod t^d z^K] of the series times A^(N-K), A = sum_i s_i t_i - S: the
    # multinomial term of t^beta is (N-K)!/(beta! j!) s^beta (-S)^j with
    # j = N-K-|beta|.  Collect the s^beta parts by j, then sum over j by
    # Horner's rule in -S.
    s = stability_weights(p, c)
    neg_s_dot_w = TPoly()
    for i in range(r):
        neg_s_dot_w = neg_s_dot_w - s[i] * w.w[i]
    s_beta: dict[tuple[int, ...], TPoly] = {(): TPoly((1,))}
    for i in range(r):
        powers = [s[i] ** m * Fraction(1, math.factorial(m)) for m in range(caps[i] + 1)]
        s_beta = {key + (m,): val * pw for key, val in s_beta.items()
                  for m, pw in enumerate(powers)}
    by_j = [TPoly() for _ in range(n + 1)]
    for key, val in series.items():
        beta = tuple(x - y for x, y in zip(caps, key))
        j = n - key[r] - sum(beta)
        if j >= 0 and val:
            by_j[j] = by_j[j] + s_beta[beta] * val
    total = TPoly()
    for j in range(n, -1, -1):
        total = total * neg_s_dot_w + by_j[j] * Fraction(math.factorial(n), math.factorial(j))
    return total, degree


def quot_volume(p: QuotProblem, w: WeightVector | None = None) -> TPoly:
    """Normalized volume of the Quot space as a polynomial in the stability
    variable (units of (4 pi^2)^(rd)).

    Its degree is exactly d, with leading coefficient 1/((r-1)!^d d!).
    ``closed_volume`` has that leading term by construction; here the tests
    check it."""
    if w is None:
        w = default_weights(p.r)
    if len(w.w) != p.r:
        raise ValueError("weight vector length must equal the rank")
    total = TPoly()
    for c in compositions(p.d, p.r):
        coeff, degree = _reduced_composition(p, c, w)
        total = total + _u_concentrated(ULaurent.monomial(coeff, degree - c.total))
    return total * Fraction(_sign(p), math.factorial(p.r * p.d))


class WeightIndependenceReport(Record):
    __slots__ = ("passed", "volumes")

    def __init__(self, passed: bool, volumes: tuple[tuple[WeightVector, TPoly], ...]):
        super().__init__(passed, volumes)


def verify_weight_independence(p: QuotProblem, ws: Sequence[WeightVector]) -> WeightIndependenceReport:
    """Exact-equality check of the volume across several weight vectors."""
    if len(ws) < 2:
        raise ValueError("need at least two weight vectors")
    volumes = tuple((w, quot_volume(p, w)) for w in ws)
    first = volumes[0][1]
    passed = all(v == first for _, v in volumes[1:])
    return WeightIndependenceReport(passed=passed, volumes=volumes)


def __getattr__(name: str):  # perfbench/tracer.py patches these here; ROADMAP item 1 deletes it
    if name in ("integrand", "evaluate_composition", "series_pow_int", "series_exp"):
        from . import _oracle
        return getattr(_oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
