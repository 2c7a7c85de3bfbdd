"""Closed-formula volumes for Quot spaces with rank-1 kernel.

The Kaehler class of a rank-1 Quot space is (deg_E + ttilde) h + theta, so
both routes are one sum ``v = sum_k c_k (deg_E + ttilde)^(N-k) / (N-k)!``:

* on a curve the Quot space is the symmetric power X^(d), N = d, and
  ``c_k = C(g, k)`` by ``<gamma^(d-k) theta^k> = g!/(g-k)!``;
* in the acyclic case it is a projective bundle over the Picard torus and
  ``c_k = <theta^k s_(q-k)> / k!`` is an exterior-algebra evaluation driven by
  abstract pairing data (``AcyclicData``).

The rest of the acyclic pipeline (``AcyclicData``, ``ch_of_V``,
``segre_from_ch``, ``chern_from_ch``, ``curve_acyclic_data``) lives in
``exterior``, which only acyclic volumes load; a module ``__getattr__``
still serves those names from here.

Volumes are normalized: they are polynomials in the stability variable, in
units of ``(4 pi^2)^dim``.  The constant pi never enters the exact core; the
unnormalized value is only reachable through rational stand-ins for pi (see
``manton_nasir_check`` and the command-line probe options).
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Sequence

from . import _EXPORTS
from .scalars import (WORK_LIMIT, Record, TPoly, _as_fraction, _bits, _fraction_price,
                      _print_price, _product_price, falling_factorial)

if TYPE_CHECKING:  # imported where used: only acyclic volumes load the exterior algebra
    from .exterior import AcyclicData

__all__ = list(_EXPORTS["abelian"])


class CurveQuotProblem(Record):
    """Rank-1 kernel data on a genus-g curve.

    ``d = deg(E_0) - deg(E)`` is the length of the quotient; the Quot space
    is the d-th symmetric power of the curve.
    """

    __slots__ = ("g", "deg_E", "d")

    def __init__(self, g: int, deg_E: int, d: int):
        g, deg_E, d = operator.index(g), operator.index(deg_E), operator.index(d)
        if g < 0:
            raise ValueError("genus must be non-negative")
        if d < 0:
            raise ValueError("d must be non-negative")
        super().__init__(g, deg_E, d)


def poincare_number(g: int, a: int, b: int) -> Fraction:
    """Intersection number of ``gamma^a theta^b`` on the symmetric power
    ``X^(a+b)``: ``g!/(g-b)!`` for ``b <= g`` and zero above the genus."""
    if g < 0 or a < 0 or b < 0:
        raise ValueError("arguments must be non-negative")
    return falling_factorial(g, b)


def _shifted_sum(x: Fraction | int, n: int, c: Sequence[Fraction | int]) -> TPoly:
    """sum_{k <= n} c[k] (x + ttilde)^(n-k) / (n-k)!, one ttilde^m coefficient
    at a time by the binomial theorem: sum_k c[k] x^(n-k-m) / (m! (n-k-m)!)."""
    fact = list(itertools.accumulate(range(1, n + 1), operator.mul, initial=1))  # j!
    a = [Fraction(x) ** j / fact[j] for j in range(n + 1)]  # x^j / j!
    return TPoly(sum(ck * a[n - m - k] for k, ck in enumerate(c[:n - m + 1])) / fact[m]
                 for m in range(n + 1))


def _shifted_sum_work(x: Fraction | int, n: int, terms: int, c_bits: int) -> float:
    """``_shifted_sum`` and its printing: per term read a Fraction product and sum, and for
    x != 0 a product of b = n lg n bits of factorials; n + 1 divisions by m! (reducing b bits
    if x != 0); coefficients of c_bits + b + (n - m) bits(x) bits.  n clamped at the limit."""
    x, n = Fraction(x), min(n, WORK_LIMIT)
    t, lg = min(terms, n + 1), n.bit_length()
    sums, b, xbits = t * (2 * n + 3 - t) // 2, n * lg, n * (_bits(x) - 2) if x else 0
    term = _product_price(b, 2 * t * lg + xbits + c_bits) if x else 0
    divide = _fraction_price(b) if x else _product_price(b, c_bits)
    return ((n + 1) * divide + sums * (2 * _fraction_price(1) + term)
            + (n + 1 if x else t) * _print_price(c_bits + b + xbits // 2))


def symmetric_power_volume(p: CurveQuotProblem) -> TPoly:
    """Normalized volume of the d-th symmetric power.

    v = sum_{j=0}^{min(d,g)} C(g,j)/(d-j)! (deg_E + ttilde)^(d-j), the rank-1
    sum of ``acyclic_volume`` at N = d with c_j = C(g, j).

    The sum starts at j = 0: the j = 0 term carries the leading
    (deg_E + ttilde)^d / d! contribution, and dropping it (an easy off-by-one
    when quoting the classical intersection formula) would already fail the
    d = 0 normalization v = 1.  The metric volume is (4 pi^2)^d times this.
    """
    return _shifted_sum(p.deg_E, p.d, [math.comb(p.g, j) for j in range(min(p.d, p.g) + 1)])


class MantonNasirValues(NamedTuple):
    quot_side: Fraction
    manton_nasir_side: Fraction


def manton_nasir_check(g: int, d: int, vol_X: Fraction, pi_stand_in: Fraction) -> MantonNasirValues:
    """Both sides of the vortex-volume comparison at a rational stand-in for pi.

    ``quot_side`` is ``(4 pi^2)^d v(ttilde)`` with ``deg_E = -d`` and
    ``ttilde = vol_X / (4 pi)`` (the vortex parameter fixed at one half);
    ``manton_nasir_side`` is the vortex-counting sum
    ``sum_i (4 pi)^i C(g,i) (vol_X - 4 pi d)^(d-i) / (d-i)!``.
    The caller asserts their ratio is ``pi^d``; running several distinct
    stand-ins pins that power as a polynomial identity.
    """
    pi, vol = _as_fraction(pi_stand_in), _as_fraction(vol_X)
    if pi == 0:
        raise ValueError("pi stand-in must be nonzero")
    v = symmetric_power_volume(CurveQuotProblem(g=g, deg_E=-d, d=d))
    quot_side = (4 * pi ** 2) ** d * v(vol / (4 * pi))
    mn = Fraction(0)
    for i in range(min(d, g) + 1):
        mn += (
            (4 * pi) ** i
            * Fraction(math.comb(g, i), math.factorial(d - i))
            * (vol - 4 * pi * d) ** (d - i)
        )
    return MantonNasirValues(quot_side, mn)


def acyclic_volume(data: AcyclicData) -> TPoly:
    """Normalized volume of the projective-bundle Quot space, in units of
    (4 pi^2)^N: v = sum_k c_k (deg_E + ttilde)^(N-k) / (N-k)! with
    c_k = <theta^k s_(q-k)> / k!, the bracket top evaluation on the rank-2q
    lattice; only k <= q contribute.

    Even forms commute, so sum_k t^k c_k is the top evaluation of
    exp(t theta) ^ s = exp(t theta + f_1 + f_2 + ...) with
    f_i = (-1)^i ch_i / i, which ``top_exp_poly`` returns as the list of c_k.
    """
    from .exterior import _kernel_input, top_exp_poly
    return _shifted_sum(data.deg_E, data.dimension, top_exp_poly(*_kernel_input(data)))


def __getattr__(name: str):  # perfbench/jobs.py and tracer.py read these names here
    if name in ("AcyclicData", "ch_of_V", "segre_from_ch", "chern_from_ch", "curve_acyclic_data"):
        from . import exterior
        return getattr(exterior, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
