"""Closed-form volumes: ``quot_volume(p)`` as one coefficient of a q-series.

For every genus ``g``, splitting degrees ``l`` and colength ``d``,

    Vol(g, r, l, d) = [q^d] A_r(q)^(g-1) * B_r(q)^(|l| + r ttilde),

where the series ``A_r`` and ``B_r`` have rational coefficients and depend
on the rank alone; this is the shape of the Vafa-Intriligator formulas for
Quot schemes on curves.  Let ``T(y) = sum_m T_m y^m``, ``T_m = m^(m-1)/m!``,
be the tree function, ``zeta = exp(2 pi i/r)``, ``v^r = -q/r^r`` and
``T_i = T(zeta^i v)``.  Then ``B_r = exp(-sum_i T_i)`` and
``A_r = prod_i (1 - T_i) e^((r-1) T_i) prod_(i != j) (zeta^i v - zeta^j v)/(T_i - T_j)``.
Both logarithms are sums over the r-th roots of unity, so only every r-th
coefficient survives and the arithmetic stays rational:

* ``log B_r = sum_n (-1)^(n-1) n^(rn-1) q^n / (rn)!``;
* ``log A_r = r sum_n F_(rn) (-1)^n q^n / r^(rn)`` with
  ``F(y) = r (T(y) - [X^0] log P(X; y))`` and
  ``P(X; y) = sum_m T_m (sum_(a<m) X^(a mod r)) y^(m-1)``, a series over the
  group ring ``Q[X]/(X^r - 1)``.

At ``X = zeta^k`` the series ``P`` is ``(T_0 - T_k)/(x_0 - x_k)`` over
``x_i = zeta^i y``, and ``T'(y)`` at k = 0, whose logarithm
``T - log(1 - T)`` cancels the ``log(1 - T)`` term; ``r [X^0] log P`` sums
over all k at once.  For r = 1 the formula is Lagrange inversion of
``symmetric_power_volume``; for r >= 2 the tests hold it to ``quot_volume``.
The ``ttilde^d`` term of the volume comes from ``(r ttilde log B_r)^d/d!``
alone, so the degree is exactly d.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .localization import QuotProblem
from .scalars import TPoly

__all__ = ["closed_volume"]


def _log_b(r: int, d: int) -> list[Fraction]:
    """Coefficients of q^1..q^d in log B_r."""
    return [Fraction((-1) ** (n - 1) * n ** (r * n - 1), math.factorial(r * n))
            for n in range(1, d + 1)]


def _log_a(r: int, d: int) -> list[Fraction]:
    """Coefficients of q^1..q^d in log A_r."""
    top = r * d  # highest power of y that F is read at
    tree = [Fraction(m ** (m - 1), math.factorial(m)) for m in range(1, top + 2)]
    # p[n] is the y^n coefficient of P, an element of the group ring as the
    # list of its r coordinates; p[0] = 1.
    p = []
    for m in range(1, top + 2):
        whole, part = divmod(m, r)
        p.append([tree[m - 1] * (whole + (a < part)) for a in range(r)])
    # log P by n L_n = n P_n - sum_(k<n) k L_k P_(n-k); F reads X^0 of L
    logs = [None]
    for n in range(1, top + 1):
        acc = [n * x for x in p[n]]
        for k in range(1, n):
            lk, pk = logs[k], p[n - k]
            for a, x in enumerate(lk):
                if x:
                    x *= k
                    for b, y in enumerate(pk):
                        acc[(a + b) % r] -= x * y
        logs.append([x / n for x in acc])
    return [r * r * (tree[r * n - 1] - logs[r * n][0]) * (-1) ** n / r ** (r * n)
            for n in range(1, d + 1)]


def closed_volume(p: QuotProblem) -> TPoly:
    """Normalized volume of the Quot space, a polynomial of degree exactly
    ``d`` in the stability variable; equal to ``quot_volume(p)`` (proved for
    r = 1, tested for r >= 2)."""
    # k times the q^k coefficient of (g-1) log A + (|l| + r ttilde) log B
    steps = [TPoly(((p.gbar * a + p.l_total * b) * k, p.r * b * k))
             for k, (a, b) in enumerate(zip(_log_a(p.r, p.d), _log_b(p.r, p.d)), 1)]
    # exp by n R_n = sum_k k E_k R_(n-k)
    series = [TPoly((1,))]
    for n in range(1, p.d + 1):
        acc = TPoly()
        for k in range(1, n + 1):
            acc = acc + steps[k - 1] * series[n - k]
        series.append(acc * Fraction(1, n))
    return series[p.d]
