"""Closed-form volumes: ``quot_volume(p)`` as one coefficient of a q-series.

For every genus ``g``, splitting degrees ``l`` and colength ``d``,

    Vol(g, r, l, d) = [q^d] A_r(q)^(g-1) * B_r(q)^(|l| + r ttilde),

the shape of the Vafa-Intriligator formulas for Quot schemes on curves.
Let ``T(y) = sum_m T_m y^m``, ``T_m = m^(m-1)/m!``, be the tree function,
``zeta = exp(2 pi i/r)``, ``v^r = -q/r^r`` and ``T_i = T(zeta^i v)``.  Then
``B_r = exp(-sum_i T_i)`` and
``A_r = prod_i (1 - T_i) e^((r-1) T_i) prod_(i != j) (zeta^i v - zeta^j v)/(T_i - T_j)``.
Summing over the r-th roots of unity keeps every r-th coefficient:
``log B_r = sum_n (-1)^(n-1) n^(rn-1) q^n / (rn)!`` and
``log A_r = r^2 sum_n (T_(rn) - L_(rn)[X^0]) (-1)^n q^n / r^(rn)``, where
``L = log P`` over the group ring ``Q[X]/(X^r - 1)``, ``P = sum_n P_n y^n``,
``P_n = T_(n+1) v_n`` and ``v_n = sum_(a<=n) X^(a mod r)``.  At
``X = zeta^k``, P is ``(T_0 - T_k)/(x_0 - x_k)`` over ``x_i = zeta^i y``, and
``T'(y)`` at k = 0, whose logarithm ``T - log(1 - T)`` cancels the
``log(1 - T)`` term; ``r L[X^0]`` sums over all k at once.  For r = 1 this
is Lagrange inversion of ``symmetric_power_volume``; for r >= 2 the tests
hold it to ``quot_volume``; for r = 2 to 5 they also match ``log A_r`` with
the log of the product above, over Q, Q(zeta_3), Q(i) and Q(zeta_5).  The
``ttilde^d`` term comes from ``(r ttilde log B_r)^d/d!`` alone, so the
degree is exactly d.  The q-exponential below is checked by a second route,
the Lagrange-Buermann form: with Q the compositional inverse of log B_r,
``Vol = sum_(k<=d) h_k s^(d-k)/(d-k)!``, s = |l| + r ttilde and
``h_k = [w^k] A_r(Q(w))^(g-1) Q'(w) (w/Q(w))^(d+1)``
(``tests/test_closed_form.py``).

All of it runs on integers in exponential coordinates (the power-series log
and exp recurrences of Brent and Kung, 1978); one exact division per
coefficient comes last.  As ``n! T_(n+1) = (n+1)^(n-1)``, the vector
``c_n = n! P_n = (n+1)^(n-1) v_n`` is integral, and so is ``ell_n = n! L_n``:

    ell_n = c_n - sum_(k<n) C(n-1, k-1) ell_k * c_(n-k)   (* cyclic convolution)

is ``n L_n = n P_n - sum_(k<n) k L_k P_(n-k)`` times ``(n-1)!``.  By
``(rk)! T_(rk) = (rk)^(rk-1)`` and ``k^(rk-1) r^(rk) = (rk)^(rk)/k``, k times
the q^k coefficient of ``(g-1) log A_r + (|l| + r ttilde) log B_r`` is
``e_k/((rk)! r^(rk))`` with ``e_k = gbar k r^2 (-1)^k ((rk)^(rk-1) -
ell_(rk)[0]) + (|l| + r ttilde) (-1)^(k-1) (rk)^(rk)`` an integer polynomial.
So ``n R_n = sum_k k E_k R_(n-k)`` for the exponential R gives the integers
``rho_n = n! (rn)! r^(rn) R_n = sum_k perm(n-1, k-1) C(rn, rk) e_k rho_(n-k)``
and the volume ``rho_d / (d! (rd)! r^(rd))``.
"""

import math
from fractions import Fraction

from . import _EXPORTS
from .scalars import WORK_LIMIT, QuotProblem, TPoly, _product_price, _row_price

__all__ = list(_EXPORTS["closed"])


def _log_a(r: int, d: int) -> list[int]:
    """``(rn)^(rn-1) - ell_(rn)[0]`` for n = 1..d."""
    # c[n] lists the r coordinates of c_n
    c = [None] + [[(n + 1) ** (n - 1) * ((n + 1) // r + (a < (n + 1) % r))
                   for a in range(r)] for n in range(1, r * d + 1)]
    logs = [None]
    for n in range(1, r * d + 1):
        acc = c[n][:]
        for k in range(1, n):
            lk, ck, coef = logs[k], c[n - k], math.comb(n - 1, k - 1)
            for a, x in enumerate(lk):
                if x:
                    x *= coef
                    for b, y in enumerate(ck):
                        acc[(a + b) % r] -= x * y
        logs.append(acc)
    return [(r * n) ** (r * n - 1) - logs[r * n][0] for n in range(1, d + 1)]


def _closed_form_work(r: int, gs: tuple, ds: tuple, parts: tuple) -> float:
    """Every row of the grid gs x ds x parts, d by d until past the limit (d_values may be long):
    its fixed work, r^2 (rd)^2/2 products ell_k c_(n-k) of k and n - k times lg(rd) bits, d^3/3
    in rho of (n - k) s and k s bits at means over k < n, s = r lg(rd) + bits of max g, max |l|."""
    bits = max(gs, default=0).bit_length() + max(
        (abs(sum(part)) for part in parts), default=0).bit_length()
    r, work = min(r, WORK_LIMIT), 0
    for d in ds:
        d = min(d, WORK_LIMIT)
        n, lg = r * d, (r * d).bit_length()
        s = r * lg + bits
        row = (r * r * n * n // 2 * _product_price(n * lg // 2, n * lg // 6)
               + d ** 3 // 3 * _product_price(d * s // 2, d * s // 5))
        work += len(gs) * len(parts) * (_row_price(d + 1) + row)
        if work > WORK_LIMIT:
            break
    return work


def closed_volume(p: QuotProblem) -> TPoly:
    """Normalized volume of the Quot space, a polynomial of degree exactly
    ``d`` in the stability variable; equal to ``quot_volume(p)`` (proved for
    r = 1, tested for r >= 2)."""
    r, d = p.r, p.d
    steps = [None]  # steps[k] = (e_k at ttilde = 0, the ttilde coefficient of e_k)
    for k, a in enumerate(_log_a(r, d), 1):
        b = (-1) ** (k - 1) * (r * k) ** (r * k)
        steps.append((p.gbar * k * r * r * (-1) ** k * a + p.l_total * b, r * b))
    rho = [[1]]  # rho[n] lists the coefficients of rho_n, lowest degree first
    for n in range(1, d + 1):
        acc = [0] * (n + 1)
        for k in range(1, n + 1):
            w = math.perm(n - 1, k - 1) * math.comb(r * n, r * k)
            s0, s1 = w * steps[k][0], w * steps[k][1]
            for j, x in enumerate(rho[n - k]):
                acc[j] += s0 * x
                acc[j + 1] += s1 * x
        rho.append(acc)
    return TPoly(rho[d]) * Fraction(1, math.factorial(d) * math.factorial(r * d) * r ** (r * d))
