"""The closed form ``[q^d] A_r^(g-1) B_r^(|l| + r ttilde)`` against the engines.

``closed_volume`` shares no code with ``quot_volume`` beyond ``QuotProblem``
and ``TPoly``, so exact agreement is a differential test of both, up to
r d = 24, where localization stops being cheap.  For r = 1 the identity with
``symmetric_power_volume`` is Lagrange inversion; for r >= 2 it is checked
here, not proved.  Past r d = 24 the closed form is held to pins recorded
from a ``Fraction`` implementation of the same series (r d up to 200) and to
facts that hold at every size: Grothendieck degrees are non-negative
integers, the degree in ``ttilde`` is d with a known leading coefficient, and
r = 1 is the symmetric power (d = 100).  At r = 2, where zeta = -1 and every
series is rational, and at r = 3, 4 and 5 over Q(zeta_r), the group-ring
logarithm ``_log_a`` is also held to the product that defines A_r.
"""

import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quotvol.abelian import CurveQuotProblem, symmetric_power_volume
from quotvol.closed import _log_a, closed_volume
from quotvol.grothendieck import grothendieck_degree
from quotvol.localization import QuotProblem, quot_volume
from quotvol.scalars import TPoly

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def problems(draw):
    """(g, r, l, d) with r <= 5, g <= 3, entries of l in -3..3 and r d <= 10."""
    r = draw(st.integers(1, 5))
    d = draw(st.integers(0, 10 // r))
    g = draw(st.integers(0, 3))
    l = draw(st.lists(st.integers(-3, 3), min_size=r, max_size=r))
    return QuotProblem(g=g, r=r, l=l, d=d)


@PROPERTY
@given(problems())
def test_closed_form_equals_localization(p):
    assert closed_volume(p) == quot_volume(p)


@pytest.mark.parametrize("g, l, d", [
    (2, (0, 1, 2, 3, 4, 5), 1),
    (3, (1, 0, 0, 0, 0, -2), 2),
    (1, (0, 0, 0, 0, 0, 0, 0, 1), 2),
    (2, (0, 1, 2, 3, 4, 5, 6, 7), 1),
])
def test_closed_form_equals_localization_at_high_rank(g, l, d):
    p = QuotProblem(g=g, r=len(l), l=l, d=d)
    assert closed_volume(p) == quot_volume(p)


@pytest.mark.parametrize("g, l, d", [
    (2, (0, 1), 12),
    (0, (3, -1), 10),
    (2, (0, 1, 2), 8),
    (1, (2, 0, -1), 7),
])
def test_closed_form_equals_localization_at_high_degree(g, l, d):
    # r d from 14 to 24, past the property's r d <= 10
    p = QuotProblem(g=g, r=len(l), l=l, d=d)
    assert closed_volume(p) == quot_volume(p)


@pytest.mark.parametrize("g", [0, 1, 2, 5])
@pytest.mark.parametrize("l", [-3, 0, 4])
def test_rank_one_is_the_symmetric_power(g, l):
    for d in range(16):
        expected = symmetric_power_volume(CurveQuotProblem(g=g, deg_E=l - d, d=d))
        assert closed_volume(QuotProblem(g=g, r=1, l=(l,), d=d)) == expected, d


@pytest.mark.parametrize("g, l, d", [
    (0, (2,), 9), (2, (0, 1), 7), (3, (1, -1, 0), 4), (1, (0, 0, 0, 1), 3),
    (2, (0, 1, 2, 3, 4, 5, 6, 7), 2),
])
def test_volume_has_degree_d_with_known_leading_coefficient(g, l, d):
    r = len(l)
    p = QuotProblem(g=g, r=r, l=l, d=d)
    for volume in (closed_volume(p), quot_volume(p)):
        assert volume.degree == d
        assert volume.coefficient(d) == Fraction(1, math.factorial(r - 1) ** d
                                                 * math.factorial(d))


def _digest(volume):
    """SHA-256 of the coefficients, lowest degree first, as ``num/den`` words."""
    text = " ".join(f"{c.numerator}/{c.denominator}" for c in volume.coeffs)
    return hashlib.sha256(text.encode()).hexdigest()


# _digest of closed_volume(QuotProblem(g, r, l, d)) by (g, l, d), recorded from a
# Fraction implementation of the same series, past the r d <= 24 that
# localization reaches
PINS = {
    (2, (0, 1), 30): "2ea50aad85a48567a0279d5bd6ce1bf3db2a12086bda5da965fa45f72fd351b4",
    (3, (1, -1, 2), 12): "b1409892ecebf20363e533570067554088c0495ed37eea79d0b510b648bff8eb",
    (2, (0, 1, 2, 3, 4), 8): "5147145a58e85b6efc5544f4d5d11630e7cf43522751d9001291b76d477f52cd",
    (0, (0, 0, 0, 0, 0, 0, 0, 1), 4):
        "9dea2b056f2565194595d2a2cd7295fd238afe37413c9d6d13a2f38197852440",
    (1, (3,), 60): "92284dab3023cfc9311667dc271e9f6166d99f3a785f0afeeaccac9e2b5ebb9f",
}
# the same at the shapes the degree test below runs
LARGE_PINS = {
    (2, (0, 1), 100): "6ce970b2873848e367c28fe6e89638426333884fc949c4c2ae74070b21ed59c2",
    (2, (0, 1, 2, 3, 4), 20): "164d5819dd0dd29b438a5bd5b2feb231d66ca6aa8bcbce91ea43264f29e5f4eb",
}


@pytest.mark.parametrize("g, l, d", PINS)
def test_large_volumes_are_pinned(g, l, d):
    assert _digest(closed_volume(QuotProblem(g=g, r=len(l), l=l, d=d))) == PINS[g, l, d]


@pytest.mark.parametrize("g, l, d", LARGE_PINS)
def test_large_volume_has_degree_d_with_known_leading_coefficient(g, l, d):
    r = len(l)
    volume = closed_volume(QuotProblem(g=g, r=r, l=l, d=d))
    assert volume.degree == d
    assert volume.coefficient(d) == Fraction(1, math.factorial(r - 1) ** d * math.factorial(d))
    assert _digest(volume) == LARGE_PINS[g, l, d]


@pytest.mark.parametrize("g, r, d", [(0, 2, 30), (2, 2, 30), (3, 3, 15), (2, 5, 8), (1, 4, 10)])
@pytest.mark.parametrize("shift", ["ascending", "negative-total"])
def test_grothendieck_degrees_are_non_negative_integers_at_large_d(g, r, d, shift):
    # d + 2 twists n = g + d .. g + 2d + 1, more than the d + 1 that pin the
    # polynomial; grothendieck_degree raises on a non-integer value
    l = tuple(range(r)) if shift == "ascending" else (-2,) + (0,) * (r - 2) + (1,)
    p = QuotProblem(g=g, r=r, l=l, d=d)
    volume = closed_volume(p)
    for n in range(g + d, g + 2 * d + 2):
        assert grothendieck_degree(p, n, volume=volume) >= 0, n


@pytest.mark.parametrize("g, l", [(0, 4), (2, -3)])
def test_rank_one_is_the_symmetric_power_at_large_d(g, l):
    d = 100
    expected = symmetric_power_volume(CurveQuotProblem(g=g, deg_E=l - d, d=d))
    assert closed_volume(QuotProblem(g=g, r=1, l=(l,), d=d)) == expected


def _series_log(f, n):
    """``log f`` to order v^n for a series with ``f[0] == 1``:
    ``k L_k = k f_k - sum_(j<k) j L_j f_(k-j)``."""
    log = [Fraction(0)] * (n + 1)
    for k in range(1, n + 1):
        log[k] = (k * f[k] - sum(j * log[j] * f[k - j] for j in range(1, k))) / k
    return log


def test_log_a_at_rank_two_is_the_log_of_the_product():
    """log A_2 = log(1 - T_0) + log(1 - T_1) + T_0 + T_1 - 2 log((T_0 - T_1)/(2v)),
    T_0 = T(v), T_1 = T(-v), T_m = m^(m-1)/m!, taken as a series in v and
    read at v^2 = -q/4: its q^k coefficient is 4 (-1)^k a_k / ((2k)! 4^k) with
    a_k = ``_log_a(2, K)[k-1]``."""
    K = 12
    n = 2 * K
    t0 = [Fraction(0)] + [Fraction(m ** (m - 1), math.factorial(m)) for m in range(1, n + 2)]
    t1 = [(-1) ** m * c for m, c in enumerate(t0)]
    quotient = [(t0[m + 1] - t1[m + 1]) / 2 for m in range(n + 1)]  # (T_0 - T_1)/(2v)
    logs = [_series_log([1 - c if m == 0 else -c for m, c in enumerate(t[:n + 1])], n)
            for t in (t0, t1)]
    log_a2 = [logs[0][m] + logs[1][m] + t0[m] + t1[m] - 2 * x
              for m, x in enumerate(_series_log(quotient, n))]
    assert all(log_a2[m] == 0 for m in range(1, n + 1, 2))
    for k, a in enumerate(_log_a(2, K), 1):
        assert log_a2[2 * k] * Fraction(-1, 4) ** k == Fraction(4 * (-1) ** k * a,
                                                                math.factorial(2 * k) * 4 ** k), k


class _Cyclotomic:
    """``sum_k c[k] X^k`` in Q(zeta_r) = Q[X]/(Phi_r(X)), X = zeta_r, for r = 3, 4
    and 5: the arithmetic ``_series_log`` and ``_log_of_the_product`` use."""

    # Phi_r = X^n + sum_(k<n) PHI[r][k] X^k: 1 + X + X^2, 1 + X^2, 1 + X + ... + X^4
    PHI = {3: (1, 1), 4: (1, 0), 5: (1, 1, 1, 1)}

    __slots__ = ("r", "c")

    def __init__(self, r, c=()):
        c = [Fraction(x) for x in c]
        self.r, self.c = r, tuple(c + [Fraction(0)] * (len(self.PHI[r]) - len(c)))

    def _of(self, o):
        return o if isinstance(o, _Cyclotomic) else _Cyclotomic(self.r, (o,))

    def __add__(self, o):
        return _Cyclotomic(self.r, (x + y for x, y in zip(self.c, self._of(o).c)))

    __radd__ = __add__

    def __neg__(self):
        return _Cyclotomic(self.r, (-x for x in self.c))

    def __sub__(self, o):
        return self + -self._of(o)

    def __rsub__(self, o):
        return self._of(o) - self

    def __mul__(self, o):
        if not isinstance(o, _Cyclotomic):  # a rational
            return _Cyclotomic(self.r, (x * o for x in self.c))
        phi, n = self.PHI[self.r], len(self.c)
        prod = [Fraction(0)] * (2 * n - 1)
        for i, x in enumerate(self.c):
            if x:
                for j, y in enumerate(o.c):
                    prod[i + j] += x * y
        for m in range(2 * n - 2, n - 1, -1):  # X^m = -sum_k PHI[r][k] X^(m-n+k)
            for k, p in enumerate(phi):
                prod[m - n + k] -= p * prod[m]
        return _Cyclotomic(self.r, prod[:n])

    __rmul__ = __mul__

    def __truediv__(self, k):
        return _Cyclotomic(self.r, (x / k for x in self.c))


def _log_of_the_product(roots, n):
    """log A_r to order v^n over the field of ``roots``, the powers zeta^0 .. zeta^(r-1)
    of a primitive r-th root of 1, with T_i = T(zeta^i v):
    log A_r = sum_i [log(1 - T_i) + (r-1) T_i]
              - sum_(i != j) log((T_i - T_j)/((zeta^i - zeta^j) v)).
    The quotient's v^m coefficient is t_(m+1) sum_(a <= m) zeta^(ia + j(m-a)), so
    nothing is divided by zeta^i - zeta^j."""
    r, zero = len(roots), roots[0] * 0
    t = [Fraction(0)] + [Fraction(m ** (m - 1), math.factorial(m)) for m in range(1, n + 2)]
    log_a = [zero] * (n + 1)
    for i in range(r):
        T_i = [roots[i * m % r] * c for m, c in enumerate(t)]
        log = _series_log([1 - c if m == 0 else -c for m, c in enumerate(T_i[:n + 1])], n)
        for m in range(1, n + 1):
            log_a[m] = log_a[m] + log[m] + (r - 1) * T_i[m]
        for j in set(range(r)) - {i}:
            quotient = [t[m + 1] * sum((roots[(i * a + j * (m - a)) % r] for a in range(m + 1)),
                                       zero) for m in range(n + 1)]
            for m, x in enumerate(_series_log(quotient, n)):
                log_a[m] = log_a[m] - x
    return log_a


def _assert_log_a_is_the_log_of_the_product(r, K):
    """Over Q(zeta_r), with T_k = T(zeta^k v) for k = 0..r-1: every coordinate of
    log A_r past the rational one vanishes, so does every v^m with r not dividing
    m, and [v^(rk)] log A_r = r^2 a_k/(rk)! with a_k = ``_log_a(r, K)[k-1]``."""
    roots = [_Cyclotomic(r, (1,))]
    while len(roots) < r:
        roots.append(roots[-1] * _Cyclotomic(r, (0, 1)))
    log_ar = _log_of_the_product(roots, r * K)
    assert all(not any(c.c[1:]) for c in log_ar)
    assert all(log_ar[m].c[0] == 0 for m in range(r * K + 1) if m % r)
    for k, a in enumerate(_log_a(r, K), 1):
        assert log_ar[r * k].c[0] == Fraction(r * r * a, math.factorial(r * k)), k


def test_log_a_at_rank_three_is_the_log_of_the_product():
    """Over Q(w), w a primitive cube root of 1, to q^8."""
    _assert_log_a_is_the_log_of_the_product(3, 8)


def test_log_a_at_rank_four_is_the_log_of_the_product():
    """Over Q(i), to q^6."""
    _assert_log_a_is_the_log_of_the_product(4, 6)


def test_log_a_at_rank_five_is_the_log_of_the_product():
    """Over Q(zeta_5), of degree 4, to q^4."""
    _assert_log_a_is_the_log_of_the_product(5, 4)


# ---------------------------------------------------------------------------
# the q-exponential by a second route: Lagrange-Buermann

def _series_exp(f, n):
    """``exp f`` to order n for a series with ``f[0] == 0``:
    ``k E_k = sum_(j<=k) j f_j E_(k-j)``."""
    e = [Fraction(1)] + [Fraction(0)] * n
    for k in range(1, n + 1):
        e[k] = sum(j * f[j] * e[k - j] for j in range(1, k + 1)) / k
    return e


def _series_mul(a, b, n):
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n + 1)]


def _lagrange_buermann_volume(g, r, l_total, d):
    """``sum_(k<=d) h_k s^(d-k)/(d-k)!``, s = |l| + r ttilde, with
    ``h_k = [w^k] A_r(Q(w))^(g-1) Q'(w) (w/Q(w))^(d+1)`` and Q the compositional
    inverse of L = log B_r: the residue ``[q^d] A_r^(g-1) e^(s L)`` after the
    change of variables q = Q(w) (Stanley, Enumerative Combinatorics 2, 5.4).
    Q comes from Lagrange inversion, ``[w^m] Q = [q^(m-1)] (q/L)^m / m``, and
    A_r(Q(w)) from log A_r, read off ``_log_a``, by naive composition; no step
    of the rho recurrence of ``closed_volume`` is used."""
    n = d + 1  # Q to w^(d+1), so that Q' and Q/w reach w^d
    log_b = [Fraction(0)] + [Fraction((-1) ** (k - 1) * k ** (r * k - 1), math.factorial(r * k))
                             for k in range(1, n + 1)]
    log_u = _series_log([c / log_b[1] for c in log_b[1:]], n - 1)  # L = L_1 q U(q)
    Q = [Fraction(0)] + [_series_exp([-m * c for c in log_u], m - 1)[m - 1] / (m * log_b[1] ** m)
                         for m in range(1, n + 1)]
    log_a = [Fraction(0)] + [Fraction(r * r * (-1) ** k * a, math.factorial(r * k) * r ** (r * k))
                             for k, a in enumerate(_log_a(r, d), 1)]
    composed, power = [Fraction(0)] * (d + 1), [Fraction(1)] + [Fraction(0)] * d
    for j in range(1, d + 1):
        power = _series_mul(power, Q, d)
        composed = [x + log_a[j] * y for x, y in zip(composed, power)]
    h = _series_mul(_series_exp([(g - 1) * c for c in composed], d),
                    [k * Q[k] for k in range(1, n + 1)], d)  # times Q'
    log_v = _series_log([c / Q[1] for c in Q[1:]], d)  # Q/w = Q_1 V(w)
    h = _series_mul(h, [c / Q[1] ** n for c in _series_exp([-n * c for c in log_v], d)], d)
    coeffs = [Fraction(0)] * (d + 1)
    for k, hk in enumerate(h):  # s^m/m! = sum_j C(m, j) |l|^(m-j) r^j ttilde^j / m!
        m = d - k
        for j in range(m + 1):
            coeffs[j] += hk * math.comb(m, j) * l_total ** (m - j) * r ** j / math.factorial(m)
    return TPoly(coeffs)


def _splittings(r):
    return [tuple(range(r)), tuple(3 - 2 * i for i in range(r)), (5,) + (-1,) * (r - 1)]


def test_closed_form_is_the_lagrange_buermann_sum():
    """g <= 3, r <= 4, d <= 5, three splittings each, and two larger shapes."""
    shapes = [(g, r, d) for g in range(4) for r in range(1, 5) for d in range(6)]
    for g, r, d in shapes + [(2, 2, 20), (2, 5, 12)]:
        for l in _splittings(r):
            expected = _lagrange_buermann_volume(g, r, sum(l), d)
            assert closed_volume(QuotProblem(g=g, r=r, l=l, d=d)) == expected, (g, r, l, d)
