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
series is rational, and at r = 3 over Q(w), the group-ring logarithm
``_log_a`` is also held to the product that defines A_r.
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


class _Quadratic:
    """``x + y w`` in Q(w), ``w^2 = SQUARE[0] + SQUARE[1] w``: the arithmetic
    ``_series_log`` uses.  A subclass names the field by its ``SQUARE``."""

    __slots__ = ("x", "y")

    def __init__(self, x=0, y=0):
        self.x, self.y = Fraction(x), Fraction(y)

    def _of(self, o):
        return o if isinstance(o, _Quadratic) else type(self)(o)

    def __add__(self, o):
        o = self._of(o)
        return type(self)(self.x + o.x, self.y + o.y)

    __radd__ = __add__

    def __neg__(self):
        return type(self)(-self.x, -self.y)

    def __sub__(self, o):
        return self + -self._of(o)

    def __rsub__(self, o):
        return self._of(o) - self

    def __mul__(self, o):
        o = self._of(o)
        (p, q), yy = self.SQUARE, self.y * o.y
        return type(self)(self.x * o.x + p * yy, self.x * o.y + self.y * o.x + q * yy)

    __rmul__ = __mul__

    def __truediv__(self, k):
        return type(self)(self.x / k, self.y / k)


class _Eisenstein(_Quadratic):
    SQUARE = (-1, -1)  # w a primitive cube root of 1


class _Gaussian(_Quadratic):
    SQUARE = (-1, 0)  # w = i


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


def test_log_a_at_rank_three_is_the_log_of_the_product():
    """Over Q(w), w a primitive cube root of 1: every w part and every v^m with
    3 not dividing m vanish, and [v^(3k)] log A_3 = 9 a_k/(3k)! with
    a_k = ``_log_a(3, K)[k-1]``."""
    K = 8
    log_a3 = _log_of_the_product([_Eisenstein(1), _Eisenstein(0, 1), _Eisenstein(-1, -1)], 3 * K)
    assert all(c.y == 0 for c in log_a3)
    assert all(log_a3[m].x == 0 for m in range(3 * K + 1) if m % 3)
    for k, a in enumerate(_log_a(3, K), 1):
        assert log_a3[3 * k].x == Fraction(9 * a, math.factorial(3 * k)), k


def test_log_a_at_rank_four_is_the_log_of_the_product():
    """Over Q(i), with T_k = T(i^k v) for k = 0..3: every i part and every v^m
    with 4 not dividing m vanish, and [v^(4k)] log A_4 = 16 a_k/(4k)! with
    a_k = ``_log_a(4, K)[k-1]``."""
    K = 6
    roots = [_Gaussian(1), _Gaussian(0, 1), _Gaussian(-1), _Gaussian(0, -1)]
    log_a4 = _log_of_the_product(roots, 4 * K)
    assert all(c.y == 0 for c in log_a4)
    assert all(log_a4[m].x == 0 for m in range(4 * K + 1) if m % 4)
    for k, a in enumerate(_log_a(4, K), 1):
        assert log_a4[4 * k].x == Fraction(16 * a, math.factorial(4 * k)), k
