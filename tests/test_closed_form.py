"""The closed form ``[q^d] A_r^(g-1) B_r^(|l| + r ttilde)`` against the engines.

``closed_volume`` shares no code with ``quot_volume`` beyond ``QuotProblem``
and ``TPoly``, so exact agreement is a differential test of both, up to
r d = 24, where localization stops being cheap.  For r = 1 the identity with
``symmetric_power_volume`` is Lagrange inversion; for r >= 2 it is checked
here, not proved.  Past r d = 24 the closed form is held to pins recorded
from a ``Fraction`` implementation of the same series (r d up to 200) and to
facts that hold at every size: Grothendieck degrees are non-negative
integers, the degree in ``ttilde`` is d with a known leading coefficient, and
r = 1 is the symmetric power (d = 100).
"""

import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quotvol.abelian import CurveQuotProblem, symmetric_power_volume
from quotvol.closed import closed_volume
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
