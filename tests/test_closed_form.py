"""The closed form ``[q^d] A_r^(g-1) B_r^(|l| + r ttilde)`` against the engines.

``closed_volume`` shares no code with ``quot_volume`` beyond ``QuotProblem``
and ``TPoly``, so exact agreement is a differential test of both.  For r = 1
the identity with ``symmetric_power_volume`` is Lagrange inversion; for
r >= 2 it is checked here, not proved.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quotvol.abelian import CurveQuotProblem, symmetric_power_volume
from quotvol.closed import closed_volume
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
