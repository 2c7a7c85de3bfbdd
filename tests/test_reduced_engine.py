"""The reduced fixed-point engine behind ``quot_volume`` against independent paths.

The unreduced series pipeline (``evaluate_composition``) and the symmetric
power are the oracles; equality is exact throughout.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quotvol.localization as localization
from quotvol._oracle import evaluate_composition
from quotvol.abelian import CurveQuotProblem, symmetric_power_volume
from quotvol.closed import closed_volume
from quotvol.localization import (
    QuotProblem,
    WeightVector,
    _reduced_composition,
    _sign,
    compositions,
    default_weights,
    quot_volume,
)
from quotvol.scalars import TPoly

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def series_volume(p, w):
    """The volume along the unreduced series path."""
    total = TPoly()
    for c in compositions(p.d, p.r):
        total = total + evaluate_composition(p, c, w)
    return total * Fraction(_sign(p), math.factorial(p.r * p.d))


@st.composite
def problems_with_weights(draw):
    g = draw(st.integers(0, 3))
    r = draw(st.integers(1, 3))
    d = draw(st.integers(0, 6 // r))
    l = tuple(draw(st.lists(st.integers(-3, 3), min_size=r, max_size=r)))
    weights = draw(
        st.lists(
            st.fractions(min_value=-6, max_value=6, max_denominator=7),
            min_size=r,
            max_size=r,
            unique=True,
        )
    )
    return QuotProblem(g=g, r=r, l=l, d=d), WeightVector(tuple(weights))


@PROPERTY
@given(problems_with_weights())
def test_reduced_engine_matches_series_engine(case):
    p, w = case
    assert quot_volume(p, w) == series_volume(p, w)


@PROPERTY
@given(st.integers(0, 4), st.integers(-3, 4), st.integers(0, 6))
def test_rank_one_matches_symmetric_power(g, l, d):
    p = QuotProblem(g=g, r=1, l=(l,), d=d)
    assert quot_volume(p) == symmetric_power_volume(CurveQuotProblem(g, l - d, d))


def test_each_composition_matches_series_engine():
    w = WeightVector((Fraction(-2, 3), Fraction(5, 3), Fraction(11, 3)))
    for g in (0, 1, 2):
        p = QuotProblem(g=g, r=3, l=(2, -1, 0), d=2)
        for c in compositions(p.d, p.r):
            coeff, degree = _reduced_composition(p, c, w)
            assert degree == c.total
            assert coeff == evaluate_composition(p, c, w), (g, c)


@pytest.mark.parametrize("g", [4, 5])
@pytest.mark.parametrize("l, d", [((0, 1, 2, 3), 1), ((2, -1, 0, 1), 2)])
def test_high_genus_with_rational_weights_matches_closed_form(g, l, d):
    """The step power (1 + t_i (c_i + z))^g past the genera of the property
    tests, at rank 4 with non-integral weights."""
    p = QuotProblem(g=g, r=4, l=l, d=d)
    w = WeightVector((Fraction(-7, 3), Fraction(1, 2), Fraction(5), Fraction(9, 4)))
    assert quot_volume(p, w) == closed_volume(p)
    for c in compositions(p.d, p.r):
        assert _reduced_composition(p, c, w)[1] == c.total


def test_homogeneity_guard_trips_on_a_wrong_degree(monkeypatch):
    original = _reduced_composition

    def shifted(p, c, w):
        coeff, degree = original(p, c, w)
        return coeff, degree + 1

    monkeypatch.setattr(localization, "_reduced_composition", shifted)
    with pytest.raises(ArithmeticError, match="nonzero u-degree"):
        quot_volume(QuotProblem(g=1, r=2, l=(0, 1), d=1))


def test_weight_vector_length_is_checked():
    with pytest.raises(ValueError, match="length must equal the rank"):
        quot_volume(QuotProblem(g=1, r=2, l=(0, 1), d=1), default_weights(3))


def _poly(*coeffs):
    return TPoly(tuple(Fraction(c) for c in coeffs))


# Exact volumes at g = 2, l = (0, ..., r - 1), keyed by (r, d).  The r = 2
# entries are the two largest ladder problems; all were recorded from the
# unreduced series engine (which takes seconds on them, so it is not rerun).
LADDER_PINS = {
    (2, 6): _poly("-31425127/95800320", "1729439/2661120", "-1250159/3628800", "-37/90720",
                  "149/2880", "-11/720", "1/720"),
    (2, 7): _poly("118981949/247665600", "-70362857/77837760", "2179919/4276800",
                  "-10939/226800", "-989/18144", "97/4320", "-1/288", "1/5040"),
    (3, 4): _poly("89591/79833600", "911/1425600", "-2701/403200", "1/240", "1/384"),
    (4, 3): _poly("28513/15966720", "63683/13305600", "37/10080", "1/1296"),
    (5, 2): _poly("167/30240", "817/181440", "1/1152"),
}


@pytest.mark.parametrize("r, d", sorted(LADDER_PINS))
def test_ladder_volumes_are_pinned(r, d):
    assert quot_volume(QuotProblem(g=2, r=r, l=tuple(range(r)), d=d)) == LADDER_PINS[r, d]


@st.composite
def redistributed_degrees(draw):
    """(g, d, l) with r <= 4, small r*d and |l| in {-2, 0, 3}, spread at random."""
    r = draw(st.integers(2, 4))
    g = draw(st.integers(0, 2))
    d = draw(st.integers(0, {2: 4, 3: 3, 4: 2}[r]))
    total = draw(st.sampled_from((-2, 0, 3)))
    head = draw(st.lists(st.integers(-4, 4), min_size=r - 1, max_size=r - 1))
    return g, d, (*head, total - sum(head))


@PROPERTY
@given(redistributed_degrees())
def test_volume_depends_on_l_only_through_its_total(case):
    """The volume is unchanged when l is redistributed with |l| fixed (the
    universality in |l| of the roadmap).  This tests the identity on small
    cases; it does not prove it."""
    g, d, l = case
    r = len(l)
    gathered = (sum(l),) + (0,) * (r - 1)
    assert quot_volume(QuotProblem(g, r, l, d)) == quot_volume(QuotProblem(g, r, gathered, d))
