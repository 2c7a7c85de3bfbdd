"""Universality of the colength generating series of ``quot_volume``.

Let ``Z_{g,l}(q) = sum_d quot_volume(g, r, l, d) q^d``, truncated at ``q^D``,
with ``TPoly`` coefficients.  If ``Z`` is multiplicative in the genus and in
the splitting degrees, ``Z_{g,l} = A^g B^{|l|} C`` for series ``A``, ``B``,
``C`` that depend only on ``r``; then neighbouring genera and neighbouring
``l`` are geometric progressions:

    Z_{g-1} Z_{g+1} = Z_g^2,    Z_{l-e_1} Z_{l+e_1} = Z_l^2,

where ``e_1`` adds 1 to ``l[0]``.  The analogous structure for Quot schemes on
curves is Oprea and Pandharipande, Geom. Topol. 25 (2021).  These are checked
here exactly, not proved.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from quotvol.localization import QuotProblem, quot_volume
from quotvol.scalars import TPoly

PROPERTY = settings(max_examples=16, deadline=None, derandomize=True, database=None)


def z_series(g, r, l, top):
    """``Z_{g,l}`` up to ``q^top`` as a list of coefficients."""
    return [quot_volume(QuotProblem(g=g, r=r, l=l, d=d)) for d in range(top + 1)]


def truncated_product(a, b):
    return [sum((a[i] * b[k - i] for i in range(k + 1)), TPoly()) for k in range(len(a))]


@st.composite
def series_cases(draw):
    """(g, r, l, D) with g in {1, 2}, r <= 3 and r * D <= 6."""
    r = draw(st.integers(1, 3))
    top = draw(st.integers(1, 6 // r))
    g = draw(st.integers(1, 2))
    l = tuple(draw(st.lists(st.integers(-2, 2), min_size=r, max_size=r)))
    return g, r, l, top


@PROPERTY
@given(series_cases())
def test_genus_neighbours_form_a_geometric_progression(case):
    g, r, l, top = case
    below, here, above = (z_series(h, r, l, top) for h in (g - 1, g, g + 1))
    assert truncated_product(below, above) == truncated_product(here, here)


@PROPERTY
@given(series_cases())
def test_degree_neighbours_form_a_geometric_progression(case):
    g, r, l, top = case
    below, here, above = (z_series(g, r, (l[0] + e,) + l[1:], top) for e in (-1, 0, 1))
    assert truncated_product(below, above) == truncated_product(here, here)
