import math
import warnings
from fractions import Fraction

import pytest

from quotvol.abelian import CurveQuotProblem, symmetric_power_volume
from quotvol.grothendieck import embedding_params, grothendieck_degree
from quotvol.localization import QuotProblem


def quiet_degree(p, n):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return grothendieck_degree(p, n)


def test_degree_rank_two_colength_one():
    for g in (0, 1, 2, 3):
        for l1, l2 in ((0, 0), (1, 2), (-1, 3), (2, -1)):
            for n in range(g + 2, g + 6):
                p = QuotProblem(g=g, r=2, l=(l1, l2), d=1)
                assert quiet_degree(p, n) == 2 * n + l1 + l2


def test_degree_rank_two_colength_two():
    for g in (0, 1, 2, 3):
        for l in (-2, 0, 2, 4):
            for n in range(g + 2, g + 6):
                p = QuotProblem(g=g, r=2, l=(l, 0), d=2)
                a = 2 * n + l
                assert quiet_degree(p, n) == a * (3 * a - 8) - 6 * (g - 1)


def test_degree_colength_zero_is_one():
    for g in (0, 2):
        p = QuotProblem(g=g, r=2, l=(1, 1), d=0)
        assert quiet_degree(p, g + 3) == 1


def test_degree_rank_one_matches_symmetric_power():
    for g in (0, 1, 2):
        for d in (0, 1, 2, 3):
            for l in (0, 4):
                p = QuotProblem(g=g, r=1, l=(l,), d=d)
                n = g + d + 2
                v = symmetric_power_volume(CurveQuotProblem(g, l - d, d))
                want = math.factorial(d) * v(Fraction(n - g + 1))
                assert quiet_degree(p, n) == want


def test_degrees_are_nonnegative_integers():
    for g in (0, 1, 2, 3):
        for r in (1, 2):
            for d in (0, 1, 2):
                for l_total in (-2, 0, 3):
                    l = (l_total,) if r == 1 else (l_total, 0)
                    p = QuotProblem(g=g, r=r, l=l, d=d)
                    for n in range(g + d + 2, g + d + 5):
                        deg = quiet_degree(p, n)
                        assert isinstance(deg, int)
                        assert deg >= 0, (g, r, d, l, n, deg)


def test_embedding_params_examples():
    p = QuotProblem(g=1, r=2, l=(0, 0), d=1)
    ep = embedding_params(p, 3)
    assert ep.s == 5
    # dim V = l + r(n - g + 1) = 6; ambient = C(6, 5) - 1
    assert ep.ambient == 5

    # edge twist n = g - 1: s collapses to l - d
    p = QuotProblem(g=1, r=2, l=(3, 1), d=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert embedding_params(p, 0).s == 3

    # r = 1: s = deg(E) + n - g + 1 = chi(E(n x0)) by Riemann-Roch
    for g in (0, 1, 2):
        for l in (0, 3):
            for d in (0, 2):
                for n in (g + 3, g + 5):
                    p = QuotProblem(g=g, r=1, l=(l,), d=d)
                    deg_e = l - d
                    assert embedding_params(p, n).s == (deg_e + n) + 1 - g


def test_embedding_params_warns_on_degenerate_plane():
    p = QuotProblem(g=3, r=1, l=(0,), d=2)
    with pytest.warns(UserWarning, match="undefined"):
        embedding_params(p, 0)


def test_degree_warns_below_heuristic_twist():
    p = QuotProblem(g=2, r=2, l=(0, 0), d=1)
    with pytest.warns(UserWarning, match="embedding heuristic"):
        grothendieck_degree(p, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grothendieck_degree(p, 4)  # n >= g + d: no warning


def test_degree_reuses_a_supplied_volume():
    from quotvol.localization import quot_volume
    from quotvol.scalars import TPoly

    p = QuotProblem(g=1, r=2, l=(1, 0), d=2)
    assert grothendieck_degree(p, 5, quot_volume(p)) == grothendieck_degree(p, 5)
    # the supplied polynomial is the one evaluated: (rd)! * 1 at any twist
    assert grothendieck_degree(p, 5, TPoly((1,))) == math.factorial(4)


def test_degree_integrality_guard_raises():
    """A volume whose degree is not an integer means a broken pipeline: 1! * 1/3."""
    from quotvol.scalars import TPoly

    with pytest.raises(ArithmeticError, match="degree integrality violated: got 1/3"):
        grothendieck_degree(QuotProblem(g=1, r=1, l=(0,), d=1), 2, TPoly([Fraction(1, 3)]))
