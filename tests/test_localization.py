import math
from fractions import Fraction

import pytest

import quotvol.localization as localization
from quotvol import _oracle
from quotvol._oracle import TruncSeries, evaluate_composition, integrand, series_pow_int
from quotvol.abelian import CurveQuotProblem, symmetric_power_volume
from quotvol.localization import (
    Composition,
    QuotProblem,
    WeightVector,
    _u_concentrated,
    compositions,
    default_weights,
    quot_volume,
    stability_weights,
    verify_weight_independence,
)
from quotvol.scalars import TPoly, ULaurent


def wv(*values):
    return WeightVector(tuple(Fraction(v) for v in values))


def test_compositions_examples():
    assert [c.parts for c in compositions(2, 2)] == [(2, 0), (1, 1), (0, 2)]
    assert [c.parts for c in compositions(0, 3)] == [(0, 0, 0)]
    assert len(compositions(3, 3)) == math.comb(5, 2)
    for c in compositions(4, 3):
        assert c.total == 4


def test_stability_weights():
    p = QuotProblem(g=1, r=2, l=(3, 1), d=1)
    assert stability_weights(p, Composition((1, 0))) == [TPoly((2, 1)), TPoly((1, 1))]
    p = QuotProblem(g=0, r=2, l=(2, 1), d=3)
    assert stability_weights(p, Composition((2, 1))) == [TPoly((0, 1))] * 2
    p = QuotProblem(g=2, r=1, l=(5,), d=3)
    assert stability_weights(p, Composition((3,))) == [TPoly((2, 1))]


def test_integrand_rank_one_collapses():
    # r = 1: empty cross products, F = (s x + y - s w u)^d
    p = QuotProblem(g=2, r=1, l=(4,), d=2)
    c = Composition((2,))
    w = wv(3)
    f = integrand(p, c, w)

    caps = (2,)
    s = TPoly((2, 1))  # ttilde + l - d
    direct = (
        TruncSeries.monomial(caps, s, x=1)
        + TruncSeries.monomial(caps, y=1)
        - TruncSeries.monomial(caps, s * 3, u=1)
    )
    assert f == series_pow_int(direct, 2)


def test_integrand_point_component_is_laurent_scalar():
    # all caps zero: every term is free of x and y
    p = QuotProblem(g=1, r=2, l=(1, 0), d=0)
    f = integrand(p, Composition((0, 0)), wv(0, 1))
    assert f and all(key[:4] == (0, 0, 0, 0) for key in f.terms)


def test_integrand_first_order_fixture():
    # hand expansion for r=2, genus 0, l=(0,0), component (1,0), weights (0,1):
    #   F = A^2 (u+x1)^(-2) e^{y1/(u+x1)} (-u)^(-1) (u+x1)^2
    # with A = (s1 x1 + y1) - t u and s1 = t - 1, which works out to
    #   -t^2 u  +  (2t^2 - 2t) x1  +  (2t - t^2) y1
    p = QuotProblem(g=0, r=2, l=(0, 0), d=1)
    f = integrand(p, Composition((1, 0)), wv(0, 1))
    want = {
        (0, 0, 0, 0, 1): TPoly((0, 0, -1)),
        (1, 0, 0, 0, 0): TPoly((0, -2, 2)),
        (0, 1, 0, 0, 0): TPoly((0, 2, -1)),
    }
    assert f.terms == want


def test_u_concentration_guard():
    assert _u_concentrated(ULaurent.monomial(TPoly((1, 2)), 0)) == TPoly((1, 2))
    assert _u_concentrated(ULaurent.monomial(5, 0)) == TPoly((5,))
    # a zero coefficient lives at no u-degree, wherever it is placed
    assert _u_concentrated(ULaurent.monomial(TPoly(), 3)) == TPoly()
    assert _u_concentrated(ULaurent.monomial(0, -1)) == TPoly()
    with pytest.raises(ArithmeticError, match="nonzero u-degree in top coefficient"):
        _u_concentrated(ULaurent.monomial(1, 1))
    with pytest.raises(ArithmeticError, match="nonzero u-degree in top coefficient"):
        _u_concentrated(ULaurent.monomial(TPoly((0, 1)), -1))


def test_evaluate_composition_refuses_a_top_term_off_u0(monkeypatch):
    p = QuotProblem(g=1, r=2, l=(0, 0), d=1)
    caps = (1, 0)
    top_at_u1 = TruncSeries(caps, {(1, 0, 0, 0, 1): 1, (0, 0, 0, 0, 0): 5})
    monkeypatch.setattr(_oracle, "integrand", lambda p, c, w: top_at_u1)
    with pytest.raises(ArithmeticError, match="nonzero u-degree in top coefficient"):
        evaluate_composition(p, Composition(caps), wv(0, 1))


def test_evaluate_composition_rank_one_matches_abelian():
    for g in range(4):
        for d in range(5):
            for l in (-1, 0, 2):
                p = QuotProblem(g=g, r=1, l=(l,), d=d)
                got = evaluate_composition(p, Composition((d,)), wv(1))
                want = symmetric_power_volume(CurveQuotProblem(g, l - d, d)) * math.factorial(d)
                assert got == want, (g, d, l)


def test_quot_volume_rank_two_degree_one():
    t = TPoly.variable()
    for g in range(5):
        for l1 in range(-2, 3):
            for l2 in range(-1, 3):
                p = QuotProblem(g=g, r=2, l=(l1, l2), d=1)
                assert quot_volume(p) == t + Fraction(l1 + l2, 2) + (g - 1)


def test_quot_volume_rank_two_degree_two():
    for g in range(4):
        for l in (-2, 0, 2):
            gbar = g - 1
            T = TPoly((Fraction(l, 2) + gbar, 1))
            want = (T * (T * 3 - 4) * 4 - 6 * gbar) * Fraction(1, 24)
            p = QuotProblem(g=g, r=2, l=(l, 0), d=2)
            assert quot_volume(p) == want


def test_quot_volume_colength_zero_is_one():
    for g in (0, 1, 3):
        for r in (1, 2, 3):
            for l in ((0,) * r, tuple(range(1, r + 1))):
                assert quot_volume(QuotProblem(g=g, r=r, l=l, d=0)) == TPoly((1,))


def test_quot_volume_weight_independence():
    p = QuotProblem(g=1, r=2, l=(2, 0), d=1)
    report = verify_weight_independence(p, [wv(0, 1), wv(1, 3), wv(-2, 5)])
    assert report.passed
    assert len(report.volumes) == 3
    # r = 1: the weight cancels entirely
    p1 = QuotProblem(g=2, r=1, l=(3,), d=2)
    report = verify_weight_independence(p1, [wv(7), wv(-1, )])
    assert report.passed


def test_weight_independence_detects_injected_fault(monkeypatch):
    p = QuotProblem(g=1, r=2, l=(2, 0), d=1)

    def tampered(problem, w):
        return quot_volume(problem, w) + TPoly((w.w[0],))

    monkeypatch.setattr(localization, "quot_volume", tampered)
    report = verify_weight_independence(p, [wv(0, 1), wv(1, 3)])
    assert not report.passed


def test_weight_vector_validation():
    with pytest.raises(ValueError, match="pairwise distinct"):
        wv(1, 1)
    with pytest.raises(ValueError, match="at least two"):
        verify_weight_independence(QuotProblem(g=0, r=2, l=(0, 0), d=1), [wv(0, 1)])


def test_splitting_type_independence():
    for g in (0, 2):
        for d in (1, 2):
            volumes = {
                quot_volume(QuotProblem(g=g, r=2, l=split, d=d)).coeffs
                for split in ((4, 0), (3, 1), (2, 2), (0, 4), (5, -1))
            }
            assert len(volumes) == 1, (g, d)


def test_degree_bound_and_positivity():
    big = Fraction(10 ** 4)
    for g in (0, 1, 2):
        for r in (1, 2, 3):
            for d in (0, 1, 2):
                p = QuotProblem(g=g, r=r, l=(1,) * r, d=d)
                v = quot_volume(p)
                assert v.degree <= r * d
                assert v(big) > 0


def test_stress_beyond_small_grids():
    # larger ranks and colengths than the closed-form examples reach; the
    # u-concentration guard runs on every monomial, and degree integrality
    # at integer stability values exercises the whole pipeline
    cases = [
        (2, 2, (1, -2), 4),
        (3, 2, (0, 3), 5),
        (1, 3, (2, 0, -1), 4),
        (0, 4, (1, 0, 0, -1), 2),
    ]
    for g, r, l, d in cases:
        v = quot_volume(QuotProblem(g=g, r=r, l=l, d=d))
        assert v.degree <= r * d
        assert v(Fraction(10 ** 5)) > 0
        for n in range(g + d + 2, g + d + 5):
            val = math.factorial(r * d) * v(Fraction(n - g + 1))
            assert val.denominator == 1 and val >= 0, (g, r, l, d, n, val)


def test_default_weights_are_one_to_r():
    assert default_weights(3).w == (Fraction(1), Fraction(2), Fraction(3))


def test_problem_validation():
    with pytest.raises(ValueError, match="one degree per summand"):
        QuotProblem(g=0, r=2, l=(1,), d=1)
    with pytest.raises(ValueError, match="non-negative"):
        QuotProblem(g=-1, r=1, l=(0,), d=0)
    with pytest.raises(ValueError, match="non-negative"):
        QuotProblem(g=0, r=1, l=(0,), d=-1)
    with pytest.raises(ValueError):
        Composition((1, -1))
