import itertools
import math
import random
from fractions import Fraction

import pytest

from quotvol.scalars import (
    TPoly,
    TruncSeries,
    ULaurent,
    falling_factorial,
    general_binomial,
    series_exp,
    series_pow_int,
)


def all_keys(caps):
    """Every exponent vector allowed by the caps."""
    ranges = []
    for c in caps:
        ranges.append([(a, b) for a in range(c + 1) for b in range(c + 1 - a)])
    for combo in itertools.product(*ranges):
        yield tuple(x for pair in combo for x in pair)


def random_tpoly(rng, max_deg=2):
    return TPoly([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(max_deg + 1)])


def random_ulaurent(rng):
    low = rng.randint(-2, 1)
    return ULaurent(low, [random_tpoly(rng) for _ in range(rng.randint(1, 3))])


def random_series(rng, caps, density=0.5):
    terms = {}
    for key in all_keys(caps):
        if rng.random() < density:
            terms[key] = random_ulaurent(rng)
    return TruncSeries(caps, terms)


def random_unit_series(rng, caps):
    """Random series whose constant term is a unit monomial c * u^k."""
    s = random_series(rng, caps)
    c = Fraction(rng.choice([1, -1, 2, 3]), rng.choice([1, 2]))
    terms = dict(s.terms)
    terms[(0,) * (2 * len(caps))] = ULaurent.monomial(c, rng.randint(-1, 1))
    return TruncSeries(caps, terms)


# ---------------------------------------------------------------------------
# falling factorials and binomials

def test_falling_factorial_examples():
    assert falling_factorial(3, 2) == 6
    for g in range(6):
        assert falling_factorial(g, 0) == 1
    assert falling_factorial(1, 2) == 0


def test_falling_factorial_matches_factorial_quotient():
    for g in range(8):
        for k in range(g + 1):
            assert falling_factorial(g, k) == Fraction(
                math.factorial(g), math.factorial(g - k)
            )


def test_general_binomial():
    assert general_binomial(3, 2) == 3
    assert general_binomial(0, 0) == 1
    for k in range(6):
        assert general_binomial(-1, k) == (-1) ** k
    # (1+z)^(-2) = 1 - 2z + 3z^2 - ...
    assert [general_binomial(-2, k) for k in range(4)] == [1, -2, 3, -4]


# ---------------------------------------------------------------------------
# TPoly

def test_tpoly_basic_arithmetic():
    t = TPoly.variable()
    p = (t + 1) ** 2
    assert p == TPoly((1, 2, 1))
    assert p.degree == 2
    assert TPoly().degree == -1
    assert p(Fraction(1, 2)) == Fraction(9, 4)
    assert (p - p) == TPoly()
    assert p * 0 == TPoly()
    assert p * Fraction(1, 2) == TPoly((Fraction(1, 2), 1, Fraction(1, 2)))


def test_tpoly_scalar_comparison_and_trim():
    assert TPoly((5,)) == 5
    assert TPoly((0, 0, 0)) == TPoly()
    assert not TPoly()
    assert TPoly((0, 1)) != 1


# ---------------------------------------------------------------------------
# ULaurent

def test_u_coefficient_examples():
    s = ULaurent(-1, (TPoly((3,)), TPoly.variable()))  # 3 u^-1 + t u^0
    assert s.coefficient(0) == TPoly.variable()
    assert s.coefficient(-1) == TPoly((3,))
    assert ULaurent.zero().coefficient(5) == TPoly()


def test_ulaurent_arithmetic_and_trimming():
    a = ULaurent.monomial(2, 3)
    b = ULaurent.monomial(Fraction(1, 2), -1)
    assert a * b == ULaurent.monomial(1, 2)
    assert (a - a) == ULaurent.zero()
    assert not (a + (-a))
    s = ULaurent(-1, (0, 1, 0))  # only the u^0 slot is nonzero
    assert s.low == 0 and s.high == 0


def test_ulaurent_unit_detection():
    assert ULaurent.monomial(Fraction(5), -2).as_unit_monomial() == (Fraction(5), -2)
    assert ULaurent.zero().as_unit_monomial() is None
    assert ULaurent.monomial(TPoly.variable(), 0).as_unit_monomial() is None
    assert ULaurent(0, (1, 1)).as_unit_monomial() is None


# ---------------------------------------------------------------------------
# series powers

def test_pow_scalar_monomial():
    caps = (1,)
    base = TruncSeries.scalar(caps, ULaurent.monomial(5, 1))  # 5u
    got = series_pow_int(base, -2)
    assert got == TruncSeries.scalar(caps, ULaurent.monomial(Fraction(1, 25), -2))


def test_pow_geometric_truncation():
    caps = (1,)
    base = TruncSeries.scalar(caps, ULaurent.monomial(1, 1)) + TruncSeries.x(caps, 1)
    got = series_pow_int(base, -1)
    want = TruncSeries(
        caps,
        {
            (0, 0): ULaurent.monomial(1, -1),
            (1, 0): ULaurent.monomial(-1, -2),
        },
    )
    assert got == want


def test_pow_positive_binomial_matches_repeated_multiplication():
    caps = (2,)
    base = TruncSeries.scalar(caps, ULaurent.monomial(1, 1)) + TruncSeries.x(caps, 1)
    got = series_pow_int(base, 3)
    want = TruncSeries(
        caps,
        {
            (0, 0): ULaurent.monomial(1, 3),
            (1, 0): ULaurent.monomial(3, 2),
            (2, 0): ULaurent.monomial(3, 1),
        },
    )
    assert got == want
    assert got == base * base * base


def test_pow_oracle_repeated_multiplication_random():
    rng = random.Random(7)
    for caps in ((2,), (1, 1), (2, 1)):
        for _ in range(5):
            s = random_series(rng, caps)
            acc = TruncSeries.one(caps)
            for e in range(6):
                assert series_pow_int(s, e) == acc
                acc = acc * s


def test_pow_inverse_cancels():
    rng = random.Random(11)
    for caps in ((1,), (1, 1), (2,)):
        for _ in range(4):
            s = random_unit_series(rng, caps)
            for e in range(-4, 5):
                prod = series_pow_int(s, e) * series_pow_int(s, -e)
                assert prod == TruncSeries.one(caps)


def test_pow_negative_requires_unit():
    caps = (1,)
    with pytest.raises(ValueError, match="non-unit base for negative power"):
        series_pow_int(TruncSeries.x(caps, 1), -1)
    # constant term with a non-constant TPoly coefficient is not a unit
    bad = TruncSeries.scalar(caps, ULaurent.monomial(TPoly.variable(), 1))
    with pytest.raises(ValueError, match="non-unit base for negative power"):
        series_pow_int(bad, -2)


# ---------------------------------------------------------------------------
# series exponentials

def test_exp_examples():
    caps = (1,)
    assert series_exp(TruncSeries.zero(caps)) == TruncSeries.one(caps)
    got = series_exp(TruncSeries.y(caps, 1))
    assert got == TruncSeries.one(caps) + TruncSeries.y(caps, 1)

    caps = (2,)
    arg = TruncSeries.y(caps, 1) * ULaurent.monomial(1, -1)
    got = series_exp(arg)
    want = TruncSeries(
        caps,
        {
            (0, 0): ULaurent.monomial(1, 0),
            (0, 1): ULaurent.monomial(1, -1),
            (0, 2): ULaurent.monomial(Fraction(1, 2), -2),
        },
    )
    assert got == want


def test_exp_requires_nilpotent():
    caps = (1,)
    with pytest.raises(ValueError, match="non-nilpotent"):
        series_exp(TruncSeries.one(caps))


def test_exp_is_a_homomorphism():
    rng = random.Random(23)
    for caps in ((1, 1), (2,)):
        for _ in range(4):
            a = random_series(rng, caps)
            b = random_series(rng, caps)
            # strip constant terms to make the arguments nilpotent
            zero_key = (0,) * (2 * len(caps))
            a = a - TruncSeries.scalar(caps, a.constant_term()) if zero_key in a.terms else a
            b = b - TruncSeries.scalar(caps, b.constant_term()) if zero_key in b.terms else b
            assert series_exp(a) * series_exp(b) == series_exp(a + b)


# ---------------------------------------------------------------------------
# ring axioms

def test_truncated_ring_axioms():
    rng = random.Random(42)
    for caps in ((1,), (1, 1), (2, 1)):
        for _ in range(4):
            a = random_series(rng, caps)
            b = random_series(rng, caps)
            c = random_series(rng, caps)
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c


def test_zero_caps_drop_variables():
    caps = (0, 1)
    assert not TruncSeries.x(caps, 1)
    assert not TruncSeries.y(caps, 1)
    assert TruncSeries.x(caps, 2)
