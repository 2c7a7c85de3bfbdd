import itertools
import math
import random
from fractions import Fraction

import pytest

from quotvol._oracle import TruncSeries, series_exp, series_pow_int
from quotvol.scalars import TPoly, falling_factorial, general_binomial


def all_keys(caps):
    """Every x/y exponent vector allowed by the caps."""
    ranges = []
    for c in caps:
        ranges.append([(a, b) for a in range(c + 1) for b in range(c + 1 - a)])
    for combo in itertools.product(*ranges):
        yield tuple(x for pair in combo for x in pair)


def random_tpoly(rng, max_deg=2):
    return TPoly([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(max_deg + 1)])


def random_series(rng, caps, density=0.5):
    """Each x/y monomial, with the given chance, times a run of 1 to 3
    consecutive powers of u starting between u^-2 and u^1."""
    terms = {}
    for key in all_keys(caps):
        if rng.random() < density:
            low = rng.randint(-2, 1)
            for k in range(low, low + rng.randint(1, 3)):
                terms[key + (k,)] = random_tpoly(rng)
    return TruncSeries(caps, terms)


def without_xy_free_terms(s):
    """``s`` with every term free of x and y removed: a nilpotent series."""
    return TruncSeries(s.caps, {k: v for k, v in s.terms.items() if any(k[:-1])})


def random_unit_series(rng, caps):
    """Random series whose x/y-free part is a unit monomial c * u^k."""
    s = without_xy_free_terms(random_series(rng, caps))
    c = Fraction(rng.choice([1, -1, 2, 3]), rng.choice([1, 2]))
    return s + TruncSeries.monomial(caps, c, u=rng.randint(-1, 1))


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
# series keys

def test_series_keys_carry_a_signed_u_exponent():
    caps = (1, 2)
    s = TruncSeries(caps, {(0, 1, 2, 0, -3): 2, (1, 0, 0, 0, 4): TPoly.variable()})
    assert s.terms == {(0, 1, 2, 0, -3): TPoly((2,)), (1, 0, 0, 0, 4): TPoly.variable()}
    # beyond the caps: dropped, however the u exponent reads
    assert not TruncSeries(caps, {(1, 1, 0, 0, 0): 1, (0, 0, 0, 3, -1): 1})


@pytest.mark.parametrize("key", [(0, 0), (0, 0, 0, 0), (1, 0, 0, 0, 0, 0), (-1, 0, 0)])
def test_series_rejects_bad_exponent_vectors(key):
    with pytest.raises(ValueError, match="bad exponent vector"):
        TruncSeries((1,), {key: 1})


def test_series_monomial():
    caps = (1, 1)
    assert TruncSeries.monomial(caps).terms == {(0, 0, 0, 0, 0): TPoly((1,))}
    assert TruncSeries.monomial(caps, 3, u=-2, y=2).terms == {(0, 0, 0, 1, -2): TPoly((3,))}
    assert TruncSeries.monomial(caps, x=1, y=2).terms == {(1, 0, 0, 1, 0): TPoly((1,))}
    assert not TruncSeries.monomial(caps, 0)
    assert not TruncSeries.monomial(caps, x=1, y=1)  # x_1 y_1 exceeds the cap 1


# ---------------------------------------------------------------------------
# series powers

def test_pow_scalar_monomial():
    caps = (1,)
    base = TruncSeries.monomial(caps, 5, u=1)  # 5u
    got = series_pow_int(base, -2)
    assert got == TruncSeries.monomial(caps, Fraction(1, 25), u=-2)


def test_pow_geometric_truncation():
    caps = (1,)
    base = TruncSeries.monomial(caps, u=1) + TruncSeries.monomial(caps, x=1)
    got = series_pow_int(base, -1)
    want = TruncSeries(caps, {(0, 0, -1): 1, (1, 0, -2): -1})
    assert got == want


def test_pow_positive_binomial_matches_repeated_multiplication():
    caps = (2,)
    base = TruncSeries.monomial(caps, u=1) + TruncSeries.monomial(caps, x=1)
    got = series_pow_int(base, 3)
    want = TruncSeries(caps, {(0, 0, 3): 1, (1, 0, 2): 3, (2, 0, 1): 3})
    assert got == want
    assert got == base * base * base


def test_pow_oracle_repeated_multiplication_random():
    rng = random.Random(7)
    for caps in ((2,), (1, 1), (2, 1)):
        for _ in range(5):
            s = random_series(rng, caps)
            acc = TruncSeries.monomial(caps)
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
                assert prod == TruncSeries.monomial(caps)


def test_pow_negative_requires_unit():
    caps = (1,)
    with pytest.raises(ValueError, match="non-unit base for negative power"):
        series_pow_int(TruncSeries.monomial(caps, x=1), -1)
    # an x/y-free term with a non-constant TPoly coefficient is not a unit
    bad = TruncSeries.monomial(caps, TPoly.variable(), u=1)
    with pytest.raises(ValueError, match="non-unit base for negative power"):
        series_pow_int(bad, -2)
    # nor are two x/y-free terms, nor a zero one
    two = TruncSeries.monomial(caps, u=1) + TruncSeries.monomial(caps, u=0)
    with pytest.raises(ValueError, match="non-unit base for negative power"):
        series_pow_int(two, -1)
    with pytest.raises(ValueError, match="non-unit base for negative power"):
        series_pow_int(TruncSeries(caps), -1)


# ---------------------------------------------------------------------------
# series exponentials

def test_exp_examples():
    caps = (1,)
    one = TruncSeries.monomial(caps)
    assert series_exp(TruncSeries(caps)) == one
    got = series_exp(TruncSeries.monomial(caps, y=1))
    assert got == one + TruncSeries.monomial(caps, y=1)

    caps = (2,)
    arg = TruncSeries.monomial(caps, u=-1, y=1)
    got = series_exp(arg)
    want = TruncSeries(caps, {(0, 0, 0): 1, (0, 1, -1): 1, (0, 2, -2): Fraction(1, 2)})
    assert got == want


def test_exp_requires_nilpotent():
    caps = (1,)
    with pytest.raises(ValueError, match="non-nilpotent"):
        series_exp(TruncSeries.monomial(caps))
    with pytest.raises(ValueError, match="non-nilpotent"):
        series_exp(TruncSeries.monomial(caps, x=1) + TruncSeries.monomial(caps, u=2))


def test_exp_is_a_homomorphism():
    rng = random.Random(23)
    for caps in ((1, 1), (2,)):
        for _ in range(4):
            a = without_xy_free_terms(random_series(rng, caps))
            b = without_xy_free_terms(random_series(rng, caps))
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
    assert not TruncSeries.monomial(caps, x=1)
    assert not TruncSeries.monomial(caps, y=1)
    assert TruncSeries.monomial(caps, x=2)
