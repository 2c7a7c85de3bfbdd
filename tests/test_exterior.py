import functools
import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quotvol.exterior import (
    AltForm,
    evaluate_top,
    exp_graded,
    standard_symplectic_form,
    standard_symplectic_matrix,
    theta_form,
    top_exp_poly,
)

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)


def pfaffian(h):
    """Recursive Pfaffian of an antisymmetric matrix, used as an oracle."""
    n = len(h)
    if n == 0:
        return Fraction(1)
    total = Fraction(0)
    for j in range(1, n):
        rest = [row for i, row in enumerate(h) if i not in (0, j)]
        minor = [[row[k] for k in range(n) if k not in (0, j)] for row in rest]
        sign = -1 if j % 2 == 0 else 1  # (-1)^(j+1) for 0-based column j
        total += sign * h[0][j] * pfaffian(minor)
    return total


def random_antisymmetric(rng, q):
    n = 2 * q
    h = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = Fraction(rng.randint(-3, 3))
            h[i][j] = v
            h[j][i] = -v
    return h


def random_homogeneous(rng, q, k, density=0.5):
    terms = {}
    for key in itertools.combinations(range(1, 2 * q + 1), k):
        if rng.random() < density:
            terms[key] = Fraction(rng.randint(-3, 3))
    return AltForm(q, terms)


def exp_sum(a):
    """``exp(a)`` for ``a`` of even degrees >= 2: the sum of the graded pieces
    ``exp_graded`` builds from the homogeneous parts of ``a``."""
    parts = [AltForm(a.q, {k: v for k, v in a.terms.items() if len(k) == 2 * i})
             for i in range(1, a.q + 1)]
    return functools.reduce(AltForm.__add__, exp_graded(a.q, parts, a.q))


def test_wedge_examples():
    q = 2
    l1 = AltForm.basis(q, (1,))
    l2 = AltForm.basis(q, (2,))
    assert l1.wedge(l2) == AltForm.basis(q, (1, 2))
    assert not l1.wedge(l1)
    assert l2.wedge(l1) == AltForm(q, {(1, 2): -1})


def test_wedge_rank_mismatch():
    with pytest.raises(ValueError, match="rank mismatch"):
        AltForm.basis(1, (1,)).wedge(AltForm.basis(2, (1,)))


def test_wedge_graded_commutative_and_associative():
    rng = random.Random(5)
    for q in (2, 3, 4):
        for k1, k2 in ((1, 1), (1, 2), (2, 2), (2, 3)):
            a = random_homogeneous(rng, q, k1)
            b = random_homogeneous(rng, q, k2)
            sign = (-1) ** (k1 * k2)
            assert a.wedge(b) == b.wedge(a) * sign
        a = random_homogeneous(rng, q, 1)
        b = random_homogeneous(rng, q, 2)
        c = random_homogeneous(rng, q, 1)
        assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))


def test_exp_even_examples():
    assert exp_sum(AltForm.zero(1)) == AltForm.one(1)
    a = AltForm.basis(1, (1, 2))
    assert exp_sum(a) == AltForm.one(1) + a

    q = 2
    a = AltForm.basis(q, (1, 2)) + AltForm.basis(q, (3, 4))
    # oracle: direct expansion 1 + a + a^a/2
    want = AltForm.one(q) + a + a.wedge(a) * Fraction(1, 2)
    got = exp_sum(a)
    assert got == want
    assert got == AltForm.one(q) + a + AltForm.basis(q, (1, 2, 3, 4))


def test_exp_even_homomorphism():
    rng = random.Random(9)
    for q in (2, 3):
        a = random_homogeneous(rng, q, 2)
        b = random_homogeneous(rng, q, 2)
        assert exp_sum(a).wedge(exp_sum(b)) == exp_sum(a + b)


def test_evaluate_top():
    q = 2
    assert evaluate_top(AltForm.basis(q, (1, 2, 3, 4))) == 1
    a = AltForm.basis(q, (1, 2)) + AltForm.basis(q, (3, 4))
    assert evaluate_top(a.wedge(a)) == 2
    assert evaluate_top(a) == 0
    assert evaluate_top(AltForm.one(0)) == 1  # rank-0 lattice: top form is the constant


def test_theta_form_examples():
    assert theta_form(1, ((0, 1), (-1, 0))) == AltForm.basis(1, (1, 2))
    sym = theta_form(2, standard_symplectic_matrix(2))
    assert sym == AltForm.basis(2, (1, 2)) + AltForm.basis(2, (3, 4))
    assert not theta_form(2, [[0] * 4 for _ in range(4)])


def test_theta_form_requires_antisymmetry():
    with pytest.raises(ValueError, match="antisymmetric"):
        theta_form(1, ((0, 1), (1, 0)))
    with pytest.raises(ValueError, match="2q x 2q"):
        theta_form(2, ((0, 1), (-1, 0)))


def test_theta_power_is_pfaffian():
    rng = random.Random(17)
    for q in (1, 2, 3):
        for _ in range(4):
            h = random_antisymmetric(rng, q)
            theta = theta_form(q, h)
            power = functools.reduce(AltForm.wedge, [theta] * q, AltForm.one(q))
            assert evaluate_top(power * Fraction(1, math.factorial(q))) == pfaffian(h)
    # principally polarized case: theta^q / q! evaluates to 1
    for q in (1, 2, 3, 4):
        theta = standard_symplectic_form(q)
        power = functools.reduce(AltForm.wedge, [theta] * q, AltForm.one(q))
        assert evaluate_top(power * Fraction(1, math.factorial(q))) == 1


def test_component_extraction():
    q = 2
    a = AltForm.one(q) + AltForm.basis(q, (1, 2)) + AltForm.basis(q, (1, 2, 3, 4))
    assert a.degrees() == {0, 2, 4}


def test_invalid_keys_rejected():
    with pytest.raises(ValueError, match="strictly increasing"):
        AltForm(2, {(2, 1): 1})
    with pytest.raises(ValueError, match="out of range"):
        AltForm(1, {(3,): 1})


# ---------------------------------------------------------------------------
# differential tests against a naive tuple-keyed wedge

def _merge_sign(left, right):
    inversions = 0
    for b in right:
        inversions += sum(1 for a in left if a > b)
    return -1 if inversions % 2 else 1


def naive_wedge(a, b):
    """Reference product: per pair of keys, a set disjointness test, a sort
    and an O(k^2) inversion count for the shuffle sign."""
    out = {}
    for ka, va in a.terms.items():
        sa = set(ka)
        for kb, vb in b.terms.items():
            if sa & set(kb):
                continue
            key = tuple(sorted(ka + kb))
            out[key] = out.get(key, Fraction(0)) + _merge_sign(ka, kb) * va * vb
    return AltForm(a.q, out)


COEFFS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


def forms(q, degrees):
    keys = [key for k in degrees if k <= 2 * q
            for key in itertools.combinations(range(1, 2 * q + 1), k)]
    if not keys:
        return st.just(AltForm(q))
    return st.dictionaries(st.sampled_from(keys), COEFFS, max_size=12).map(
        lambda terms: AltForm(q, terms))


@st.composite
def form_pairs(draw):
    q = draw(st.integers(0, 4))
    return draw(forms(q, range(9))), draw(forms(q, range(9)))


@PROPERTY
@given(form_pairs())
@example((AltForm.scalar(0, Fraction(2, 3)), AltForm.scalar(0, -5)))
@example((AltForm(3), AltForm.basis(3, (1, 4))))
def test_wedge_matches_naive_oracle(pair):
    a, b = pair
    assert a.wedge(b) == naive_wedge(a, b)


@PROPERTY
@given(st.integers(1, 4).flatmap(lambda q: forms(q, (2, 4))))
def test_exp_even_matches_power_series(a):
    want, power = AltForm.one(a.q), AltForm.one(a.q)
    for k in range(1, a.q + 1):
        power = naive_wedge(power, a)
        want = want + power * Fraction(1, math.factorial(k))
    assert exp_sum(a) == want


@PROPERTY
@given(st.integers(0, 3).flatmap(
    lambda q: st.tuples(forms(q, (2,)), forms(q, (2,)), forms(q, (4,)), forms(q, (6,)))))
def test_top_exp_poly_matches_exp_at_points(forms_):
    # a polynomial of degree <= q is fixed by its values at q + 2 points
    theta, *pieces = forms_
    q = theta.q
    coeffs = top_exp_poly(theta, pieces)
    assert len(coeffs) == q + 1
    for t in range(-1, q + 1):
        want = evaluate_top(exp_sum(functools.reduce(AltForm.__add__, pieces, theta * t)))
        assert sum(c * t ** k for k, c in enumerate(coeffs)) == want


def test_top_exp_poly_rank_mismatch():
    with pytest.raises(ValueError, match="rank mismatch"):
        top_exp_poly(AltForm(2), [AltForm(1)])


@st.composite
def antisymmetric_pairs(draw):
    """Two antisymmetric 2q x 2q matrices, q <= 4."""
    n = 2 * draw(st.integers(0, 4))
    cells = list(itertools.combinations(range(n), 2))
    pair = []
    for _ in range(2):
        m = [[Fraction(0)] * n for _ in range(n)]
        for (i, j), v in zip(cells, draw(st.lists(COEFFS, min_size=len(cells),
                                                  max_size=len(cells)))):
            m[i][j], m[j][i] = v, -v
        pair.append(m)
    return pair


@PROPERTY
@given(antisymmetric_pairs())
def test_top_exp_poly_of_two_degree_two_forms_is_a_pfaffian(pair):
    # the top of exp(t theta + f_1) is the Pfaffian of t h + a, with h and a
    # the matrices of theta and f_1: an oracle that shares no bitmask sign,
    # packing or partition recursion with the kernel
    h, a = pair
    q = len(h) // 2
    coeffs = top_exp_poly(theta_form(q, h), [theta_form(q, a)])
    for t in range(-1, q + 2):
        mixed = [[t * x + y for x, y in zip(row_h, row_a)] for row_h, row_a in zip(h, a)]
        assert sum(c * t ** k for k, c in enumerate(coeffs)) == pfaffian(mixed)


def dense_pieces(rng, q, n_dim):
    """theta with every pair nonzero, and f_1, ..., f_(n_dim) nonzero on every key."""
    def keys(k):
        return itertools.combinations(range(1, 2 * q + 1), k)
    theta = AltForm(q, {key: rng.choice((-3, -2, -1, 1, 2, 3)) for key in keys(2)})
    pieces = [AltForm(q, {key: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2)))
                          for key in keys(2 * i)}) for i in range(1, n_dim + 1)]
    return theta, pieces


# Recorded from the earlier kernel, which formed exp(t theta + f_1) and
# exp(f_2 + ...) as wedge powers and paired them at the top: 0.49 s and 4.1 s
# there, against a few hundredths of a second for the partition recursion.
@pytest.mark.parametrize("seed, q, n_dim, want", [
    (7, 7, 2, ("-1763749/64", "2959785/64", "11784819/32", "919635/2", "794047/2",
               "560313/2", "362799/2", "42349")),
    (9, 9, 1, ("-9244663/16", "-94440735/256", "551052049/128", "259518701/64",
               "-147996791/16", "142983147/16", "-115182971/4", "261959239/4",
               "-5529477/2", "2776405")),
])
def test_top_exp_poly_pinned_on_dense_data(seed, q, n_dim, want):
    theta, pieces = dense_pieces(random.Random(seed), q, n_dim)
    assert top_exp_poly(theta, pieces) == [Fraction(c) for c in want]


def test_top_exp_poly_depth_does_not_grow_with_q():
    # 1200 disjoint pairs: one chain of 1200 partition sums, deeper than
    # Python's recursion limit, so the kernel must not recurse
    q = 1200
    theta = AltForm(q, {(2 * i - 1, 2 * i): 1 for i in range(1, q + 1)})
    started = time.perf_counter()
    assert top_exp_poly(theta, []) == [0] * q + [1]
    assert time.perf_counter() - started < 1.0
