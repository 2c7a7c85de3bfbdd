import itertools
import math
import time
import warnings
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quotvol.abelian import (
    AcyclicData,
    CurveQuotProblem,
    acyclic_volume,
    ch_of_V,
    chern_from_ch,
    curve_acyclic_data,
    manton_nasir_check,
    poincare_number,
    segre_from_ch,
    symmetric_power_volume,
)
from quotvol.closed import closed_volume
from quotvol.exterior import (
    AltForm,
    evaluate_top,
    standard_symplectic_form,
    standard_symplectic_matrix,
    theta_form,
)
from quotvol.localization import QuotProblem
from quotvol.scalars import TPoly, falling_factorial

import random


def test_poincare_number_examples():
    assert poincare_number(1, 0, 1) == 1
    for g in range(5):
        for d in range(4):
            assert poincare_number(g, d, 0) == 1
    assert poincare_number(1, 0, 2) == 0


def test_poincare_number_matches_falling_factorial():
    for g in range(7):
        for b in range(9):
            assert poincare_number(g, 3, b) == falling_factorial(g, b)


# ---------------------------------------------------------------------------
# symmetric powers

def test_symmetric_power_volume_examples():
    t = TPoly.variable()
    for e in (-3, 0, 2):
        v = symmetric_power_volume(CurveQuotProblem(g=0, d=2, deg_E=e))
        assert v == (t + e) ** 2 * Fraction(1, 2)
        # oracle for g=1, d=1: (1/1!)(C(1,0)(e+t) + C(1,1))
        v = symmetric_power_volume(CurveQuotProblem(g=1, d=1, deg_E=e))
        assert v == t + e + 1
    for g in range(4):
        assert symmetric_power_volume(CurveQuotProblem(g=g, d=0, deg_E=7)) == TPoly((1,))


def test_symmetric_power_volume_two_paths_agree():
    t = TPoly.variable()
    shapes = [(g, d, e) for g in range(5) for d in range(6) for e in (-2, 0, 3)]
    for g, d, e in shapes + [(3, 60, -7)]:  # one large degree
        v = symmetric_power_volume(CurveQuotProblem(g, e, d))
        oracle = TPoly()
        for j in range(d + 1):
            oracle = oracle + (t + e) ** (d - j) * (
                Fraction(math.comb(d, j)) * poincare_number(g, d - j, j)
            )
        assert v == oracle * Fraction(1, math.factorial(d)), (g, d, e)


def test_symmetric_power_volume_degree_and_leading():
    for g in range(4):
        for d in range(1, 6):
            v = symmetric_power_volume(CurveQuotProblem(g, -1, d))
            assert v.degree == d
            assert v.coefficient(d) == Fraction(1, math.factorial(d))


def test_lower_index_starts_at_zero():
    # dropping the j = 0 term would give 1 here instead of e + t + 1
    v = symmetric_power_volume(CurveQuotProblem(g=1, deg_E=5, d=1))
    assert v == TPoly((6, 1))
    assert v != TPoly((1,))


# ---------------------------------------------------------------------------
# Manton-Nasir comparison

def test_manton_nasir_examples():
    vol = Fraction(50)
    pair = manton_nasir_check(0, 1, vol, Fraction(1))
    assert pair.quot_side == pair.manton_nasir_side
    pair = manton_nasir_check(1, 1, vol, Fraction(2))
    assert pair.quot_side == 2 * pair.manton_nasir_side
    pair = manton_nasir_check(2, 0, vol, Fraction(3))
    assert pair == (1, 1)


def test_manton_nasir_ratio_is_probe_power():
    probes = [Fraction(1), Fraction(2), Fraction(3, 2), Fraction(7, 5), Fraction(11, 3)]
    for g in range(4):
        for d in range(5):
            for probe in probes:
                pair = manton_nasir_check(g, d, Fraction(200, 3), probe)
                assert pair.quot_side == probe ** d * pair.manton_nasir_side


def test_manton_nasir_rejects_zero_probe():
    with pytest.raises(ValueError, match="nonzero"):
        manton_nasir_check(1, 1, Fraction(10), Fraction(0))


# ---------------------------------------------------------------------------
# Chern character / Segre conversion

def test_segre_from_trivial_character():
    s = segre_from_ch([], 3)
    assert s[0] == AltForm.one(0)
    assert not any(s[1:])
    s = segre_from_ch([AltForm.zero(2), AltForm.zero(2)], 2)
    assert s[0] == AltForm.one(2)
    assert not any(s[1:])


def test_segre_of_line_character():
    q = 2
    a = AltForm.basis(q, (1, 2)) + AltForm.basis(q, (3, 4)) * 2
    s = segre_from_ch([a, AltForm.zero(q)], 2)
    assert s[1] == -a
    assert s[2] == a.wedge(a) * Fraction(1, 2)


def test_chern_times_segre_is_one():
    rng = random.Random(31)
    q = 3
    for _ in range(100):
        ch = []
        for i in range(1, q + 1):
            terms = {}
            import itertools
            for key in itertools.combinations(range(1, 2 * q + 1), 2 * i):
                if rng.random() < 0.4:
                    terms[key] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            ch.append(AltForm(q, terms))
        s = segre_from_ch(ch, q)
        c = chern_from_ch(ch, q)
        total = AltForm.zero(q)
        for j in range(q + 1):
            for k in range(q + 1 - j):
                total = total + c[j].wedge(s[k]) if j + k > 0 else total
        # c(V) s(V) = 1: all positive-degree pieces cancel
        assert not total


def test_graded_degree_error():
    with pytest.raises(ValueError, match="graded degree error"):
        segre_from_ch([AltForm.basis(2, (1, 2, 3, 4))], 2)


# ---------------------------------------------------------------------------
# acyclic data and volumes

def curve_data(g, r0, deg_E0, m):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return curve_acyclic_data(g, r0, deg_E0, m)


def test_ch_of_V_curve_case():
    data = curve_data(2, 1, 9, 0)
    ch = ch_of_V(data)
    assert ch[0] == -standard_symplectic_form(2)
    assert not ch[1]  # empty s-range for i = 2 on a curve


def test_ch_of_V_zero_kappa():
    data = AcyclicData(
        n=1, q=1, deg_E=Fraction(0), pairings=(Fraction(2), Fraction(0)),
        h=standard_symplectic_matrix(1), kappa_forms={(1, 0): AltForm.zero(1)},
    )
    assert not any(ch_of_V(data))


def test_ch_of_V_missing_kappa():
    data = AcyclicData(
        n=1, q=1, deg_E=Fraction(0), pairings=(Fraction(2), Fraction(0)),
        h=standard_symplectic_matrix(1), kappa_forms={},
    )
    with pytest.raises(ValueError, match="incomplete pairing data"):
        ch_of_V(data)


def test_acyclic_data_invariants():
    with pytest.raises(ValueError, match="positive integer"):
        AcyclicData(n=1, q=0, deg_E=Fraction(0), pairings=(Fraction(1, 2), Fraction(0)), h=())
    with pytest.raises(ValueError, match="positive integer"):
        AcyclicData(n=1, q=1, deg_E=Fraction(0), pairings=(Fraction(0), Fraction(1)),
                    h=standard_symplectic_matrix(1))


def test_curve_acyclic_data_rank():
    # Riemann-Roch: R = chi(L^dual) = d + 1 - g for deg_E0 = 0, m = -d
    for g in range(4):
        for d in range(g, g + 4):
            data = curve_data(g, 1, 0, -d)
            assert data.rank == d + 1 - g
            assert data.dimension == d
    data = curve_data(0, 1, 3, 0)
    assert data.q == 0 and not data.kappa_forms
    data = curve_data(1, 2, 9, 0)
    assert data.kappa_forms[(1, 0)] == standard_symplectic_form(1) * 2


def test_rank_matches_the_factorial_sum():
    rng = random.Random(7)
    for n in range(1, 9):
        for _ in range(5):
            pairings = [Fraction(rng.randint(-40, 40), rng.randint(1, 6)) for _ in range(n)]
            # pick pairings[0] so that the rank is a positive integer
            rest = sum(Fraction((-1) ** s) * p / math.factorial(s)
                       for s, p in enumerate(pairings, 1))
            pairings.insert(0, rng.randint(1, 9) - rest)
            data = AcyclicData(n=n, q=0, deg_E=0, pairings=pairings, h=())
            expected = sum(Fraction((-1) ** s) * p / math.factorial(s)
                           for s, p in enumerate(pairings))
            assert data.rank == expected


def test_rank_is_fast_at_large_base_dimension():
    # rank is evaluated three times here.  In integers this takes about 0.1 s;
    # a Fraction sum over the growing denominators s! takes about a minute.
    started = time.perf_counter()
    data = AcyclicData(n=10000, q=0, deg_E=0, pairings=[1] + [0] * 10000, h=())
    assert (data.rank, data.dimension) == (1, 0)
    assert time.perf_counter() - started < 10.0


def test_curve_acyclic_data_warns_outside_range():
    # deg_E0 = 2 = r0 m + 2 r0 (g-1) violates the strict inequality but still
    # has R = 1, so the data is built with a warning rather than rejected
    with pytest.warns(UserWarning, match="acyclic range"):
        curve_acyclic_data(2, 1, 2, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curve_acyclic_data(0, 1, 3, 0)  # inside the range: no warning


def test_acyclic_volume_simply_connected():
    # q = 0: single term (deg_E + t)^N / N!
    t = TPoly.variable()
    data = AcyclicData(n=1, q=0, deg_E=Fraction(4), pairings=(Fraction(3), Fraction(0)), h=())
    assert acyclic_volume(data) == (t + 4) ** 2 * Fraction(1, 2)


def test_acyclic_volume_degenerate_zero_forms():
    # q = 1 with zero kappa and zero pairing matrix: every contribution dies
    data = AcyclicData(
        n=1, q=1, deg_E=Fraction(1), pairings=(Fraction(2), Fraction(0)),
        h=((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))),
        kappa_forms={(1, 0): AltForm.zero(1)},
    )
    assert acyclic_volume(data) == TPoly()


def test_acyclic_volume_matches_symmetric_power():
    shapes = [(g, d, deg_E0) for g in range(4) for d in range(max(0, 2 * g - 1), 2 * g + 4)
              for deg_E0 in (0, 5)]
    for g, d, deg_E0 in shapes + [(3, 40, 5)]:  # one large degree
        m = deg_E0 - d
        got = acyclic_volume(curve_data(g, 1, deg_E0, m))
        want = symmetric_power_volume(CurveQuotProblem(g, m, d))
        assert got == want, (g, d, deg_E0)
        # the closed form at r = 1 shares no code with either rank-1 path
        assert got == closed_volume(QuotProblem(g, 1, (deg_E0,), d)), (g, d, deg_E0)


def test_acyclic_volume_positive_at_large_t():
    data = curve_data(2, 1, 7, 0)
    v = acyclic_volume(data)
    for t in (Fraction(10), Fraction(100), Fraction(1001, 7)):
        assert v(t) > 0


def test_acyclic_volume_rank_two_summand():
    # r0 = 2 on an elliptic curve: R = deg_E0 - 2m, q = 1, N = R; the leading
    # coefficient <s_q>/N! picks up the Segre top class r0^g of exp(r0 sigma)
    data = curve_data(1, 2, 8, 1)
    assert data.rank == 6
    v = acyclic_volume(data)
    assert v.degree == data.dimension
    assert v.coefficient(data.dimension) == Fraction(2, math.factorial(data.dimension))
    for t in (Fraction(5), Fraction(31, 3)):
        assert v(t) > 0


# ---------------------------------------------------------------------------
# dense pairing data

def dense_acyclic_data(rng, q, n_dim):
    """Dense random pairing data: every h entry above the diagonal and every
    kappa coefficient nonzero, rank between 1 and 3."""
    size = 2 * q
    h = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            c = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
            h[i][j], h[j][i] = c, -c
    p = [Fraction(0)] * (n_dim + 1)
    for s in range(1, n_dim + 1):
        p[s] = Fraction(rng.randint(-3, 3) * math.factorial(s))
    p[0] = rng.randint(1, 3) - sum(
        Fraction((-1) ** s) * p[s] / math.factorial(s) for s in range(1, n_dim + 1)
    )
    kappa = {}
    for i in range(1, q + 1):
        for s in range(n_dim - i + 1):
            kappa[(i, s)] = AltForm(q, {
                key: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2)))
                for key in itertools.combinations(range(1, size + 1), 2 * i)
            })
    return AcyclicData(n=n_dim, q=q, deg_E=Fraction(rng.randint(-8, 8), rng.randint(1, 2)),
                       pairings=tuple(p), h=tuple(map(tuple, h)), kappa_forms=kappa)


def test_dense_acyclic_volumes_pinned():
    # literals recorded from the earlier tuple-keyed wedge and full exp series
    data = dense_acyclic_data(random.Random(41), q=4, n_dim=2)
    assert (data.rank, data.dimension) == (3, 6)
    assert acyclic_volume(data) == TPoly(tuple(map(Fraction, (
        "-1073907/1280", "4155/128", "67279/256", "-1963/64", "-15419/768", "2167/640",
        "25/2304",
    ))))
    data = dense_acyclic_data(random.Random(43), q=5, n_dim=1)
    assert (data.rank, data.dimension) == (1, 5)
    assert acyclic_volume(data) == TPoly(tuple(map(Fraction, (
        "5075201/15", "425651/3", "155225/6", "127181/48", "14201/96", "1589/480",
    ))))


def odd(seq):
    return sum(1 for a, b in itertools.combinations(seq, 2) if a > b) % 2


def push_forward(data, perm):
    """The same pairing data after basis vector k becomes vector perm[k]."""
    size = 2 * data.q
    h = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            h[perm[i]][perm[j]] = data.h[i][j]
    kappa = {}
    for index, form in data.kappa_forms.items():
        terms = {}
        for key, c in form.terms.items():
            image = [perm[k - 1] + 1 for k in key]
            terms[tuple(sorted(image))] = -c if odd(image) else c
        kappa[index] = AltForm(data.q, terms)
    return AcyclicData(n=data.n, q=data.q, deg_E=data.deg_E, pairings=data.pairings,
                       h=tuple(map(tuple, h)), kappa_forms=kappa)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 4), st.integers(1, 2), st.integers(0, 2 ** 32), st.data())
def test_acyclic_volume_invariant_under_even_permutation(q, n_dim, seed, draw):
    data = dense_acyclic_data(random.Random(seed), q, n_dim)
    perm = draw.draw(st.permutations(range(2 * q)))
    if odd(perm):
        perm[0], perm[1] = perm[1], perm[0]
    assert acyclic_volume(push_forward(data, perm)) == acyclic_volume(data)


# ---------------------------------------------------------------------------
# differential tests against the term-by-term projective-bundle formula

def theta_segre_volume(data):
    """The projective-bundle formula term by term: theta^k by repeated
    wedges, the Segre classes from ``segre_from_ch`` and each bracket
    <theta^k s_(q-k)> as the top of one more wedge."""
    q, N = data.q, data.dimension
    theta = theta_form(q, data.h)
    segre = segre_from_ch(ch_of_V(data), q)
    base = TPoly((data.deg_E, 1))
    total, theta_k = TPoly(), AltForm.one(q)
    for k in range(q + 1):
        if k:
            theta_k = theta_k.wedge(theta)
        total = total + base ** (N - k) * (math.comb(N, k) * evaluate_top(theta_k.wedge(segre[q - k])))
    return total * Fraction(1, math.factorial(N))


def with_h(data, h):
    return AcyclicData(n=data.n, q=data.q, deg_E=data.deg_E, pairings=data.pairings,
                       h=tuple(map(tuple, h)), kappa_forms=data.kappa_forms)


def singular_h(rng, q):
    """u v^T - v u^T: antisymmetric of rank at most 2, so singular for q >= 2."""
    u = [rng.randint(-3, 3) for _ in range(2 * q)]
    v = [rng.randint(-3, 3) for _ in range(2 * q)]
    return [[u[i] * v[j] - v[i] * u[j] for j in range(2 * q)] for i in range(2 * q)]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 4), st.integers(1, 3), st.integers(0, 2 ** 32),
       st.sampled_from(("dense", "zero", "singular")))
@example(0, 1, 0, "dense")
@example(3, 2, 1, "zero")
@example(4, 3, 2, "singular")
def test_acyclic_volume_matches_theta_segre_formula(q, n_dim, seed, h_kind):
    rng = random.Random(seed)
    data = dense_acyclic_data(rng, q, n_dim)
    if h_kind == "zero":
        data = with_h(data, [[0] * (2 * q) for _ in range(2 * q)])
    elif h_kind == "singular":
        data = with_h(data, singular_h(rng, q))
    assert acyclic_volume(data) == theta_segre_volume(data)


def test_acyclic_volume_with_forty_digit_entries():
    # numerators and denominators of about 40 digits, both signs: the packed
    # t-coefficients grow far past any machine word and still decode exactly
    rng = random.Random(7)

    def big():
        return Fraction(rng.choice((-1, 1)) * rng.randrange(10 ** 39, 10 ** 40),
                        rng.randrange(10 ** 39, 10 ** 40))

    for q, n_dim in ((1, 1), (2, 2), (3, 3)):
        size = 2 * q
        h = [[Fraction(0)] * size for _ in range(size)]
        for i in range(size):
            for j in range(i + 1, size):
                h[i][j] = big()
                h[j][i] = -h[i][j]
        kappa = {(i, s): AltForm(q, {key: big() for key in
                                     itertools.combinations(range(1, size + 1), 2 * i)})
                 for i in range(1, q + 1) for s in range(n_dim - i + 1)}
        pairings = (Fraction(2),) + (Fraction(0),) * n_dim
        data = AcyclicData(n=n_dim, q=q, deg_E=big(), pairings=pairings, h=tuple(map(tuple, h)),
                           kappa_forms=kappa)
        assert acyclic_volume(data) == theta_segre_volume(data)


def test_dense_q6_volume_pinned():
    # recorded from the theta-power/Segre kernel this one replaced
    data = dense_acyclic_data(random.Random(0), q=6, n_dim=2)
    assert (data.rank, data.dimension) == (2, 7)
    assert acyclic_volume(data) == TPoly(tuple(map(Fraction, (
        "-534237461023/5898240", "650957150179/2949120", "-22838767467/163840",
        "5557025851/147456", "-415509289/73728", "15132081/20480", "-8216977/92160",
        "1573483/322560",
    ))))
