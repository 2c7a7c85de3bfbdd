"""Closed-formula volumes for Quot spaces with rank-1 kernel.

Two routes are implemented:

* the curve case, where the Quot space is a symmetric power of the curve and
  the volume expands against the classical intersection numbers
  ``<gamma^(d-j) theta^j> = g!/(g-j)!``;
* the general acyclic case, where the Quot space is a projective bundle over
  the Picard torus and the volume is an exterior-algebra evaluation driven by
  abstract pairing data (``AcyclicData``).

Volumes are normalized: they are polynomials in the stability variable, in
units of ``(4 pi^2)^dim``.  The constant pi never enters the exact core; the
unnormalized value is only reachable through rational stand-ins for pi (see
``manton_nasir_check`` and the command-line probe options).
"""

from __future__ import annotations

import math
import operator
import warnings
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from .scalars import InputError, Record, TPoly, _as_fraction, falling_factorial

if TYPE_CHECKING:  # imported where used: only acyclic volumes load the exterior algebra
    from .exterior import AltForm

__all__ = [
    "CurveQuotProblem",
    "AcyclicData",
    "MantonNasirValues",
    "poincare_number",
    "symmetric_power_volume",
    "manton_nasir_check",
    "segre_from_ch",
    "chern_from_ch",
    "ch_of_V",
    "acyclic_volume",
    "curve_acyclic_data",
]


class CurveQuotProblem(Record):
    """Rank-1 kernel data on a genus-g curve.

    ``d = deg(E_0) - deg(E)`` is the length of the quotient; the Quot space
    is the d-th symmetric power of the curve.
    """

    __slots__ = ("g", "deg_E", "d")

    def __init__(self, g: int, deg_E: int, d: int):
        g, deg_E, d = operator.index(g), operator.index(deg_E), operator.index(d)
        if g < 0:
            raise ValueError("genus must be non-negative")
        if d < 0:
            raise ValueError("d must be non-negative")
        super().__init__(g, deg_E, d)


def poincare_number(g: int, a: int, b: int) -> Fraction:
    """Intersection number of ``gamma^a theta^b`` on the symmetric power
    ``X^(a+b)``: ``g!/(g-b)!`` for ``b <= g`` and zero above the genus."""
    if g < 0 or a < 0 or b < 0:
        raise ValueError("arguments must be non-negative")
    return falling_factorial(g, b)


def symmetric_power_volume(p: CurveQuotProblem) -> TPoly:
    """Normalized volume of the d-th symmetric power.

    v = sum_{j=0}^{min(d,g)} C(g,j)/(d-j)! (deg_E + ttilde)^(d-j).

    The sum starts at j = 0: the j = 0 term carries the leading
    (deg_E + ttilde)^d / d! contribution, and dropping it (an easy off-by-one
    when quoting the classical intersection formula) would already fail the
    d = 0 normalization v = 1.  The metric volume is (4 pi^2)^d times this.
    """
    base = TPoly((p.deg_E, 1))
    total = TPoly()
    for j in range(min(p.d, p.g) + 1):
        coeff = Fraction(math.comb(p.g, j), math.factorial(p.d - j))
        total = total + base ** (p.d - j) * coeff
    return total


class MantonNasirValues(NamedTuple):
    quot_side: Fraction
    manton_nasir_side: Fraction


def manton_nasir_check(g: int, d: int, vol_X: Fraction, pi_stand_in: Fraction) -> MantonNasirValues:
    """Both sides of the vortex-volume comparison at a rational stand-in for pi.

    ``quot_side`` is ``(4 pi^2)^d v(ttilde)`` with ``deg_E = -d`` and
    ``ttilde = vol_X / (4 pi)`` (the vortex parameter fixed at one half);
    ``manton_nasir_side`` is the vortex-counting sum
    ``sum_i (4 pi)^i C(g,i) (vol_X - 4 pi d)^(d-i) / (d-i)!``.
    The caller asserts their ratio is ``pi^d``; running several distinct
    stand-ins pins that power as a polynomial identity.
    """
    pi = Fraction(pi_stand_in)
    if pi == 0:
        raise ValueError("pi stand-in must be nonzero")
    vol = Fraction(vol_X)
    v = symmetric_power_volume(CurveQuotProblem(g=g, deg_E=-d, d=d))
    quot_side = (4 * pi ** 2) ** d * v(vol / (4 * pi))
    mn = Fraction(0)
    for i in range(min(d, g) + 1):
        mn += (
            (4 * pi) ** i
            * Fraction(math.comb(g, i), math.factorial(d - i))
            * (vol - 4 * pi * d) ** (d - i)
        )
    return MantonNasirValues(quot_side, mn)


def _char_exp(ch: Sequence[AltForm], top_degree: int, sign: int) -> list[AltForm]:
    """Graded pieces of ``exp(sign * sum (-1)^i ch_i / i)`` up to ``top_degree``."""
    from .exterior import exp_graded
    for idx, form in enumerate(ch):
        if any(k != 2 * (idx + 1) for k in form.degrees()):
            raise ValueError("graded degree error")
    q = ch[0].q if ch else 0
    pieces = [form * Fraction(sign * (-1) ** i, i) for i, form in enumerate(ch, 1)]
    return exp_graded(q, pieces, top_degree)


def segre_from_ch(ch: Sequence[AltForm], top_degree: int) -> list[AltForm]:
    """Segre classes from the Chern character components.

    ``ch[i-1]`` must be the degree-2i component.  The total Segre class is
    ``exp(sum (-1)^i ch_i / i)``; entry j of the result is the degree-2j
    piece, up to ``top_degree``.
    """
    return _char_exp(ch, top_degree, 1)


def chern_from_ch(ch: Sequence[AltForm], top_degree: int) -> list[AltForm]:
    """Chern classes, ``exp(sum (-1)^(i+1) ch_i / i)``; inverse to the Segre
    total class."""
    return _char_exp(ch, top_degree, -1)


class AcyclicData(Record):
    """Pairing data describing an acyclic pair on an n-dimensional base.

    ``pairings[s]`` is the number ``<m^s C_(n-s), [X]>`` (``C_i`` the
    degree-2i pieces of ``ch(E_0) td(X)``), ``deg_E`` is
    ``<m [omega]^(n-1), [X]>``, ``h`` the antisymmetric pairing matrix behind
    the theta class, and ``kappa_forms[(i, s)]`` the degree-2i form
    ``x_1, ..., x_2i -> <x_1 ... x_2i m^s C_(n-i-s), [X]>``.  Records compare
    by value; holding a dict, they do not hash.

    A bad ``pairings`` or ``h`` raises ``InputError`` naming the field when
    the record is built.
    """

    __slots__ = ("n", "q", "deg_E", "pairings", "h", "kappa_forms")

    def __init__(
        self,
        n: int,
        q: int,
        deg_E: Fraction | int,
        pairings: Sequence[Fraction | int],
        h: Sequence[Sequence[Fraction | int]],
        kappa_forms: Mapping[tuple[int, int], AltForm] | None = None,
    ):
        from .exterior import theta_form
        n, q = operator.index(n), operator.index(q)
        if n < 1:
            raise ValueError("base dimension must be positive")
        if q < 0:
            raise ValueError("q must be non-negative")
        if kappa_forms is None:
            kappa_forms = {}
        super().__init__(
            n,
            q,
            _as_fraction(deg_E),
            tuple(_as_fraction(p) for p in pairings),
            tuple(tuple(_as_fraction(x) for x in row) for row in h),
            kappa_forms,
        )
        if len(self.pairings) != n + 1:
            raise InputError("pairings", f"need pairings for s = 0..n: expected {n + 1} "
                             f"entries, got {len(self.pairings)}")
        rank = self.rank
        if rank.denominator != 1 or rank < 1:
            raise InputError("pairings",
                             f"rank sum(-1)^s P_s/s! must be a positive integer, got {rank}")
        for (i, s), form in kappa_forms.items():
            if not (1 <= i <= q and 0 <= s <= n - i):
                raise ValueError(f"kappa index {(i, s)} out of range")
            if form.q != q:
                raise ValueError("rank mismatch in kappa form")
            if any(k != 2 * i for k in form.degrees()):
                raise ValueError("graded degree error")
        theta_form(q, self.h)

    @property
    def rank(self) -> Fraction:
        """chi of the twisted sections bundle: sum (-1)^s pairings[s]/s!.

        Summed in integers as sum (-1)^s a_s n!/s!, a_s = pairings[s] times
        the common denominator D of the pairings, and divided by D n! once."""
        den = math.lcm(*(p.denominator for p in self.pairings))
        total, weight = 0, 1  # weight = n!/s!
        for s in range(self.n, -1, -1):
            p = self.pairings[s]
            if p:
                total += (-1) ** s * weight * (p.numerator * (den // p.denominator))
            weight *= s
        return Fraction(total, den * math.factorial(self.n))

    @property
    def dimension(self) -> int:
        """N = rank + q - 1, the dimension of the projective bundle."""
        return int(self.rank) + self.q - 1


def ch_of_V(data: AcyclicData) -> list[AltForm]:
    """Chern character components ch_1, ..., ch_q of the sections bundle:
    ch_i = sum_{s=0}^{n-i} (-1)^(i+s)/s! kappa_(m^s C_(n-i-s))."""
    from .exterior import AltForm
    out = []
    for i in range(1, data.q + 1):
        ch_i = AltForm.zero(data.q)
        for s in range(data.n - i + 1):
            form = data.kappa_forms.get((i, s))
            if form is None:
                raise ValueError(f"incomplete pairing data: kappa form (i={i}, s={s}) missing")
            ch_i = ch_i + form * Fraction((-1) ** (i + s), math.factorial(s))
        out.append(ch_i)
    return out


def acyclic_volume(data: AcyclicData) -> TPoly:
    """Normalized volume of the projective-bundle Quot space.

    v = (1/N!) sum_k C(N,k) (deg_E + ttilde)^(N-k) <theta^k s_(q-k)> where
    the bracket is top evaluation on the rank-2q lattice; only theta
    exponents k <= q contribute.  Units of (4 pi^2)^N.

    Even forms commute, so sum_k t^k/k! <theta^k s_(q-k)> is the top
    evaluation of exp(t theta) ^ s = exp(t theta + f_1 + f_2 + ...) with
    f_i = (-1)^i ch_i / i, which ``top_exp_poly`` computes as one polynomial
    in t: <theta^k s_(q-k)> = k! [t^k].
    """
    from .exterior import theta_form, top_exp_poly
    q = data.q
    N = data.dimension
    pieces = [form * Fraction((-1) ** i, i) for i, form in enumerate(ch_of_V(data), 1)]
    top = top_exp_poly(theta_form(q, data.h), pieces)
    base = TPoly((data.deg_E, 1))
    total = TPoly()
    for k in range(min(q, N) + 1):
        pairing = math.factorial(k) * top[k]
        if pairing:
            total = total + base ** (N - k) * (math.comb(N, k) * pairing)
    return total * Fraction(1, math.factorial(N))


def curve_acyclic_data(g: int, r0: int, deg_E0: int, m: int) -> AcyclicData:
    """Acyclic-pair data for a rank-r0 bundle of degree deg_E0 on a genus-g
    curve, with rank-1 kernels of degree m.

    Outside the acyclicity range ``deg_E0 > r0 m + 2 r0 (g - 1)`` the data
    still evaluates to the same polynomial, but the projective-bundle
    description is the caller's claim; a warning is issued.
    """
    from .exterior import standard_symplectic_form, standard_symplectic_matrix
    if r0 < 1:
        raise ValueError("r0 must be positive")
    if not deg_E0 > r0 * m + 2 * r0 * (g - 1):
        warnings.warn(
            f"(deg_E0={deg_E0}, r0={r0}, m={m}, g={g}) is outside the acyclic range; "
            "the formula value is returned but the bundle description may fail",
            stacklevel=2,
        )
    pairings = (Fraction(deg_E0 + r0 * (1 - g)), Fraction(m * r0))
    kappa: dict[tuple[int, int], AltForm] = {}
    if g >= 1:
        kappa[(1, 0)] = standard_symplectic_form(g) * r0
    return AcyclicData(
        n=1,
        q=g,
        deg_E=Fraction(m),
        pairings=pairings,
        h=standard_symplectic_matrix(g),
        kappa_forms=kappa,
    )
