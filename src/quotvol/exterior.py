"""Exterior algebra over a rank-2q lattice.

A form is stored sparsely as integer numerators over one positive
denominator, in lowest terms, on strictly increasing index tuples ``I``
inside ``{1, ..., 2q}``; ``terms`` reads them as ``Fraction``s.  Mixed-degree
forms are allowed; ``degrees`` lists the degrees present.
Evaluation against the standard basis is the coefficient of the full tuple
``(1, ..., 2q)``, so all pairing data must be expressed in a basis compatible
with the complex orientation.

All products run on this integer core.  A key is the mask with bit ``i``
set for ``i`` in ``I``: two keys are disjoint when their masks are, and the
shuffle sign of ``I`` followed by ``J`` is the parity of ``(p_I & mask_J)``,
where ``p_I`` is the XOR of ``(1 << i) - 1`` over ``i`` in ``I``.
``AltForm.wedge`` is the one wedge loop.  Exponentials form no wedge power:
even keys commute, so ``exp(omega)`` on a key K is a signed sum over the
partitions of K into keys, which ``_partition_sums`` expands along the lowest
index of K (the first-row Pfaffian expansion, blocks of any even size).  With
``f_i`` scaled by ``D^i`` to integers, a key of degree 2j holds D^j times the
true entry.  One packing step, ``_packed``, puts t in by Kronecker substitution
(``sum_k c_k 2^(wk)``, w from a product over the indices): ``top_exp_poly``
reads ``D^q c(t)`` from its output.  The work budget ``_partition_work`` packs
the same input (``_kernel_input`` derives it for both), counts the tests and
products of ``_partition_sums`` (``_subset_tests``), and prices them with
``scalars``' price list; it bounds the bits of the c_k by w.

The acyclic pipeline lives here too, so that only acyclic jobs compile it:
the pairing data ``AcyclicData`` (and ``curve_acyclic_data``, its curve
case), the characteristic classes ``ch_of_V``, ``segre_from_ch`` and
``chern_from_ch``, and ``_parse_acyclic``, the reader and the price of an
``acyclic-volume`` job document.  ``abelian.acyclic_volume`` evaluates it.
"""

from __future__ import annotations

import functools
import math
import operator
import warnings
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from . import _EXPORTS
from .abelian import _shifted_sum_work  # acyclic jobs load abelian anyway
from .scalars import (
    WORK_LIMIT,
    InputError,
    Record,
    _as_fraction,
    _bits,
    _fraction_price,
    _print_price,
    _product_price,
    _require_int,
    _require_int_list,
    _within_budget,
    parse_fraction,
)

__all__ = list(_EXPORTS["exterior"])


def _parity(mask: int) -> int:
    """The shuffle-parity mask ``p_I`` of the key with bitmask ``mask``."""
    parity = 0
    while mask:
        low = mask & -mask
        parity ^= low - 1
        mask ^= low
    return parity


def _scaled(form: AltForm, den: int) -> dict[int, int]:
    """The numerators of ``form`` over ``den``, a multiple of ``form.den``."""
    f = den // form.den
    return {m: c * f for m, c in form.ints.items()}


def _form(q: int, ints: Mapping[int, int], den: int) -> AltForm:
    """The form with coefficient ``ints[mask] / den`` on each key, in lowest
    terms."""
    g = math.gcd(den, *ints.values())
    result = AltForm(q)
    result.ints = {m: c // g for m, c in ints.items() if c}
    result.den = den // g
    return result


def _partition_sums(omega: Mapping[int, int], targets: Iterable[int]) -> dict[int, int]:
    """The memo of ``P(K) = sum_B sign(B, K - B) omega_B P(K - B)``, ``P(0) = 1``,
    at the targets and the subsets they reach; B runs over the keys of ``omega``
    holding ``min K`` inside K, found by lowest bit.  On even keys ``P(K)`` is
    the entry of ``exp(omega)`` on K.  A stack in place of recursion keeps
    Python's call depth fixed whatever the rank."""
    owned: dict[int, list[tuple[int, int, int]]] = {}
    for b, x in omega.items():
        owned.setdefault(b & -b, []).append((b, x, _parity(b)))
    memo = {0: 1}
    stack = [(k, None) for k in targets]
    while stack:
        k, terms = stack.pop()
        if terms is None:
            if k in memo:
                continue
            nk = ~k
            terms = [(k ^ b, -x if (p & (k ^ b)).bit_count() & 1 else x)
                     for b, x, p in owned.get(k & -k, ()) if not b & nk]
            stack.append((k, terms))
            stack.extend((r, None) for r, _ in terms if r not in memo)
        else:
            memo[k] = sum(x * memo[r] for r, x in terms)
    return memo


def _subset_tests(omega: Mapping[int, int]) -> tuple[int, int]:
    """Bounds on the keys ``_partition_sums`` tests and takes, until past the limit: a state
    of least index m lost x of the a indices above m held by keys of lower least index, in
    even blocks of D or fewer: x <= (m - 1)(D - 1), x + m odd; C(a - b, x) hold b of them."""
    owned: dict[int, list[int]] = {}
    for b in omega:
        owned.setdefault(b & -b, []).append(b)
    size, tests, taken, below = max(map(int.bit_count, omega), default=0), 0, 0, 0
    for low in sorted(owned):
        m, held = low.bit_length() - 1, below & -2 * low
        a, inside = held.bit_count(), [(b & held).bit_count() for b in owned[low]]
        states = {b: sum(math.comb(a - b, x) for x in range((m - 1) % 2, min(
            (m - 1) * (size - 1), a - b) + 1, 2)) for b in {0, *inside}}
        tests, taken = tests + len(inside) * states[0], taken + sum(map(states.get, inside))
        if tests > WORK_LIMIT / _product_price(1, 1):  # a test is a step
            break
        below |= functools.reduce(operator.or_, owned[low])
    return tests, taken


def _partition_work(data: AcyclicData) -> tuple[float, int]:
    """``(work, w + q bits(D))``, the second over every c_k's bits: a test is a step, a taken
    one four more and an entry times a memo entry of (q + 1)/2 slots of w bits on average
    (high for theta alone, whose mostly-zero entries CPython's Karatsuba partly skips)."""
    omega, w, den = _packed(*_kernel_input(data))
    (tests, taken), step = _subset_tests(omega), _product_price(1, 1)
    entry = max(map(int.bit_length, omega.values()), default=0)
    work = (tests + 4 * taken) * step + taken * _product_price(entry, (data.q + 1) * w // 2)
    return work, w + data.q * den.bit_length()


class AltForm:
    """Alternating multilinear form on a lattice of rank 2q.

    The coefficient on the key ``I = (i_1 < ... < i_k)`` is the value of the
    form on the basis vectors indexed by ``I``.  It is held as the integer
    ``ints[mask_I]`` over the positive ``den``, in lowest terms and without
    zero entries; ``terms`` reads the coefficients as ``Fraction``s.
    """

    __slots__ = ("q", "ints", "den")

    def __init__(self, q: int, terms: Mapping[tuple[int, ...], Fraction | int] | None = None):
        if q < 0:
            raise ValueError("q must be non-negative")
        self.q = q
        out: dict[int, Fraction] = {}
        if terms:
            for key, val in terms.items():
                key = tuple(key)
                if any(not (1 <= i <= 2 * q) for i in key):
                    raise ValueError(f"index out of range in {key!r}")
                if any(key[i] >= key[i + 1] for i in range(len(key) - 1)):
                    raise ValueError(f"indices must be strictly increasing: {key!r}")
                val = _as_fraction(val)
                if val:
                    out[sum(1 << i for i in key)] = val
        self.den = math.lcm(*(v.denominator for v in out.values()))
        self.ints = {m: v.numerator * (self.den // v.denominator) for m, v in out.items()}

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        """The coefficients as a new ``{index tuple: Fraction}`` dict."""
        n = 2 * self.q
        return {tuple(i for i in range(1, n + 1) if m >> i & 1): Fraction(c, self.den)
                for m, c in self.ints.items()}

    @classmethod
    def zero(cls, q: int) -> AltForm:
        return cls(q)

    @classmethod
    def scalar(cls, q: int, value) -> AltForm:
        return cls(q, {(): value})

    @classmethod
    def one(cls, q: int) -> AltForm:
        return cls.scalar(q, 1)

    @classmethod
    def basis(cls, q: int, indices: Iterable[int]) -> AltForm:
        """The basis form lambda_I for a strictly increasing index tuple."""
        return cls(q, {tuple(indices): 1})

    def degrees(self) -> set[int]:
        return {m.bit_count() for m in self.ints}

    def __bool__(self) -> bool:
        return bool(self.ints)

    def __add__(self, other):
        if not isinstance(other, AltForm):
            return NotImplemented
        if self.q != other.q:
            raise ValueError("rank mismatch")
        den = math.lcm(self.den, other.den)
        out = _scaled(self, den)
        for m, c in _scaled(other, den).items():
            out[m] = out.get(m, 0) + c
        return _form(self.q, out, den)

    def __neg__(self) -> AltForm:
        return _form(self.q, {m: -c for m, c in self.ints.items()}, self.den)

    def __mul__(self, scalar):
        if isinstance(scalar, int):
            scalar = Fraction(scalar)
        if not isinstance(scalar, Fraction):
            return NotImplemented
        num, den = scalar.numerator, self.den * scalar.denominator
        return _form(self.q, {m: c * num for m, c in self.ints.items()}, den)

    __rmul__ = __mul__

    def wedge(self, other: AltForm) -> AltForm:
        """Exterior product with shuffle signs; zero above degree 2q."""
        if not isinstance(other, AltForm):
            raise TypeError("wedge expects an AltForm")
        if self.q != other.q:
            raise ValueError("rank mismatch")
        acc: dict[int, int] = {}
        right = list(other.ints.items())
        for ma, x in self.ints.items():
            pa = _parity(ma)
            for mb, y in right:
                if not ma & mb:
                    m = ma | mb
                    acc[m] = acc.get(m, 0) + (-x * y if (pa & mb).bit_count() & 1 else x * y)
        return _form(self.q, acc, self.den * other.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AltForm):
            return NotImplemented
        return self.q == other.q and self.den == other.den and self.ints == other.ints

    def __repr__(self) -> str:
        if not self.ints:
            return f"AltForm(q={self.q}, 0)"
        parts = [f"{key}: {val}" for key, val in sorted(self.terms.items())]
        return f"AltForm(q={self.q}, {{" + ", ".join(parts) + "})"


def exp_graded(q: int, pieces: Sequence[AltForm], top: int) -> list[AltForm]:
    """Graded pieces ``e_0, ..., e_top`` of ``exp(f_1 + f_2 + ...)``, where
    ``f_i = pieces[i-1]`` is a form of degree 2i.

    With D clearing all denominators, ``omega = sum_i D^i f_i`` has integer
    entries, and ``_partition_sums`` gives ``D^j e_j`` on every key of degree
    2j that is a union of disjoint keys of omega (zero elsewhere); each is
    divided by D^j once.  Pieces above degree 2q vanish."""
    if any(f.q != q for f in pieces):
        raise ValueError("rank mismatch")
    den = math.lcm(*(f.den for f in pieces[:q]))
    omega = {m: c for i, f in enumerate(pieces[:q], 1) for m, c in _scaled(f, den ** i).items()}
    top_q = max(min(top, q), 0)
    keys = {0}  # the unions of disjoint keys, joined lowest bit last
    for low in sorted({m & -m for m in omega}, reverse=True):
        keys |= {b | k for b in omega if b & -b == low for k in keys
                 if not b & k and (b | k).bit_count() <= 2 * top_q}
    memo = _partition_sums(omega, keys)
    out = [{m: memo[m] for m in keys if m.bit_count() == 2 * j} for j in range(top_q + 1)]
    return ([_form(q, e, den ** j) for j, e in enumerate(out)]
            + [AltForm.zero(q) for _ in range(q + 1, top + 1)])


def evaluate_top(a: AltForm):
    """Value of the top-degree component on the basis (1, ..., 2q)."""
    return Fraction(a.ints.get((1 << (2 * a.q + 1)) - 2, 0), a.den)


def _packed(theta: AltForm, pieces: Sequence[AltForm]) -> tuple[dict[int, int], int, int]:
    """``(omega, w, D)`` for ``top_exp_poly(theta, pieces)``: D clears all
    denominators and ``omega = G + sum_(i >= 2) D^i f_i``, ``G = D (f_1 + t theta)``
    packed at ``t = X = 2^w``, is the input of its partition sums.

    Slot width.  Let ``|p|`` be the sum of the absolute coefficients of an
    integer polynomial, so ``|p p'| <= |p| |p'|``.  In a partition each index
    i is the lowest of its block B, giving ``|omega_B|``, a term of
    ``s_i = sum_(min B = i) |omega_B|``, or lies above it, giving 1, which
    needs a key that holds i above its lowest index (``u_i = 1``, else 0).  So
    every coefficient of ``D^q c`` is at most ``M = prod_i (s_i + u_i)`` in
    absolute value, and ``2^(w-1) > M`` puts each inside ``(-X/2, X/2)``.
    """
    q, n = theta.q, 2 * theta.q
    if any(f.q != q for f in pieces):
        raise ValueError("rank mismatch")
    den = math.lcm(theta.den, *(f.den for f in pieces[:q]))
    th = _scaled(theta, den)
    f1, *high = [_scaled(f, den ** i) for i, f in enumerate(pieces[:q], 1)] or [{}]
    pairs = f1.keys() | th.keys()
    omega = {m: c for f in high for m, c in f.items()}
    owner: dict[int, int] = {}  # s_i, by the bit of i
    above = 0  # the bits of the indices with u_i = 1
    for m, size in [*((m, abs(c)) for m, c in omega.items()),
                    *((m, abs(f1.get(m, 0)) + abs(th.get(m, 0))) for m in pairs)]:
        owner[m & -m] = owner.get(m & -m, 0) + size
        above |= m & (m - 1)
    w = math.prod(owner.get(1 << i, 0) + (above >> i & 1) for i in range(1, n + 1)).bit_length() + 1
    omega.update((m, f1.get(m, 0) + (th.get(m, 0) << w)) for m in pairs)
    return omega, w, den


def top_exp_poly(theta: AltForm, pieces: Sequence[AltForm]) -> list[Fraction]:
    """Coefficients ``c_0, ..., c_q`` of the top evaluation of
    ``exp(t theta + f_1 + f_2 + ...)`` as a polynomial in t, where ``theta``
    has degree 2 and ``f_i = pieces[i-1]`` has degree 2i.  ``_partition_sums`` at
    the full key on the ``omega`` of ``_packed`` is ``D^q c(X)``: its balanced
    base-X digits are the ``D^q c_k``."""
    omega, w, den = _packed(theta, pieces)
    q, full = theta.q, (1 << (2 * theta.q + 1)) - 2
    packed = _partition_sums(omega, [full])[full]
    coeffs, half = [], 1 << (w - 1)
    for _ in range(q + 1):
        c = ((packed + half) & (2 * half - 1)) - half
        coeffs.append(Fraction(c, den ** q))
        packed = (packed - c) >> w
    if packed:
        raise ArithmeticError("t-packed top evaluation left a remainder")
    return coeffs


def theta_form(q: int, h: Sequence[Sequence[Fraction | int]]) -> AltForm:
    """The degree-2 form ``sum_{i<j} h[i][j] lambda_i ^ lambda_j`` from an
    antisymmetric 2q x 2q pairing matrix.

    A wrong shape or a failed antisymmetry raises ``InputError`` naming the
    first bad row or cell in row-major order, the diagonal included."""
    n = 2 * q
    if len(h) != n:
        raise InputError("h", f"h must be 2q x 2q, expected {n} rows, got {len(h)}")
    for i, row in enumerate(h):
        if len(row) != n:
            raise InputError(f"h[{i}]", f"h must be 2q x 2q, expected {n} entries, got {len(row)}")
    terms = {}
    for i in range(n):
        for j in range(i, n):
            c = _as_fraction(h[i][j])
            if c != -_as_fraction(h[j][i]):
                raise InputError(f"h[{i}][{j}]",
                                 f"h must be antisymmetric, but h[{j}][{i}] = {h[j][i]}")
            if c:
                terms[(i + 1, j + 1)] = c
    return AltForm(q, terms)


def standard_symplectic_matrix(q: int) -> tuple[tuple[Fraction, ...], ...]:
    """Block-diagonal pairing with +1 on the (2i-1, 2i) positions."""
    n = 2 * q
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(q):
        rows[2 * i][2 * i + 1] = Fraction(1)
        rows[2 * i + 1][2 * i] = Fraction(-1)
    return tuple(tuple(row) for row in rows)


def standard_symplectic_form(q: int) -> AltForm:
    """``lambda_12 + lambda_34 + ...``; its q-th wedge power over q! is the
    top basis form."""
    return theta_form(q, standard_symplectic_matrix(q))


# ---------------------------------------------------------------------------
# the acyclic pipeline: pairing data, characteristic classes, the JSON reader

def _char_pieces(ch: Sequence[AltForm], sign: int) -> list[AltForm]:
    """The forms ``sign * (-1)^i ch_i / i``: their sum is the logarithm of the
    total Segre class (sign 1) or of the total Chern class (sign -1)."""
    for idx, form in enumerate(ch):
        if any(k != 2 * (idx + 1) for k in form.degrees()):
            raise ValueError("graded degree error")
    return [form * Fraction(sign * (-1) ** i, i) for i, form in enumerate(ch, 1)]


def _char_exp(ch: Sequence[AltForm], top_degree: int, sign: int) -> list[AltForm]:
    """Graded pieces of ``exp(sign * sum (-1)^i ch_i / i)`` up to ``top_degree``."""
    return exp_graded(ch[0].q if ch else 0, _char_pieces(ch, sign), top_degree)


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


class _Derived(Record):
    """Values worked out once: ``Record`` takes fields from the subclass's own ``__slots__``."""

    __slots__ = ("rank", "dimension", "_theta")


class AcyclicData(_Derived):
    """Pairing data describing an acyclic pair on an n-dimensional base.

    ``pairings[s]`` is the number ``<m^s C_(n-s), [X]>`` (``C_i`` the
    degree-2i pieces of ``ch(E_0) td(X)``), ``deg_E`` is
    ``<m [omega]^(n-1), [X]>``, ``h`` the antisymmetric pairing matrix behind
    the theta class, and ``kappa_forms[(i, s)]`` the degree-2i form
    ``x_1, ..., x_2i -> <x_1 ... x_2i m^s C_(n-i-s), [X]>``.  Records compare
    by value; holding a dict, they do not hash.

    ``rank``, the Fraction ``sum (-1)^s pairings[s]/s!`` (chi of the twisted sections
    bundle), ``dimension``, the int N = rank + q - 1 of the projective bundle, and the
    theta form of ``h`` are worked out once, when the record is built; they are not
    fields, and depend only on ``n``, ``q``, ``pairings`` and ``h``.  A bad ``pairings``
    or ``h`` raises ``InputError`` naming the field.
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
        # the rank, summed in integers over the common denominator D n! and divided once
        den = math.lcm(*(p.denominator for p in self.pairings))
        total, weight = 0, 1  # weight = n!/s!
        for s, p in zip(range(n, -1, -1), reversed(self.pairings)):
            total += (-1) ** s * p.numerator * (den // p.denominator) * weight
            weight *= s
        rank = Fraction(total, den * math.factorial(n))
        if rank.denominator != 1 or rank < 1:
            # spelled out only when short: a long one could pass the integer-text limit
            got = rank if _bits(rank) < 1000 else "a rational of over 300 digits"
            raise InputError("pairings",
                             f"rank sum(-1)^s P_s/s! must be a positive integer, got {got}")
        for (i, s), form in kappa_forms.items():
            if not (1 <= i <= q and 0 <= s <= n - i):
                raise ValueError(f"kappa index {(i, s)} out of range")
            if form.q != q:
                raise ValueError("rank mismatch in kappa form")
            if any(k != 2 * i for k in form.degrees()):
                raise ValueError("graded degree error")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "dimension", int(rank) + q - 1)
        object.__setattr__(self, "_theta", theta_form(q, self.h))


def ch_of_V(data: AcyclicData) -> list[AltForm]:
    """Chern character components ch_1, ..., ch_q of the sections bundle:
    ch_i = sum_{s=0}^{n-i} (-1)^(i+s)/s! kappa_(m^s C_(n-i-s))."""
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


def _kernel_input(data: AcyclicData) -> tuple[AltForm, list[AltForm]]:
    """``(theta, pieces)``: the input of ``top_exp_poly`` for ``data``, its stored theta
    form and the logarithm of its total Segre class."""
    return data._theta, _char_pieces(ch_of_V(data), 1)


def curve_acyclic_data(g: int, r0: int, deg_E0: int, m: int) -> AcyclicData:
    """Acyclic-pair data for a rank-r0 bundle of degree deg_E0 on a genus-g
    curve, with rank-1 kernels of degree m.

    Outside the acyclicity range ``deg_E0 > r0 m + 2 r0 (g - 1)`` the data
    still evaluates to the same polynomial, but the projective-bundle
    description is the caller's claim; a warning is issued.
    """
    g, r0, deg_E0, m = map(operator.index, (g, r0, deg_E0, m))
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


def _parse_kappa(value, q: int, n_dim: int) -> dict[tuple[int, int], AltForm]:
    """One degree-2i form per (i, s) with 1 <= i <= q and 0 <= s <= n_dim - i."""
    if not isinstance(value, list):
        raise InputError("kappa", "expected a list of {i, s, terms} objects")
    out: dict[tuple[int, int], AltForm] = {}
    for idx, entry in enumerate(value):
        if not isinstance(entry, dict):
            raise InputError(f"kappa[{idx}]", "expected an object")
        i = _require_int(entry.get("i"), f"kappa[{idx}].i")
        s = _require_int(entry.get("s"), f"kappa[{idx}].s")
        if not (1 <= i <= q and 0 <= s <= n_dim - i):
            raise InputError(f"kappa[{idx}]", f"(i, s) = ({i}, {s}) out of range")
        if (i, s) in out:
            raise InputError(f"kappa[{idx}]", f"duplicate form (i={i}, s={s})")
        terms = entry.get("terms")
        if not isinstance(terms, list):
            raise InputError(f"kappa[{idx}].terms", "expected a list")
        form_terms = {}
        for ti, term in enumerate(terms):
            if not isinstance(term, dict):
                raise InputError(f"kappa[{idx}].terms[{ti}]", "expected an object")
            indices = _require_int_list(term.get("indices"), f"kappa[{idx}].terms[{ti}].indices")
            if len(indices) != 2 * i:
                raise InputError(f"kappa[{idx}].terms[{ti}].indices", f"expected {2 * i} indices")
            if indices in form_terms:
                raise InputError(f"kappa[{idx}].terms[{ti}].indices",
                                 f"duplicate indices {list(indices)}")
            coeff = parse_fraction(term.get("coeff"), f"kappa[{idx}].terms[{ti}].coeff")
            form_terms[indices] = coeff
        try:
            out[(i, s)] = AltForm(q, form_terms)
        except ValueError as exc:
            raise InputError(f"kappa[{idx}]", str(exc)) from None
    # i > n_dim has no s; the first missing key raises, so at most
    # len(out) + 1 keys are visited whatever the sizes of q and n_dim
    for i in range(1, min(q, n_dim) + 1):
        for s in range(n_dim - i + 1):
            if (i, s) not in out:
                raise InputError("kappa", f"missing form (i={i}, s={s})")
    return out


def _parse_acyclic(doc: dict, n_dim: int, q: int, physical: bool) -> tuple[AcyclicData, float]:
    """``(data, work)``: JSON types only, as ``AcyclicData`` checks the length and rank of
    ``pairings`` and the shape and antisymmetry of ``h``.  ``work`` prices the whole job: the
    rank and a ``physical`` t's printed (n_dim - 1)!, refused at ``pairings`` before the record
    is built; then its partition sums, refused at ``q``; then the rank-1 sum to N = rank + q - 1."""
    deg_E = parse_fraction(doc["deg_E"], "deg_E")
    pairings = doc.get("pairings")
    if not isinstance(pairings, list):
        raise InputError("pairings", "expected a list of rationals (s = 0..n_dim)")
    pairings = tuple(parse_fraction(x, f"pairings[{i}]") for i, x in enumerate(pairings))
    h = doc.get("h")
    if not isinstance(h, list) or not all(isinstance(row, list) for row in h):
        raise InputError("h", "expected a 2q x 2q matrix (a list of rows)")
    h = tuple(
        tuple(parse_fraction(x, f"h[{i}][{j}]") for j, x in enumerate(row))
        for i, row in enumerate(h)
    )
    kappa = _parse_kappa(doc.get("kappa", []), q, n_dim)
    # the rank, worked out once: for s = n..0 a product by s and, at a nonzero pairing, one
    # by n!/s!, of (n lg n)/2 bits on average; then a gcd at n lg n bits
    n, bits = len(pairings), max(map(_bits, pairings), default=0)
    b = n * n.bit_length()
    work = (n + sum(map(bool, pairings))) * _product_price(bits, b // 2) + _fraction_price(b)
    if physical:  # (n_dim - 1)! = (n - 2)!, of lg((n - 2)!) bits
        work += _print_price(int(math.lgamma(max(n - 1, 1)) / math.log(2)))
    _within_budget(work, "pairings")
    data = AcyclicData(n=n_dim, q=q, deg_E=deg_E, pairings=pairings, h=h, kappa_forms=kappa)
    partitions, c_bits = _partition_work(data)
    _within_budget(partitions, "q")
    work = partitions + (work + _shifted_sum_work(data.deg_E, data.dimension, q + 1, c_bits))
    _within_budget(work, "pairings")
    return data, work
