"""Exterior algebra over a rank-2q lattice.

A form is stored sparsely as a map from strictly increasing index tuples
``I`` inside ``{1, ..., 2q}`` to ``Fraction`` coefficients.  Mixed-degree
forms are allowed; ``degrees`` lists the degrees present.
Evaluation against the standard basis is the coefficient of the full tuple
``(1, ..., 2q)``, so all pairing data must be expressed in a basis compatible
with the complex orientation.

All products run on one integer core.  A form becomes integer numerators
over a common denominator, keyed by the mask with bit ``i`` set for ``i`` in
``I``: two keys are disjoint when their masks are, and the shuffle sign of
``I`` followed by ``J`` is the parity of ``(p_I & mask_J)``, where ``p_I`` is
the XOR of ``(1 << i) - 1`` over ``i`` in ``I``.  ``_wedge_into`` is the one
wedge loop and ``_top_int`` the top-degree pairing (each key meets only its
complement); one ``Fraction`` is built per output coefficient.
``top_exp_poly`` runs a polynomial in t through the same core by Kronecker
substitution: ``sum_k c_k t^k`` is the integer ``sum_k c_k 2^(wk)``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .scalars import InputError, _as_fraction

__all__ = [
    "AltForm",
    "exp_graded",
    "evaluate_top",
    "top_exp_poly",
    "theta_form",
    "standard_symplectic_matrix",
    "standard_symplectic_form",
]


def _parity(mask: int) -> int:
    """The shuffle-parity mask ``p_I`` of the key with bitmask ``mask``."""
    parity = 0
    while mask:
        low = mask & -mask
        parity ^= low - 1
        mask ^= low
    return parity


def _key(mask: int, n: int) -> tuple[int, ...]:
    return tuple(i for i in range(1, n + 1) if mask >> i & 1)


def _den(forms: Iterable[AltForm]) -> int:
    """The least common denominator of the coefficients of ``forms``."""
    return math.lcm(*(v.denominator for form in forms for v in form.terms.values()))


def _ints(form: AltForm, den: int = 0) -> tuple[dict[int, int], int]:
    """``form`` times ``den`` (by default its least common denominator) as
    integers on bitmasks, and ``den``."""
    den = den or _den([form])
    return {sum(1 << i for i in key): v.numerator * (den // v.denominator)
            for key, v in form.terms.items()}, den


def _form(q: int, ints: Mapping[int, int], den: int) -> AltForm:
    """The form with coefficient ``ints[mask] / den`` on each key."""
    result = AltForm(q)
    result.terms = {_key(m, 2 * q): Fraction(c, den) for m, c in ints.items() if c}
    return result


def _wedge_into(acc: dict[int, int], a: Mapping[int, int], b: Mapping[int, int]) -> dict[int, int]:
    """Add the wedge of the integer forms ``a`` and ``b`` into ``acc``."""
    right = list(b.items())
    for ma, x in a.items():
        pa = _parity(ma)
        for mb, y in right:
            if not ma & mb:
                m = ma | mb
                acc[m] = acc.get(m, 0) + (-x * y if (pa & mb).bit_count() & 1 else x * y)
    return acc


def _top_int(a: Mapping[int, int], b: Mapping[int, int], n: int) -> int:
    """Top coefficient of the wedge of the integer forms ``a`` and ``b`` on a
    rank-n lattice: each key of ``a`` meets only its complement in ``b``."""
    full = (1 << (n + 1)) - 2
    total = 0
    for ma, x in a.items():
        y = b.get(full ^ ma)
        if y:
            total += -x * y if (_parity(ma) & (full ^ ma)).bit_count() & 1 else x * y
    return total


def _exp_int(pieces: Sequence[Mapping[int, int]], top: int, n: int) -> list[dict[int, int]]:
    """``T_m = sum_i i (m-1)!/(m-i)! F_i ^ T_(m-i)``, ``T_0 = 1``: if
    ``F_i = D^i f_i``, ``T_m = m! D^m e_m`` with e as in ``exp_graded``.  A
    piece of degree n is read by complement lookup."""
    full = (1 << (n + 1)) - 2
    out = [{0: 1}]
    for m in range(1, top + 1):
        acc: dict[int, int] = {}
        for i, f in enumerate(pieces[:m], 1):
            if f and out[m - i]:
                c = i * math.perm(m - 1, i - 1)
                if 2 * m == n:
                    acc[full] = acc.get(full, 0) + c * _top_int(f, out[m - i], n)
                else:
                    _wedge_into(acc, {k: c * v for k, v in f.items()} if c > 1 else f, out[m - i])
        out.append({k: v for k, v in acc.items() if v})
    return out


class AltForm:
    """Alternating multilinear form on a lattice of rank 2q.

    The coefficient on the key ``I = (i_1 < ... < i_k)`` is the value of the
    form on the basis vectors indexed by ``I``.
    """

    __slots__ = ("q", "terms")

    def __init__(self, q: int, terms: Mapping[tuple[int, ...], Fraction | int] | None = None):
        if q < 0:
            raise ValueError("q must be non-negative")
        self.q = q
        out: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for key, val in terms.items():
                key = tuple(key)
                if any(not (1 <= i <= 2 * q) for i in key):
                    raise ValueError(f"index out of range in {key!r}")
                if any(key[i] >= key[i + 1] for i in range(len(key) - 1)):
                    raise ValueError(f"indices must be strictly increasing: {key!r}")
                val = _as_fraction(val)
                if val:
                    out[key] = val
        self.terms = out

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
        return {len(k) for k in self.terms}

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other):
        if not isinstance(other, AltForm):
            return NotImplemented
        if self.q != other.q:
            raise ValueError("rank mismatch")
        out = dict(self.terms)
        for key, val in other.terms.items():
            s = out.get(key, Fraction(0)) + val
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        result = AltForm(self.q)
        result.terms = out
        return result

    def __neg__(self) -> AltForm:
        result = AltForm(self.q)
        result.terms = {k: -v for k, v in self.terms.items()}
        return result

    def __mul__(self, scalar):
        if isinstance(scalar, int):
            scalar = Fraction(scalar)
        if not isinstance(scalar, Fraction):
            return NotImplemented
        if not scalar:
            return AltForm(self.q)
        result = AltForm(self.q)
        result.terms = {k: v * scalar for k, v in self.terms.items()}
        return result

    __rmul__ = __mul__

    def wedge(self, other: AltForm) -> AltForm:
        """Exterior product with shuffle signs; zero above degree 2q."""
        if not isinstance(other, AltForm):
            raise TypeError("wedge expects an AltForm")
        if self.q != other.q:
            raise ValueError("rank mismatch")
        (a, da), (b, db) = _ints(self), _ints(other)
        return _form(self.q, _wedge_into({}, a, b), da * db)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AltForm):
            return NotImplemented
        return self.q == other.q and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return f"AltForm(q={self.q}, 0)"
        parts = [f"{key}: {val}" for key, val in sorted(self.terms.items())]
        return f"AltForm(q={self.q}, {{" + ", ".join(parts) + "})"


def exp_graded(q: int, pieces: Sequence[AltForm], top: int) -> list[AltForm]:
    """Graded pieces ``e_0, ..., e_top`` of ``exp(f_1 + f_2 + ...)``, where
    ``f_i = pieces[i-1]`` is a form of degree 2i.

    Even forms commute, so differentiating ``exp(s F)`` in ``s`` gives
    ``j e_j = sum_i i f_i ^ e_(j-i)``: only homogeneous pieces are wedged.
    The recurrence runs on integers (``_exp_int``) and ``e_j`` is divided
    out once.  Pieces above degree 2q vanish.
    """
    if any(f.q != q for f in pieces):
        raise ValueError("rank mismatch")
    den = _den(pieces[:q])
    out = _exp_int([_ints(f, den ** i)[0] for i, f in enumerate(pieces[:q], 1)], min(top, q), 2 * q)
    return ([_form(q, e, math.factorial(j) * den ** j) for j, e in enumerate(out)]
            + [AltForm.zero(q) for _ in range(q + 1, top + 1)])


def evaluate_top(a: AltForm):
    """Value of the top-degree component on the basis (1, ..., 2q)."""
    return a.terms.get(tuple(range(1, 2 * a.q + 1)), Fraction(0))


def top_exp_poly(theta: AltForm, pieces: Sequence[AltForm]) -> list[Fraction]:
    """Coefficients ``c_0, ..., c_q`` of the top evaluation of
    ``exp(t theta + f_1 + f_2 + ...)`` as a polynomial in t, where ``theta``
    has degree 2 and ``f_i = pieces[i-1]`` has degree 2i.

    Even forms commute, so this is the top of ``E ^ T`` with
    ``E = exp(t theta + f_1)``, ``T = exp(f_2 + f_3 + ...)``.  With D
    clearing all denominators, ``T_m`` (m! D^m times the degree-2m piece of
    T) runs on plain integers, and ``E_j = G^j`` (j! D^j times that of E) on
    ``G = D (f_1 + t theta)`` packed at ``t = X = 2^w``; then
    ``q! D^q c(t) = Z(t) = sum_j C(q, j) top(E_j ^ T_(q-j))``.  Only the
    ``E_j`` with ``T_(q-j) != 0`` are formed (``T_1 = 0``), and ``top(E_q)``
    is read as ``top(E_a ^ E_(q-a))``, ``a = q // 2``.

    Slot width.  For integer polynomials let ``|p|`` be the sum of the
    absolute coefficients, so ``|p p'| <= |p| |p'|``.  ``E_j`` on a key of
    degree 2j is a signed sum over its ``(2j)!/2^j`` splittings into an
    ordered sequence of j pairs, of products of j values of G; so with A the
    largest ``|G(pair)|``, every coefficient of Z is at most
    ``B = sum_j C(q, j) (2j)!/2^j A^j ||T_(q-j)||`` in absolute value
    (``||T||`` the sum of the absolute entries).  ``2^(w-1) > B`` puts each
    strictly between ``-X/2`` and ``X/2``, so the balanced base-X digits of
    ``Z(X)`` are the coefficients of Z and no remainder is left.
    """
    q, n = theta.q, 2 * theta.q
    if any(f.q != q for f in pieces):
        raise ValueError("rank mismatch")
    den = _den([theta, *pieces[:q]])
    th = _ints(theta, den)[0]
    f1, *high = [_ints(f, den ** i)[0] for i, f in enumerate(pieces[:q], 1)] or [{}]
    T = _exp_int([{}, *high], q, n)
    big_a = max((abs(f1.get(m, 0)) + abs(th.get(m, 0)) for m in f1.keys() | th.keys()), default=0)
    bound = sum(math.comb(q, j) * (math.factorial(2 * j) >> j) * big_a ** j
                * sum(map(abs, T[q - j].values())) for j in range(q + 1))
    w = bound.bit_length() + 1
    G = {m: f1.get(m, 0) + (th.get(m, 0) << w) for m in f1.keys() | th.keys()}
    a = q // 2
    E = _exp_int([G], max([q - a, *(j for j in range(q) if T[q - j])]), n)
    packed = _top_int(E[a], E[q - a], n) + sum(
        math.comb(q, j) * _top_int(E[j], T[q - j], n) for j in range(q) if T[q - j])
    coeffs, half = [], 1 << (w - 1)
    for _ in range(q + 1):
        c = ((packed + half) & (2 * half - 1)) - half
        coeffs.append(Fraction(c, math.factorial(q) * den ** q))
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
            c = Fraction(h[i][j])
            if c != -Fraction(h[j][i]):
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
