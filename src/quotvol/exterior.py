"""Exterior algebra over a rank-2q lattice.

A form is stored sparsely as a map from strictly increasing index tuples
``I`` inside ``{1, ..., 2q}`` to ``Fraction`` coefficients.  Mixed-degree
forms are allowed; ``degrees`` lists the degrees present.
Evaluation against the standard basis is the coefficient of the full tuple
``(1, ..., 2q)``, so all pairing data must be expressed in a basis compatible
with the complex orientation.

Products work on integers and bitmasks.  Inside a call each key ``I`` becomes
the mask with bit ``i`` set for ``i`` in ``I``, so two keys are disjoint when
their masks are, and the shuffle sign of ``I`` followed by ``J`` is the parity
of ``(p_I & mask_J)``, where ``p_I`` is the XOR of ``(1 << i) - 1`` over
``i`` in ``I`` (bit ``j`` of ``p_I`` is the parity of the entries of ``I``
above ``j``).  Each operand's denominators are cleared once, integer
numerators are accumulated, and one ``Fraction`` is built per output key.
``exp_graded`` builds exponentials degree by degree and ``top_pairing``
evaluates a top-degree product without forming it.
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
    "top_pairing",
    "theta_form",
    "standard_symplectic_matrix",
    "standard_symplectic_form",
]


def _mask_parity(key: tuple[int, ...]) -> tuple[int, int]:
    """The bitmask of ``key`` and its shuffle-parity mask ``p_I``."""
    mask = parity = 0
    for i in key:
        mask |= 1 << i
        parity ^= (1 << i) - 1
    return mask, parity


def _key(mask: int, n: int) -> tuple[int, ...]:
    return tuple(i for i in range(1, n + 1) if mask >> i & 1)


def _common_denominator(form: AltForm) -> int:
    return math.lcm(*(v.denominator for v in form.terms.values()))


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
        da, db = _common_denominator(self), _common_denominator(other)
        right = [(_mask_parity(key)[0], v.numerator * (db // v.denominator))
                 for key, v in other.terms.items()]
        acc: dict[int, int] = {}
        for key, v in self.terms.items():
            ma, pa = _mask_parity(key)
            a = v.numerator * (da // v.denominator)
            for mb, b in right:
                if ma & mb:
                    continue
                m = ma | mb
                acc[m] = acc.get(m, 0) + (-a * b if (pa & mb).bit_count() & 1 else a * b)
        n, den = 2 * self.q, da * db
        result = AltForm(self.q)
        result.terms = {_key(m, n): Fraction(c, den) for m, c in acc.items() if c}
        return result

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
    Pieces above degree 2q vanish.
    """
    out = [AltForm.one(q)]
    for j in range(1, min(top, q) + 1):
        e = AltForm.zero(q)
        for i, f in enumerate(pieces[:j], 1):
            if f and out[j - i]:
                term = f.wedge(out[j - i]) * Fraction(i, j)
                e = e + term if e else term
        out.append(e)
    return out + [AltForm.zero(q) for _ in range(q + 1, top + 1)]


def evaluate_top(a: AltForm):
    """Value of the top-degree component on the basis (1, ..., 2q)."""
    return a.terms.get(tuple(range(1, 2 * a.q + 1)), Fraction(0))


def top_pairing(a: AltForm, b: AltForm) -> Fraction:
    """``evaluate_top(a.wedge(b))`` without forming the wedge: each key of
    ``a`` meets only its complement in ``b``."""
    if a.q != b.q:
        raise ValueError("rank mismatch")
    n = 2 * a.q
    full = (1 << (n + 1)) - 2
    total = Fraction(0)
    for key, va in a.terms.items():
        ma, pa = _mask_parity(key)
        rest = full ^ ma
        vb = b.terms.get(_key(rest, n))
        if vb is not None:
            total += -va * vb if (pa & rest).bit_count() & 1 else va * vb
    return total


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
