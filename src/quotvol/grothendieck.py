"""Degrees of Quot spaces under their Grothendieck embeddings.

Twisting by ``n`` points embeds the Quot space into the projectivized
exterior power of the space of twisted sections; the hyperplane class of
that embedding is the normalized Kaehler class at the stability value
``ttilde = n - (g - 1)``.  The degree of the image is therefore
``(rd)!`` times the normalized volume polynomial evaluated there, and must
come out a non-negative integer whenever the twist is large enough for the
embedding to exist.
"""

from __future__ import annotations

import math
import operator
import warnings
from fractions import Fraction

from . import _EXPORTS
from .localization import quot_volume
from .scalars import QuotProblem, Record, TPoly

__all__ = list(_EXPORTS["grothendieck"])


class EmbeddingParams(Record):
    """Numerical data of the twist-n embedding: ``s`` is the dimension of the
    section spaces cut out by subsheaves, ``ambient`` the dimension of the
    target projective space (-1 when the exterior power collapses)."""

    __slots__ = ("n", "s", "ambient")

    def __init__(self, n: int, s: int, ambient: int):
        super().__init__(operator.index(n), operator.index(s), operator.index(ambient))


def embedding_params(p: QuotProblem, n: int) -> EmbeddingParams:
    """s = deg(E) + r (n - g + 1) with deg(E) = l - d; the ambient space is
    P(Lambda^s V) for V the twisted sections of the big bundle."""
    n = operator.index(n)
    s = (p.l_total - p.d) + p.r * (n - p.g + 1)
    if s <= 0:
        warnings.warn(
            f"twist n={n} gives plane dimension s={s} <= 0; the embedding is undefined here",
            stacklevel=2,
        )
    dim_v = p.l_total + p.r * (n - p.g + 1)
    ambient = math.comb(dim_v, s) - 1 if 0 <= s <= dim_v else -1
    return EmbeddingParams(n=n, s=s, ambient=ambient)


def grothendieck_degree(p: QuotProblem, n: int, volume: TPoly | None = None) -> int:
    """(rd)! times the normalized volume at ttilde = n - g + 1.

    ``volume`` is the volume of ``p`` when the caller already has it (the CLI
    passes ``closed_volume(p)``); ``quot_volume(p)`` is computed otherwise.

    The value is computed for any twist; below the ``n >= g + d`` heuristic
    the embedding is not guaranteed and the result is only the formula value
    (a warning is issued).  A non-integer result means the inputs are
    inconsistent or the pipeline is broken, so it raises.
    """
    n = operator.index(n)
    if n < p.g + p.d:
        warnings.warn(
            f"twist n={n} below the embedding heuristic g + d = {p.g + p.d}; "
            "returning the formula value",
            stacklevel=2,
        )
    if volume is None:
        volume = quot_volume(p)
    value = math.factorial(p.r * p.d) * volume(Fraction(n - p.g + 1))
    if value.denominator != 1:
        raise ArithmeticError(f"degree integrality violated: got {value}")
    return int(value)
