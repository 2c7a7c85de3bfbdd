"""Library guards that no other test reaches: each call raises its error."""

import pytest

from quotvol import exterior
from quotvol.abelian import poincare_number
from quotvol.exterior import (AltForm, curve_acyclic_data, exp_graded, standard_symplectic_form,
                              top_exp_poly)
from quotvol.localization import compositions
from quotvol.scalars import TPoly, falling_factorial, general_binomial


def top_exp_poly_in_one_bit_slots(monkeypatch):
    """``top_exp_poly`` of the symplectic form on q = 1 when ``_packed`` reports a
    slot width of one bit, too narrow for the coefficients it packed."""
    packed = exterior._packed

    def narrow(theta, pieces):
        omega, _, den = packed(theta, pieces)
        return omega, 1, den

    monkeypatch.setattr(exterior, "_packed", narrow)
    top_exp_poly(standard_symplectic_form(1), [])


GUARDS = {
    "AltForm-negative-q": (lambda mp: AltForm(-1), ValueError, "q must be non-negative"),
    "wedge-not-a-form": (lambda mp: AltForm.one(1).wedge(1), TypeError, "expects an AltForm"),
    "exp_graded-rank-mismatch": (lambda mp: exp_graded(1, [AltForm.zero(2)], 1), ValueError,
                                 "rank mismatch"),
    "curve_acyclic_data-r0-zero": (lambda mp: curve_acyclic_data(1, 0, 5, 0), ValueError,
                                   "r0 must be positive"),
    "falling_factorial-negative-g": (lambda mp: falling_factorial(-1, 2), ValueError,
                                     "non-negative"),
    "falling_factorial-negative-k": (lambda mp: falling_factorial(2, -1), ValueError,
                                     "non-negative"),
    "general_binomial-negative-k": (lambda mp: general_binomial(3, -1), ValueError,
                                    "non-negative"),
    "poincare_number-negative": (lambda mp: poincare_number(1, -1, 0), ValueError,
                                 "non-negative"),
    "compositions-negative-d": (lambda mp: compositions(-1, 2), ValueError, "d >= 0"),
    "compositions-zero-r": (lambda mp: compositions(1, 0), ValueError, "r >= 1"),
    "TPoly-negative-power": (lambda mp: TPoly([1, 1]) ** -1, ValueError, "non-negative"),
    "top_exp_poly-remainder": (top_exp_poly_in_one_bit_slots, ArithmeticError,
                               "left a remainder"),
}


@pytest.mark.parametrize("call, error, message", GUARDS.values(), ids=GUARDS)
def test_guard_raises(monkeypatch, call, error, message):
    with pytest.raises(error, match=message):
        call(monkeypatch)
