"""Every input check runs before any computation and names the field."""

import json
import sys

import pytest

from clirun import run_main
from quotvol.cli import InputError, parse_jobspec

QV = {"command": "quot-volume", "g": 1, "r": 2, "l": [0, 0], "d": 1}
VERIFY = {**QV, "command": "verify"}


@pytest.mark.parametrize(
    "doc, field_name",
    [
        ({**QV, "weights": [[0, 1], [1, 2]]}, "weights"),
        ({**QV, "weights": []}, "weights"),
        ({**QV, "weights": [[0, 1, 2]]}, "weights[0]"),
        ({**VERIFY, "weights": [[0, 1]]}, "weights"),
        ({**VERIFY, "weights": [[0, 1], [1, 2, 3]]}, "weights[1]"),
        # only quot-volume and verify run the torus-weighted engine
        ({**QV, "command": "grothendieck-degree", "n": 4, "weights": [[5, 7, 9]]}, "weights"),
        ({**QV, "command": "sweep", "weights": [[0, 1]]}, "weights"),
    ],
)
def test_weight_vectors_are_checked_by_parse_jobspec(doc, field_name):
    with pytest.raises(InputError) as info:
        parse_jobspec(doc)
    assert info.value.field_name == field_name


@pytest.mark.parametrize("t", ["x", [], 0, False, ""])
def test_ttilde_flag_over_a_t_that_is_not_an_object(t):
    code, _, err = run_main(["quot-volume", "--ttilde", "1/2"], json.dumps({**QV, "t": t}))
    assert code == 2
    assert err.startswith("input error at 't'")


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="no int-string digit limit (Python < 3.11, or turned off)")
def test_integer_past_the_digit_limit_is_an_input_error():
    text = json.dumps(QV)[:-1] + ', "note": ' + "9" * (sys.get_int_max_str_digits() + 1) + "}"
    code, _, err = run_main(["quot-volume"], text)
    assert code == 2
    assert err.startswith("input error at '$'")


def test_nesting_past_the_recursion_limit_is_an_input_error():
    depth = sys.getrecursionlimit() + 10
    code, _, err = run_main(["quot-volume"], "[" * depth + "]" * depth)
    assert code == 2
    assert err.startswith("input error at '$'")
