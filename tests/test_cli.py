import gc
import itertools
import json
import math
import random
import re
import subprocess
import sys
import time
import warnings
from fractions import Fraction

from clirun import ACYCLIC, child_env, run_main, run_python
from quotvol import cli, localization
from quotvol.abelian import AcyclicData, CurveQuotProblem
from quotvol.cli import parse_fraction, parse_jobspec, render_latex, render_plain, run_job
from quotvol.exterior import AltForm, curve_acyclic_data
from quotvol.localization import QuotProblem
from quotvol.scalars import TPoly

import pytest


# the same form given twice, and one index set given twice in a form
TWO_KAPPA_FORMS = [*ACYCLIC["kappa"],
                   {"i": 1, "s": 0, "terms": [{"indices": [1, 2], "coeff": "5/1"}]}]
REPEATED_INDICES = [{"i": 1, "s": 0, "terms": [{"indices": [1, 2], "coeff": "1/1"},
                                               {"indices": [1, 2], "coeff": "5/1"}]}]

# the CLI as a process: ``python -m quotvol.cli``
CLI = ("-m", "quotvol.cli")
# a plain quot-volume job by flags alone: volume = ttilde + 2
FLAGS = ["--g", "2", "--r", "2", "--l", "1,1", "--d", "1", "--format", "plain"]


def test_quot_volume_plain():
    doc = {"command": "quot-volume", "g": 2, "r": 2, "l": [1, 1], "d": 1, "format": "plain"}
    code, out, err = run_python(*CLI, "quot-volume", stdin=json.dumps(doc))
    assert code == 0
    assert out.strip() == "volume = \U0001d531 + 2"


def test_grothendieck_degree_json():
    doc = {"command": "grothendieck-degree", "g": 0, "r": 2, "l": [0, 0], "d": 1, "n": 4}
    code, out, err = run_python(*CLI, "grothendieck-degree", stdin=json.dumps(doc))
    assert code == 0
    out = json.loads(out)
    assert out["schema"] == 1
    assert out["degree"] == 8
    assert out["volume"]["variable"] == "ttilde"


def test_verify_suite():
    doc = {"command": "verify", "suite": "weight-independence", "r": 2, "d": 2, "g": 1, "l": [2, 0]}
    code, out, err = run_python(*CLI, "verify", stdin=json.dumps(doc))
    assert code == 0
    out = json.loads(out)
    assert out["verify"]["pass"] is True
    assert out["verify"]["candidates"] == 3


def test_flag_overrides_without_stdin():
    code, out, err = run_python(*CLI, "quot-volume", *FLAGS)
    assert code == 0
    assert out.strip() == "volume = \U0001d531 + 2"


def test_abelian_volume():
    code, out, err = run_python(*CLI, "abelian-volume", "--g", "1", "--l", "1", "--d", "1")
    assert code == 0
    out = json.loads(out)
    # deg_E = l - d = 0, so v = ttilde + 1
    assert out["volume"]["coefficients"] == ["1/1", "1/1"]
    assert out["unnormalized"]["expression"] == "(4*pi^2)^1 * volume"


def test_abelian_volume_with_pi_probe():
    doc = {
        "command": "abelian-volume", "g": 0, "l": [0], "d": 2,
        "t": {"mode": "physical-t", "value": "1/2", "vol_X": "100/1", "pi_probe": "3/1"},
    }
    code, out, err = run_python(*CLI, "abelian-volume", stdin=json.dumps(doc))
    assert code == 0
    out = json.loads(out)
    t = out["t"]
    assert t["exact"] is False
    # ttilde = t vol/(2 pi) = 25/3; v = (ttilde - 2)^2/2
    assert Fraction(t["ttilde_at_probe"]) == Fraction(25, 3)
    v = (Fraction(25, 3) - 2) ** 2 / 2
    assert Fraction(t["value_at_probe"]) == v
    assert Fraction(t["unnormalized_at_probe"]) == (4 * Fraction(9)) ** 2 * v
    assert Fraction(out["unnormalized"]["factor_at_pi_probe"]) == 36 ** 2


def test_probe_report_evaluates_the_volume_once(monkeypatch):
    """``value_at_probe`` and ``unnormalized_at_probe`` share one evaluation,
    which is most of the report's time at a long probe."""
    calls = []
    call = TPoly.__call__

    def counting(self, value):
        calls.append(value)
        return call(self, value)

    monkeypatch.setattr(TPoly, "__call__", counting)
    doc = {"command": "quot-volume", "g": 2, "r": 2, "l": [0, 1], "d": 3,
           "t": {"mode": "physical-t", "value": "1/2", "vol_X": "10/1", "pi_probe": "22/7"}}
    t = run_job(parse_jobspec(doc))["t"]
    assert calls == [Fraction(t["ttilde_at_probe"])]
    assert Fraction(t["unnormalized_at_probe"]) == (
        (4 * Fraction(22, 7) ** 2) ** 6 * Fraction(t["value_at_probe"]))


def test_ttilde_value_flag():
    code, out, err = run_python(*CLI, "quot-volume", "--g", "2", "--r", "2", "--l", "1,1",
                                "--d", "1", "--ttilde", "3/2")
    assert code == 0
    out = json.loads(out)
    assert out["t"]["value"] == "7/2"  # (3/2) + 2


def test_negative_flag_values_as_their_own_argument():
    base = ["quot-volume", "--g", "2", "--r", "2", "--d", "1"]
    apart = run_python(*CLI, *base, "--l", "-1,3", "--ttilde", "-3/2")
    joined = run_python(*CLI, *base, "--l=-1,3", "--ttilde=-3/2")
    assert apart[0] == joined[0] == 0, apart[2]
    assert apart[1] == joined[1]
    assert json.loads(apart[1])["t"]["value"] == "1/2"  # (-3/2) + 2
    assert run_python(*CLI, *base, "--l", "0,0", "--ttilde", "--format")[0] == 2


def test_acyclic_volume_json():
    code, out, err = run_python(*CLI, "acyclic-volume",
                                stdin=json.dumps({"schema": 1, **ACYCLIC}))
    assert code == 0
    out = json.loads(out)
    # genus 1, d = 1, deg_E = -1: volume = ttilde
    assert out["volume"]["coefficients"] == ["0/1", "1/1"]


def test_acyclic_physical_t_uses_base_dimension_factorial():
    # base dimension 3: ttilde = 2! t vol_X / (2 pi)
    doc = {
        "command": "acyclic-volume", "n_dim": 3, "q": 0, "deg_E": "1/1",
        "pairings": ["4/1", "0/1", "0/1", "6/1"], "h": [],
        "t": {"mode": "physical-t", "value": "1/2", "vol_X": "10/1", "pi_probe": "5/1"},
    }
    code, out, err = run_python(*CLI, "acyclic-volume", stdin=json.dumps(doc))
    assert code == 0
    out = json.loads(out)
    # R = 4 - 6/6 = 3, N = 2, volume = (1 + ttilde)^2/2
    assert out["volume"]["coefficients"] == ["1/2", "1/1", "1/2"]
    t = out["t"]
    assert t["substitution"] == "ttilde = 2*t*vol_X/(2*pi)"
    assert Fraction(t["ttilde_at_probe"]) == 1
    assert Fraction(t["value_at_probe"]) == 2


def test_sweep_rows_and_empty_range():
    doc = {"command": "sweep", "r": 2, "g": 1, "l": [0, 0], "d_values": [0, 1, 2]}
    code, out, err = run_python(*CLI, "sweep", stdin=json.dumps(doc))
    assert code == 0
    out = json.loads(out)
    assert len(out["rows"]) == 3
    assert out["rows"][0]["volume"]["coefficients"] == ["1/1"]

    doc = {"command": "sweep", "r": 2, "g": 1, "l": [0, 0], "d_values": []}
    code, out, err = run_python(*CLI, "sweep", stdin=json.dumps(doc))
    assert code == 0
    assert json.loads(out)["rows"] == []


def test_sweep_partitions_agree():
    doc = {
        "command": "sweep", "r": 2, "g": 1, "d": 2,
        "l_partitions": [[4, 0], [3, 1], [2, 2]],
    }
    code, out, err = run_python(*CLI, "sweep", stdin=json.dumps(doc))
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 3
    assert len({tuple(r["volume"]["coefficients"]) for r in rows}) == 1


def test_exit_code_on_input_error():
    code, out, err = run_python(*CLI, "quot-volume", stdin=json.dumps({"g": 1}))
    assert code == 2
    assert "input error" in err

    code, out, err = run_python(*CLI, "quot-volume", stdin="this is not json")
    assert code == 2

    code, out, err = run_python(*CLI, "quot-volume", "--g", "x")
    assert code == 2
    assert err.startswith("input error at 'g'")

    doc = {"command": "quot-volume", "schema": 99, "g": 0, "r": 1, "l": [0], "d": 0}
    code, out, err = run_python(*CLI, "quot-volume", stdin=json.dumps(doc))
    assert code == 2
    assert "schema" in err


def test_exit_code_on_computation_error(monkeypatch):
    # input validation catches every bad acyclic document, so fail the algebra
    # layer directly to pin the exit code of a computation error
    def failing(data):
        raise ArithmeticError("integrality violated")

    monkeypatch.setattr("quotvol.abelian.acyclic_volume", failing)
    doc = {"n_dim": 1, "q": 0, "deg_E": "0/1", "pairings": ["1/1", "0/1"], "h": []}
    code, _, err = run_main(["acyclic-volume"], json.dumps(doc))
    assert code == 3
    assert "computation error" in err


def test_stdout_deterministic_and_round_trips():
    doc = {"command": "quot-volume", "g": 1, "r": 2, "l": [2, 0], "d": 2}
    first = run_python(*CLI, "quot-volume", stdin=json.dumps(doc))
    second = run_python(*CLI, "quot-volume", stdin=json.dumps(doc))
    assert first[0] == second[0] == 0
    assert first[1] == second[1]
    reparsed = json.dumps(json.loads(first[1]), indent=2)
    assert reparsed == first[1].strip()


def test_latex_format():
    doc = {"command": "quot-volume", "g": 0, "r": 2, "l": [1, 0], "d": 1, "format": "latex"}
    code, out, err = run_python(*CLI, "quot-volume", stdin=json.dumps(doc))
    assert code == 0
    out = json.loads(out)
    assert out["latex"] == r"\mathfrak{t} - \frac{1}{2}"


def test_render_helpers():
    p = TPoly((Fraction(5), Fraction(-2, 3), Fraction(1, 2)))
    assert render_latex(p) == r"\frac{1}{2}\mathfrak{t}^{2} - \frac{2}{3}\mathfrak{t} + 5"
    assert render_plain(p) == "1/2*\U0001d531^2 - 2/3*\U0001d531 + 5"
    assert render_latex(TPoly()) == "0"
    assert render_latex(TPoly((0, 1))) == r"\mathfrak{t}"


def test_parse_fraction_and_jobspec_errors():
    assert parse_fraction("7/3", "x") == Fraction(7, 3)
    assert parse_fraction(4, "x") == Fraction(4)
    assert parse_fraction("-12", "x") == Fraction(-12)
    from quotvol.cli import InputError

    for literal in ("1e3", "0.5", "1e999999999", " 1/2", "1/-2"):
        with pytest.raises(InputError) as info:
            parse_fraction(literal, "x")
        assert info.value.field_name == "x"

    with pytest.raises(InputError, match="t.value"):
        parse_jobspec({"command": "quot-volume", "g": 0, "r": 1, "l": [0], "d": 0,
                       "t": {"mode": "ttilde-value"}})
    with pytest.raises(InputError, match="weights"):
        parse_jobspec({"command": "quot-volume", "g": 0, "r": 1, "l": [0], "d": 0,
                       "weights": "nope"})
    # a library caller's schema value that JSON cannot spell is still an input error
    with pytest.raises(InputError, match=r'version "Fraction\(1, 1\)"'):
        parse_jobspec({"command": "quot-volume", "schema": Fraction(1), "g": 0, "r": 1,
                       "l": [0], "d": 0})
    with pytest.raises(InputError, match="1/0"):
        parse_fraction("1/0", "x")


@pytest.mark.parametrize("doc, problem", [
    ({"command": "abelian-volume", "g": 1, "l": [3], "d": 2}, CurveQuotProblem(1, 1, 2)),
    ({"command": "quot-volume", "g": 2, "r": 2, "l": [1, 0], "d": 3},
     QuotProblem(2, 2, (1, 0), 3)),
    ({"command": "grothendieck-degree", "g": 0, "r": 1, "l": [0], "d": 1, "n": 2},
     QuotProblem(0, 1, (0,), 1)),
    ({**ACYCLIC, "pairings": [0, -1]},
     AcyclicData(1, 1, -1, (0, -1), ((0, 1), (-1, 0)), {(1, 0): AltForm(1, {(1, 2): 1})})),
    # sweep rows run over g, then d, then the l-partition; a range beats a value
    ({"command": "sweep", "r": 2, "g": 5, "g_values": [0, 1], "d_values": [1, 2],
      "l_partitions": [[1, 0], [0, 1]]},
     tuple(QuotProblem(g, 2, l, d) for g in (0, 1) for d in (1, 2) for l in ((1, 0), (0, 1)))),
    ({"command": "sweep", "r": 1, "g": 0, "l": [0], "d_values": []}, ()),
    # only a sweep reads ranges: any other command keeps its own (g, l, d)
    ({"command": "quot-volume", "g": 2, "r": 2, "l": [1, 0], "d": 1, "g_values": [0, 5],
      "d_values": [3]}, QuotProblem(2, 2, (1, 0), 1)),
    ({"command": "grothendieck-degree", "g": 0, "r": 2, "l": [0, 1], "d": 1, "n": 2,
      "l_partitions": [[5, 5]]}, QuotProblem(0, 2, (0, 1), 1)),
])
def test_parse_jobspec_builds_the_library_problem(doc, problem):
    spec = parse_jobspec(doc)
    assert spec.problem == problem
    assert spec.echo is doc


def test_run_job_directly():
    spec = parse_jobspec({"command": "quot-volume", "g": 2, "r": 2, "l": [1, 1], "d": 1})
    result = run_job(spec)
    assert result["volume"]["coefficients"] == TPoly([2, 1])


def test_verify_rejects_single_weight_vector():
    doc = {"command": "verify", "g": 0, "r": 2, "l": [0, 0], "d": 1,
           "weights": [["0/1", "1/1"]]}
    code, out, err = run_python(*CLI, "verify", stdin=json.dumps(doc))
    assert code == 2
    assert "at least two" in err


def test_negative_colength_flag_is_an_input_error():
    code, out, err = run_python(*CLI, "quot-volume", "--g", "1", "--r", "2", "--l", "0,0",
                                "--d", "-1")
    assert code == 2
    assert "input error at 'd'" in err


def test_negative_sweep_genus_is_an_input_error():
    doc = {"command": "sweep", "r": 2, "g_values": [-1], "d": 1, "l": [0, 0]}
    code, out, err = run_python(*CLI, "sweep", stdin=json.dumps(doc))
    assert code == 2
    assert "input error at 'g_values[0]'" in err


def dense_theta_doc(q, scale=1):
    """An acyclic job whose theta is dense, entry ((j - i) mod 5 + 1) scale above
    the diagonal, with no other form: its partition sums grow about 3x per step
    in q, and with the bits of the scale."""
    h = [[((j - i) % 5 + 1) * scale if i < j else -((i - j) % 5 + 1) * scale if i > j else 0
          for j in range(2 * q)] for i in range(2 * q)]
    return {"command": "acyclic-volume", "n_dim": 1, "q": q, "deg_E": 0, "pairings": [3, 0],
            "h": h, "kappa": [{"i": 1, "s": 0, "terms": []}]}


def acyclic_doc(data):
    """The job document of the pairing data ``data``."""
    frac = cli.format_fraction
    kappa = [{"i": i, "s": s, "terms": [{"indices": list(k), "coeff": frac(c)}
                                        for k, c in form.terms.items()]}
             for (i, s), form in data.kappa_forms.items()]
    return {"command": "acyclic-volume", "n_dim": data.n, "q": data.q, "deg_E": frac(data.deg_E),
            "pairings": [frac(p) for p in data.pairings],
            "h": [[frac(x) for x in row] for row in data.h], "kappa": kappa}


def large_base_doc(n_dim):
    """An acyclic job on an n_dim-dimensional base with pairings [1, 0, ...]: rank 1, q = 0."""
    return {"command": "acyclic-volume", "n_dim": n_dim, "q": 0, "deg_E": 0,
            "pairings": [1] + [0] * n_dim, "h": []}


# Jobs that would run for minutes to ages: the work budget refuses them at d
# (at r for the localization engine, which verify runs; at q for the partition
# sums of an acyclic job, at pairings for its rank-1 sum to N = rank + q - 1 and
# the reads of its rank),
# or at the point the volume is evaluated at when that evaluation tips the job
# over.  The q = 16 job ran over a minute on a 2 vCPU box before its budget,
# the q = 12 job with 101-digit entries about 20 s, and the abelian job at
# g = 10^300 about 17 s, 14 s of it printing its 301 coefficients.
BIG = "9" * 4000


RUNAWAY_JOBS = [
    ({"command": "abelian-volume", "g": 1, "l": [2], "d": 200000}, "d"),
    ({"command": "abelian-volume", "g": 1, "l": [2], "d": 10 ** 30}, "d"),
    ({"command": "quot-volume", "g": 2, "r": 2, "l": [0, 1], "d": 300}, "d"),
    ({"command": "grothendieck-degree", "g": 2, "r": 2, "l": [0, 1], "d": 10 ** 6, "n": 5}, "d"),
    ({"command": "verify", "g": 1, "r": 60, "l": [0] * 60, "d": 1}, "r"),
    ({"command": "quot-volume", "g": 2, "r": 2, "l": [0, 1], "d": 200,
      "t": {"mode": "ttilde-value", "value": BIG}}, "t.value"),
    ({"command": "grothendieck-degree", "g": 2, "r": 2, "l": [0, 1], "d": 200, "n": int(BIG)},
     "n"),
]
# added after the list above: kept apart and listed last below, because
# parameter ids count positions.  The rank takes time quadratic in n_dim, and the
# record works it out once: at n_dim = 200 000 about 13 s.  Dense theta at
# q = 20 and the weighted job at r = 8, d = 40 stop their counts past the limit.
# A sweep row costs its own work however cheap its closed form: 400 000 rows at
# d = 0 ran about 12 s.  A physical t prints (n_dim - 1)!: at n_dim = 130 000 its
# 608 352 digits took the job from 6 s to about 12 s.
PHYSICAL_T = {"mode": "physical-t", "value": "1/2", "vol_X": 1}
LATER_RUNAWAY_JOBS = [
    (dense_theta_doc(16), "q"),
    ({"command": "acyclic-volume", "n_dim": 1, "q": 0, "deg_E": "7/3", "pairings": [10 ** 6, 0],
      "h": []}, "pairings"),
    (dense_theta_doc(12, 10 ** 100), "q"),
    ({"command": "abelian-volume", "g": 10 ** 300, "l": [300], "d": 300}, "d"),
    ({"command": "verify", "g": 1, "r": 50, "l": [0] * 50, "d": 1}, "r"),
    (large_base_doc(200000), "pairings"),
    (dense_theta_doc(20), "q"),
    ({"command": "quot-volume", "g": 1, "r": 8, "l": [0] * 8, "d": 40,
      "weights": [list(range(1, 9))]}, "r"),
    ({"command": "sweep", "r": 1, "g_values": list(range(400000)), "d": 0, "l": [0]}, "d"),
    ({**large_base_doc(130000), "t": PHYSICAL_T}, "pairings"),
]


@pytest.mark.parametrize(
    "doc, field_name",
    [
        ({"command": "quot-volume", "g": -1, "r": 1, "l": [0], "d": 0}, "g"),
        ({"command": "quot-volume", "g": 0, "r": 0, "l": [], "d": 0}, "r"),
        ({"command": "abelian-volume", "g": 0, "l": [0], "d": -2}, "d"),
        ({"command": "sweep", "r": 1, "g": 0, "l": [0], "d_values": [0, -1]}, "d_values[1]"),
        ({"command": "acyclic-volume", "n_dim": 0, "q": 0, "deg_E": 0, "pairings": [1],
          "h": []}, "n_dim"),
        ({"command": "acyclic-volume", "n_dim": 1, "q": -1, "deg_E": 0, "pairings": [1, 0],
          "h": []}, "q"),
        ({**ACYCLIC, "h": [[0]]}, "h"),
        ({**ACYCLIC, "h": [[0, 1], [-1]]}, "h[1]"),
        ({**ACYCLIC, "h": [[0, 1], [1, 0]]}, "h[0][1]"),
        ({**ACYCLIC, "h": [[1, 1], [-1, 0]]}, "h[0][0]"),
        ({**ACYCLIC, "pairings": ["1/1"]}, "pairings"),
        ({**ACYCLIC, "pairings": ["1/1", "0/1", "0/1"]}, "pairings"),
        ({**ACYCLIC, "pairings": ["1/2", "0/1"]}, "pairings"),
        ({**ACYCLIC, "pairings": ["0/1", "1/1"]}, "pairings"),
        ({**ACYCLIC, "kappa": []}, "kappa"),
        ({**ACYCLIC, "kappa": [{"i": 2, "s": 0, "terms": []}]}, "kappa[0]"),
        ({**ACYCLIC, "kappa": [{"i": 1, "s": 0, "terms": [{"indices": [1], "coeff": 1}]}]},
         "kappa[0].terms[0].indices"),
        ({**ACYCLIC, "kappa": TWO_KAPPA_FORMS}, "kappa[1]"),
        ({**ACYCLIC, "kappa": REPEATED_INDICES}, "kappa[0].terms[1].indices"),
        *RUNAWAY_JOBS,
        ({**ACYCLIC, "kappa": [5]}, "kappa[0]"),
        ({**ACYCLIC, "kappa": [{"i": 1, "s": 0, "terms": 5}]}, "kappa[0].terms"),
        ({**ACYCLIC, "kappa": [{"i": 1, "s": 0, "terms": [5]}]}, "kappa[0].terms[0]"),
        ({**ACYCLIC, "pairings": "0/1"}, "pairings"),
        ({**ACYCLIC, "h": 5}, "h"),
        ({"command": "quot-volume", "g": 0, "r": 1, "l": [0], "d": 0,
          "t": {"mode": "ttilde-value", "value": True}}, "t.value"),
        ([1], "$"),
        ({"command": "nope"}, "command"),
        *LATER_RUNAWAY_JOBS,
    ],
)
def test_domain_bounds_name_the_field(doc, field_name):
    from quotvol.cli import InputError

    started = time.perf_counter()
    with pytest.raises(InputError) as info:
        parse_jobspec(doc)
    assert time.perf_counter() - started < 2.0
    assert info.value.field_name == field_name


@pytest.mark.parametrize("doc, field_name", RUNAWAY_JOBS + LATER_RUNAWAY_JOBS)
def test_runaway_job_exits_2_before_it_starts(doc, field_name):
    """The work budget refuses each job from its sizes, before any of it runs."""
    started = time.perf_counter()
    code, out, err = run_python(*CLI, doc["command"], stdin=json.dumps(doc))
    assert time.perf_counter() - started < 2.0
    assert (code, out) == (2, "")
    assert err.startswith(f"input error at '{field_name}': estimated "), err
    assert "over the limit of 1e+07" in err


def test_evaluation_within_the_budget_is_accepted():
    """At d = 100 a 4000-digit point runs in about 3 s: counted, not refused."""
    doc = {"command": "quot-volume", "g": 2, "r": 2, "l": [0, 1], "d": 100,
           "t": {"mode": "ttilde-value", "value": BIG}}
    assert parse_jobspec(doc).problem == QuotProblem(2, 2, (0, 1), 100)


def test_acyclic_jobs_within_the_budget_are_accepted():
    """Dense theta at q = 14 (about 7 s), at q = 10 with 31-digit entries (about
    1.8 s) and at q = 6 with 1001-digit entries (about 0.2 s), dense n_dim = 2
    data at q = 9 (about 1.5 s) and the curve case at g = 40 run; only parsing
    is timed here."""
    from test_abelian import dense_acyclic_data

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        curve = curve_acyclic_data(40, 1, 200, 0)
    for doc in (dense_theta_doc(14), dense_theta_doc(10, 10 ** 30), dense_theta_doc(6, 10 ** 1000),
                acyclic_doc(dense_acyclic_data(random.Random(0), 9, 2)), acyclic_doc(curve)):
        started = time.perf_counter()
        assert parse_jobspec(doc).problem.q == doc["q"]
        assert time.perf_counter() - started < 2.0


def test_large_base_dimension_within_the_budget_is_accepted():
    """n_dim = 40 000 runs in about 0.6 s and n_dim = 70 000 in about 1.9 s on a
    2 vCPU box, almost all of it in the one computation of the rank, and in about
    3 s with the physical-t report, which prints (n_dim - 1)!; not timed here."""
    for doc in (large_base_doc(40000), large_base_doc(70000),
                {**large_base_doc(70000), "t": PHYSICAL_T}):
        assert parse_jobspec(doc).problem.n == doc["n_dim"]


def test_a_sweep_of_100_000_rows_is_accepted():
    """100 000 rows at d = 0 run in about 3 s on a 2 vCPU box; not timed here."""
    doc = {"command": "sweep", "r": 1, "g_values": list(range(100000)), "d": 0, "l": [0]}
    assert len(parse_jobspec(doc).problem) == 100000


class CountingMath:
    """Stands in for ``math`` in a module, recording each call by name and arguments."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        def call(*args):
            self.calls.append((name, args))
            return getattr(math, name)(*args)
        return call


def test_acyclic_job_works_out_its_rank_and_theta_form_once(monkeypatch):
    """One acyclic-volume job, parsed and run, builds theta once and sums the rank
    once (the one n_dim! of the record); reading ``rank`` and ``dimension`` again
    then computes nothing."""
    import quotvol.exterior as exterior

    thetas, counting, original = [], CountingMath(), exterior.theta_form

    def theta_form(*args):
        thetas.append(args)
        return original(*args)

    monkeypatch.setattr(exterior, "theta_form", theta_form)
    monkeypatch.setattr(exterior, "math", counting)
    # n_dim = 3, rank 1: the kappa forms' own factorials stop at s! for s <= 2
    kappa = [{"i": 1, "s": s, "terms": [{"indices": [1, 2], "coeff": "1/1"}]} for s in range(3)]
    doc = {**ACYCLIC, "n_dim": 3, "pairings": [1, 0, 0, 0], "kappa": kappa}
    spec = parse_jobspec(doc)
    assert run_job(spec)["input"] == doc
    assert len(thetas) == 1
    assert counting.calls.count(("factorial", (3,))) == 1
    data, before = spec.problem, len(counting.calls)
    assert (data.rank, data.dimension) == (1, 1)
    assert data.rank is data.rank and len(counting.calls) == before


@pytest.mark.parametrize("t, factorials", [
    (None, 0), ({"mode": "ttilde-value", "value": "-5/3"}, 0), (PHYSICAL_T, 2),
], ids=["symbolic", "value", "physical"])
def test_only_a_physical_t_works_out_the_base_factorial(monkeypatch, t, factorials):
    """(n_dim - 1)! is printed only in the physical-t substitution, so ``cli`` works it
    out only for that report: once at parse and once at report."""
    counting = CountingMath()
    monkeypatch.setattr(cli, "math", counting)
    doc = {**large_base_doc(3), **({"t": t} if t else {})}
    run_job(parse_jobspec(doc))
    assert [name for name, _ in counting.calls].count("factorial") == factorials


def test_rank_one_jobs_at_deg_e_zero_are_accepted():
    """At deg E = 0 every power of deg E past the zeroth vanishes, so the
    rank-1 sum is cheap: abelian-volume at (g, d) = (10, 2000) and (40, 2000)
    and the curve case at g = 40, N = 2000 each run in under half a second on
    a 2 vCPU box; only parsing is timed here."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        curve = curve_acyclic_data(40, 1, 2000, 0)
    abelian = [{"command": "abelian-volume", "g": g, "l": [2000], "d": 2000} for g in (10, 40)]
    for doc in (*abelian, acyclic_doc(curve)):
        started = time.perf_counter()
        assert parse_jobspec(doc).command == doc["command"]
        assert time.perf_counter() - started < 2.0


# every command that evaluates its volume, under each t mode
EVALUATED = [
    {"command": "quot-volume", "g": 1, "r": 2, "l": [0, 1], "d": 2},
    {"command": "abelian-volume", "g": 2, "l": [5], "d": 3},
    {"command": "acyclic-volume", "n_dim": 3, "q": 0, "deg_E": "1/1",
     "pairings": ["4/1", "0/1", "0/1", "6/1"], "h": []},
    ACYCLIC,
    {"command": "grothendieck-degree", "g": 1, "r": 2, "l": [0, 1], "d": 2, "n": 4},
]
T_SECTIONS = {
    "symbolic": None,
    "value": {"mode": "ttilde-value", "value": "-5/3"},
    "physical": {"mode": "physical-t", "value": "1/2", "vol_X": "7/1"},
    "physical-probe": {"mode": "physical-t", "value": "1/2", "vol_X": "7/1", "pi_probe": "22/7"},
    "value-probe": {"mode": "ttilde-value", "value": "-5/3", "pi_probe": "22/7"},
}


@pytest.mark.parametrize("t", T_SECTIONS.values(), ids=T_SECTIONS)
@pytest.mark.parametrize("job", EVALUATED, ids=lambda job: f"{job['command']}-{job.get('n_dim')}")
def test_the_budget_sizes_the_point_the_report_evaluates(monkeypatch, job, t):
    """The volume is evaluated at the plan's point and nowhere else, and the
    evaluation budget sizes that point: every rational whose bits it reads is
    the point or the probe of pi."""
    spec = parse_jobspec({**job, "t": t} if t else job)
    point = cli._report_plan(spec)[3]
    sized, evaluated = [], []
    bits, call = cli._bits, TPoly.__call__
    monkeypatch.setattr(cli, "_bits", lambda x: sized.append(x) or bits(x))
    cli._evaluation_work(spec)
    monkeypatch.setattr(TPoly, "__call__", lambda p, x: evaluated.append(x) or call(p, x))
    run_job(spec)
    assert evaluated == ([] if point is None else [point])
    assert [x for x in sized if x != spec.pi_probe] == evaluated


def test_grothendieck_degree_job_computes_the_volume_once(monkeypatch):
    """One volume per job, from the closed form; the localization engine,
    which ``grothendieck_degree`` falls back on, never runs."""
    import quotvol.cli as cli
    import quotvol.closed as closed
    import quotvol.grothendieck as grothendieck

    calls = []

    def counting(name, original):
        def count(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return count

    monkeypatch.setattr(closed, "closed_volume", counting("closed", closed.closed_volume))
    monkeypatch.setattr(cli, "quot_volume", counting("localization", cli.quot_volume))
    monkeypatch.setattr(grothendieck, "quot_volume",
                        counting("localization", grothendieck.quot_volume))
    spec = parse_jobspec({"command": "grothendieck-degree", "g": 0, "r": 2, "l": [0, 0],
                          "d": 1, "n": 4})
    result = run_job(spec)
    assert result["degree"] == 8
    assert calls == ["closed"]


@pytest.mark.parametrize("change", [{"q": 1, "h": [[0]]}, {"pairings": ["1/2", "0/1"]},
                                    {"kappa": []}, {"kappa": TWO_KAPPA_FORMS},
                                    {"kappa": REPEATED_INDICES}])
def test_bad_acyclic_input_exits_2(change):
    code, out, err = run_python(*CLI, "acyclic-volume", stdin=json.dumps({**ACYCLIC, **change}))
    assert code == 2, err
    assert "input error at" in err


def test_huge_q_acyclic_input_exits_2_quickly():
    """q = 10**9 with one kappa form: the completeness check over (i, s) must
    not walk every i <= q before the 2 x 2 h is refused."""
    started = time.perf_counter()
    code, _, err = run_python(*CLI, "acyclic-volume", stdin=json.dumps({**ACYCLIC, "q": 10**9}))
    assert time.perf_counter() - started < 10.0
    assert code == 2, err
    assert "input error at 'h'" in err


def test_rank_of_thousands_of_digits_is_refused_naming_pairings():
    """n_dim = 3000: the rank's denominator has more digits than Python turns
    into text by default, so the refusal must not spell it out."""
    rng = random.Random(1)
    doc = {"n_dim": 3000, "q": 0, "h": [], "deg_E": "1",
           "pairings": [str(rng.randint(1, 9)) for _ in range(3001)]}
    code, out, err = run_main(["acyclic-volume"], json.dumps(doc))
    assert code == 2
    assert out == ""
    assert err.startswith("input error at 'pairings':"), err


LARGE_ABELIAN = ["abelian-volume", "--g", "1", "--l", str(10 ** 50), "--d", "100"]


@pytest.mark.parametrize("out_format", ["json", "plain", "latex"])
def test_answer_past_the_digit_limit_prints_the_same_bytes_under_any_limit(out_format):
    argv = [*LARGE_ABELIAN, "--format", out_format]
    code, want, err = run_main(argv)
    assert code == 0, err
    assert max(len(digits) for digits in re.findall(r"\d+", want)) > 4300
    code, out, err = run_python("-X", "int_max_str_digits=640", *CLI, *argv)
    assert code == 0, err
    assert out == want


def test_verify_at_r_900_without_weights_exits_2_quickly():
    """The seeded default candidate draws from 899 distinct rationals, so at
    r = 900 it could never finish: the job is refused before drawing."""
    doc = {"command": "verify", "g": 0, "r": 900, "l": [0] * 900, "d": 0}
    started = time.perf_counter()
    code, _, err = run_python(*CLI, "verify", stdin=json.dumps(doc))
    assert time.perf_counter() - started < 10.0
    assert code == 2, err
    assert "input error at 'weights'" in err


@pytest.mark.parametrize("doc", [
    {"command": "sweep", "r": 3, "g": 2, "l": [1, -1, 0], "d_values": [0, 1, 2, 3]},
    {"command": "sweep", "r": 2, "g": 0, "d": 3, "l_partitions": [[3, -1], [1, 1], [0, 2]]},
])
def test_sweep_rows_equal_weighted_quot_volume_jobs(doc):
    # rows run the closed form; a job that names weights runs localization
    rows = run_job(parse_jobspec(doc))["rows"]
    assert rows
    for row in rows:
        single = {"command": "quot-volume", "g": row["g"], "r": row["r"], "l": row["l"],
                  "d": row["d"], "weights": [list(range(1, row["r"] + 1))]}
        assert row["volume"] == run_job(parse_jobspec(single))["volume"]


# ---------------------------------------------------------------------------
# the argv reader

@pytest.mark.parametrize("argv, field", [
    (["quot-volume", "--g", "x", "--r", "2"], "g"),             # an integer flag that does not parse
    (["quot-volume", "--d=1.5"], "d"),
    (["quot-volume", "--weights", "1,2"], "--weights"),       # unknown flag
    (["quot-volume", "--form", "plain"], "--form"),           # no prefix abbreviations
    (["quot-volume", "--g"], "g"),                            # no value at the end
    (["quot-volume", "--ttilde", "--format", "plain"], "ttilde"),  # a flag is not a value
    (["--g", "1", "--r", "2"], "command"),                    # no command
    (["quot-volume", "sweep"], "command"),                    # two commands
    (["quot-volume", "--g", "1", "2"], "command"),            # a stray value
    (["quot_volume"], "command"),                             # unknown command
    (["quot-volume", "--g", "\u0663"], "g"),                  # ASCII digits only
    (["quot-volume", "--g", " 1"], "g"),
    (["quot-volume", "--d", "1_0"], "d"),
    (["quot-volume", "--l", "0,\u0662"], "l"),
])
def test_argv_errors_exit_2_naming_the_field(argv, field):
    code, out, err = run_main(argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"input error at {field!r}:"), err


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["quot-volume", "--g", "1", "-h"]])
def test_help_prints_the_usage_line_and_exits_0(argv):
    code, out, err = run_main(argv)
    assert code == 0
    assert out == cli.USAGE + "\n"
    assert out.startswith("usage: quotvol {abelian-volume,")
    assert err == ""


@pytest.mark.parametrize("argv", [
    ["--g", "2", "--r", "2", "quot-volume", "--l", "1,1", "--d", "1", "--format", "plain"],
    [*FLAGS, "quot-volume"],
    ["quot-volume", "--g=2", "--r=2", "--l=1,1", "--d=1", "--format=plain"],
    ["quot-volume", "--g", "7", "--format", "latex", *FLAGS],  # the last of a repeated flag wins
])
def test_flags_stand_anywhere_and_the_last_one_wins(argv):
    want = run_main(["quot-volume", *FLAGS])[1]
    assert want.strip() == "volume = \U0001d531 + 2"
    code, out, _ = run_main(argv)
    assert code == 0
    assert out == want


def test_read_argv_converts_integer_flags_only():
    args = cli._build_argparser(["sweep", "--r", "-3", "--l", "-1,2", "--file=", "--n=+4"])
    assert args == {"command": "sweep", "r": -3, "l": "-1,2", "file": "", "n": 4}


def test_undecodable_file_is_an_input_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    code, out, err = run_main(["quot-volume", "--file", str(bad)])
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert err.startswith("input error at 'file': 'utf-8' codec can't decode"), err


@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_non_finite_number_is_an_input_error(number):
    """Python's JSON reader takes NaN and the infinities, and reads 1e999 as inf;
    none is JSON, so echoing one under ``input`` would print invalid JSON."""
    text = '{"g": 1, "r": 2, "l": [0, 1], "d": 1, "note": %s}' % number
    assert run_main(["quot-volume"], text) == (
        cli.EXIT_INPUT, "", f"input error at '$': invalid JSON: {number} is not a finite number\n")


def test_undecodable_stdin_is_an_input_error():
    code, out, err = run_main(["quot-volume"], b"\xff{}")
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert err.startswith("input error at '$': 'utf-8' codec can't decode"), err


@pytest.mark.parametrize("change, error", [
    ({"schema": True}, "'schema': unsupported schema version true"),
    ({"schema": "2"}, "'schema': unsupported schema version \"2\""),
    ({"suite": "x"}, "'suite': unknown suite \"x\""),
    ({"t": {"mode": "x"}}, "'t.mode': unknown mode \"x\""),
], ids=["True-true", '2-"2"', "suite", "t.mode"])
def test_schema_error_spells_the_value_as_json(change, error):
    """A bad schema, suite or t.mode is named as the job document spells it."""
    doc = {"command": "verify", "g": 1, "r": 2, "l": [0, 0], "d": 1, **change}
    assert run_main(["verify"], json.dumps(doc)) == (cli.EXIT_INPUT, "",
                                                     f"input error at {error}\n")


# ---------------------------------------------------------------------------
# the process entry point: main(), then a collector freeze before exit

# runs quotvol.cli as __main__ (on the arguments after ``-c``), then prints the
# collector's freeze count to stderr from an atexit handler
FREEZE_PROBE = """
import atexit, gc, runpy, sys
atexit.register(lambda: print(f"freeze_count={gc.get_freeze_count()}", file=sys.stderr))
runpy.run_module("quotvol.cli", run_name="__main__", alter_sys=True)
"""


def dense_acyclic_latex_doc():
    """Dense q = 6, n_dim = 2 pairing data (every h entry and kappa
    coefficient nonzero) whose ``latex`` result echoes about 100 KB of input."""
    h = [[(j - i) % 5 + 1 if i < j else -((i - j) % 5 + 1) if i > j else 0
          for j in range(12)] for i in range(12)]
    kappa = [{"i": i, "s": s, "terms": [
        {"indices": list(k), "coeff": f"{((i + s + 2) * sum(k)) % 7 - 3 or 1}/{1 + sum(k) % 2}"}
        for k in itertools.combinations(range(1, 13), 2 * i)]}
        for i in (1, 2) for s in range(3 - i)]
    return {"command": "acyclic-volume", "format": "latex", "n_dim": 2, "q": 6,
            "deg_E": "-3/2", "pairings": [3, -1, -4], "h": h, "kappa": kappa}


def test_main_in_process_does_not_freeze():
    before = gc.get_freeze_count()
    assert run_main(["quot-volume", *FLAGS])[0] == 0
    assert gc.get_freeze_count() == before


def test_module_as_main_freezes_before_atexit_and_prints_main_bytes():
    want = run_main(["quot-volume", *FLAGS])[1]
    code, out, err = run_python("-c", FREEZE_PROBE, "quot-volume", *FLAGS)
    assert code == 0, err
    assert out == want
    count = int(err.splitlines()[-1].removeprefix("freeze_count="))
    assert count > 0


def test_large_stdout_arrives_whole_through_a_pipe():
    doc = json.dumps(dense_acyclic_latex_doc())
    code, want, _ = run_main(["acyclic-volume"], doc)
    assert code == 0 and len(want) > 90_000
    # a block-buffered stdout, as a process has by default on a pipe: an exit
    # that skips the flush (os._exit) loses its last block
    code, out, err = run_python(*CLI, "acyclic-volume", stdin=doc)
    assert code == 0, err
    assert out == want


@pytest.mark.parametrize("argv, stdin", [
    (["abelian-volume", "--g", "40", "--l", "2000", "--d", "2000"], b""),  # 258 KB of output
    (["quot-volume"], json.dumps({"g": 1, "r": 2, "l": [0, 1], "d": 1}).encode()),
], ids=["read-10-bytes", "closed-before-the-job"])
def test_closed_stdout_exits_1_without_a_traceback(argv, stdin):
    """A reader that stops early (``| head -c 10``) breaks the pipe during the
    write, or before a short answer's flush at exit; either way exit code 1."""
    proc = subprocess.Popen([sys.executable, *CLI, *argv], stdout=subprocess.PIPE,
                            stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
                            stderr=subprocess.PIPE, env=child_env())
    if not stdin:
        assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()  # before the child has read the job, when it is given one
    err = proc.communicate(stdin or None, timeout=60)[1].decode()
    assert proc.returncode == 1, err
    assert "Traceback" not in err and "Exception ignored" not in err


# A process started as a script compiles only ``scalars`` and the engine its
# command runs (``quotvol.cli`` itself runs as ``__main__``).  The probe prints
# the quotvol modules loaded at exit to stderr from an atexit handler; then it
# runs the module as ``python -m quotvol.cli`` does, or the installed command.
MODULES_PROBE = """
import atexit, sys
atexit.register(lambda: print("modules=" + " ".join(sorted(
    name for name in sys.modules if name.split(".")[0] == "quotvol")), file=sys.stderr))
"""
AS_MAIN = 'import runpy; runpy.run_module("quotvol.cli", run_name="__main__", alter_sys=True)'
INSTALLED = "import quotvol; quotvol._script()"


@pytest.mark.parametrize("launch, argv, doc, engines", [
    (AS_MAIN, ["quot-volume", *FLAGS], None, ["closed"]),
    (INSTALLED, ["quot-volume", *FLAGS], None, ["closed"]),
    (AS_MAIN, ["sweep"], {"r": 2, "g_values": [0, 2], "d_values": [1, 3], "l": [0, 1]},
     ["closed"]),
    (AS_MAIN, ["grothendieck-degree"], {"g": 0, "r": 2, "l": [0, 0], "d": 1, "n": 4},
     ["closed", "grothendieck", "localization"]),
    (AS_MAIN, ["quot-volume"], {"g": 1, "r": 2, "l": [0, 1], "d": 2, "weights": [["1/2", 3]]},
     ["localization"]),
    (AS_MAIN, ["quot-volume"], {"g": 1, "r": 2, "l": [0, 1], "d": 2, "weights": None},
     ["closed"]),
    (AS_MAIN, ["verify"], {"g": 1, "r": 2, "l": [0, 1], "d": 1}, ["localization"]),
    (AS_MAIN, ["abelian-volume"], {"g": 1, "l": [3], "d": 2}, ["abelian"]),
    (AS_MAIN, ["acyclic-volume"], ACYCLIC, ["abelian", "exterior"]),
], ids=["quot-volume", "installed", "sweep", "grothendieck-degree", "weighted", "null-weights",
        "verify", "abelian-volume", "acyclic-volume"])
def test_script_loads_only_its_engine(launch, argv, doc, engines):
    stdin = "" if doc is None else json.dumps(doc)
    want = run_main(argv, stdin)[1]
    code, out, err = run_python("-c", MODULES_PROBE + launch, *argv, stdin=stdin)
    assert code == 0, err
    loaded = err.splitlines()[-1].removeprefix("modules=").split()
    assert "quotvol._oracle" not in loaded
    assert loaded == sorted(["quotvol", "quotvol.scalars", *(f"quotvol.{m}" for m in engines)])
    assert out == want


# ---------------------------------------------------------------------------
# default verify weights

def _list_based_verify_weights(r):
    """The three candidates as first written, novelty tested on the list."""
    primes = []
    k = 2
    while len(primes) < r:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    rng = random.Random(20201)
    rand = []
    while len(rand) < r:
        cand = Fraction(rng.randint(-60, 60), rng.randint(1, 12))
        if cand not in rand:
            rand.append(cand)
    return tuple(Fraction(k) for k in range(1, r + 1)), tuple(map(Fraction, primes)), tuple(rand)


@pytest.mark.parametrize("r", [1, 7, 400])
def test_default_verify_weights_match_the_list_based_draw(r):
    vectors = tuple(w.w for w in localization._default_verify_weights(r))
    assert vectors == _list_based_verify_weights(r)
