import io
import json
import random
import subprocess
import sys
from fractions import Fraction

from quotvol import cli
from quotvol.abelian import AcyclicData, CurveQuotProblem
from quotvol.cli import parse_fraction, parse_jobspec, render_latex, render_plain, run_job
from quotvol.exterior import AltForm
from quotvol.localization import QuotProblem
from quotvol.scalars import TPoly

import pytest


# a valid acyclic-volume document: genus 1, d = 1, deg_E = -1
ACYCLIC = {"command": "acyclic-volume", "n_dim": 1, "q": 1, "deg_E": "-1/1",
           "pairings": ["0/1", "-1/1"], "h": [[0, 1], [-1, 0]],
           "kappa": [{"i": 1, "s": 0, "terms": [{"indices": [1, 2], "coeff": "1/1"}]}]}
# the same form given twice, and one index set given twice in a form
TWO_KAPPA_FORMS = [*ACYCLIC["kappa"],
                   {"i": 1, "s": 0, "terms": [{"indices": [1, 2], "coeff": "5/1"}]}]
REPEATED_INDICES = [{"i": 1, "s": 0, "terms": [{"indices": [1, 2], "coeff": "1/1"},
                                               {"indices": [1, 2], "coeff": "5/1"}]}]


def run_cli(args, stdin_text=""):
    return subprocess.run(
        [sys.executable, "-m", "quotvol.cli", *args],
        input=stdin_text,
        capture_output=True,
        text=True,
    )


def test_quot_volume_plain():
    doc = {"command": "quot-volume", "g": 2, "r": 2, "l": [1, 1], "d": 1, "format": "plain"}
    proc = run_cli(["quot-volume"], json.dumps(doc))
    assert proc.returncode == 0
    assert proc.stdout.strip() == "volume = \U0001d531 + 2"


def test_grothendieck_degree_json():
    doc = {"command": "grothendieck-degree", "g": 0, "r": 2, "l": [0, 0], "d": 1, "n": 4}
    proc = run_cli(["grothendieck-degree"], json.dumps(doc))
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["schema"] == 1
    assert out["degree"] == 8
    assert out["volume"]["variable"] == "ttilde"


def test_verify_suite():
    doc = {"command": "verify", "suite": "weight-independence", "r": 2, "d": 2, "g": 1, "l": [2, 0]}
    proc = run_cli(["verify"], json.dumps(doc))
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["verify"]["pass"] is True
    assert out["verify"]["candidates"] == 3


def test_flag_overrides_without_stdin():
    proc = run_cli(["quot-volume", "--g", "2", "--r", "2", "--l", "1,1", "--d", "1", "--format", "plain"])
    assert proc.returncode == 0
    assert proc.stdout.strip() == "volume = \U0001d531 + 2"


def test_abelian_volume():
    proc = run_cli(["abelian-volume", "--g", "1", "--l", "1", "--d", "1"])
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    # deg_E = l - d = 0, so v = ttilde + 1
    assert out["volume"]["coefficients"] == ["1/1", "1/1"]
    assert out["unnormalized"]["expression"] == "(4*pi^2)^1 * volume"


def test_abelian_volume_with_pi_probe():
    doc = {
        "command": "abelian-volume", "g": 0, "l": [0], "d": 2,
        "t": {"mode": "physical-t", "value": "1/2", "vol_X": "100/1", "pi_probe": "3/1"},
    }
    proc = run_cli(["abelian-volume"], json.dumps(doc))
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    t = out["t"]
    assert t["exact"] is False
    # ttilde = t vol/(2 pi) = 25/3; v = (ttilde - 2)^2/2
    assert Fraction(t["ttilde_at_probe"]) == Fraction(25, 3)
    v = (Fraction(25, 3) - 2) ** 2 / 2
    assert Fraction(t["value_at_probe"]) == v
    assert Fraction(t["unnormalized_at_probe"]) == (4 * Fraction(9)) ** 2 * v
    assert Fraction(out["unnormalized"]["factor_at_pi_probe"]) == 36 ** 2


def test_ttilde_value_flag():
    proc = run_cli(["quot-volume", "--g", "2", "--r", "2", "--l", "1,1", "--d", "1", "--ttilde", "3/2"])
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["t"]["value"] == "7/2"  # (3/2) + 2


def test_negative_flag_values_as_their_own_argument():
    base = ["quot-volume", "--g", "2", "--r", "2", "--d", "1"]
    apart = run_cli([*base, "--l", "-1,3", "--ttilde", "-3/2"])
    joined = run_cli([*base, "--l=-1,3", "--ttilde=-3/2"])
    assert apart.returncode == joined.returncode == 0, apart.stderr
    assert apart.stdout == joined.stdout
    assert json.loads(apart.stdout)["t"]["value"] == "1/2"  # (-3/2) + 2
    assert run_cli([*base, "--l", "0,0", "--ttilde", "--format"]).returncode == 2


def test_acyclic_volume_json():
    proc = run_cli(["acyclic-volume"], json.dumps({"schema": 1, **ACYCLIC}))
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    # genus 1, d = 1, deg_E = -1: volume = ttilde
    assert out["volume"]["coefficients"] == ["0/1", "1/1"]


def test_acyclic_physical_t_uses_base_dimension_factorial():
    # base dimension 3: ttilde = 2! t vol_X / (2 pi)
    doc = {
        "command": "acyclic-volume", "n_dim": 3, "q": 0, "deg_E": "1/1",
        "pairings": ["4/1", "0/1", "0/1", "6/1"], "h": [],
        "t": {"mode": "physical-t", "value": "1/2", "vol_X": "10/1", "pi_probe": "5/1"},
    }
    proc = run_cli(["acyclic-volume"], json.dumps(doc))
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    # R = 4 - 6/6 = 3, N = 2, volume = (1 + ttilde)^2/2
    assert out["volume"]["coefficients"] == ["1/2", "1/1", "1/2"]
    t = out["t"]
    assert t["substitution"] == "ttilde = 2*t*vol_X/(2*pi)"
    assert Fraction(t["ttilde_at_probe"]) == 1
    assert Fraction(t["value_at_probe"]) == 2


def test_sweep_rows_and_empty_range():
    doc = {"command": "sweep", "r": 2, "g": 1, "l": [0, 0], "d_values": [0, 1, 2]}
    proc = run_cli(["sweep"], json.dumps(doc))
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert len(out["rows"]) == 3
    assert out["rows"][0]["volume"]["coefficients"] == ["1/1"]

    doc = {"command": "sweep", "r": 2, "g": 1, "l": [0, 0], "d_values": []}
    proc = run_cli(["sweep"], json.dumps(doc))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["rows"] == []


def test_sweep_partitions_agree():
    doc = {
        "command": "sweep", "r": 2, "g": 1, "d": 2,
        "l_partitions": [[4, 0], [3, 1], [2, 2]],
    }
    proc = run_cli(["sweep"], json.dumps(doc))
    assert proc.returncode == 0
    rows = json.loads(proc.stdout)["rows"]
    assert len(rows) == 3
    assert len({tuple(r["volume"]["coefficients"]) for r in rows}) == 1


def test_exit_code_on_input_error():
    proc = run_cli(["quot-volume"], json.dumps({"g": 1}))
    assert proc.returncode == 2
    assert "input error" in proc.stderr

    proc = run_cli(["quot-volume"], "this is not json")
    assert proc.returncode == 2

    doc = {"command": "quot-volume", "schema": 99, "g": 0, "r": 1, "l": [0], "d": 0}
    proc = run_cli(["quot-volume"], json.dumps(doc))
    assert proc.returncode == 2
    assert "schema" in proc.stderr


def test_exit_code_on_computation_error(monkeypatch, capsys):
    # input validation catches every bad acyclic document, so fail the algebra
    # layer directly to pin the exit code of a computation error
    import io

    import quotvol.cli as cli

    def failing(data):
        raise ArithmeticError("integrality violated")

    monkeypatch.setattr(cli, "acyclic_volume", failing)
    doc = {"n_dim": 1, "q": 0, "deg_E": "0/1", "pairings": ["1/1", "0/1"], "h": []}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert cli.main(["acyclic-volume"]) == 3
    assert "computation error" in capsys.readouterr().err


def test_stdout_deterministic_and_round_trips():
    doc = {"command": "quot-volume", "g": 1, "r": 2, "l": [2, 0], "d": 2}
    first = run_cli(["quot-volume"], json.dumps(doc))
    second = run_cli(["quot-volume"], json.dumps(doc))
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    reparsed = json.dumps(json.loads(first.stdout), indent=2)
    assert reparsed == first.stdout.strip()


def test_latex_format():
    doc = {"command": "quot-volume", "g": 0, "r": 2, "l": [1, 0], "d": 1, "format": "latex"}
    proc = run_cli(["quot-volume"], json.dumps(doc))
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
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
])
def test_parse_jobspec_builds_the_library_problem(doc, problem):
    spec = parse_jobspec(doc)
    assert spec.problem == problem
    assert spec.echo is doc


def test_run_job_directly():
    spec = parse_jobspec({"command": "quot-volume", "g": 2, "r": 2, "l": [1, 1], "d": 1})
    result = run_job(spec)
    assert result["volume"]["coefficients"] == ["2/1", "1/1"]


def test_verify_rejects_single_weight_vector():
    doc = {"command": "verify", "g": 0, "r": 2, "l": [0, 0], "d": 1,
           "weights": [["0/1", "1/1"]]}
    proc = run_cli(["verify"], json.dumps(doc))
    assert proc.returncode == 2
    assert "at least two" in proc.stderr


def test_negative_colength_flag_is_an_input_error():
    proc = run_cli(["quot-volume", "--g", "1", "--r", "2", "--l", "0,0", "--d", "-1"])
    assert proc.returncode == 2
    assert "input error at 'd'" in proc.stderr


def test_negative_sweep_genus_is_an_input_error():
    doc = {"command": "sweep", "r": 2, "g_values": [-1], "d": 1, "l": [0, 0]}
    proc = run_cli(["sweep"], json.dumps(doc))
    assert proc.returncode == 2
    assert "input error at 'g_values[0]'" in proc.stderr


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
    ],
)
def test_domain_bounds_name_the_field(doc, field_name):
    from quotvol.cli import InputError

    with pytest.raises(InputError) as info:
        parse_jobspec(doc)
    assert info.value.field_name == field_name


def test_grothendieck_degree_job_computes_the_volume_once(monkeypatch):
    """One volume per job, from the closed form; the localization engine,
    which ``grothendieck_degree`` falls back on, never runs."""
    import quotvol.cli as cli
    import quotvol.grothendieck as grothendieck

    calls = []

    def counting(name, original):
        def count(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return count

    monkeypatch.setattr(cli, "closed_volume", counting("closed", cli.closed_volume))
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
    proc = run_cli(["acyclic-volume"], json.dumps({**ACYCLIC, **change}))
    assert proc.returncode == 2, proc.stderr
    assert "input error at" in proc.stderr


def test_huge_q_acyclic_input_exits_2_quickly():
    """q = 10**9 with one kappa form: the completeness check over (i, s) must
    not walk every i <= q before the 2 x 2 h is refused."""
    doc = {**ACYCLIC, "q": 10**9}
    proc = subprocess.run([sys.executable, "-m", "quotvol.cli", "acyclic-volume"],
                          input=json.dumps(doc), capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2, proc.stderr
    assert "input error at 'h'" in proc.stderr


def test_verify_at_r_900_without_weights_exits_2_quickly():
    """The seeded default candidate draws from 899 distinct rationals, so at
    r = 900 it could never finish: the job is refused before drawing."""
    doc = {"command": "verify", "g": 0, "r": 900, "l": [0] * 900, "d": 0}
    proc = subprocess.run([sys.executable, "-m", "quotvol.cli", "verify"],
                          input=json.dumps(doc), capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2, proc.stderr
    assert "input error at 'weights'" in proc.stderr


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

FLAGS = ["--g", "2", "--r", "2", "--l", "1,1", "--d", "1", "--format", "plain"]


def main_in_process(argv, monkeypatch, capsys):
    """``cli.main(argv)`` on an empty stdin: exit code, stdout, stderr."""
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


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
])
def test_argv_errors_exit_2_naming_the_field(argv, field, monkeypatch, capsys):
    code, out, err = main_in_process(argv, monkeypatch, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"input error at {field!r}:"), err


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["quot-volume", "--g", "1", "-h"]])
def test_help_prints_the_usage_line_and_exits_0(argv, monkeypatch, capsys):
    code, out, err = main_in_process(argv, monkeypatch, capsys)
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
def test_flags_stand_anywhere_and_the_last_one_wins(argv, monkeypatch, capsys):
    want = main_in_process(["quot-volume", *FLAGS], monkeypatch, capsys)[1]
    assert want.strip() == "volume = \U0001d531 + 2"
    code, out, _ = main_in_process(argv, monkeypatch, capsys)
    assert code == 0
    assert out == want


def test_read_argv_converts_integer_flags_only():
    args = cli._build_argparser(["sweep", "--r", "-3", "--l", "-1,2", "--file=", "--n=+4"])
    assert args == {"command": "sweep", "r": -3, "l": "-1,2", "file": "", "n": 4}


def test_undecodable_file_is_an_input_error(tmp_path, monkeypatch, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    code, out, err = main_in_process(["quot-volume", "--file", str(bad)], monkeypatch, capsys)
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert err.startswith("input error at 'file': 'utf-8' codec can't decode"), err


def test_undecodable_stdin_is_an_input_error(monkeypatch, capsys):
    strict = io.TextIOWrapper(io.BytesIO(b"\xff{}"), encoding="utf-8", errors="strict")
    monkeypatch.setattr("sys.stdin", strict)
    code = cli.main(["quot-volume"])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert err.startswith("input error at '$': 'utf-8' codec can't decode"), err


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
    vectors = tuple(w.w for w in cli._default_verify_weights(r))
    assert vectors == _list_based_verify_weights(r)
