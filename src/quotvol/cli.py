"""Batch command line: JSON job documents in, exact results out.

A job is a single JSON object (stdin or ``--file``), optionally overridden
by flat flags for scripting.  Results are deterministic JSON documents with
rationals rendered as ``num/den`` strings; ``--format plain`` and
``--format latex`` provide human- and TeX-readable polynomial renderings.
Timing goes to stderr so stdout stays byte-identical across runs.

Exit codes: 0 success, 2 input error, 3 computation error.
"""

from __future__ import annotations

import json
import math
import random
import sys
import time
from fractions import Fraction
from typing import Sequence

from .abelian import CurveQuotProblem, acyclic_volume, symmetric_power_volume
from .closed import closed_volume
from .grothendieck import grothendieck_degree
from .localization import (
    QuotProblem,
    WeightVector,
    default_weights,
    quot_volume,
    verify_weight_independence,
)
from .scalars import InputError, Record, TPoly, _require_int, _require_int_list, parse_fraction

__all__ = ["JobSpec", "InputError", "parse_jobspec", "run_job", "main"]

SCHEMA_VERSION = 1
EXIT_OK = 0
EXIT_INPUT = 2
EXIT_COMPUTE = 3

# The fields each command needs.  A tuple entry is met by any one of its
# names: a sweep takes a single value or a range.
_REQUIRED = {
    "abelian-volume": ("g", "l", "d"),
    "acyclic-volume": ("n_dim", "q", "deg_E"),
    "quot-volume": ("g", "r", "l", "d"),
    "grothendieck-degree": ("g", "r", "l", "d", "n"),
    "verify": ("g", "r", "l", "d"),
    "sweep": ("r", ("g", "g_values"), ("d", "d_values"), ("l", "l_partitions")),
}
COMMANDS = tuple(_REQUIRED)

TTILDE_CHAR = "\U0001d531"  # fraktur t, used only in plain rendering

# Integer fields: (name, smallest valid value or None, whether the field is a
# list checked entry by entry).  Anything below the minimum is an input error.
_INTEGERS = (
    ("g", 0, False), ("r", 1, False), ("d", 0, False), ("n", None, False),
    ("n_dim", 1, False), ("q", 0, False),
    ("l", None, True), ("g_values", 0, True), ("d_values", 0, True),
)


# ---------------------------------------------------------------------------
# exact-rational serialization (``scalars.parse_fraction`` reads them)

def format_fraction(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


# ---------------------------------------------------------------------------
# polynomial rendering

def poly_coefficients(p: TPoly) -> list[str]:
    """Ascending coefficient list; index k is the degree-k coefficient."""
    return [format_fraction(c) for c in p.coeffs] or [format_fraction(Fraction(0))]


def render_plain(p: TPoly) -> str:
    return p._plain(var=TTILDE_CHAR)


def _latex_coeff(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return rf"\frac{{{c.numerator}}}{{{c.denominator}}}"


def _latex_power(k: int) -> str:
    return r"\mathfrak{t}" if k == 1 else rf"\mathfrak{{t}}^{{{k}}}"


def render_latex(p: TPoly) -> str:
    return p.format_terms(_latex_coeff, _latex_power, "")


# ---------------------------------------------------------------------------
# job specification

class JobSpec(Record):
    """A parsed job: the library problem it runs on and how to report it.

    ``problem`` is a ``CurveQuotProblem`` (abelian-volume), an
    ``AcyclicData`` (acyclic-volume), a tuple of ``QuotProblem`` rows in
    (g, d, l-partition) order (sweep) or a ``QuotProblem``.  ``echo`` is the
    input document, repeated in the result."""

    __slots__ = ("command", "out_format", "problem", "weights", "n", "t_mode", "t_value",
                 "vol_X", "pi_probe", "echo")


def _parse_t_section(doc: dict) -> tuple:
    """``(t_mode, t_value, vol_X, pi_probe)`` from the ``t`` object."""
    t = doc.get("t")
    if t is None:
        return "ttilde-symbolic", None, None, None
    if not isinstance(t, dict):
        raise InputError("t", "expected an object")
    mode = t.get("mode", "ttilde-symbolic")
    if mode not in ("ttilde-symbolic", "ttilde-value", "physical-t"):
        raise InputError("t.mode", f"unknown mode {mode!r}")
    value, vol_X, pi_probe = (
        parse_fraction(t[key], f"t.{key}") if key in t else None
        for key in ("value", "vol_X", "pi_probe")
    )
    if pi_probe == 0:
        raise InputError("t.pi_probe", "pi probe must be nonzero")
    if mode != "ttilde-symbolic" and value is None:
        raise InputError("t.value", f"required for mode {mode!r}")
    if mode == "physical-t" and vol_X is None:
        raise InputError("t.vol_X", "required for mode 'physical-t'")
    return mode, value, vol_X, pi_probe


def _parse_weights(doc: dict, command: str, r: int | None) -> tuple[WeightVector, ...] | None:
    ws = doc.get("weights")
    if ws is None:
        return None
    if command not in ("quot-volume", "verify"):
        raise InputError("weights", f"{command} takes no torus weights")
    if not isinstance(ws, list) or not all(isinstance(v, list) for v in ws):
        raise InputError("weights", "expected a list of weight vectors")
    parsed: dict[WeightVector, int] = {}  # each vector -> its first index
    for vi, vec in enumerate(ws):
        entries = tuple(parse_fraction(x, f"weights[{vi}][{k}]") for k, x in enumerate(vec))
        try:
            w = WeightVector(entries)
        except ValueError as exc:
            raise InputError(f"weights[{vi}]", str(exc)) from None
        if w in parsed:
            raise InputError(f"weights[{vi}]", f"repeats weights[{parsed[w]}]")
        parsed[w] = vi
    if command == "quot-volume" and len(parsed) != 1:
        raise InputError("weights", "quot-volume takes a single weight vector")
    if command == "verify" and len(parsed) == 1:
        raise InputError("weights", "verify needs at least two weight vectors")
    for w, vi in parsed.items():
        if len(w.w) != r:
            raise InputError(f"weights[{vi}]", f"expected {r} weights")
    return tuple(parsed)


def _default_verify_weights(r: int) -> tuple[WeightVector, ...]:
    """Three deterministic candidates: 1..r, the first r primes, and a seeded
    pseudo-random distinct rational vector."""
    # the seeded draw a/b, |a| <= 60, 1 <= b <= 12, has only 899 distinct values
    if r >= 900:
        raise InputError("weights", "r >= 900 needs explicit weights for verify")
    primes = []
    k = 2
    while len(primes) < r:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    rng = random.Random(20201)
    rand: list[Fraction] = []
    seen: set[Fraction] = set()  # beside the list: a membership test on it is O(r)
    while len(rand) < r:
        cand = Fraction(rng.randint(-60, 60), rng.randint(1, 12))
        if cand not in seen:
            seen.add(cand)
            rand.append(cand)
    return (
        default_weights(r),
        WeightVector(tuple(Fraction(p) for p in primes)),
        WeightVector(tuple(rand)),
    )


def parse_jobspec(doc: dict) -> JobSpec:
    """Validate a job document and build the library problem it runs on.

    Every input check runs here, so ``run_job`` only computes."""
    if not isinstance(doc, dict):
        raise InputError("$", "input document must be a JSON object")
    if (schema := doc.get("schema", SCHEMA_VERSION)) != SCHEMA_VERSION or type(schema) is not int:
        raise InputError("schema", f"unsupported schema version {schema!r}")
    command = doc.get("command")
    if command not in COMMANDS:
        raise InputError("command", f"expected one of {', '.join(COMMANDS)}")
    out_format = doc.get("format", "json")
    if out_format not in ("json", "latex", "plain"):
        raise InputError("format", "expected one of json, latex, plain")
    for need in _REQUIRED[command]:
        if isinstance(need, str):
            if doc.get(need) is None:
                raise InputError(need, f"required for {command}")
        elif all(doc.get(name) is None for name in need):
            raise InputError(need[0], f"{command} needs {' or '.join(need)}")
    ints = {}
    for name, minimum, listed in _INTEGERS:
        if doc.get(name) is not None:
            ints[name] = (_require_int_list if listed else _require_int)(doc[name], name, minimum)
    g, r, l, d = (ints.get(name) for name in ("g", "r", "l", "d"))
    t_section = _parse_t_section(doc)
    weights = _parse_weights(doc, command, r)
    if command == "verify":
        if doc.get("suite", "weight-independence") != "weight-independence":
            raise InputError("suite", f"unknown suite {doc['suite']!r}")
        weights = weights or _default_verify_weights(r)

    if command == "acyclic-volume":
        from .exterior import _parse_acyclic  # only acyclic jobs load the exterior algebra
        problem = _parse_acyclic(doc, ints["n_dim"], ints["q"])
    elif command == "abelian-volume":
        # a degree list has one entry per summand: one on a curve, else r
        if len(l) != 1:
            raise InputError("l", "abelian-volume takes a single degree [deg_E0]")
        problem = CurveQuotProblem(g=g, deg_E=l[0] - d, d=d)
    else:
        partitions = doc.get("l_partitions") if command == "sweep" else None
        if partitions is not None:
            if not isinstance(partitions, list):
                raise InputError("l_partitions", "expected a list of integer lists")
            partitions = tuple(_require_int_list(part, f"l_partitions[{i}]")
                               for i, part in enumerate(partitions))
        parts = enumerate(partitions or ())
        for name, part in (("l", l), *((f"l_partitions[{i}]", p) for i, p in parts)):
            if part is not None and len(part) != r:
                raise InputError(name, f"expected {r} entries, got {len(part)}")
        if command == "sweep":
            problem = tuple(
                QuotProblem(g=gi, r=r, l=part, d=di)
                for gi in ints.get("g_values", (g,)) for di in ints.get("d_values", (d,))
                for part in (partitions if partitions is not None else (l,))
            )
        else:
            problem = QuotProblem(g=g, r=r, l=l, d=d)
    return JobSpec(command, out_format, problem, weights, ints.get("n"), *t_section, doc)


# ---------------------------------------------------------------------------
# t-mode reporting

def _t_report(spec: JobSpec, volume: TPoly, dim: int, base_dim: int = 1) -> dict | None:
    if spec.t_mode == "ttilde-symbolic":
        return None
    if spec.t_mode == "ttilde-value":
        return {
            "mode": "ttilde-value",
            "ttilde": format_fraction(spec.t_value),
            "value": format_fraction(volume(spec.t_value)),
        }
    # physical-t: ttilde = (n-1)! t vol_X / (2 pi), n the base dimension
    # (the factorial is 1 on a curve); pi stays symbolic unless a rational
    # probe is supplied, and probe results are not exact.
    fact = math.factorial(base_dim - 1)
    report = {
        "mode": "physical-t",
        "t": format_fraction(spec.t_value),
        "vol_X": format_fraction(spec.vol_X),
        "substitution": f"ttilde = {fact}*t*vol_X/(2*pi)",
        "unnormalized_factor": f"(4*pi^2)^{dim}",
        "exact": False,
    }
    if spec.pi_probe is not None:
        ttilde = fact * spec.t_value * spec.vol_X / (2 * spec.pi_probe)
        report["pi_probe"] = format_fraction(spec.pi_probe)
        report["ttilde_at_probe"] = format_fraction(ttilde)
        report["value_at_probe"] = format_fraction(volume(ttilde))
        report["unnormalized_at_probe"] = format_fraction(
            (4 * spec.pi_probe ** 2) ** dim * volume(ttilde)
        )
    else:
        report["note"] = "supply t.pi_probe for a numeric evaluation"
    return report


# ---------------------------------------------------------------------------
# command handlers

def _emit_volume(out: dict, spec: JobSpec, volume: TPoly, **extra) -> dict:
    """Add ``volume``, then each ``extra`` field that is not None, then
    ``latex`` when asked for; this fixes the key order of stdout."""
    out["volume"] = {"variable": "ttilde", "coefficients": poly_coefficients(volume)}
    out.update((key, value) for key, value in extra.items() if value is not None)
    if spec.out_format == "latex":
        out["latex"] = render_latex(volume)
    return out


def run_job(spec: JobSpec) -> dict:
    """Execute one job that ``parse_jobspec`` accepted; return the result document.

    Volumes come from the closed form, except where the job names torus
    weights (a weighted ``quot-volume``, ``verify``): those are inputs of the
    localization engine, which then runs."""
    problem = spec.problem
    result = {"schema": SCHEMA_VERSION, "input": spec.echo}
    if spec.command == "sweep":
        result["rows"] = [
            _emit_volume({"g": p.g, "r": p.r, "d": p.d, "l": list(p.l)}, spec, closed_volume(p))
            for p in problem
        ]
    elif spec.command == "abelian-volume":
        volume = symmetric_power_volume(problem)
        _emit_volume(result, spec, volume, t=_t_report(spec, volume, problem.d))
        result["unnormalized"] = {"expression": f"(4*pi^2)^{problem.d} * volume"}
        if spec.pi_probe is not None:
            result["unnormalized"]["factor_at_pi_probe"] = format_fraction(
                (4 * spec.pi_probe ** 2) ** problem.d
            )
    elif spec.command == "acyclic-volume":
        volume = acyclic_volume(problem)
        _emit_volume(result, spec, volume, t=_t_report(spec, volume, problem.dimension, problem.n))
    elif spec.command == "quot-volume":
        volume = quot_volume(problem, spec.weights[0]) if spec.weights else closed_volume(problem)
        _emit_volume(result, spec, volume, t=_t_report(spec, volume, problem.r * problem.d))
    elif spec.command == "grothendieck-degree":
        volume = closed_volume(problem)
        _emit_volume(result, spec, volume, degree=grothendieck_degree(problem, spec.n, volume))
    else:  # verify
        report = verify_weight_independence(problem, spec.weights)
        result["verify"] = {
            "suite": "weight-independence",
            "pass": report.passed,
            "candidates": len(spec.weights),
            "volumes": [
                {
                    "weights": [format_fraction(x) for x in w.w],
                    "coefficients": poly_coefficients(v),
                }
                for w, v in report.volumes
            ],
        }
    return result


# ---------------------------------------------------------------------------
# plain-text rendering of result documents

def _poly_from_document(doc: dict) -> TPoly:
    return TPoly([Fraction(c) for c in doc["coefficients"]])


def render_result_plain(result: dict) -> str:
    lines = []
    if "volume" in result:
        lines.append(f"volume = {render_plain(_poly_from_document(result['volume']))}")
    if "t" in result:
        t = result["t"]
        if t["mode"] == "ttilde-value":
            lines.append(f"value at {TTILDE_CHAR} = {t['ttilde']}: {t['value']}")
        else:
            lines.append(f"substitution: {t['substitution']} (not exact in pi)")
            if "value_at_probe" in t:
                lines.append(
                    f"value at pi = {t['pi_probe']}, t = {t['t']}, vol_X = {t['vol_X']}: "
                    f"{t['value_at_probe']}"
                )
    if "degree" in result:
        lines.append(f"degree = {result['degree']}")
    if "verify" in result:
        v = result["verify"]
        lines.append(
            f"{v['suite']}: {'pass' if v['pass'] else 'FAIL'} ({v['candidates']} candidates)"
        )
    for row in result.get("rows", ()):
        poly = render_plain(_poly_from_document(row["volume"]))
        lines.append(
            f"g={row['g']} r={row['r']} d={row['d']} l={tuple(row['l'])}: {poly}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# argument parsing and entry point

# Each flag's converter; a value it rejects is an input error naming the flag.
_FLAGS = {"file": str, "g": int, "r": int, "l": str, "d": int, "n": int, "ttilde": str,
          "format": str}
USAGE = (f"usage: quotvol {{{','.join(COMMANDS)}}} [--file PATH] [--g G] [--r R] "
         "[--l L1,L2,...] [--d D] [--n N] [--ttilde T] [--format {json,latex,plain}]")


def _build_argparser(argv: Sequence[str]) -> dict | None:
    """The command and flag values of ``argv``, or None for ``-h``/``--help``.
    The command may stand anywhere; a flag is ``--name value`` or ``--name=value``,
    the last one wins, and a token not starting with ``--`` is a value (``--l -1,3``).
    ``perfbench/tracer.py`` wraps this name as parse time."""
    args: dict = {}
    tokens = iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            return None
        if not token.startswith("--"):
            if "command" in args:
                raise InputError("command", f"a second command {token!r}")
            args["command"] = token
            continue
        name, eq, value = token[2:].partition("=")
        if name not in _FLAGS:
            raise InputError(f"--{name}", "unknown flag")
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise InputError(name, "expected a value")
        try:
            args[name] = _FLAGS[name](value)
        except ValueError:
            raise InputError(name, f"expected an integer, got {value!r}") from None
    if args.get("command") not in COMMANDS:
        raise InputError("command", f"expected one of {', '.join(COMMANDS)}")
    return args


def _load_document(args: dict) -> dict:
    doc: dict = {}
    if args.get("file"):
        try:
            with open(args["file"], "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError("file", str(exc)) from None
    elif not sys.stdin.isatty():
        try:
            text = sys.stdin.read()
        except UnicodeDecodeError as exc:
            raise InputError("$", str(exc)) from None
    else:
        text = ""
    text = text.strip()
    if text:
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as exc:  # also over-long integers, deep nesting
            raise InputError("$", f"invalid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise InputError("$", "input document must be a JSON object")
    doc["command"] = args["command"]
    # flag order fixes the key order of a new field in the echoed input
    for name in ("g", "r", "l", "d", "n", "ttilde", "format"):
        value = args.get(name)
        if value is None:
            continue
        if name == "l":
            try:
                value = [int(x) for x in value.split(",")]
            except ValueError:
                raise InputError("l", f"bad degree list {value!r}") from None
        elif name == "ttilde":
            t = doc.get("t") or {}
            if not isinstance(t, dict):
                raise InputError("t", "expected an object")
            name, value = "t", {**t, "mode": "ttilde-value", "value": value}
        doc[name] = value
    return doc


def main(argv: Sequence[str] | None = None) -> int:
    started = time.perf_counter()
    try:
        args = _build_argparser(sys.argv[1:] if argv is None else argv)
        if args is None:
            print(USAGE)
            return EXIT_OK
        spec = parse_jobspec(_load_document(args))
        result = run_job(spec)
    except InputError as exc:
        print(f"input error {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, ArithmeticError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE

    if spec.out_format == "plain":
        print(render_result_plain(result))
    else:
        print(json.dumps(result, indent=2))
    print(f"wall_time_s={time.perf_counter() - started:.6f}", file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
