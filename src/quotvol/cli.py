"""Batch command line: JSON job documents in, exact results out.

A job is a single JSON object (stdin or ``--file``), optionally overridden
by flat flags for scripting.  ``run_job``'s result holds each volume as its
``TPoly`` until ``main`` renders it as JSON (``num/den`` strings), plain or TeX
text, printing each coefficient once, from the exact polynomial.  Timing goes
to stderr so stdout stays byte-identical across runs.

Exit codes: 0 success, 1 stdout closed early, 2 input error, 3 computation error.

Run as ``__main__`` (``python -m quotvol.cli``, the ``quotvol`` script), it
imports ``scalars`` and only the engine of the job's command; imported as a
module, it also binds the volume function of every engine.
"""

from __future__ import annotations

import gc
import json
import math
import os
import sys
import time
from fractions import Fraction
from typing import NoReturn, Sequence

from .scalars import (WORK_LIMIT, InputError, QuotProblem, Record, TPoly, _ascii_int, _bits,
                      _print_price, _product_price, _require_int, _require_int_list,
                      _within_budget, parse_fraction)

if __name__ != "__main__":  # perfbench/tracer.py patches these names; delete once it stops
    from .abelian import acyclic_volume, symmetric_power_volume
    from .grothendieck import grothendieck_degree
    from .localization import quot_volume

__all__ = ["JobSpec", "InputError", "parse_jobspec", "run_job", "main", "entry"]

SCHEMA_VERSION = 1
EXIT_OK = 0
EXIT_INPUT = 2
EXIT_COMPUTE = 3

# Each command's row: the fields it needs (a tuple entry is met by any one of its names: a
# sweep takes a single value or a range), the engine function that computes its volume, and
# its report head, (degree in ttilde, exponent of (4 pi^2), base dimension) of its problem.
_COMMANDS = {
    "abelian-volume": (("g", "l", "d"), "abelian.symmetric_power_volume", lambda p: (p.d, p.d, 1)),
    "acyclic-volume": (("n_dim", "q", "deg_E"), "abelian.acyclic_volume",
                       lambda p: (p.dimension, p.dimension, p.n)),
    "quot-volume": (("g", "r", "l", "d"), "closed.closed_volume", lambda p: (p.d, p.r * p.d, 1)),
    "grothendieck-degree": (("g", "r", "l", "d", "n"), "closed.closed_volume",
                            lambda p: (p.d, p.r * p.d, 1)),
    "verify": (("g", "r", "l", "d"), "localization.verify_weight_independence", None),
    "sweep": (("r", ("g", "g_values"), ("d", "d_values"), ("l", "l_partitions")),
              "closed.closed_volume", None),
}
COMMANDS = tuple(_COMMANDS)

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
    """A volume's JSON form: ascending ``num/den`` list, index k the degree-k coefficient."""
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
        raise InputError("t.mode", f"unknown mode {json.dumps(mode, default=repr)}")
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


# ---------------------------------------------------------------------------
# work budget: ``scalars`` holds the limit and the refusal, and each engine's module prices
# its own jobs (``exterior._parse_acyclic`` a whole acyclic job); this module prices the
# evaluation and names the field of every other refusal

def _report_plan(spec: JobSpec) -> tuple | None:
    """``(degree, dim, fact, point, field_name, factor_line)``, or None for sweep and verify:
    the row's head; in physical-t mode fact = (n-1)!, and ttilde = fact t vol_X / (2 pi) (else
    None); the point the volume is evaluated at (or None) and the field that sets it; whether
    (4 pi^2)^dim prints by itself."""
    head, p, pi = _COMMANDS[spec.command][2], spec.problem, spec.pi_probe
    if head is None:
        return None
    degree, dim, n = head(p)
    fact = math.factorial(n - 1) if spec.t_mode == "physical-t" else None
    point, field_name = None, "t.pi_probe"
    if spec.command == "grothendieck-degree":  # (rd)! Vol(n - g + 1)
        point, field_name = Fraction(spec.n - p.g + 1), "n"
    elif spec.t_mode == "ttilde-value":
        point, field_name = spec.t_value, "t.value"
    elif fact is not None and pi is not None:
        point = fact * spec.t_value * spec.vol_X / (2 * pi)
    return degree, dim, fact, point, field_name, spec.command == "abelian-volume"


def _evaluation_work(spec: JobSpec) -> tuple[float, str]:
    """The plan's evaluation, and the field that sets the point: Horner's rule makes
    ``degree`` products by the point, and each number is printed."""
    plan, pi = _report_plan(spec), spec.pi_probe
    if plan is None:  # sweep and verify evaluate nothing
        return 0, ""
    degree, dim, _, point, field_name, factor_line = plan
    power = 0 if pi is None else 2 * min(dim, WORK_LIMIT) * _bits(pi)  # the bits of (4 pi^2)^dim
    work = _print_price(power) if factor_line else 0
    if point is not None:
        degree, bits = min(degree, WORK_LIMIT), _bits(point)
        work += degree * _product_price(degree * bits // 2, bits) + _print_price(degree * bits)
        work += _print_price(degree * bits + power) if field_name == "t.pi_probe" else 0
    return work, field_name


def parse_jobspec(doc: dict) -> JobSpec:
    """Validate a job document and build the library problem it runs on.

    Every input check runs here, so ``run_job`` only computes."""
    if not isinstance(doc, dict):
        raise InputError("$", "input document must be a JSON object")
    if (schema := doc.get("schema", SCHEMA_VERSION)) != SCHEMA_VERSION or type(schema) is not int:
        raise InputError("schema", f"unsupported schema version {json.dumps(schema, default=repr)}")
    command = doc.get("command")
    if command not in COMMANDS:
        raise InputError("command", f"expected one of {', '.join(COMMANDS)}")
    out_format = doc.get("format", "json")
    if out_format not in ("json", "latex", "plain"):
        raise InputError("format", "expected one of json, latex, plain")
    for need in _COMMANDS[command][0]:
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
    weights = doc.get("weights")  # only null counts as absent
    if weights is not None and command not in ("quot-volume", "verify"):
        raise InputError("weights", f"{command} takes no torus weights")
    if weights is not None or command == "verify":  # the jobs that load localization
        from .localization import _read_weights
        weights = _read_weights(doc, command, r)

    if command == "acyclic-volume":
        from .exterior import _parse_acyclic  # loaded by acyclic jobs alone
        problem, work = _parse_acyclic(doc, ints["n_dim"], ints["q"], t_section[0] == "physical-t")
    elif command == "abelian-volume":
        from .abelian import CurveQuotProblem, _shifted_sum_work
        # a degree list has one entry per summand: one on a curve, else r
        if len(l) != 1:
            raise InputError("l", "abelian-volume takes a single degree [deg_E0]")
        problem = CurveQuotProblem(g=g, deg_E=l[0] - d, d=d)
        work = _shifted_sum_work(problem.deg_E, d, g + 1, min(g, d * g.bit_length()))
        _within_budget(work, "d")
    else:
        # rows in (g, d, l) order: a sweep's ranges, or the job's one (g, d, l)
        sweep = command == "sweep"
        partitions = doc.get("l_partitions") if sweep else None
        if partitions is not None:
            if not isinstance(partitions, list):
                raise InputError("l_partitions", "expected a list of integer lists")
            partitions = tuple(_require_int_list(part, f"l_partitions[{i}]")
                               for i, part in enumerate(partitions))
        parts = enumerate(partitions or ())
        for name, part in (("l", l), *((f"l_partitions[{i}]", p) for i, p in parts)):
            if part is not None and len(part) != r:
                raise InputError(name, f"expected {r} entries, got {len(part)}")
        ranges = ints if sweep else {}
        gs, ds = ranges.get("g_values", (g,)), ranges.get("d_values", (d,))
        parts = partitions if partitions is not None else (l,)
        if weights:
            from .localization import _localization_work
            work = _localization_work(QuotProblem(g=g, r=r, l=l, d=d), weights)
        else:
            from .closed import _closed_form_work
            work = _closed_form_work(r, gs, ds, parts)
        _within_budget(work, "r" if weights else "d" if d is not None else "d_values")
        rows = tuple(QuotProblem(g=gi, r=r, l=part, d=di)
                     for gi in gs for di in ds for part in parts)
        problem = rows if sweep else rows[0]
    spec = JobSpec(command, out_format, problem, weights, ints.get("n"), *t_section, doc)
    evaluation, field_name = _evaluation_work(spec)
    # after the engine's own check, whose field and message stand
    _within_budget(work + evaluation, field_name)
    return spec


# ---------------------------------------------------------------------------
# t-mode reporting

def _t_report(spec: JobSpec, volume: TPoly) -> tuple[dict | None, dict | None]:
    """The ``t`` report and the ``unnormalized`` block, as the plan says; pi stays
    symbolic unless a rational probe is supplied, and probe results are not exact."""
    _, dim, fact, point, field_name, factor_line = _report_plan(spec)
    pi, power = spec.pi_probe, f"(4*pi^2)^{dim}"
    probe = point is not None and field_name == "t.pi_probe"
    factor = (4 * pi ** 2) ** dim if pi is not None and (factor_line or probe) else None
    unnormalized = {"expression": f"{power} * volume"} if factor_line else None
    if factor_line and factor is not None:
        unnormalized["factor_at_pi_probe"] = format_fraction(factor)
    if spec.t_mode == "ttilde-symbolic":
        return None, unnormalized
    value = None if point is None else volume(point)
    if spec.t_mode == "ttilde-value":
        return ({"mode": "ttilde-value", "ttilde": format_fraction(point),
                 "value": format_fraction(value)}, unnormalized)
    report = {"mode": "physical-t", "t": format_fraction(spec.t_value),
              "vol_X": format_fraction(spec.vol_X),
              "substitution": f"ttilde = {fact}*t*vol_X/(2*pi)",
              "unnormalized_factor": power, "exact": False}
    if probe:
        report.update(pi_probe=format_fraction(pi), ttilde_at_probe=format_fraction(point),
                      value_at_probe=format_fraction(value),
                      unnormalized_at_probe=format_fraction(factor * value))
    else:
        report["note"] = "supply t.pi_probe for a numeric evaluation"
    return report, unnormalized


# ---------------------------------------------------------------------------
# command handlers

def _emit_volume(out: dict, spec: JobSpec, volume: TPoly, **extra) -> dict:
    """Add ``volume``, then each ``extra`` field that is not None, then
    ``latex`` when asked for; this fixes the key order of stdout."""
    out["volume"] = {"variable": "ttilde", "coefficients": volume}
    out.update((key, value) for key, value in extra.items() if value is not None)
    if spec.out_format == "latex":
        out["latex"] = render_latex(volume)
    return out


def run_job(spec: JobSpec) -> dict:
    """Execute one job that ``parse_jobspec`` accepted; return the result document, with
    each volume's ``TPoly`` under ``coefficients`` until ``main`` renders it.  The job's row
    names the engine, but a weighted ``quot-volume`` runs localization, whose inputs the
    weights are.  The engine is imported and looked up here, at run time: a process started
    as a script loads no other, and a wrapper set in the engine's module is called."""
    command, problem = spec.command, spec.problem
    module, _, name = ("localization.quot_volume" if command == "quot-volume" and spec.weights
                       else _COMMANDS[command][1]).partition(".")
    engine = getattr(__import__(f"quotvol.{module}", fromlist=[name]), name)
    result = {"schema": SCHEMA_VERSION, "input": spec.echo}
    if command == "sweep":
        result["rows"] = [
            _emit_volume({"g": p.g, "r": p.r, "d": p.d, "l": list(p.l)}, spec, engine(p))
            for p in problem
        ]
    elif command == "verify":
        report = engine(problem, spec.weights)
        result["verify"] = {
            "suite": "weight-independence", "pass": report.passed, "candidates": len(spec.weights),
            "volumes": [{"weights": [format_fraction(x) for x in w.w],
                         "coefficients": v} for w, v in report.volumes],
        }
    elif command == "grothendieck-degree":
        from .grothendieck import grothendieck_degree
        volume = engine(problem)
        _emit_volume(result, spec, volume, degree=grothendieck_degree(problem, spec.n, volume))
    else:
        volume = engine(problem, *(spec.weights or ()))  # a quot-volume names one vector
        report, unnormalized = _t_report(spec, volume)
        _emit_volume(result, spec, volume, t=report)
        if unnormalized is not None:
            result["unnormalized"] = unnormalized
    return result


# ---------------------------------------------------------------------------
# plain-text rendering of result documents

def render_result_plain(result: dict) -> str:
    lines = []
    if "volume" in result:
        lines.append(f"volume = {render_plain(result['volume']['coefficients'])}")
    if "t" in result:
        t = result["t"]
        if t["mode"] == "ttilde-value":
            lines.append(f"value at {TTILDE_CHAR} = {t['ttilde']}: {t['value']}")
        else:
            lines.append(f"substitution: {t['substitution']} (not exact in pi)")
            if "value_at_probe" in t:
                lines.append(f"value at pi = {t['pi_probe']}, t = {t['t']}, "
                             f"vol_X = {t['vol_X']}: {t['value_at_probe']}")
    if "degree" in result:
        lines.append(f"degree = {result['degree']}")
    if "verify" in result:
        v = result["verify"]
        lines.append(f"{v['suite']}: {'pass' if v['pass'] else 'FAIL'} "
                     f"({v['candidates']} candidates)")
    for row in result.get("rows", ()):
        poly = render_plain(row["volume"]["coefficients"])
        lines.append(f"g={row['g']} r={row['r']} d={row['d']} l={tuple(row['l'])}: {poly}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# argument parsing and entry point

# Each flag's converter; a value it rejects is an input error naming the flag.
_FLAGS = {"file": str, "g": _ascii_int, "r": _ascii_int, "l": str, "d": _ascii_int,
          "n": _ascii_int, "ttilde": str, "format": str}
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


def _finite(text: str) -> float:
    """A JSON number; NaN, Infinity and ``1e999`` (past the float range) are not JSON."""
    if not math.isfinite(value := float(text)):
        raise ValueError(f"{text} is not a finite number")
    return value


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
            doc = json.loads(text, parse_float=_finite, parse_constant=_finite)
        except (ValueError, RecursionError) as exc:  # also over-long integers, deep nesting
            raise InputError("$", f"invalid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise InputError("$", "input document must be a JSON object")
    doc["command"] = args["command"]
    # flag order fixes the key order of a new field in the echoed input
    for name in _FLAGS:
        value = args.get(name)
        if value is None or name == "file":
            continue
        if name == "l":
            try:
                value = [_ascii_int(x) for x in value.split(",")]
            except ValueError:
                raise InputError("l", f"bad degree list {value!r}") from None
        elif name == "ttilde":
            t = doc.get("t")  # only null counts as absent
            if t is not None and not isinstance(t, dict):
                raise InputError("t", "expected an object")
            name, value = "t", {**(t or {}), "mode": "ttilde-value", "value": value}
        doc[name] = value
    return doc


def main(argv: Sequence[str] | None = None) -> int:
    """Run one job; the input is read under Python's limit on the digits of an
    integer turned into text or back, and the answer is computed and rendered
    without it, so an exact result prints at any size."""
    started = time.perf_counter()
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    try:
        args = _build_argparser(sys.argv[1:] if argv is None else argv)
        if args is None:
            print(USAGE)
            return EXIT_OK
        spec = parse_jobspec(_load_document(args))
        if limit:
            sys.set_int_max_str_digits(0)
        result = run_job(spec)
        text = (render_result_plain(result) if spec.out_format == "plain"
                else json.dumps(result, indent=2, default=poly_coefficients))
    except InputError as exc:
        print(f"input error {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, ArithmeticError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    print(text)
    print(f"wall_time_s={time.perf_counter() - started:.6f}", file=sys.stderr)
    return EXIT_OK


def entry() -> NoReturn:
    """Process entry point (``python -m quotvol.cli``, the ``quotvol`` script).

    Runs ``main()``, then freezes the collector before exiting: every object
    alive at that point moves to the permanent generation, which the
    collections at interpreter shutdown do not scan.  Shutdown is otherwise
    normal: streams are flushed, ``atexit`` handlers run, modules are torn
    down.  ``main()`` itself does not freeze, because tests and tracers call
    it many times in one process.  A reader that closes stdout early gets exit
    code 1 and no traceback: fd 1 then points at ``os.devnull`` for the exit flush."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":  # pragma: no cover
    entry()
