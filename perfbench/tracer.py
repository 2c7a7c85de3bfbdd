"""Run one quotvol CLI job with a span around every layer boundary.

    python3 perfbench/tracer.py SPANS_OUT JOB_ID -- COMMAND [CLI ARGS...]

The job document comes on stdin, as for ``quotvol``.  The runner imports
``quotvol``, wraps the public functions of each module (patching every module
that imported a wrapped name, so no call goes around its wrapper), then calls
``cli.main`` with the CLI arguments.  Stdout is left to ``cli.main`` alone, so
it must match an untraced run byte for byte.  Spans stay in memory and are
written to SPANS_OUT as one JSON document when the job ends.

A span is ``[job, id, parent, name, start, end, attrs]``; ``attrs`` holds the
operation counts taken at the boundary (see ``_ATTRS``).  ``summarize`` turns
one job's spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import defaultdict

PARSE_SPANS = ("cli._build_argparser", "cli._load_document", "cli.parse_jobspec")
RENDER_SPANS = ("cli.poly_coefficients", "cli.render_latex", "cli.render_result_plain",
                "cli.json_dumps")
SERIES_SPANS = ("scalars.series_mul", "scalars.series_pow_int", "scalars.series_exp")

# Per-layer metrics: (name, unit).  Times are seconds summed over the jobs of
# one pass, counts are summed, peaks are maxima.
LAYER_METRICS = (
    ("cli.import_s", "s"),
    ("cli.parse_s", "s"),
    ("cli.run_job_s", "s"),
    ("cli.render_s", "s"),
    ("localization.quot_volume_calls", "count"),
    ("localization.quot_volume_s", "s"),
    ("localization.compositions", "count"),
    ("localization.integrand_s", "s"),
    ("localization.extract_s", "s"),
    ("localization.peak_series_terms", "count"),
    ("localization.useful_term_ratio", "ratio"),
    ("scalars.series_mul_calls", "count"),
    ("scalars.series_mul_s", "s"),
    ("scalars.series_pow_int_s", "s"),
    ("scalars.series_exp_s", "s"),
    ("scalars.tpoly_mul_calls", "count"),
    ("scalars.tpoly_mul_s", "s"),
    ("scalars.tpoly_coeff_products", "count"),
    ("exterior.wedge_calls", "count"),
    ("exterior.wedge_s", "s"),
    ("exterior.wedge_term_pairs", "count"),
    ("exterior.peak_form_terms", "count"),
    ("abelian.acyclic_volume_s", "s"),
    ("abelian.segre_s", "s"),
    ("abelian.symmetric_power_volume_s", "s"),
    ("grothendieck.degree_s", "s"),
    ("grothendieck.quot_volume_calls_per_job", "count"),
)

# Deterministic per-job counts: they must repeat exactly for the same job.
EXACT_COUNTS = (
    "localization.quot_volume_calls",
    "localization.compositions",
    "localization.peak_series_terms",
    "localization.useful_terms",
    "localization.built_terms",
    "scalars.series_mul_calls",
    "scalars.tpoly_mul_calls",
    "scalars.tpoly_coeff_products",
    "exterior.wedge_calls",
    "exterior.wedge_term_pairs",
    "exterior.peak_form_terms",
    "grothendieck.quot_volume_calls",
)


class Tracer:
    def __init__(self, job: int):
        self.job = job
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._next_id = 0

    def open(self) -> tuple[int, int | None]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def close(self, sid, parent, name, start, end, attrs=None):
        self._stack.pop()
        self.spans.append([self.job, sid, parent, name, start, end, attrs])

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` with a span; ``attrs(args, result)`` counts the work done."""
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self.open()
            extra = None
            start = perf()
            try:
                result = fn(*args, **kwargs)
                if attrs is not None and result is not NotImplemented:
                    extra = attrs(args, result)
            finally:
                self.close(sid, parent, name, start, perf(), extra)
            return result

        return traced


def _tpoly_products(args, result):
    a, b = args
    return len(a.coeffs) * (len(b.coeffs) if hasattr(b, "coeffs") else 1)


def _terms(args, result):
    return len(result.terms)


def _integrand_terms(args, result):
    parts = args[1].parts
    r = len(parts)
    useful = sum(
        1 for key in result.terms
        if all(key[2 * i] + key[2 * i + 1] == parts[i] for i in range(r))
    )
    return [useful, len(result.terms)]


def _wedge_pairs(args, result):
    a, b = args
    return [len(a.terms) * len(b.terms), len(result.terms)]


# What each attrs value holds, by span name.
_ATTRS = {
    "scalars.tpoly_mul": _tpoly_products,        # coefficient products len(a)*len(b)
    "scalars.series_mul": _terms,                # terms of the product
    "scalars.series_pow_int": _terms,            # terms of the power
    "scalars.series_exp": _terms,                # terms of the exponential
    "localization.integrand": _integrand_terms,  # [exact multi-degree terms, all terms]
    "exterior.wedge": _wedge_pairs,              # [|a|*|b|, terms of the wedge]
}


def install(tracer: Tracer):
    """Wrap each layer's functions in every module that binds them."""
    from quotvol import abelian, cli, exterior, grothendieck, localization, scalars

    def patch(name, owner, attr, *importers):
        original = getattr(owner, attr)
        wrapped = tracer.wrap(name, original, _ATTRS.get(name))
        for module in (owner, *importers):
            if getattr(module, attr) is not original:
                raise RuntimeError(f"{module.__name__}.{attr} is not {name}; tracer out of date")
            setattr(module, attr, wrapped)
        return wrapped

    for attr in ("_build_argparser", "_load_document", "parse_jobspec", "run_job",
                 "poly_coefficients", "render_latex", "render_result_plain"):
        patch(f"cli.{attr}", cli, attr)
    real_json = cli.json
    cli.json = types.ModuleType("json")
    cli.json.__dict__.update(vars(real_json))
    cli.json.dumps = tracer.wrap("cli.json_dumps", real_json.dumps)

    patch("localization.quot_volume", localization, "quot_volume", cli, grothendieck)
    patch("localization.evaluate_composition", localization, "evaluate_composition")
    patch("localization.integrand", localization, "integrand")
    patch("scalars.series_pow_int", scalars, "series_pow_int", localization)
    patch("scalars.series_exp", scalars, "series_exp", localization)
    for cls, name in ((scalars.TruncSeries, "scalars.series_mul"),
                      (scalars.TPoly, "scalars.tpoly_mul")):
        if cls.__rmul__ is not cls.__mul__:
            raise RuntimeError(f"{cls.__name__}.__rmul__ is not __mul__; tracer out of date")
        cls.__rmul__ = patch(name, cls, "__mul__")
    patch("exterior.wedge", exterior.AltForm, "wedge")
    patch("abelian.acyclic_volume", abelian, "acyclic_volume", cli)
    patch("abelian.segre", abelian, "segre_from_ch")
    patch("abelian.symmetric_power_volume", abelian, "symmetric_power_volume", cli)
    patch("grothendieck.degree", grothendieck, "grothendieck_degree", cli)
    return cli


# ---------------------------------------------------------------------------
# summaries

def summarize(record: dict) -> dict:
    """Per-layer metrics and exact counts of one traced job."""
    spans = record["spans"]
    by_id = {s[1]: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s[2] is not None:
            child_time[s[2]] += s[5] - s[4]

    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)  # outermost spans of a name only
    self_time: dict[str, float] = defaultdict(float)
    for s in spans:
        _, sid, parent, name, start, end, _ = s
        calls[name] += 1
        self_time[name] += (end - start) - child_time[sid]
        while parent is not None and by_id[parent][3] != name:
            parent = by_id[parent][2]
        if parent is None:
            total[name] += end - start

    def attrs(name):
        return [s[6] for s in spans if s[3] == name and s[6] is not None]

    integrand = attrs("localization.integrand")
    series_terms = [n for name in SERIES_SPANS for n in attrs(name)] + [b for _, b in integrand]
    wedges = attrs("exterior.wedge")
    degree_job = record["argv"][0] == "grothendieck-degree"
    return {
        "cli.import_s": total["cli.import"],
        "cli.parse_s": sum(total[n] for n in PARSE_SPANS),
        "cli.run_job_s": self_time["cli.run_job"],
        "cli.render_s": sum(total[n] for n in RENDER_SPANS),
        "localization.quot_volume_calls": calls["localization.quot_volume"],
        "localization.quot_volume_s": total["localization.quot_volume"],
        "localization.compositions": calls["localization.evaluate_composition"],
        "localization.integrand_s": total["localization.integrand"],
        "localization.extract_s": self_time["localization.evaluate_composition"],
        "localization.peak_series_terms": max(series_terms, default=0),
        "localization.useful_terms": sum(u for u, _ in integrand),
        "localization.built_terms": sum(b for _, b in integrand),
        "scalars.series_mul_calls": calls["scalars.series_mul"],
        "scalars.series_mul_s": total["scalars.series_mul"],
        "scalars.series_pow_int_s": total["scalars.series_pow_int"],
        "scalars.series_exp_s": total["scalars.series_exp"],
        "scalars.tpoly_mul_calls": calls["scalars.tpoly_mul"],
        "scalars.tpoly_mul_s": total["scalars.tpoly_mul"],
        "scalars.tpoly_coeff_products": sum(attrs("scalars.tpoly_mul")),
        "exterior.wedge_calls": calls["exterior.wedge"],
        "exterior.wedge_s": total["exterior.wedge"],
        "exterior.wedge_term_pairs": sum(p for p, _ in wedges),
        "exterior.peak_form_terms": max((t for _, t in wedges), default=0),
        "abelian.acyclic_volume_s": total["abelian.acyclic_volume"],
        "abelian.segre_s": total["abelian.segre"],
        "abelian.symmetric_power_volume_s": total["abelian.symmetric_power_volume"],
        "grothendieck.degree_s": total["grothendieck.degree"],
        "grothendieck.degree_jobs": int(degree_job),
        "grothendieck.quot_volume_calls": calls["localization.quot_volume"] if degree_job else 0,
    }


def combine(jobs: list[dict]) -> dict:
    """Per-layer metrics of a pass from the summaries of its jobs."""
    if not jobs:
        return {name: 0 for name, _ in LAYER_METRICS}
    out = {}
    for name, _ in LAYER_METRICS:
        if name in jobs[0]:
            pick = max if ".peak_" in name else sum
            out[name] = pick(j[name] for j in jobs)
    built = sum(j["localization.built_terms"] for j in jobs)
    useful = sum(j["localization.useful_terms"] for j in jobs)
    out["localization.useful_term_ratio"] = useful / built if built else 0.0
    degree_jobs = sum(j["grothendieck.degree_jobs"] for j in jobs)
    qv = sum(j["grothendieck.quot_volume_calls"] for j in jobs)
    out["grothendieck.quot_volume_calls_per_job"] = qv / degree_jobs if degree_jobs else 0.0
    return out


def main(argv: list[str]) -> int:
    spans_out, job_id, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_OUT JOB_ID -- COMMAND [ARGS...]")
    tracer = Tracer(int(job_id))
    code = 1
    try:
        sid, parent = tracer.open()
        start = time.perf_counter()
        import quotvol.cli  # noqa: F401  (timed: interpreter-side import cost)
        tracer.close(sid, parent, "cli.import", start, time.perf_counter())
        cli = install(tracer)
        code = tracer.wrap("cli.main", cli.main)(cli_argv)
    finally:
        sys.stdout.flush()
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump({"job": int(job_id), "argv": cli_argv, "spans": tracer.spans}, fh,
                      separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
