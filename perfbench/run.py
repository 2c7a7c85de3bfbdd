"""The quotvol benchmark: real CLI jobs, timed from outside.

    python3 perfbench/run.py --workload ladder|batch|acyclic|all --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout; the CLI is imported from its
``src`` directory.  One client drives a closed loop: one ``quotvol``
subprocess at a time, the next job starting when the previous one exits.
The job list of a workload (see ``jobs.py``) is run as a pass, and passes
repeat until ``--seconds`` have gone by.

``--trace 0`` reports the end-to-end metrics, with tracing off.  Their
times are stated at a reference CPU speed: the runner times a fixed kernel
(``calibrate.py``) between jobs all through the run and rescales by it, so
that the drift of a shared host's speed cancels out.
``--trace 1`` runs every job twice, untraced and then under ``tracer.py``,
checks that both print the same bytes, and reports the per-layer metrics of
the traced runs together with the tracing overhead.

Every job's stdout is checked: against the exact reference output when the
job is one of the recorded ones (``reference.json``, the default seed 0),
and against the cross-path invariants of ``jobs.py`` for any seed.  A job
that exits nonzero, times out or fails a check counts as failed.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A full
record (environment, per-job times, failures) goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import calibrate
import jobs as joblib
import tracer as tracelib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"

SETUP_PROBES = 11  # set-up probes per run, spread over --seconds
KERNEL_SHARE = 0.15  # share of a run's time spent timing the calibration kernel
JOB_TIMEOUT_S = 120.0
RUN_LIMIT_S = 170.0  # a run must finish within 180 s

# The end-to-end metrics of BENCHMARK.json, on the result line.
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# Printed and recorded only: each of the first two rests on one or two jobs,
# so they spread over seeds close to the largest bound BENCHMARK.json may set;
# the raw_* times are as measured, before rescaling.
REPORTED = (("job_p50_s", "s"), ("job_max_s", "s"), ("raw_wall_s", "s"), ("raw_setup_s", "s"),
            ("kernel_s", "s"))


@dataclass
class Outcome:
    seconds: float
    code: int | None  # None: killed at the timeout
    stdout: bytes
    stderr: bytes


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_job(job: joblib.Job, env: dict, timeout: float, spans_out: Path | None = None,
            job_id: int = 0) -> Outcome:
    """One CLI process, timed from spawn to exit."""
    if spans_out is None:
        cmd = [sys.executable, "-m", "quotvol.cli", *job.argv]
    else:
        cmd = [sys.executable, str(HERE / "tracer.py"), str(spans_out), str(job_id), "--",
               *job.argv]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, input=job.stdin.encode(), capture_output=True, cwd=ROOT,
                              env=env, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        return Outcome(time.perf_counter() - start, None, exc.stdout or b"", b"timeout")
    return Outcome(time.perf_counter() - start, proc.returncode, proc.stdout, proc.stderr)


# ---------------------------------------------------------------------------
# correctness

def job_digest(job: joblib.Job) -> str:
    return hashlib.sha256(job.key().encode()).hexdigest()


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def _volume(out: str):
    """The volume a job printed, as (format, value) for comparison."""
    if out.startswith("{"):
        return "json", json.loads(out)["volume"]["coefficients"]
    for line in out.splitlines():
        if line.startswith("volume = "):
            return "plain", line
    raise ValueError("no volume in output")


def _degree(out: str) -> int:
    if out.startswith("{"):
        return json.loads(out)["degree"]
    for line in out.splitlines():
        if line.startswith("degree = "):
            return int(line.split("=", 1)[1])
    raise ValueError("no degree in output")


def _verify_passed(out: str) -> bool:
    if out.startswith("{"):
        return json.loads(out)["verify"]["pass"] is True
    return "weight-independence: pass (" in out


def check_pass(wl: joblib.Workload, outcomes: list[Outcome], reference: dict) -> dict[int, str]:
    """Failed job index -> reason, for one pass over the workload (or over
    its first ``len(outcomes)`` jobs)."""
    failed: dict[int, str] = {}
    for i, (job, out) in enumerate(zip(wl.jobs, outcomes)):
        if out.code != 0:
            last = (out.stderr.decode(errors="replace").strip().splitlines() or [""])[-1]
            failed[i] = "timeout" if out.code is None else f"exit {out.code}: {last[:200]}"
            continue
        want = reference.get(job_digest(job))
        if want is not None and hashlib.sha256(out.stdout).hexdigest() != want["stdout_sha256"]:
            failed[i] = "stdout differs from the reference output"
    for check in wl.checks:
        kind, idx = check[0], check[1:]
        if any(i >= len(outcomes) or i in failed for i in idx):
            continue
        texts = [outcomes[i].stdout.decode() for i in idx]
        try:
            if kind == "same_volume":
                ok = _volume(texts[0]) == _volume(texts[1])
            elif kind == "verify_pass":
                ok = _verify_passed(texts[0])
            elif kind == "degree":
                degree = _degree(texts[0])
                ok = isinstance(degree, int) and degree >= 0
            else:
                raise ValueError(f"unknown check {kind}")
        except (ValueError, KeyError, TypeError) as exc:
            ok, kind = False, f"{kind} ({exc})"
        if not ok:
            for i in idx:
                failed[i] = f"check {kind} failed with jobs {list(idx)}"
    return failed


# ---------------------------------------------------------------------------
# runs

class Run:
    def __init__(self, wl: joblib.Workload, seconds: float):
        self.wl = wl
        self.seconds = seconds
        self.env = child_env()
        self.reference = load_reference()
        self.started = time.perf_counter()
        self.attempted = 0
        self.failures: list[dict] = []
        self.kernel_s: list[float] = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def timeout(self) -> float:
        return min(JOB_TIMEOUT_S, RUN_LIMIT_S - self.elapsed())

    def record(self, label: str, wl: joblib.Workload, failed: dict[int, str], jobs_run: int):
        self.attempted += jobs_run
        for i, reason in sorted(failed.items()):
            self.failures.append({"pass": label, "job": i, "name": wl.jobs[i].name,
                                  "reason": reason})

    def more_passes(self, last_pass_s: float) -> bool:
        """Start another pass only if the run ends at most half a pass past
        --seconds, and well inside the hard limit."""
        spent = self.elapsed()
        return spent + last_pass_s / 2 <= self.seconds and spent + 2 * last_pass_s < RUN_LIMIT_S

    def calibrate(self):
        """Time the calibration kernel until it has had ``KERNEL_SHARE`` of
        the run so far; called between jobs, never during one.  The kernel
        samples each stretch of the run in proportion to its length, as the
        jobs' times do."""
        while sum(self.kernel_s) < KERNEL_SHARE * self.elapsed():
            self.kernel_s.append(calibrate.time_kernel(self.env))

    def speed(self) -> float:
        """Reference kernel time over this run's mean kernel time: the factor
        that states the run's times at the reference speed.  The host flips
        between a fast and a slow state (about 1.8x apart) every second or
        so; a mean, unlike a median, weighs the two as the jobs' times do."""
        return calibrate.REFERENCE_KERNEL_S / statistics.fmean(self.kernel_s)

    def setup_probe(self) -> tuple[float, float]:
        """Interpreter start + ``import quotvol`` + a colength-0 job: its
        seconds as measured, and at the reference speed of the kernel timed
        just before and after it (the probe is shorter than a host state)."""
        wl = joblib.Workload("setup", [joblib.SETUP_JOB])
        before = calibrate.time_kernel(self.env)
        out = run_job(joblib.SETUP_JOB, self.env, self.timeout())
        after = calibrate.time_kernel(self.env)
        self.kernel_s += [before, after]
        self.record("setup", wl, check_pass(wl, [out], self.reference), 1)
        return out.seconds, out.seconds * 2 * calibrate.REFERENCE_KERNEL_S / (before + after)

    def untraced_passes(self) -> tuple[list[list[Outcome]], list[tuple[float, float]]]:
        """Passes over the job list until ``--seconds`` have gone by, with
        set-up probes spread over the run so that their median does not hang
        on one moment of a noisy machine.  The first pass is always whole;
        the last one stops where the time runs out, so that a workload with
        long passes still measures for the whole run."""
        for _ in range(3):  # warms the kernel; not counted
            calibrate.time_kernel(self.env)
        self.setup_probe()  # warms the file cache; not counted
        self.kernel_s.clear()
        probes: list[tuple[float, float]] = []
        every = self.seconds / SETUP_PROBES
        last_probe = -every
        passes = []
        while True:
            outcomes = []
            for job in self.wl.jobs:
                if passes and self.elapsed() >= self.seconds:
                    break
                if self.elapsed() - last_probe >= every:
                    self.calibrate()
                    probes.append(self.setup_probe())
                    last_probe = self.elapsed()
                self.calibrate()
                outcomes.append(run_job(job, self.env, self.timeout()))
            if outcomes:
                failed = check_pass(self.wl, outcomes, self.reference)
                self.record(f"pass {len(passes)}", self.wl, failed, len(outcomes))
                passes.append(outcomes)
            if len(outcomes) < len(self.wl.jobs) or self.elapsed() >= self.seconds:
                break
        while len(probes) < SETUP_PROBES // 2 + 1:
            self.calibrate()
            probes.append(self.setup_probe())
        self.calibrate()
        return passes, probes

    def traced_passes(self, trace_dir: Path) -> list[dict]:
        """Untraced then traced run of each job; per-layer metrics per pass."""
        passes = []
        while True:
            plain, traced, summaries = [], [], []
            for i, job in enumerate(self.wl.jobs):
                plain.append(run_job(job, self.env, self.timeout()))
                spans_out = trace_dir / f"pass{len(passes)}-job{i}.json"
                traced.append(run_job(job, self.env, self.timeout(), spans_out, i))
                if traced[-1].code == 0:
                    with open(spans_out, encoding="utf-8") as fh:
                        summaries.append(tracelib.summarize(json.load(fh)))
                else:
                    summaries.append(None)
            self.record(f"untraced pass {len(passes)}", self.wl,
                        check_pass(self.wl, plain, self.reference), len(plain))
            failed = check_pass(self.wl, traced, self.reference)
            for i, (a, b) in enumerate(zip(plain, traced)):
                if a.stdout != b.stdout:
                    failed.setdefault(i, "traced stdout differs from untraced stdout")
            self.record(f"traced pass {len(passes)}", self.wl, failed, len(traced))
            untraced_s = sum(o.seconds for o in plain)
            traced_s = sum(o.seconds for o in traced)
            passes.append({"untraced_s": untraced_s, "traced_s": traced_s,
                           "jobs": summaries})
            if not self.more_passes(untraced_s + traced_s):
                return passes


def end_to_end(run: Run) -> tuple[dict, dict]:
    passes, probes = run.untraced_passes()
    # each job's time is its mean over the passes that ran it, as the kernel's is
    per_job = [statistics.fmean(p[i].seconds for p in passes if i < len(p))
               for i in range(len(run.wl.jobs))]
    speed = run.speed()
    metrics = {
        "wall_s": sum(per_job) * speed,
        "job_p50_s": statistics.median(per_job) * speed,
        "job_max_s": max(per_job) * speed,
        "setup_s": statistics.median(scaled for _, scaled in probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "raw_wall_s": sum(per_job),
        "raw_setup_s": statistics.median(raw for raw, _ in probes),
        "kernel_s": statistics.fmean(run.kernel_s),
    }
    detail = {"passes": len(passes), "setup_probes_s": probes, "kernel_times_s": run.kernel_s,
              "speed": speed, "job_times_s": [[o.seconds for o in p] for p in passes]}
    return metrics, detail


def counts_repeat(run: Run, passes: list[dict]) -> list[str]:
    """Exact counts that differ between passes, or from an earlier run of the
    same job in this checkout (any seed)."""
    store = OUT / "counts.json"
    seen = json.loads(store.read_text()) if store.exists() else {}
    problems = []
    for p in passes:
        for job, summary in zip(run.wl.jobs, p["jobs"]):
            if summary is None:
                continue
            counts = {k: summary[k] for k in tracelib.EXACT_COUNTS}
            key = job_digest(job)
            before = seen.setdefault(key, counts)
            for k in tracelib.EXACT_COUNTS:
                if before.get(k) != counts[k]:
                    problems.append(f"{job.name}: {k} was {before.get(k)}, now {counts[k]}")
    store.write_text(json.dumps(seen, sort_keys=True))
    return problems


def per_layer(run: Run) -> tuple[dict, dict]:
    trace_dir = OUT / f"trace-{run.wl.name}"
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    passes = run.traced_passes(trace_dir)
    # a traced job that failed is already counted; its spans are left out
    by_pass = [tracelib.combine([s for s in p["jobs"] if s is not None]) for p in passes]
    # median_low keeps each value one pass actually measured (counts stay whole)
    metrics = {name: statistics.median_low(m[name] for m in by_pass)
               for name, _ in tracelib.LAYER_METRICS}
    untraced = statistics.median_low(p["untraced_s"] for p in passes)
    traced = statistics.median_low(p["traced_s"] for p in passes)
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.traced_wall_s"] = traced
    metrics["trace.overhead_s"] = traced - untraced
    problems = counts_repeat(run, passes)
    detail = {"passes": len(passes), "counts_repeat": not problems, "count_problems": problems,
              "spans_dir": str(trace_dir.relative_to(ROOT))}
    return metrics, detail


# ---------------------------------------------------------------------------
# reporting

def commit() -> str:
    """HEAD of the checkout, or "unknown" where it is not a git work tree
    (``source_sha256`` identifies the code either way)."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.decode().strip() if out.returncode == 0 else "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(args, wl: joblib.Workload) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "seed": args.seed,
        "commit": commit(),
        "source_sha256": source_digest(),
        "workload": wl.name,
        "jobs": len(wl.jobs),
        "shape": "closed loop, 1 client, 1 CLI process at a time",
        "trace": args.trace,
        "seconds": args.seconds,
    }


def units(trace: int) -> dict:
    if trace:
        extra = (("trace.untraced_wall_s", "s"), ("trace.traced_wall_s", "s"),
                 ("trace.overhead_s", "s"))
        return dict(tracelib.LAYER_METRICS + extra)
    return dict(END_TO_END + REPORTED)


def run_workload(name: str, args) -> dict:
    wl = joblib.build(name, args.seed)
    run = Run(wl, args.seconds)
    measure = per_layer if args.trace else end_to_end
    metrics, detail = measure(run)
    failed = len(run.failures)
    unit = units(args.trace)
    env = environment(args, wl)
    print(f"== {name}: {json.dumps(env)}")
    for key, value in metrics.items():
        print(f"{name} {key} = {value:.6g} {unit[key]}")
    print(f"{name} failed_ratio = {failed / run.attempted:.6g} ({failed}/{run.attempted} jobs)")
    print(f"{name} job samples = {detail['passes']} passes x {len(wl.jobs)} jobs"
          + ("" if args.trace else " (the last pass may stop short)"))
    if args.trace:
        verdict = "repeat exactly" if detail["counts_repeat"] else "DO NOT REPEAT"
        print(f"{name} exact counts {verdict}")
        for line in detail["count_problems"][:20]:
            print(f"  {line}")
    for f in run.failures[:20]:
        print(f"FAILED {name} {f['pass']} job {f['job']} ({f['name']}): {f['reason']}")
    shown = unit if args.trace else dict(END_TO_END)
    result = {"correct": failed == 0, "attempted": run.attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()
                          if k in shown}}
    record = {"environment": env, "result": result, "detail": detail, "failures": run.failures}
    out = OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*joblib.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "quotvol" / "cli.py").is_file():
        print(f"error: no quotvol sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # jobs.py builds curve cases with curve_acyclic_data
    OUT.mkdir(exist_ok=True)

    if args.workload != "all":
        result = run_workload(args.workload, args)
    else:  # one process per workload, so each has its own child RSS peak
        results = {}
        for name in joblib.WORKLOADS:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                   str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
                return 1
            results[name] = json.loads(lines[-1])
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
