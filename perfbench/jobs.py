"""Seeded job lists for the quotvol benchmark workloads.

A job is the argument list after ``quotvol`` plus the JSON document fed on
stdin.  Each workload also returns its cross-path checks, as tuples naming
job indices:

* ``("same_volume", i, j)``: jobs i and j must report the same volume;
* ``("verify_pass", i)``: a ``verify`` job must report ``pass: true``;
* ``("degree", i)``: a ``grothendieck-degree`` job must report a
  non-negative integer.

Only the cheap parameters (degrees, formats, ``t`` modes, rationals, job
order) follow the seed; the problem shapes, genus included, are fixed per
workload, so the cost of a pass stays about the same from seed to seed.
"""

from __future__ import annotations

import itertools
import json
import random
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("ladder", "batch", "acyclic")

# (r, d) at g = 2, l = (0, ..., r - 1); fixed, independent of the seed.
LADDER = ((2, 4), (3, 3), (2, 6), (3, 4), (4, 3), (5, 2), (2, 7))

FORMATS = ("json", "plain", "latex")


@dataclass
class Job:
    name: str
    argv: list[str]
    doc: dict | None = None

    @property
    def stdin(self) -> str:
        return json.dumps(self.doc, sort_keys=True) if self.doc is not None else ""

    def key(self) -> str:
        """Identity of the job as the CLI sees it (argv and stdin)."""
        return json.dumps([self.argv, self.stdin])


@dataclass
class Workload:
    name: str
    jobs: list[Job] = field(default_factory=list)
    checks: list[tuple] = field(default_factory=list)

    def add(self, job: Job) -> int:
        self.jobs.append(job)
        return len(self.jobs) - 1


def _frac(rng: random.Random, lo: int, hi: int, dens=(1, 2, 3)) -> str:
    num = rng.randint(lo, hi)
    den = rng.choice(dens)
    return str(Fraction(num, den))


def _t_section(rng: random.Random, mode: str) -> dict | None:
    if mode == "ttilde-symbolic":
        return None
    if mode == "ttilde-value":
        return {"mode": mode, "value": _frac(rng, -9, 9, (1, 2, 5, 7))}
    t = {"mode": mode, "value": _frac(rng, 1, 9), "vol_X": _frac(rng, 1, 40)}
    if rng.random() < 0.5:
        t["pi_probe"] = rng.choice(("22/7", "355/113", "3/1"))
    return t


def _doc(fields: dict) -> dict:
    """A versioned job document."""
    return {"schema": 1, **fields}


def ladder(seed: int) -> Workload:
    del seed  # the ladder is the same for every seed
    wl = Workload("ladder")
    for r, d in LADDER:
        doc = _doc({"command": "quot-volume", "g": 2, "r": r,
                          "l": list(range(r)), "d": d})
        wl.add(Job(f"quot-volume g=2 r={r} d={d}", ["quot-volume"], doc))
    return wl


def _quot_job(rng, command: str, g: int, r: int, d: int, extra: dict) -> Job:
    """A curve job, stated either as a JSON document or as CLI flags."""
    l = [rng.randint(0, 3) for _ in range(r)]
    fmt = rng.choice(FORMATS)
    name = f"{command} g={g} r={r} d={d} l={l} {fmt}"
    if not extra and rng.random() < 0.3:
        argv = [command, "--g", str(g), "--r", str(r), "--l", ",".join(map(str, l)),
                "--d", str(d), "--format", fmt]
        if command == "quot-volume" and rng.random() < 0.5:
            # one token, so that a negative fraction is not read as an option
            argv.append(f"--ttilde={_frac(rng, -5, 5)}")
        return Job(name + " (flags)", argv)
    doc = {"command": command, "g": g, "r": r, "l": l, "d": d, "format": fmt, **extra}
    return Job(name, [command], _doc(doc))


def batch(seed: int) -> Workload:
    rng = random.Random(f"batch:{seed}")
    wl = Workload("batch")
    modes = ("ttilde-symbolic", "ttilde-value", "physical-t")

    # quot-volume; every r = 1 job gets an abelian-volume twin
    for g, r, d in ((0, 1, 1), (1, 1, 2), (2, 1, 3), (3, 1, 4), (3, 2, 1), (0, 2, 2),
                    (2, 2, 2), (1, 3, 1), (2, 4, 1)):
        extra = {}
        t = _t_section(rng, rng.choice(modes))
        if t is not None:
            extra["t"] = t
        if r > 1 and rng.random() < 0.4:
            ws = rng.sample(range(-12, 13), r)
            extra["weights"] = [[str(Fraction(x, rng.randint(1, 4))) for x in ws]]
            if len(set(Fraction(x) for x in extra["weights"][0])) < r:
                del extra["weights"]
        job = _quot_job(rng, "quot-volume", g, r, d, extra)
        i = wl.add(job)
        if r == 1:
            doc = dict(wl.jobs[i].doc or _flags_doc(job.argv))
            doc["command"] = "abelian-volume"
            doc.pop("weights", None)
            twin = Job(f"abelian-volume twin of {job.name}", ["abelian-volume"], _doc(doc))
            wl.checks.append(("same_volume", i, wl.add(twin)))

    # abelian-volume at physical t, with the unnormalized factor
    for g, d in ((3, 2), (1, 3), (2, 5)):
        doc = {"command": "abelian-volume", "g": g, "l": [rng.randint(-2, 4)],
               "d": d, "format": rng.choice(FORMATS), "t": _t_section(rng, "physical-t")}
        wl.add(Job(f"abelian-volume d={d}", ["abelian-volume"], _doc(doc)))

    # grothendieck-degree above the embedding heuristic n >= g + d
    for g, r, d in ((2, 1, 2), (3, 1, 3), (1, 2, 1), (1, 2, 2), (2, 3, 1), (1, 4, 1)):
        job = _quot_job(rng, "grothendieck-degree", g, r, d, {})
        n = g + d + rng.randint(0, 3)
        if job.doc is None:
            job.argv += ["--n", str(n)]
        else:
            job.doc["n"] = n
        wl.checks.append(("degree", wl.add(job)))

    # verify with the default candidates (1..r, primes, seeded rationals)
    for g, r, d in ((1, 1, 3), (2, 2, 1), (0, 2, 2), (3, 3, 1)):
        job = _quot_job(rng, "verify", g, r, d, {"suite": "weight-independence"})
        wl.checks.append(("verify_pass", wl.add(job)))

    # one sweep of 8 rows, r = 2, d <= 2
    parts = rng.sample([[0, 0], [0, 1], [1, 0], [1, 1], [2, 0], [0, 2]], 2)
    doc = {"command": "sweep", "r": 2, "g_values": [1, 2],
           "d_values": [1, 2], "l_partitions": parts, "format": rng.choice(FORMATS)}
    wl.add(Job("sweep r=2", ["sweep"], _doc(doc)))

    # small acyclic-volume jobs: curve cases (with their symmetric-power
    # twins) and one dense q = 2 job
    for g in (1, 2):
        _add_curve_case(wl, rng, g)
    wl.add(_dense_acyclic_job(rng, q=2, n_dim=1))

    order = list(range(len(wl.jobs)))
    rng.shuffle(order)
    return _reordered(wl, order)


def _flags_doc(argv: list[str]) -> dict:
    """The job document equivalent to a flag-style argv."""
    tokens = [t for arg in argv[1:] for t in arg.split("=", 1)]
    flags = dict(zip(tokens[0::2], tokens[1::2]))
    doc = {"command": argv[0], "g": int(flags["--g"]), "l": [int(x) for x in flags["--l"].split(",")],
           "d": int(flags["--d"]), "format": flags["--format"]}
    if "--ttilde" in flags:
        doc["t"] = {"mode": "ttilde-value", "value": flags["--ttilde"]}
    return doc


def _reordered(wl: Workload, order: list[int]) -> Workload:
    where = {old: new for new, old in enumerate(order)}
    out = Workload(wl.name, [wl.jobs[i] for i in order])
    out.checks = [(c[0], *(where[i] for i in c[1:])) for c in wl.checks]
    return out


# ---------------------------------------------------------------------------
# acyclic pairing data

def _form_terms(rng: random.Random, q: int, degree: int) -> list[dict]:
    """A dense degree-``degree`` form on the rank-2q lattice."""
    terms = []
    for idx in itertools.combinations(range(1, 2 * q + 1), degree):
        c = 0
        while c == 0:
            c = rng.randint(-3, 3)
        terms.append({"indices": list(idx), "coeff": str(Fraction(c, rng.choice((1, 2))))})
    return terms


def _acyclic_doc(n_dim, q, deg_E, pairings, h, kappa, fmt) -> dict:
    return _doc({"command": "acyclic-volume", "n_dim": n_dim, "q": q, "deg_E": deg_E,
                 "pairings": pairings, "h": h, "kappa": kappa, "format": fmt})


def _dense_acyclic_job(rng: random.Random, q: int, n_dim: int) -> Job:
    size = 2 * q
    h = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            c = 0
            while c == 0:
                c = rng.randint(-3, 3)
            h[i][j], h[j][i] = c, -c
    rank = rng.randint(1, 3)
    p = [0] * (n_dim + 1)
    for s in range(1, n_dim + 1):
        p[s] = rng.randint(-3, 3) * (2 if s == 2 else 1)
    # rank = sum (-1)^s P_s / s!  fixes P_0
    p[0] = rank - sum(Fraction((-1) ** s * p[s], 1 if s < 2 else 2) for s in range(1, n_dim + 1))
    kappa = [
        {"i": i, "s": s, "terms": _form_terms(rng, q, 2 * i)}
        for i in range(1, q + 1)
        for s in range(n_dim - i + 1)
    ]
    doc = _acyclic_doc(n_dim, q, _frac(rng, -4, 4), [str(Fraction(x)) for x in p],
                       h, kappa, rng.choice(FORMATS))
    return Job(f"acyclic-volume dense q={q} n_dim={n_dim}", ["acyclic-volume"], doc)


def _even_permutation(rng: random.Random, size: int) -> list[int]:
    perm = list(range(size))
    rng.shuffle(perm)
    inversions = sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
    if inversions % 2:
        perm[0], perm[1] = perm[1], perm[0]
    return perm


def _sorted_sign(indices: list[int]) -> tuple[int, list[int]]:
    inversions = sum(1 for a, b in itertools.combinations(indices, 2) if a > b)
    return (-1) ** inversions, sorted(indices)


def permuted_acyclic_job(rng: random.Random, job: Job) -> Job:
    """The same pairing data after an even permutation of the lattice basis.

    Basis vector k becomes vector perm[k]; h and every kappa form are pushed
    forward, so the volume must not change.
    """
    doc = job.doc
    size = 2 * doc["q"]
    perm = _even_permutation(rng, size)
    h = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            h[perm[i]][perm[j]] = doc["h"][i][j]
    kappa = []
    for entry in doc["kappa"]:
        terms = []
        for term in entry["terms"]:
            sign, idx = _sorted_sign([perm[k - 1] + 1 for k in term["indices"]])
            terms.append({"indices": idx, "coeff": str(sign * Fraction(term["coeff"]))})
        terms.sort(key=lambda t: t["indices"])
        kappa.append({**entry, "terms": terms})
    new = {**doc, "h": h, "kappa": kappa}
    return Job(job.name + " (even permutation)", job.argv, new)


def _add_curve_case(wl: Workload, rng: random.Random, g: int):
    """curve_acyclic_data(g, 1, deg_E0, m) against symmetric_power_volume."""
    from quotvol.abelian import curve_acyclic_data  # src/ is on sys.path only at run time

    d = rng.randint(max(0, 2 * g - 1), 2 * g + 3)
    deg_E0 = rng.randint(0, 6)
    m = deg_E0 - d
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        data = curve_acyclic_data(g, 1, deg_E0, m)
    fmt = rng.choice(FORMATS)
    kappa = [
        {"i": i, "s": s,
         "terms": [{"indices": list(k), "coeff": str(c)} for k, c in sorted(form.terms.items())]}
        for (i, s), form in sorted(data.kappa_forms.items())
    ]
    doc = _acyclic_doc(data.n, data.q, str(data.deg_E), [str(x) for x in data.pairings],
                       [[str(x) for x in row] for row in data.h], kappa, fmt)
    name = f"acyclic-volume curve g={g} d={d} deg_E0={deg_E0}"
    i = wl.add(Job(name, ["acyclic-volume"], doc))
    twin = _doc({"command": "abelian-volume", "g": g, "l": [deg_E0], "d": d, "format": fmt})
    j = wl.add(Job(f"abelian-volume twin of {name}", ["abelian-volume"], twin))
    wl.checks.append(("same_volume", i, j))


def acyclic(seed: int) -> Workload:
    rng = random.Random(f"acyclic:{seed}")
    wl = Workload("acyclic")
    for n_dim in (1, 2):
        for q in (4, 5, 6):
            job = _dense_acyclic_job(rng, q, n_dim)
            i = wl.add(job)
            if q < 6:
                wl.checks.append(("same_volume", i, wl.add(permuted_acyclic_job(rng, job))))
    for g in (2, 3, 4):
        _add_curve_case(wl, rng, g)
    return wl


def build(name: str, seed: int) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")
    return {"ladder": ladder, "batch": batch, "acyclic": acyclic}[name](seed)


# The set-up probe: the smallest real job (colength 0, a single point).
SETUP_JOB = Job("setup: quot-volume d=0", ["quot-volume"],
                {"schema": 1, "command": "quot-volume", "g": 2, "r": 2, "l": [0, 1], "d": 0})
