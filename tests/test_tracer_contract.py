"""The benchmark tracer can still wrap every layer of the CLI.

``perfbench/tracer.py`` wraps functions by name in ``quotvol.cli`` and the
library modules, then calls ``cli.main``.  That works only while ``cli``
holds those functions as module attributes and looks them up at call time;
a table that bound a function at import would run around the wrapper.  Each
command runs once traced and once untraced in a child process: the stdout bytes
must agree and the spans must show the parse, the run and the library entry.
The localization engine's span appears exactly when the job names torus
weights or runs ``verify``; every other volume comes from the closed form.
"""

import json
from pathlib import Path

import pytest

from clirun import ACYCLIC, run_python

TRACER = str(Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py")

# The closed form has no span of its own; its TPoly products show that it ran.
CLOSED = "scalars.tpoly_mul"

# (id, argv, stdin document, the library span the job must reach, whether the
# localization engine runs: only for a job that names torus weights, or verify)
JOBS = [
    ("abelian-volume", ["abelian-volume", "--format", "plain"], {"g": 1, "l": [3], "d": 2},
     "abelian.symmetric_power_volume", False),
    ("acyclic-volume", ["acyclic-volume"], {**ACYCLIC, "format": "latex"},
     "abelian.acyclic_volume", False),
    ("quot-volume", ["quot-volume", "--ttilde", "-1/2"],
     {"g": 1, "r": 2, "l": [0, 1], "d": 2, "weights": [["1/2", 3]]},
     "localization.quot_volume", True),
    ("quot-volume-unweighted", ["quot-volume", "--ttilde", "-1/2"],
     {"g": 1, "r": 2, "l": [0, 1], "d": 2}, CLOSED, False),
    ("grothendieck-degree", ["grothendieck-degree"],
     {"g": 0, "r": 2, "l": [0, 0], "d": 1, "n": 4}, "grothendieck.degree", False),
    ("verify", ["verify"], {"g": 0, "r": 2, "l": [0, 0], "d": 1}, "localization.quot_volume",
     True),
    ("sweep", ["sweep", "--format", "plain"], {"r": 2, "g_values": [0, 1], "d": 1, "l": [0, 0]},
     CLOSED, False),
    ("sweep-partitions", ["sweep"],
     {"r": 3, "g": 2, "d_values": [0, 2], "l_partitions": [[0, 1, 2], [1, -1, 0]]},
     CLOSED, False),
]


@pytest.mark.parametrize("argv, doc, library, localization", [job[1:] for job in JOBS],
                         ids=[job[0] for job in JOBS])
def test_traced_run_matches_untraced_and_spans_every_layer(argv, doc, library, localization,
                                                           tmp_path):
    spans_out = tmp_path / "spans.json"
    traced = run_python(TRACER, str(spans_out), "0", "--", *argv, stdin=json.dumps(doc))
    assert traced[0] == 0, traced[2]
    untraced = run_python("-m", "quotvol.cli", *argv, stdin=json.dumps(doc))
    assert untraced[0] == 0, untraced[2]
    assert traced[1] == untraced[1]

    names = {span[3] for span in json.loads(spans_out.read_text())["spans"]}
    assert {"cli.parse_jobspec", "cli.run_job", library} <= names
    assert ("localization.quot_volume" in names) == localization
