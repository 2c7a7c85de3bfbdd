"""The package root re-exports each library module's public names, once each
and in module order, as the very objects the modules define."""

import os
import subprocess
import sys
from pathlib import Path

import quotvol
from quotvol import abelian, closed, exterior, grothendieck, localization, scalars

MODULES = (scalars, exterior, abelian, localization, grothendieck, closed)


def test_package_all_concatenates_the_module_lists():
    names = [name for module in MODULES for name in module.__all__]
    assert quotvol.__all__ == names
    assert len(set(names)) == len(names)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(quotvol, name) is getattr(module, name), (module.__name__, name)


# The unreduced series oracle (served from ``_oracle``) and the deleted aliases:
# not public API.
UNEXPORTED = {
    scalars: ("ULaurent", "TruncSeries", "series_pow_int", "series_exp"),
    localization: ("integrand", "evaluate_composition"),
}


def test_series_oracle_is_importable_but_not_exported():
    for module, names in UNEXPORTED.items():
        for name in names:
            assert name not in quotvol.__all__, name
            assert hasattr(module, name), (module.__name__, name)
    for name in ("u_coefficient", "wedge", "top_pairing"):
        assert name not in quotvol.__all__, name
    # The benchmark tracer patches these module attributes by name.
    assert localization.series_pow_int is scalars.series_pow_int
    assert localization.series_exp is scalars.series_exp


# Run in a fresh interpreter: which modules a CLI process loads, and that the
# exterior algebra still arrives through the package root once asked for.
LAZY_IMPORTS = """
import sys
import quotvol.cli
assert "argparse" not in sys.modules, "argparse loaded"
assert "quotvol.exterior" not in sys.modules, "exterior loaded by import quotvol.cli"
from quotvol import AltForm
from quotvol.exterior import AltForm as direct
assert AltForm is direct and quotvol.exterior is sys.modules["quotvol.exterior"]
names = {}
exec("from quotvol import *", names)
assert set(quotvol.__all__) <= set(names), "import * lost names"
"""

ACYCLIC_JOB = """
import io, json, sys
from quotvol import cli
assert "quotvol.exterior" not in sys.modules
sys.stdin = io.StringIO(json.dumps({"n_dim": 1, "q": 1, "deg_E": "-1/1",
    "pairings": ["0/1", "-1/1"], "h": [[0, 1], [-1, 0]],
    "kappa": [{"i": 1, "s": 0, "terms": [{"indices": [1, 2], "coeff": "1/1"}]}]}))
assert cli.main(["acyclic-volume", "--format", "plain"]) == 0
assert "quotvol.exterior" in sys.modules
"""


# Every command's job leaves the series oracle unloaded; the names the tracer
# patches on ``scalars`` and ``localization`` still resolve, to the oracle's own objects.
ORACLE_UNLOADED = """
import io, json, sys
from quotvol import cli
jobs = [
    (["abelian-volume"], {"g": 1, "l": [3], "d": 2}),
    (["acyclic-volume"], {"n_dim": 1, "q": 1, "deg_E": "-1/1", "pairings": ["0/1", "-1/1"],
        "h": [[0, 1], [-1, 0]],
        "kappa": [{"i": 1, "s": 0, "terms": [{"indices": [1, 2], "coeff": "1/1"}]}]}),
    (["quot-volume"], {"g": 1, "r": 2, "l": [0, 1], "d": 2}),
    (["quot-volume"], {"g": 1, "r": 2, "l": [0, 1], "d": 2, "weights": [["1/2", 3]]}),
    (["grothendieck-degree"], {"g": 0, "r": 2, "l": [0, 0], "d": 1, "n": 4}),
    (["verify"], {"g": 1, "r": 3, "l": [0, 1, 2], "d": 1}),
    (["sweep"], {"r": 2, "g_values": [0, 1], "d": 1, "l": [0, 0]}),
]
for argv, doc in jobs:
    sys.stdin = io.StringIO(json.dumps(doc))
    assert cli.main(argv) == 0, argv
    assert "quotvol._oracle" not in sys.modules, argv
from quotvol import _oracle, localization, scalars
for module, names in ((scalars, ("TruncSeries", "series_pow_int", "series_exp")),
                      (localization, ("integrand", "evaluate_composition", "series_pow_int",
                                      "series_exp"))):
    for name in names:
        assert getattr(module, name) is getattr(_oracle, name), (module.__name__, name)
assert localization.series_pow_int is scalars.series_pow_int
"""


def _run_fresh(script):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"),
                    os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)


def test_cli_import_loads_neither_argparse_nor_exterior():
    proc = _run_fresh(LAZY_IMPORTS)
    assert proc.returncode == 0, proc.stderr


def test_acyclic_job_loads_exterior_on_demand():
    proc = _run_fresh(ACYCLIC_JOB)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("volume = 𝔱\n"), proc.stdout


def test_no_cli_job_loads_the_series_oracle():
    proc = _run_fresh(ORACLE_UNLOADED)
    assert proc.returncode == 0, proc.stderr
