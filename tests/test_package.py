"""The package root re-exports each library module's public names, once each
and in module order, as the very objects the modules define."""

import json
from pathlib import Path

import pytest

import quotvol
from clirun import ACYCLIC, run_python
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


# The acyclic pipeline lives in ``exterior``; ``abelian`` serves its names for
# the callers that read them there (the benchmark's job generator and tracer among them).
MOVED_TO_EXTERIOR = ("AcyclicData", "ch_of_V", "segre_from_ch", "chern_from_ch",
                     "curve_acyclic_data")


def test_moved_names_resolve_from_their_old_homes():
    from quotvol import cli
    from quotvol.abelian import curve_acyclic_data

    assert curve_acyclic_data is exterior.curve_acyclic_data
    for name in MOVED_TO_EXTERIOR:
        assert name not in abelian.__all__ and name in exterior.__all__, name
        assert getattr(abelian, name) is getattr(exterior, name), name
    assert cli.parse_fraction is scalars.parse_fraction
    # the records moved to ``scalars``; ``localization`` still serves them
    from quotvol.localization import QuotProblem, WeightVector, default_weights

    assert QuotProblem is scalars.QuotProblem and WeightVector is scalars.WeightVector
    assert default_weights is scalars.default_weights
    with pytest.raises(AttributeError, match="no attribute 'missing'"):
        abelian.missing


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
for name in quotvol.__all__:
    home = sys.modules[names[name].__module__]
    assert home.__name__.startswith("quotvol.") and getattr(home, name) is names[name], name
"""

# The quotvol modules a fresh interpreter holds after one statement: the root
# loads each module on first use, and importing ``cli`` as a module loads the
# six it binds (a process that runs it as a script loads only its command's
# engine); ``closed`` comes with the first curve job that reads the closed form.
LOADED = [
    ("import quotvol", ["quotvol"]),
    ("from quotvol import closed_volume", ["quotvol", "quotvol.closed", "quotvol.scalars"]),
    ("from quotvol import quot_volume", ["quotvol", "quotvol.localization", "quotvol.scalars"]),
    ("import quotvol.cli", ["quotvol", "quotvol.abelian", "quotvol.cli", "quotvol.grothendieck",
                            "quotvol.localization", "quotvol.scalars"]),
]

# the job document comes on the child's stdin
ACYCLIC_JOB = """
import sys
from quotvol import cli
assert "quotvol.exterior" not in sys.modules
assert cli.main(["acyclic-volume", "--format", "plain"]) == 0
assert "quotvol.exterior" in sys.modules
assert "quotvol.closed" not in sys.modules, "closed loaded by an acyclic job"
"""

# a job that names weights runs the localization engine alone
WEIGHTED_JOB = """
import sys
from quotvol import cli
assert cli.main(["quot-volume", "--format", "plain"]) == 0
assert "quotvol.closed" not in sys.modules, "closed loaded by a weighted quot-volume"
"""


# Every command's job leaves the series oracle unloaded, and only the acyclic
# job (run last) loads the exterior algebra; the names the tracer patches on
# ``scalars`` and ``localization`` still resolve, to the oracle's own objects.
# The jobs run in process through ``clirun``, imported from the directory
# named by the first argument.
ORACLE_UNLOADED = """
import json, sys
sys.path.insert(0, sys.argv[1])
from clirun import ACYCLIC, run_main
jobs = [
    (["abelian-volume"], {"g": 1, "l": [3], "d": 2}),
    (["quot-volume"], {"g": 1, "r": 2, "l": [0, 1], "d": 2}),
    (["quot-volume"], {"g": 1, "r": 2, "l": [0, 1], "d": 2, "weights": [["1/2", 3]]}),
    (["grothendieck-degree"], {"g": 0, "r": 2, "l": [0, 0], "d": 1, "n": 4}),
    (["verify"], {"g": 1, "r": 3, "l": [0, 1, 2], "d": 1}),
    (["sweep"], {"r": 2, "g_values": [0, 1], "d": 1, "l": [0, 0]}),
    (["acyclic-volume"], ACYCLIC),
]
for argv, doc in jobs:
    code, _, err = run_main(argv, json.dumps(doc))
    assert code == 0, (argv, err)
    assert "quotvol._oracle" not in sys.modules, argv
    assert ("quotvol.exterior" in sys.modules) == (argv == ["acyclic-volume"]), argv
from quotvol import _oracle, localization, scalars
for module, names in ((scalars, ("TruncSeries", "series_pow_int", "series_exp")),
                      (localization, ("integrand", "evaluate_composition", "series_pow_int",
                                      "series_exp"))):
    for name in names:
        assert getattr(module, name) is getattr(_oracle, name), (module.__name__, name)
assert localization.series_pow_int is scalars.series_pow_int
"""


def test_cli_import_loads_neither_argparse_nor_exterior():
    code, _, err = run_python("-c", LAZY_IMPORTS)
    assert code == 0, err


@pytest.mark.parametrize("statement, modules", LOADED)
def test_fresh_interpreter_loads_the_modules_it_uses(statement, modules):
    listing = "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'quotvol'))"
    code, out, err = run_python("-c", f"import sys\n{statement}\n{listing}")
    assert code == 0, err
    assert out.split() == modules


def test_acyclic_job_loads_exterior_on_demand():
    code, out, err = run_python("-c", ACYCLIC_JOB, stdin=json.dumps(ACYCLIC))
    assert code == 0, err
    assert out.startswith("volume = 𝔱\n"), out


def test_weighted_quot_volume_leaves_closed_unloaded():
    doc = {"g": 1, "r": 2, "l": [0, 1], "d": 2, "weights": [["1/2", 3]]}
    code, out, err = run_python("-c", WEIGHTED_JOB, stdin=json.dumps(doc))
    assert code == 0, err
    assert out.startswith("volume = "), out


def test_no_cli_job_loads_the_series_oracle():
    code, _, err = run_python("-c", ORACLE_UNLOADED, str(Path(__file__).parent))
    assert code == 0, err
