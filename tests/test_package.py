"""The package root re-exports each library module's public names, once each
and in module order, as the very objects the modules define."""

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


# The unreduced series oracle and the deleted aliases: not public API.
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
