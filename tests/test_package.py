"""The package root re-exports each library module's public names, once each
and in module order, as the very objects the modules define."""

import quotvol
from quotvol import abelian, exterior, grothendieck, localization, scalars

MODULES = (scalars, exterior, abelian, localization, grothendieck)


def test_package_all_concatenates_the_module_lists():
    names = [name for module in MODULES for name in module.__all__]
    assert quotvol.__all__ == names
    assert len(set(names)) == len(names)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(quotvol, name) is getattr(module, name), (module.__name__, name)
