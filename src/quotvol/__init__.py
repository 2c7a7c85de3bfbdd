"""Exact volumes of Quot spaces on a compact Riemann surface.

The library computes normalized volumes (polynomials in the stability
variable, over exact rationals) four ways:

* ``symmetric_power_volume`` -- rank-1 kernels on a curve, via the classical
  intersection numbers on symmetric powers;
* ``acyclic_volume`` -- rank-1 kernels over an n-dimensional base whenever
  the pair is acyclic, via exterior-algebra pairing data;
* ``quot_volume`` -- full-rank subsheaves of a split bundle on a curve, via
  torus fixed-point localization;
* ``closed_volume`` -- the same volumes as one coefficient of the q-series
  ``A_r^(g-1) B_r^(|l| + r ttilde)``, whose logarithms are rational.

``grothendieck_degree`` turns volumes into degrees of projective embeddings.
The ``quotvol`` command line exposes all of it on JSON job documents.
"""

import importlib

from . import abelian, closed, grothendieck, localization, scalars
from .scalars import *
from .abelian import *
from .localization import *
from .grothendieck import *
from .closed import *

__version__ = "0.1.0"

# exterior.__all__, listed here so that importing the package does not load
# the exterior algebra: only acyclic volumes need it (see ``__getattr__``)
_EXTERIOR_ALL = ("AltForm", "exp_graded", "evaluate_top", "top_exp_poly", "theta_form",
                 "standard_symplectic_matrix", "standard_symplectic_form", "AcyclicData",
                 "segre_from_ch", "chern_from_ch", "ch_of_V", "curve_acyclic_data")

__all__ = [
    *scalars.__all__,
    *_EXTERIOR_ALL,
    *abelian.__all__,
    *localization.__all__,
    *grothendieck.__all__,
    *closed.__all__,
]


def __getattr__(name: str):
    """``exterior`` and its names, loaded on first use."""
    if name == "exterior" or name in _EXTERIOR_ALL:
        exterior = importlib.import_module(".exterior", __name__)
        return exterior if name == "exterior" else getattr(exterior, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
