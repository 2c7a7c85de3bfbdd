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

__version__ = "0.1.0"

# Each library module and the names served from it, in export order: the one list of
# its public names, which the module's own ``__all__`` reads.  ``import quotvol`` loads
# none of them, and ``__getattr__`` imports each on first use.
_EXPORTS = {
    "scalars": ("TPoly", "falling_factorial", "general_binomial", "QuotProblem", "WeightVector",
                "default_weights"),
    "exterior": ("AltForm", "exp_graded", "evaluate_top", "top_exp_poly", "theta_form",
                 "standard_symplectic_matrix", "standard_symplectic_form", "AcyclicData",
                 "segre_from_ch", "chern_from_ch", "ch_of_V", "curve_acyclic_data"),
    "abelian": ("CurveQuotProblem", "MantonNasirValues", "poincare_number",
                "symmetric_power_volume", "manton_nasir_check", "acyclic_volume"),
    "localization": ("Composition", "WeightIndependenceReport", "compositions",
                     "stability_weights", "quot_volume", "verify_weight_independence"),
    "grothendieck": ("EmbeddingParams", "embedding_params", "grothendieck_degree"),
    "closed": ("closed_volume",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    """A library module, or the module behind an exported name, loaded on first use."""
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _script() -> None:
    """The installed ``quotvol`` command: run ``quotvol.cli`` as ``__main__``, as
    ``python -m quotvol.cli`` does, so only the job's engine is imported."""
    import runpy
    runpy.run_module("quotvol.cli", run_name="__main__", alter_sys=True)
