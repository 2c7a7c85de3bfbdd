"""Exact volumes of Quot spaces on a compact Riemann surface.

The library computes normalized volumes (polynomials in the stability
variable, over exact rationals) three ways:

* ``symmetric_power_volume`` -- rank-1 kernels on a curve, via the classical
  intersection numbers on symmetric powers;
* ``acyclic_volume`` -- rank-1 kernels over an n-dimensional base whenever
  the pair is acyclic, via exterior-algebra pairing data;
* ``quot_volume`` -- full-rank subsheaves of a split bundle on a curve, via
  torus fixed-point localization.

``grothendieck_degree`` turns volumes into degrees of projective embeddings.
The ``quotvol`` command line exposes all of it on JSON job documents.
"""

from .scalars import (
    TPoly,
    TruncSeries,
    ULaurent,
    falling_factorial,
    general_binomial,
    series_exp,
    series_pow_int,
    u_coefficient,
)
from .exterior import (
    AltForm,
    evaluate_top,
    exp_even,
    exp_graded,
    standard_symplectic_form,
    standard_symplectic_matrix,
    theta_form,
    top_pairing,
    wedge,
)
from .abelian import (
    AcyclicData,
    CurveQuotProblem,
    MantonNasirValues,
    acyclic_volume,
    ch_of_V,
    chern_from_ch,
    curve_acyclic_data,
    manton_nasir_check,
    poincare_number,
    segre_from_ch,
    symmetric_power_volume,
)
from .localization import (
    Composition,
    QuotProblem,
    WeightIndependenceReport,
    WeightVector,
    compositions,
    default_weights,
    evaluate_composition,
    integrand,
    quot_volume,
    stability_weights,
    verify_weight_independence,
)
from .grothendieck import EmbeddingParams, embedding_params, grothendieck_degree

__version__ = "0.1.0"

__all__ = [
    "TPoly",
    "ULaurent",
    "TruncSeries",
    "falling_factorial",
    "general_binomial",
    "series_pow_int",
    "series_exp",
    "u_coefficient",
    "AltForm",
    "wedge",
    "exp_even",
    "exp_graded",
    "evaluate_top",
    "top_pairing",
    "theta_form",
    "standard_symplectic_matrix",
    "standard_symplectic_form",
    "CurveQuotProblem",
    "AcyclicData",
    "MantonNasirValues",
    "poincare_number",
    "symmetric_power_volume",
    "manton_nasir_check",
    "segre_from_ch",
    "chern_from_ch",
    "ch_of_V",
    "acyclic_volume",
    "curve_acyclic_data",
    "QuotProblem",
    "Composition",
    "WeightVector",
    "WeightIndependenceReport",
    "compositions",
    "default_weights",
    "stability_weights",
    "integrand",
    "evaluate_composition",
    "quot_volume",
    "verify_weight_independence",
    "EmbeddingParams",
    "embedding_params",
    "grothendieck_degree",
]
