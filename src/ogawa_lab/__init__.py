"""Numerical laboratory for basis-expansion (Ogawa) stochastic integrals.

The package computes basis-indexed partial sums of noncausal stochastic
integrals, the renormalization trace term that makes their limits
basis-independent, Wong-Zakai pathwise sums, and reference Ito and
Stratonovich integrals, together with the spectral diagnostics that explain
why the renormalization is needed in dimension two.
"""

from .bases import (
    BALANCED,
    BasisElement,
    BasisFamily,
    EnumerationOrder,
    adversarial,
    component_trig_basis,
    family_from_name,
    gram_matrix,
    haar_basis,
    mixed_trig_basis,
    piecewise_linear_basis,
    regularity_diagnostic,
)
from .engine import (
    OgawaLedger,
    TruncationStage,
    build_ledger,
    conversion_gap,
    diagonal_entries,
    divergence_quadrature,
    dump_ledgers_csv,
    ito_integral,
    ogawa_partial_sum,
    ogawa_partial_sum_inner,
    ogawa_partial_sum_stieltjes,
    renormalization_term,
    renormalized_sum,
    stratonovich_integral,
    wong_zakai_sum,
)
from .ensemble import EnsembleLedger, build_ensemble_ledgers
from .fields import (
    DiscreteKernel,
    LinearField,
    RamerCheck,
    VectorField,
    apply_DG,
    evaluate_G,
    field_from_name,
    gaussian_ramer_check,
    hs_norm_squared,
    identity_field_1d,
    kernel_T,
)
from .paths import (
    RngSpec,
    SamplePath,
    TimeGrid,
    approximate_wiener,
    brownian_increments,
    dump_path_csv,
    paley_wiener,
    project_coefficients,
    sample_brownian,
)
from .spectral import (
    QuadraticFormMatrix,
    SpectrumReport,
    closed_form_spectrum,
    discretized_L_spectrum,
    eigenvalue_partial_sums,
    matrix_A,
    trace_class_diagnostic,
)

__version__ = "0.1.0"
