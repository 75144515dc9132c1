"""Areal spatial generalized linear mixed models.

Builds and fits four parameterizations of the areal SGLMM: a nonspatial GLM
baseline, the traditional intrinsic-CAR model, the restricted (RHZ) model
smoothing orthogonally to the fixed effects, and the sparse model whose
random effects live on the leading eigenvectors of the Moran operator.
Supports Bernoulli, Poisson (with exposure offsets), and Gaussian responses,
simulation from the sparse model, MCMC fitting, and posterior summaries.
"""

__version__ = "0.1.0"

from .basis import (
    DesignMatrix,
    MoranBasis,
    RhzBasis,
    moran_I,
    moran_basis,
    moran_eigensystem,
    moran_operator,
    moran_spectrum,
    reduced_precision,
    rhz_basis,
)
from .glm import GlmFit, irls_fit
from .graph import (
    Graph,
    PrecisionMatrix,
    build_lattice,
    graph_from_edges,
    laplacian,
    read_edge_list,
    write_edge_list,
)
from .model import (
    Dataset,
    ModelSpec,
    ParameterState,
    PriorSet,
    inverse_link,
    linear_predictor,
    log_likelihood,
    log_prior,
)
from .sampler import Chain, McmcConfig, fit, fit_chains
from .simulate import (
    PRESETS,
    SimulatedData,
    lattice_design,
    simulate_dataset,
    simulate_random_effects,
    simulate_response,
)
from .summary import (
    FitSummary,
    effect_correlations,
    equal_tailed_interval,
    error_norm,
    fitted_surface,
    hpd_interval,
    mcse,
    summarize_chain,
    summarize_draws,
    summarize_matrix,
)

__all__ = [
    "__version__",
    "Graph",
    "PrecisionMatrix",
    "build_lattice",
    "graph_from_edges",
    "laplacian",
    "read_edge_list",
    "write_edge_list",
    "DesignMatrix",
    "MoranBasis",
    "RhzBasis",
    "moran_operator",
    "moran_spectrum",
    "moran_eigensystem",
    "moran_basis",
    "rhz_basis",
    "reduced_precision",
    "moran_I",
    "Dataset",
    "ModelSpec",
    "ParameterState",
    "PriorSet",
    "inverse_link",
    "linear_predictor",
    "log_likelihood",
    "log_prior",
    "GlmFit",
    "irls_fit",
    "Chain",
    "McmcConfig",
    "fit",
    "fit_chains",
    "PRESETS",
    "SimulatedData",
    "lattice_design",
    "simulate_dataset",
    "simulate_random_effects",
    "simulate_response",
    "FitSummary",
    "summarize_chain",
    "summarize_draws",
    "summarize_matrix",
    "equal_tailed_interval",
    "hpd_interval",
    "mcse",
    "fitted_surface",
    "error_norm",
    "effect_correlations",
]
