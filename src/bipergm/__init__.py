"""Bipartite ERGMs with tunable node- and edge-centric homophily statistics."""

from .graph import (
    AttributeTable,
    Attributes,
    BipartiteNetwork,
    WeightedProjection,
    from_edge_list,
    project,
)
from .terms import (
    ModelSpec,
    ModelTerm,
    SharedPartnerSpectrum,
    bind,
    change_stats,
    eval_stats,
    mdsp_spectrum,
    mesp_spectrum,
    recompose_from_spectrum,
    stat_names,
)
from .formula import FormulaSyntaxError, format_spec, parse
from .sampler import Chain, SamplerControl, StatSample, cond_log_odds, simulate
from .estimate import (
    DegeneracyWarning,
    EstimationError,
    FitResult,
    NonConvergenceError,
    ProfilePoint,
    SeparationError,
    contrast,
    mcmcmle,
    mple,
    profile,
)
from .oracle import (
    ExactModel,
    HullBoundaryError,
    SizeCapError,
    exact_dyad_distribution,
    exact_loglik,
    exact_mle,
)

__version__ = "0.1.0"

__all__ = [
    "AttributeTable",
    "Attributes",
    "BipartiteNetwork",
    "Chain",
    "DegeneracyWarning",
    "EstimationError",
    "ExactModel",
    "FitResult",
    "FormulaSyntaxError",
    "HullBoundaryError",
    "ModelSpec",
    "ModelTerm",
    "NonConvergenceError",
    "ProfilePoint",
    "SamplerControl",
    "SeparationError",
    "SharedPartnerSpectrum",
    "SizeCapError",
    "StatSample",
    "WeightedProjection",
    "bind",
    "change_stats",
    "cond_log_odds",
    "contrast",
    "eval_stats",
    "exact_dyad_distribution",
    "exact_loglik",
    "exact_mle",
    "format_spec",
    "from_edge_list",
    "mcmcmle",
    "mdsp_spectrum",
    "mesp_spectrum",
    "mple",
    "parse",
    "profile",
    "project",
    "recompose_from_spectrum",
    "simulate",
    "stat_names",
]
