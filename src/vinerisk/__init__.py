"""Vine copula risk modeling for mixed continuous-ordinal data.

Fits class-conditional vine copulas, turns them into posterior
probabilities via Bayes' rule, and supports risk grouping, dependence
diagnostics, scenario risk profiles and a simulation benchmark against a
weighted logistic baseline.
"""

from .bicop import (
    Bicop,
    PairObs,
    bicop_fit,
    bicop_loglik,
    empirical_tau,
    tau_to_param,
)
from .classifier import (
    ClassifierModel,
    RiskPolicy,
    assign_risk_groups,
    auc,
    evaluate_probs,
    fit_classifier,
    per_class_brier,
    per_class_nll,
    posterior,
    posteriors_from_logdensity,
    risk_group_report,
)
from .data import Dataset, Schema, VariableSpec, load_dataset
from .diagnostics import (
    bootstrap_bands,
    conditional_spearman,
    latent_normal_scores,
    model_conditional_spearman,
)
from .errors import VineRiskError
from .latent import latent_correlation_matrix, partial_correlation
from .margins import EmpiricalMargin, KernelMargin, OrdinalMargin, fit_margin
from .scenario import BaseProfile, GridSpec, risk_curve, risk_surface
from .simulation import (
    DgpConfig,
    LogisticModel,
    benchmark_run,
    fit_weighted_logistic,
    simulate_dgp,
    split_train_test,
)
from .vine import (
    Edge,
    FitConfig,
    VineModel,
    VineStructure,
    edge_report,
    fit_vine,
    select_structure,
    vine_logdensity,
    vine_mbic,
)

__version__ = "0.1.0"

__all__ = [
    "BaseProfile",
    "Bicop",
    "ClassifierModel",
    "Dataset",
    "DgpConfig",
    "Edge",
    "EmpiricalMargin",
    "FitConfig",
    "GridSpec",
    "KernelMargin",
    "LogisticModel",
    "OrdinalMargin",
    "PairObs",
    "RiskPolicy",
    "Schema",
    "VariableSpec",
    "VineModel",
    "VineRiskError",
    "VineStructure",
    "assign_risk_groups",
    "auc",
    "benchmark_run",
    "bicop_fit",
    "bicop_loglik",
    "bootstrap_bands",
    "conditional_spearman",
    "edge_report",
    "empirical_tau",
    "evaluate_probs",
    "fit_classifier",
    "fit_margin",
    "fit_vine",
    "fit_weighted_logistic",
    "latent_correlation_matrix",
    "latent_normal_scores",
    "load_dataset",
    "model_conditional_spearman",
    "partial_correlation",
    "per_class_brier",
    "per_class_nll",
    "posterior",
    "posteriors_from_logdensity",
    "risk_curve",
    "risk_group_report",
    "risk_surface",
    "select_structure",
    "simulate_dgp",
    "split_train_test",
    "tau_to_param",
    "vine_logdensity",
    "vine_mbic",
]
