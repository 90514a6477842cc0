"""Simultaneous mean and variance estimation for heteroscedastic Gaussian data.

Penalized model selection over dyadic histogram models, fitted from two
independent replicates, plus a seeded Monte Carlo simulation lab.
"""

from .estimation import (
    DegenerateVarianceError,
    Estimate,
    Observations,
    TruthSpec,
    best_approx,
    fit,
    kl_divergence,
    log_likelihood,
    phi,
    prop1_bounds,
)
from .model_space import (
    CollectionConfig,
    EmptyCollectionError,
    Model,
    build_collection,
    project,
)
from .selector import SelectionResult, penalty, select
from .simlab import (
    RiskReport,
    Scenario,
    SeedPolicy,
    builtin_scenarios,
    convergence_experiment,
    get_scenario,
    mc_risk,
    oracle_risk,
    ratio_table,
    risk_profile,
    sample,
    selection_frequency,
)

__all__ = [
    "CollectionConfig",
    "DegenerateVarianceError",
    "EmptyCollectionError",
    "Estimate",
    "Model",
    "Observations",
    "RiskReport",
    "Scenario",
    "SeedPolicy",
    "SelectionResult",
    "TruthSpec",
    "best_approx",
    "build_collection",
    "builtin_scenarios",
    "convergence_experiment",
    "fit",
    "get_scenario",
    "kl_divergence",
    "log_likelihood",
    "mc_risk",
    "oracle_risk",
    "penalty",
    "phi",
    "project",
    "prop1_bounds",
    "ratio_table",
    "risk_profile",
    "sample",
    "select",
    "selection_frequency",
]

__version__ = "0.1.0"
