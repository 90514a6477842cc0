"""Penalty function, penalized criterion and exhaustive argmin selection."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .estimation import Estimate, Observations, fit, log_likelihood
from .model_space import Model, log_power


def default_extra_weight(m: Model, epsilon: float) -> float:
    """Default model weight D * (log D)^(1+epsilon)."""
    return m.dim * log_power(m.dim, epsilon)


@dataclass(frozen=True)
class PenaltySpec:
    """Penalty configuration.

    Without extra_weight the penalty is (gamma*theta + (log D)^(1+epsilon)) * D,
    which equals gamma*theta*D + x(m) for the default weight x(m) =
    D*(log D)^(1+epsilon).  A custom extra_weight replaces x(m).
    """

    gamma: float
    theta: float
    epsilon: float
    extra_weight: Optional[Callable[[Model], float]] = None

    def __post_init__(self):
        if self.gamma < 1.0:
            raise ValueError(f"gamma must be >= 1, got {self.gamma}")
        if self.theta <= 1.0:
            raise ValueError(f"theta must be > 1, got {self.theta}")
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")


def penalty(m: Model, spec: PenaltySpec) -> float:
    if spec.extra_weight is not None:
        return spec.gamma * spec.theta * m.dim + spec.extra_weight(m)
    return (spec.gamma * spec.theta + log_power(m.dim, spec.epsilon)) * m.dim


@dataclass(frozen=True)
class ModelAudit:
    """Per-model criterion breakdown retained for transparency."""

    model: Model
    likelihood: float
    penalty: float
    criterion: float


@dataclass(frozen=True)
class SelectionResult:
    chosen: Model
    estimate: Estimate
    criterion_value: float
    per_model: tuple[ModelAudit, ...]


def select(collection: Sequence[Model], obs: Observations, spec: PenaltySpec) -> SelectionResult:
    """Minimize likelihood + penalty over the collection.

    The collection is scanned in its canonical order (ascending dimension) and
    ties are broken in favor of the earliest, i.e. most parsimonious, model.
    Raises ValueError when no model has a finite criterion, as when sums of
    values near the float limit overflow.
    """
    if not collection:
        raise ValueError("empty model collection")
    audits = []
    best_idx = -1
    best_crit = float("inf")
    best_est: Estimate | None = None
    # Overflow yields inf/nan criteria, which never win; the check below reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        for idx, m in enumerate(collection):
            est = fit(m, obs)
            lik = log_likelihood(obs.y1, est.mean, est.variance)
            pen = penalty(m, spec)
            crit = lik + pen
            audits.append(ModelAudit(model=m, likelihood=lik, penalty=pen, criterion=crit))
            if crit < best_crit:
                best_idx = idx
                best_crit = crit
                best_est = est
    if best_est is None:
        raise ValueError("no model has a finite criterion: the data overflow floating-point arithmetic")
    return SelectionResult(
        chosen=collection[best_idx],
        estimate=best_est,
        criterion_value=best_crit,
        per_model=tuple(audits),
    )
