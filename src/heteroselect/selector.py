"""Penalty, penalized criterion and the one selection path: the block kernel `_fit_block`
and the first-minimum rule `_first_min`, which `select` runs on one row and the
simulation lab on blocks of replications."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .estimation import DegenerateVarianceError, Estimate, Observations, _fit_rows, _neg_log_likelihood, fit
from .model_space import Model, expand, log_power


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
    Runs the simulation lab's block kernel on a one-row block.  Raises
    ValueError when no model has a finite criterion, as when sums of values
    near the float limit overflow.
    """
    if not collection:
        raise ValueError("empty model collection")
    wrong = next((m.n for m in collection if m.n != obs.n), None)
    if wrong is not None:
        raise ValueError(f"observations have length {obs.n}, model expects {wrong}")
    pens = [penalty(m, spec) for m in collection]
    # Overflow yields inf/nan criteria, which never win; the check below reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        lik, _, bad = _fit_block(collection, obs.y1[None], obs.y2[None], [True] * len(collection))
        if bad[0]:
            raise DegenerateVarianceError(
                "zero residual variance on a coarse block: second replicate lies in the mean space"
            )
        crits = lik[0] + pens
        best = int(_first_min(crits))
        if not np.isfinite(crits[best]):
            raise ValueError("no model has a finite criterion: the data overflow floating-point arithmetic")
        estimate = fit(collection[best], obs)
    # Python floats, so that criterion == likelihood + penalty holds in the audit and in JSON.
    return SelectionResult(
        chosen=collection[best],
        estimate=estimate,
        criterion_value=float(crits[best]),
        per_model=tuple(map(ModelAudit, collection, lik[0].tolist(), pens, crits.tolist())),
    )


def _first_min(criteria: np.ndarray) -> np.ndarray:
    """Index of the smallest criterion along the last axis: the first on ties; NaN never wins."""
    return np.argmin(np.where(np.isnan(criteria), np.inf, criteria), axis=-1)


def _fit_block(models: Sequence[Model], y1: np.ndarray, y2: np.ndarray, ranked, loss=None):
    """Fit every model to each row of an (R, n) block with `fit`'s arithmetic: (lik, losses, bad).

    lik[r, j] is `log_likelihood` of model j on row r if ranked[j], losses[r, j]
    is loss(mean, variance) if a loss is given (both 0 otherwise), and bad[r]
    whether row r is degenerate for any model.
    """
    size = len(y1)
    bad = np.zeros(size, dtype=bool)
    lik = np.zeros((size, len(models)))
    losses = np.zeros((size, len(models)))
    for j, m in enumerate(models):
        block_mean, block_var, degenerate = _fit_rows(m, y1, y2)
        bad |= degenerate
        if bad.any():  # callers discard or redraw those rows; keep their arithmetic finite
            block_var = np.where(bad[:, None], 1.0, block_var)
        mean, variance = expand(block_mean, m.n), expand(block_var, m.n)
        if ranked[j]:
            lik[:, j] = _neg_log_likelihood(y1, mean, variance)
        if loss is not None:
            losses[:, j] = loss(mean, variance)
    return lik, losses, bad
