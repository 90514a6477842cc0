"""Penalty, penalized criterion and the one selection path: the block kernel `_fit_block`
and the first-minimum rule `_first_min`, which `select` runs on one row and the
simulation lab on blocks of replications.

The kernel computes what the models on one fine partition share (the y1 block
means and the squared residuals) once per partition, and writes every (R, n)
temporary into buffers allocated once per call, with `fit`'s arithmetic."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .estimation import (
    DegenerateVarianceError,
    Estimate,
    Observations,
    _block_log_likelihood,
    _fine_fit,
    _fit_rows,
    _loss,
    _squared_residuals,
    fit,
)
from .model_space import Model, _blocks, _check_constants, log_power


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
        _check_constants(gamma=self.gamma, theta=self.theta, epsilon=self.epsilon)


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


def _fit_block(models: Sequence[Model], y1: np.ndarray, y2: np.ndarray, ranked, truth=None, kind=None):
    """Fit every model to each row of an (R, n) block with `fit`'s arithmetic: (lik, losses, bad).

    lik[r, j] is `log_likelihood` of model j on row r if ranked[j], losses[r, j]
    is the loss `kind` against truth if a kind is given (both 0 otherwise), and
    bad[r] whether row r is degenerate for any model.

    The y1 block means and the squared residuals of a fine partition are computed
    once for each run of consecutive models on it; in canonical order each fine
    partition is one run.  Every (R, n) temporary is written into buffers
    allocated once per call.
    """
    size, n = y1.shape
    bad = np.zeros(size, dtype=bool)
    lik = np.zeros((size, len(models)))
    losses = np.zeros((size, len(models)))
    # Squared errors of y1 and of the true mean from the y1 block means, y2's squared
    # projection residuals, the expanded variance and the scratch of the sums.
    y1_err, s_err, r2, variance, terms, ratio = np.empty((6, size, n))
    any_ranked = any(ranked)
    num_fine = None
    for j, m in enumerate(models):
        if m.num_fine != num_fine:
            num_fine = m.num_fine
            fine = _fine_fit(num_fine, y1, y2, out=r2)
            if any_ranked:
                _squared_residuals(y1, fine[0], out=y1_err)
            if kind is not None:
                _squared_residuals(truth.s, fine[0], out=s_err)
        _, block_var, degenerate = _fit_rows(m, y1, y2, fine)
        bad |= degenerate
        if bad.any():  # callers discard or redraw those rows; keep their arithmetic finite
            block_var = np.where(bad[:, None], 1.0, block_var)
        if ranked[j]:
            lik[:, j] = _block_log_likelihood(y1_err, block_var, out=terms)
        if kind is not None:
            np.copyto(_blocks(variance, m.num_coarse), block_var[..., None])
            losses[:, j] = _loss(kind, truth, s_err, variance, out=(terms, ratio))
    return lik, losses, bad
