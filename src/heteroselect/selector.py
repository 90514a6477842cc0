"""Penalty, penalized criterion and the selection rule.

`select` scores every model with the block kernel `estimation._fit_block` on a
one-row block and picks the first minimum with `_first_min`, the rule the
simulation lab applies to blocks of replications."""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .estimation import DegenerateVarianceError, Estimate, Observations, _fit_block, fit
from .model_space import CollectionConfig, Model, log_power


def penalty(m: Model, cfg: CollectionConfig) -> float:
    """(gamma*theta + (log D)^(1+epsilon)) * D, which equals gamma*theta*D + x(m) for the
    model weight x(m) = D*(log D)^(1+epsilon), with the constants of the configuration."""
    return (cfg.gamma * cfg.theta + log_power(m.dim, cfg.epsilon)) * m.dim


class ModelAudit(NamedTuple):
    """Per-model criterion breakdown retained for transparency."""

    model: Model
    likelihood: float
    penalty: float
    criterion: float


class SelectionResult(NamedTuple):
    chosen: Model
    estimate: Estimate
    criterion_value: float
    per_model: tuple[ModelAudit, ...]


def select(collection: Sequence[Model], obs: Observations, cfg: CollectionConfig) -> SelectionResult:
    """Minimize likelihood + penalty over the collection, with the penalty constants of cfg.

    The collection is scanned in `all_models`' order (ascending dimension) and
    ties are broken in favor of the earliest, i.e. most parsimonious, model.
    Runs the simulation lab's block kernel on a one-row block.  Raises
    ValueError when no model has a finite criterion, as when sums of values
    near the float limit or the penalty overflow.
    """
    if not collection:
        raise ValueError("empty model collection")
    wrong = next((m.n for m in collection if m.n != obs.n), None)
    if wrong is not None:
        raise ValueError(f"observations have length {obs.n}, model expects {wrong}")
    pens = [penalty(m, cfg) for m in collection]
    # Overflow yields inf/nan criteria, which never win; `_first_min` reports a row of them.
    with np.errstate(over="ignore", invalid="ignore"):
        lik, _, bad = _fit_block(collection, obs.y1[None], obs.y2[None], True)
        if bad[0]:
            raise DegenerateVarianceError
        crits = lik[0] + pens
        best = int(_first_min(crits))
        estimate = fit(collection[best], obs)
    # Python floats, so that criterion == likelihood + penalty holds in the audit and in JSON.
    return SelectionResult(
        chosen=collection[best],
        estimate=estimate,
        criterion_value=float(crits[best]),
        per_model=tuple(map(ModelAudit, collection, lik[0].tolist(), pens, crits.tolist())),
    )


def _first_min(criteria: np.ndarray) -> np.ndarray:
    """The one pick rule, of `select`, the lab and the oracle: index of the smallest criterion
    along the last axis, the first on ties; NaN never wins; no finite one is a ValueError."""
    if not np.isfinite(criteria).any(axis=-1).all():
        raise ValueError("no model has a finite criterion: the data or the penalty overflow floating-point arithmetic")
    return np.argmin(np.where(np.isnan(criteria), np.inf, criteria), axis=-1)
