"""Penalty, penalized criterion and every pick rule.

`select(cfg, obs)` fits the family `build_collection(cfg)` once with the block kernel of
`estimation` on a one-row block, ranks the fits exactly and returns the first minimum by
`_first_min`.  The lab finds the same first minimum from its screens' bounded approximations:
a selection's by `_screened_pick`, an oracle's candidates by `_oracle_candidates`, both by
the one interval rule `_candidates`."""

from typing import NamedTuple

import numpy as np

from .estimation import DegenerateVarianceError, Estimate, Observations, _block_likelihoods, _fit_block
from .model_space import CollectionConfig, Model, build_collection, log_power


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


def select(cfg: CollectionConfig, obs: Observations) -> SelectionResult:
    """Minimize likelihood + penalty over `build_collection(cfg)`, with the penalty constants of cfg.

    The collection is scanned in `all_models`' order (ascending dimension) and
    ties are broken in favor of the earliest, i.e. most parsimonious, model.
    Raises ValueError when cfg.n is not the data's length, or when no model has
    a finite criterion, as when sums of values near the float limit or the
    penalty overflow; EmptyCollectionError when cfg admits no model.
    """
    if cfg.n != obs.n:
        raise ValueError(f"observations have length {obs.n}, config expects {cfg.n}")
    collection = build_collection(cfg)
    pens = [penalty(m, cfg) for m in collection]
    # Overflow yields inf/nan criteria, which never win; `_first_min` reports a row of them.
    with np.errstate(over="ignore", invalid="ignore"):
        fits, bad = _fit_block(collection, obs.y1[None], obs.y2[None])
        if bad[0]:
            raise DegenerateVarianceError
        lik = _block_likelihoods(obs.y1[None], fits)
        crits = lik[0] + pens
        best = int(_first_min(crits))
    block_mean, block_var = fits[best]
    # Python floats, so that criterion == likelihood + penalty holds in the audit and in JSON.
    return SelectionResult(
        chosen=collection[best],
        estimate=Estimate(collection[best], block_mean[0], block_var[0]),
        criterion_value=float(crits[best]),
        per_model=tuple(map(ModelAudit, collection, lik[0].tolist(), pens, crits.tolist())),
    )


def _screened_pick(y1: np.ndarray, fits, approx: np.ndarray, slack: np.ndarray, pens: np.ndarray) -> np.ndarray:
    """The lab's picks, `_first_min(_block_likelihoods(y1, fits) + pens)`, from the screen
    (approx, slack) of `_block_screen` over the same fits.

    The exact criterion lik + pens lies within the margin 2 * (slack + 2**-52 * |approx + pens|) of
    approx + pens: the slack, one rounding of the penalty's addition on each side, and a factor 2
    for the rounding of these sums themselves.  A row with one candidate (`_candidates`) and only
    finite ends takes it: it is the strict minimum.  The other rows take `_first_min` of exact
    criteria from `_block_likelihoods` on every fit, so that ties, NaN and a row with no finite
    criterion go as in `_first_min`.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        crit = approx + pens
        candidate, finite = _candidates(crit, 2.0 * (slack + 2.0**-52 * np.abs(crit)))
    picks = np.argmax(candidate, axis=-1)
    rest = np.flatnonzero((candidate.sum(axis=-1) != 1) | ~finite)
    if len(rest):
        # One slice per means array, so that the fits of one fine partition still share theirs.
        means = {id(mean): mean[rest] for mean, _ in fits}
        lik = _block_likelihoods(y1[rest], [(means[id(mean)], var[rest]) for mean, var in fits])
        picks[rest] = _first_min(lik + pens)
    return picks


def _oracle_candidates(approx: np.ndarray, slack: np.ndarray) -> np.ndarray:
    """The models that can be the oracle's pick, from the screen (approx, slack) (reps, models) of
    `_loss_screen`: the indices of those whose mean loss can be the least, in order; every model when
    any bound is not finite.

    Let L, A and s be a model's exact losses, approximations and slacks over the reps rows, |A - L| <= s
    row by row.  Whatever the order of addition, a computed sum of reps terms is within gamma =
    (reps - 1) u / (1 - (reps - 1) u), u = 2**-53, of the sum of their absolute values (Higham, 2nd ed.,
    4.2), so the computed sum of L that `simlab._aggregate` takes is within sum s + 2 gamma (sum |A| + sum s),
    to first order, of the computed sum of A.  Two models whose computed sums of L differ by more than
    2.01 u times the larger, plus reps 2**-1074, have different means after the division by reps, in
    the same order, as rounding is monotone.  With D = sum |A| + sum s as computed, the margin
    2 (sum s + (reps + 2) 2**-52 D) + reps 2**-1074 covers all of that for either of two models, and
    the rounding of the computed sums, of the margin and of the interval's ends, by the factor 2.  So
    the candidates are those of `_candidates` on the computed sums of A.
    """
    reps = len(approx)
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.add.reduce(approx, axis=0)
        slack_sum = np.add.reduce(slack, axis=0)
        size = np.add.reduce(np.abs(approx), axis=0) + slack_sum
        margin = 2.0 * (slack_sum + (reps + 2) * 2.0**-52 * size) + reps * 2.0**-1074
        candidate, finite = _candidates(total, margin)
    return np.flatnonzero(candidate) if finite else np.arange(len(total))


def _candidates(value: np.ndarray, margin: np.ndarray):
    """(candidate, finite) along the last axis: whether each interval value -+ margin reaches down to the
    least upper end, and whether every end is finite.  Where each margin bounds its value's distance to the
    exact one, an entry whose lower end lies above another's upper end exceeds it, so is no first minimum."""
    lo, hi = value - margin, value + margin
    return lo <= hi.min(axis=-1, keepdims=True), np.isfinite(lo).all(axis=-1) & np.isfinite(hi).all(axis=-1)


def _first_min(criteria: np.ndarray) -> np.ndarray:
    """The one pick rule, of `select`, the lab and the oracle: index of the smallest criterion
    along the last axis, the first on ties; NaN never wins; no finite one is a ValueError."""
    if not np.isfinite(criteria).any(axis=-1).all():
        raise ValueError("no model has a finite criterion: the data or the penalty overflow floating-point arithmetic")
    return np.argmin(np.where(np.isnan(criteria), np.inf, criteria), axis=-1)
