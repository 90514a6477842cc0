"""Simulation lab: scenarios, seeded data generation and Monte Carlo risk studies.

Every experiment scores targets, each a fixed `Model` or a `CollectionConfig`
that stands for its selection procedure, through one replication engine, `_run`:

- Replications are drawn and scored in blocks of max(1, 2**16 // n) rows.
  Replication r draws from the substream keyed (r,) of its seed policy, so
  results are reproducible bit-for-bit, independent of execution order and
  of the block size.  A degenerate draw (a variance estimate collapses) is
  redrawn; its k-th redraw comes from the substream (r, k).
- A block is scored by the block kernel `estimation._fit_block`, which fits
  each distinct model once over all its rows.  `select` is the one-row case
  of the same kernel, and both pick by `selector`'s penalty and its
  first-minimum rule (ties to the earliest model, NaN never wins), so each
  row's chosen model and loss equal those of the scalar
  `select`/`fit`/`kl_divergence` path bit for bit.
- All compared runs of one scenario (the models of a collection; the oracle
  and every gamma of a table row) share one set of draws, common random
  numbers that reduce ratio variance.  A draw degenerate for any of them is
  redrawn for all of them.
- At most DEGENERATE_BUDGET (0.1%) of the replications may be redrawn.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np

from .estimation import RISK_KINDS, DegenerateVarianceError, Observations, TruthSpec, _fit_block
from .model_space import (
    DELTA, EPSILON, THETA, CollectionConfig, Model, build_collection, check_power_of_two, check_reps,
)
from .selector import _first_min, penalty

#: Fraction of replications allowed to be redrawn due to degenerate variances.
DEGENERATE_BUDGET = 1e-3

_MAX_REDRAWS = 8

_BLOCK_POINTS = 2**16


def _block_rows(n: int) -> int:
    """Draws of n points per block, in the lab and the oracle checks alike: each (R, n)
    float temporary of a block takes 512 KiB for n <= _BLOCK_POINTS."""
    return max(1, _BLOCK_POINTS // n)


def _mean_and_se(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error std(ddof=1) / sqrt(reps) of each row of x, reps along the last
    axis, by the operations of x.mean(-1) and x.std(-1, ddof=1) in numpy's order, bit-equal
    to them.  Overwrites x with its squared deviations."""
    reps = x.shape[-1]
    mean = np.add.reduce(x, axis=-1, keepdims=True) / reps
    np.square(np.subtract(x, mean, out=x), out=x)
    return mean[..., 0], np.sqrt(np.add.reduce(x, axis=-1) / (reps - 1)) / math.sqrt(reps)


class Scenario(NamedTuple):
    """A pair of functions on [0, 1] sampled at i/n, with its variance-ratio bound, and the
    smoothness exponents and Hölder constants of the mean and the variance (the constants
    set `rate_threshold`)."""

    name: str
    mean_fn: Callable[[np.ndarray], np.ndarray]
    var_fn: Callable[[np.ndarray], np.ndarray]
    true_gamma: float
    alpha_mean: float = 1.0
    alpha_var: float = 1.0
    const_mean: float = 1.0
    const_var: float = 1.0

    def truth(self, n: int) -> TruthSpec:
        check_power_of_two("n", n)
        x = np.arange(1, n + 1) / n
        s = np.asarray(self.mean_fn(x), dtype=float) * np.ones(n)
        sigma = np.asarray(self.var_fn(x), dtype=float) * np.ones(n)
        if not np.all(sigma > 0):
            raise ValueError(f"scenario {self.name}: variance function not positive on the grid")
        ratio = sigma.max() / sigma.min()
        if ratio > self.true_gamma * (1.0 + 1e-9):
            raise ValueError(
                f"scenario {self.name}: sampled variance ratio {ratio:.4f} exceeds "
                f"true_gamma={self.true_gamma}"
            )
        return TruthSpec(s=s, sigma=sigma)


class RiskReport(NamedTuple):
    estimate: float
    std_error: float
    replications: int
    kind: str
    degenerate: int = 0


class SeedPolicy(NamedTuple):
    """Deterministic substream derivation from a master seed.

    Replication r draws from the stream keyed (prefix..., r); namespacing
    extends the prefix so nested experiments never collide.
    """

    master_seed: int
    prefix: tuple[int, ...] = ()

    def stream(self, *key: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(self.master_seed, spawn_key=self.prefix + key))

    def namespaced(self, *key: int) -> "SeedPolicy":
        return self._replace(prefix=self.prefix + key)


#: A fixed model, or a configuration that selects from its collection with its
#: penalty on each replication.
Target = Union[Model, CollectionConfig]


def builtin_scenarios() -> list[Scenario]:
    """The four benchmark scenarios M1-M4."""

    def m1_mean(x):
        return np.select([x < 0.25, x < 0.5, x < 0.75], [4.0, 0.0, 2.0], default=1.0)

    def m1_var(x):
        return np.where(x < 0.5, 2.0, 1.0)

    return [
        Scenario("M1", m1_mean, m1_var, true_gamma=2.0),
        Scenario(
            "M2",
            lambda x: 1.0 + np.sin(2.0 * np.pi * x + np.pi / 3.0),
            lambda x: np.ones_like(x),
            true_gamma=1.0,
        ),
        Scenario(
            "M3",
            lambda x: 1.5 * x,
            lambda x: 0.5 + 2.0 * np.sin(4.0 * np.pi * np.minimum(x, 0.5) ** 2) / 3.0,
            true_gamma=7.0 / 3.0,
        ),
        Scenario(
            "M4",
            lambda x: 1.0 + np.sin(4.0 * np.pi * np.minimum(x, 0.5)),
            lambda x: (3.0 + np.sin(2.0 * np.pi * x)) / 2.0,
            true_gamma=2.0,
        ),
    ]


def lipschitz_scenario() -> Scenario:
    """A smooth benchmark with Lipschitz mean and variance, for rate experiments."""
    return Scenario(
        name="lipschitz",
        mean_fn=lambda x: x,
        var_fn=lambda x: 1.0 + 0.5 * x,
        true_gamma=1.5,
        alpha_mean=1.0,
        alpha_var=1.0,
        const_mean=1.0,
        const_var=0.5,
    )


def get_scenario(name: str) -> Scenario:
    for sc in builtin_scenarios() + [lipschitz_scenario()]:
        if sc.name.lower() == name.lower():
            return sc
    raise KeyError(f"unknown scenario {name!r}")


def _draw(truth: TruthSpec, rngs) -> tuple[np.ndarray, np.ndarray]:
    """Draw the two replicates once per generator, one row each; the first n normal
    draws of a row feed y1, the next n feed y2.

    Each row of one (R, 2n) buffer is filled from its generator and becomes
    truth.s + sqrt(sigma) * z in place; y1 and y2 are (R, n) views of its two halves.
    """
    n = truth.n
    z = np.empty((len(rngs), 2 * n))
    for rng, row in zip(rngs, z):
        rng.standard_normal(out=row)
    halves = z.reshape(len(rngs), 2, n)
    np.multiply(np.sqrt(truth.sigma), halves, out=halves)
    np.add(truth.s, halves, out=halves)
    return halves[:, 0], halves[:, 1]


def sample(scenario: Scenario, n: int, rng: np.random.Generator) -> Observations:
    """Draw the two replicates of the scenario at sample size n."""
    y1, y2 = _draw(scenario.truth(n), [rng])
    return Observations(y1=y1[0], y2=y2[0])


def _run(scenario, targets, reps, seeds, kind):
    """The replication engine: the `_scorer` of the targets on blocks of the reps draws.

    A block stacks `_block_rows(n)` replications at the targets' sample size n
    as rows of (R, n) arrays.  Returns the (reps, targets) losses and picks of
    all replications and the number of redraws.  Replication r draws from the
    stream (r,) and, while its row is degenerate, redraws from (r, 1), (r, 2),
    ..., up to _MAX_REDRAWS attempts in all.
    """
    score = _scorer(targets, kind)
    truth = scenario.truth(targets[0].n)
    rows = _block_rows(truth.n)
    losses = np.empty((reps, len(targets)))
    picks = np.empty((reps, len(targets)), dtype=np.intp)
    degenerate = 0
    for start in range(0, reps, rows):
        pending = np.arange(start, min(start + rows, reps))
        for attempt in range(_MAX_REDRAWS):
            keys = [(r,) if attempt == 0 else (r, attempt) for r in pending.tolist()]
            loss, pick, bad = score(*_draw(truth, [seeds.stream(*key) for key in keys]), truth)
            losses[pending[~bad]] = loss[~bad]
            picks[pending[~bad]] = pick[~bad]
            degenerate += int(bad.sum())
            pending = pending[bad]
            if not len(pending):
                break
        else:
            raise DegenerateVarianceError(
                f"replication {pending[0]}: degenerate variance persisted across {_MAX_REDRAWS} redraws"
            )
    if degenerate > DEGENERATE_BUDGET * reps:
        raise DegenerateVarianceError(
            f"{degenerate} degenerate replications out of {reps} exceed the "
            f"{DEGENERATE_BUDGET:.1%} budget"
        )
    return losses, picks, degenerate


def _scorer(targets: Sequence[Target], kind: str | None):
    """The block scorer of the targets: score(y1, y2, truth) -> (losses, picks, bad).

    For R rows, losses[r, i] is the loss of target i (0 when kind is None),
    picks[r, i] the index of its chosen model in its collection (0 for a
    Model), and bad[r] whether the row is degenerate for any model of any
    target.  Each distinct model is fitted once per block by the block
    kernel `estimation._fit_block`, of which `select` is the one-row case,
    and a CollectionConfig picks by `selector`'s rule `_first_min`: the first minimum
    of likelihood plus penalty, where NaN never wins.  Likelihoods are taken for
    every model when any target is a CollectionConfig.  Each configuration's
    collection and penalties are computed once, here.
    """
    collections = {t: build_collection(t) for t in targets if isinstance(t, CollectionConfig)}
    members = [collections.get(t, [t]) for t in targets]
    models = list(dict.fromkeys(m for ms in members for m in ms))
    column = {m: j for j, m in enumerate(models)}
    cols = [np.array([column[m] for m in ms]) for ms in members]
    pens = [np.array([penalty(m, t) for m in collections[t]]) if t in collections else None for t in targets]

    def score(y1, y2, truth):
        lik, loss, bad = _fit_block(models, y1, y2, bool(collections), truth, kind)
        size = len(y1)
        picks = np.zeros((size, len(targets)), dtype=np.intp)
        losses = np.empty((size, len(targets)))
        for i, (c, p) in enumerate(zip(cols, pens)):
            if p is not None:
                picks[:, i] = _first_min(lik[:, c] + p)
            losses[:, i] = loss[np.arange(size), c[picks[:, i]]]
        return losses, picks, bad

    return score


def _aggregate(losses: np.ndarray, kind: str, degenerate: int) -> list[RiskReport]:
    """One report per column of the (reps, targets) losses, reduced as the rows of a copy (the
    reduction overwrites it), bit-equal to reducing each column on its own."""
    reps = len(losses)
    estimates, std_errors = _mean_and_se(losses.T.copy())
    return [
        RiskReport(estimate=float(e), std_error=float(se), replications=reps, kind=kind, degenerate=degenerate)
        for e, se in zip(estimates, std_errors)
    ]


def mc_risk(
    scenario: Scenario,
    target: Target,
    reps: int,
    seeds: SeedPolicy,
    kind: str = "kullback",
) -> RiskReport:
    """Monte Carlo risk of a fixed model or of the selection procedure of a configuration."""
    return risk_profile(scenario, [target], reps, seeds, kind)[0]


def risk_profile(
    scenario: Scenario,
    targets: Sequence[Target],
    reps: int,
    seeds: SeedPolicy,
    kind: str = "kullback",
) -> list[RiskReport]:
    """One risk report per target (a Model or a CollectionConfig), at the targets'
    common sample size, all on shared seeds (common random numbers).

    A replication whose draw is degenerate for any model of any target is
    redrawn for all of them, so every target sees exactly the same observations.
    """
    if not targets:
        raise ValueError("empty target list")
    sizes = sorted({t.n for t in targets})
    if len(sizes) > 1:
        raise ValueError(f"targets have different sample sizes {sizes}")
    for t in targets:
        if isinstance(t, Model) and t.num_fine == t.n:
            raise ValueError(f"{t} has one point per fine block, so its variance estimate is 0 on every draw")
    if kind not in RISK_KINDS:
        raise ValueError(f"kind must be one of {RISK_KINDS}, got {kind!r}")
    check_reps("reps", reps, 2)

    losses, _, degenerate = _run(scenario, targets, reps, seeds, kind)
    return _aggregate(losses, kind, degenerate)


def oracle_risk(
    scenario: Scenario,
    collection: Sequence[Model],
    reps: int,
    seeds: SeedPolicy,
    kind: str = "kullback",
) -> tuple[Model, RiskReport]:
    """The model with the smallest estimated risk on shared seeds, with its report, picked
    by `selector`'s first-minimum rule."""
    reports = risk_profile(scenario, collection, reps, seeds, kind)
    best = int(_first_min(np.array([r.estimate for r in reports])))
    return collection[best], reports[best]


class RatioCell(NamedTuple):
    scenario: str
    gamma: float
    ratio: float
    std_error: float


def ratio_table(
    scenarios: Sequence[Scenario],
    gamma_grid: Sequence[float],
    n: int,
    reps: int,
    seeds: SeedPolicy,
    kind: str = "kullback",
    theta: float = THETA,
    epsilon: float = EPSILON,
    delta: float = DELTA,
) -> list[RatioCell]:
    """Selection-risk / oracle-risk ratios per scenario and penalty gamma.

    The oracle is estimated once per scenario over the collection built with
    the scenario's true gamma; each grid gamma drives both the collection
    filters and the penalty of the selection run.  All runs of one scenario
    are scored on the same draws, each drawn once.  Every oracle collection
    is built before any scenario is scored, so an empty one fails at once.
    """
    if not scenarios:
        raise ValueError("empty scenario list")
    if not gamma_grid:
        raise ValueError("empty gamma grid")
    selections = [CollectionConfig(n, g, theta, epsilon, delta) for g in gamma_grid]
    oracles = [build_collection(CollectionConfig(n, sc.true_gamma, theta, epsilon, delta)) for sc in scenarios]
    cells = []
    for i, (sc, oracle_coll) in enumerate(zip(scenarios, oracles)):
        reports = risk_profile(sc, oracle_coll + selections, reps, seeds.namespaced(i), kind)
        oracle = reports[int(_first_min(np.array([r.estimate for r in reports[: len(oracle_coll)]])))]
        for g, rep in zip(gamma_grid, reports[len(oracle_coll) :]):
            ratio = rep.estimate / oracle.estimate
            se = abs(ratio) * math.sqrt(
                (rep.std_error / rep.estimate) ** 2 + (oracle.std_error / oracle.estimate) ** 2
            )
            cells.append(RatioCell(scenario=sc.name, gamma=g, ratio=ratio, std_error=se))
    return cells


def selection_frequency(
    scenario: Scenario,
    n: int,
    predicate: Callable[[Model], bool],
    reps: int,
    seeds: SeedPolicy,
) -> float:
    """Fraction of replications whose selected model satisfies the predicate, selecting
    with the scenario's true gamma and the default theta, epsilon and delta."""
    check_reps("reps", reps, 1000)
    cfg = CollectionConfig(n, scenario.true_gamma, THETA, EPSILON, DELTA)
    hit = np.array([1.0 if predicate(m) else 0.0 for m in build_collection(cfg)])
    _, picks, _ = _run(scenario, [cfg], reps, seeds, None)
    return float(hit[picks[:, 0]].mean())


class ConvergencePoint(NamedTuple):
    n: int
    normalized_risk: float
    std_error: float


class ConvergenceResult(NamedTuple):
    points: tuple[ConvergencePoint, ...]
    slope: float


def rate_threshold(scenario: Scenario, n: int, epsilon: float) -> float:
    """Smallest admissible n for the rate experiment with this smooth scenario: inf when
    exp(4 (1+epsilon)^2) is past the float range."""
    sigma_star = float(scenario.truth(n).sigma.min())
    l1, l2 = scenario.const_mean, scenario.const_var
    try:
        log_bound = math.exp(4.0 * (1.0 + epsilon) ** 2)
    except OverflowError:
        log_bound = math.inf
    return max((2.0 * sigma_star**2 / (l1**2 * sigma_star + l2**2)) ** 2, log_bound)


def convergence_experiment(
    scenario: Scenario,
    n_grid: Sequence[int],
    reps: int,
    seeds: SeedPolicy,
    theta: float = THETA,
    epsilon: float = EPSILON,
    delta: float = DELTA,
) -> ConvergenceResult:
    """Normalized Kullback risk of the selected estimator, with the scenario's true gamma,
    along a grid of sample sizes.

    Fits the least-squares slope of log risk against log(n / (log n)^(1+epsilon));
    for smoothness alpha = min(alpha_mean, alpha_var) the rate theory predicts a
    slope of -2*alpha/(2*alpha + 1).
    """
    n_grid = list(n_grid)
    if len(n_grid) < 2:
        raise ValueError("n_grid needs at least two points to fit a slope")
    for n in n_grid:
        check_power_of_two("n_grid entry", n)
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ValueError("n_grid must be strictly increasing")
    threshold = rate_threshold(scenario, n_grid[0], epsilon)
    if n_grid[0] < threshold:
        raise ValueError(f"n_grid starts below the admissible threshold {threshold:.1f}")
    points = []
    for j, n in enumerate(n_grid):
        cfg = CollectionConfig(n, scenario.true_gamma, theta, epsilon, delta)
        rep = mc_risk(scenario, cfg, reps, seeds.namespaced(j), "kullback")
        points.append(
            ConvergencePoint(n=n, normalized_risk=rep.estimate / n, std_error=rep.std_error / n)
        )
    xs = np.array([math.log(p.n / math.log(p.n) ** (1.0 + epsilon)) for p in points])
    ys = np.array([math.log(p.normalized_risk) for p in points])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return ConvergenceResult(points=tuple(points), slope=slope)
