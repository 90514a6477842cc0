"""Simulation lab: scenarios, seeded data generation and Monte Carlo risk studies.

Every experiment scores targets, each a fixed `Model`, a `CollectionConfig`
that stands for its selection procedure, or the `Oracle` of a collection,
through one replication engine, `_run`, on the `TruthSpec` that
`Scenario.truth(n)` builds once per run:

- Replications are drawn, fitted and scored in blocks of max(1, 2**16 // n)
  rows.  Replication r draws from the substream keyed (r,) of its seed
  policy, so results are reproducible bit-for-bit, independent of execution
  order and of the block size.  A degenerate draw (a variance estimate
  collapses) is redrawn in place, its k-th redraw from the substream (r, k),
  and its block refitted; a block is scored once, after its last redraw.
- A block is scored by `estimation`'s block kernel, which fits each distinct
  model once over all its rows and scores only the fits that are read.
  `select` is the one-row case of the same kernel and ranks every fit exactly.
  The lab ranks through `_block_screen` and takes exact likelihoods only for
  rows whose pick its rounding bound cannot decide (`selector._screened_pick`).
  Both pick by `selector`'s penalty and its first-minimum rule (ties to the
  earliest model, NaN never wins), so each row's chosen model and loss equal
  those of the scalar `select`/`fit`/`kl_divergence` path bit for bit.
- An oracle's pick is the first minimum of its models' mean losses.  The lab
  bounds every mean from `_loss_screen`'s closed-form losses and takes exact
  losses, after the last block, only for the models whose bound lets them win
  (`selector._oracle_candidates`), so the oracle's report equals that of the first
  minimum over `risk_profile`'s reports of every model, bit for bit.
- All compared runs of one scenario (the models of a collection; the oracle
  and every gamma of a table row) share one set of draws, common random
  numbers that reduce ratio variance.  A draw degenerate for any of them is
  redrawn for all of them.
- At most DEGENERATE_BUDGET (0.1%) of the replications may be redrawn.
- At n >= _MIN_THREADED_N the blocks of a run are scored through `_map` on
  `_WORKERS` threads, one per CPU of the process's affinity up to 2 (`taskset
  -c 0` gives one), which overlap where numpy releases the GIL: its (R, n)
  loops and `standard_normal`.  A map nested in another's item runs on the
  outer map's threads, so `verify`'s checks and their blocks and cases share
  them.  Below it a block is mostly per-row Python (a generator per row) that
  holds the GIL, and runs on the calling thread.  Each block writes only its
  own rows, one slice of the run's losses and picks, so the results are the
  same bytes for any worker count.
"""

import math
import os
import threading
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np

from .estimation import (
    RISK_KINDS, DegenerateVarianceError, Observations, TruthSpec, _block_losses, _block_screen, _fit_block,
    _loss_screen,
)
from .model_space import (
    DELTA, EPSILON, THETA, CollectionConfig, Model, build_collection, check_power_of_two, check_reps,
)
from .selector import _first_min, _oracle_candidates, _screened_pick, penalty

#: Fraction of replications allowed to be redrawn due to degenerate variances.
DEGENERATE_BUDGET = 1e-3

_MAX_REDRAWS = 8

_BLOCK_POINTS = 2**16

#: Threads that `_map` runs on: the CPUs this process may run on, at most 2, the most that
#: its speed and memory were measured on.
_WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)

#: The least sample size at which `_run` scores its blocks through `_map`.  On 2 CPUs, two
#: threads ran 8-block lab runs 12-27% slower than one at n = 16, 0.83-1.06 times as long at
#: n = 64 and 128, and 17-37% faster from n = 256 on.
_MIN_THREADED_N = 256


def _block_rows(n: int) -> int:
    """Draws of n points per block, in the lab and the oracle checks alike: each (R, n)
    float temporary of a block takes 512 KiB for n <= _BLOCK_POINTS."""
    return max(1, _BLOCK_POINTS // n)


class _Map:
    """One open `_map` call: its items, their results and errors, its caller's `np.geterr()`, the
    next item to take (items are taken in order, up to end) and how many are running."""

    def __init__(self, fn, items):
        self.fn, self.items, self.errstate = fn, items, np.geterr()
        self.results, self.errors = [None] * len(items), {}
        self.next = self.running = 0
        self.end = len(items)

    def done(self) -> bool:
        return self.next == self.end and not self.running


class _Pool:
    """The helper threads of an outermost `_map` call: the maps open on them, oldest first, under
    one condition variable, notified whenever a map opens or closes or an item ends.  The helpers
    end when no map is open."""

    def __init__(self):
        self.cond = threading.Condition()
        self.maps = []

    def _take(self, mine):
        for m in [mine, *self.maps] if mine else self.maps:
            if m.next < m.end:
                m.next += 1
                m.running += 1
                return m, m.next - 1
        return None

    def serve(self, until, mine=None):
        """Run items, mine's first and then the oldest open map's, until until() holds."""
        while True:
            with self.cond:
                while not until() and not (job := self._take(mine)):
                    self.cond.wait()
                if until():
                    return
            m, i = job
            try:
                with np.errstate(**m.errstate):
                    m.results[i] = m.fn(m.items[i])
            except BaseException as exc:  # raised again by the map's caller
                with self.cond:
                    m.errors[i], m.end = exc, m.next  # the untaken items are withdrawn
            with self.cond:
                m.running -= 1
                self.cond.notify_all()

    def help(self):
        _local.pool = self
        self.serve(lambda: not self.maps)


#: `.pool`: the `_Pool` whose helper thread this is, on its helper threads only.
_local = threading.local()


def _map(fn, items) -> list:
    """[fn(item) for item in items] on up to `_WORKERS` threads, the results in item order.

    An outermost call starts min(`_WORKERS`, items) helper threads and waits while they run the
    items.  A call from inside an item (a nested map) starts none: its thread runs its own untaken
    items, then, while any of them runs on another thread, the oldest open map's, so nested maps
    share the helpers and never run more than `_WORKERS` items at once.  Of the items that raise,
    the lowest one's error is raised, as a serial loop raises it: once an item fails, the map's
    untaken items are withdrawn, and the map returns when its running items end.  Each item runs
    under its map caller's `np.geterr()`, on whichever thread runs it, since a new thread starts
    with numpy's defaults.  One item, or one worker, is a plain loop.
    """
    items = list(items)
    if min(_WORKERS, len(items)) <= 1:
        return [fn(item) for item in items]
    m = _Map(fn, items)
    pool = getattr(_local, "pool", None)
    helpers = []
    if pool is None:
        pool = _Pool()
        helpers = [threading.Thread(target=pool.help) for _ in range(min(_WORKERS, len(items)))]
    with pool.cond:
        pool.maps.append(m)
        pool.cond.notify_all()
    try:
        for t in helpers:
            t.start()
        if helpers:
            with pool.cond:
                pool.cond.wait_for(m.done)
        else:
            pool.serve(m.done, m)
    finally:
        with pool.cond:
            pool.maps.remove(m)
            pool.cond.notify_all()
        for t in helpers:
            if t.is_alive():
                t.join()
    if m.errors:
        raise m.errors[min(m.errors)]
    return m.results


def _mean_and_se(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error std(ddof=1) / sqrt(reps) of each row of x, reps along the last
    axis, by the operations of x.mean(-1) and x.std(-1, ddof=1) in numpy's order, bit-equal
    to them.  Overwrites x with its squared deviations."""
    reps = x.shape[-1]
    mean = np.add.reduce(x, axis=-1, keepdims=True) / reps
    np.square(np.subtract(x, mean, out=x), out=x)
    return mean[..., 0], np.sqrt(np.add.reduce(x, axis=-1) / (reps - 1)) / math.sqrt(reps)


class Scenario(NamedTuple):
    """A pair of functions on [0, 1] sampled at i/n, with its variance-ratio bound and the
    Hölder constants of the mean and the variance, which set `rate_threshold`."""

    name: str
    mean_fn: Callable[[np.ndarray], np.ndarray]
    var_fn: Callable[[np.ndarray], np.ndarray]
    true_gamma: float
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

    def stream(self, *key: int) -> "np.random.Generator":
        return np.random.default_rng(np.random.SeedSequence(self.master_seed, spawn_key=self.prefix + key))

    def namespaced(self, *key: int) -> "SeedPolicy":
        return self._replace(prefix=self.prefix + key)


class Oracle(NamedTuple("Oracle", [("models", tuple)])):
    """The oracle of a collection of models: the one of least estimated risk on the run's draws,
    the first on ties, where NaN never wins (`selector._first_min`).  Its risk is that model's."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so `_replace`, which copies by `_make`, checks too

    def __new__(cls, models):
        models = tuple(models)
        if not models:
            raise ValueError("an oracle needs at least one model")
        if not all(isinstance(m, Model) for m in models):
            raise ValueError("an oracle's models must all be Models")
        if len({m.n for m in models}) > 1:
            raise ValueError("the oracle's models have different sample sizes")
        return super().__new__(cls, models)

    @property
    def n(self) -> int:
        return self.models[0].n


#: A fixed model, a configuration that selects from its collection with its penalty on each
#: replication, or the oracle of a collection.
Target = Union[Model, CollectionConfig, Oracle]


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

    Generator r fills row r of y1, then row r of y2, in one (2, R, n) buffer, which becomes
    truth.s + sqrt(sigma) * z in place; y1 and y2 are its two contiguous (R, n) halves.
    """
    z = np.empty((2, len(rngs), truth.n))
    for rng, row1, row2 in zip(rngs, z[0], z[1]):
        rng.standard_normal(out=row1)
        rng.standard_normal(out=row2)
    np.multiply(np.sqrt(truth.sigma), z, out=z)
    np.add(truth.s, z, out=z)
    return z[0], z[1]


def sample(scenario: Scenario, n: int, rng: "np.random.Generator") -> Observations:
    """Draw the two replicates of the scenario at sample size n."""
    y1, y2 = _draw(scenario.truth(n), [rng])
    return Observations(y1=y1[0], y2=y2[0])


def _run(truth, targets, reps, seeds, kind):
    """The replication engine: the `_scorer` of the targets on blocks of the reps draws from truth.

    A block stacks `_block_rows(n)` replications at the truth's and the targets' sample size n as
    rows of (R, n) arrays: it draws them, fits them with `_fit_block` and, while any row is
    degenerate, redraws just those rows in place and refits the block.  Replication r draws from
    the stream (r,) and its k-th redraw from (r, k), up to _MAX_REDRAWS draws in all.  The block is
    scored once, after its last redraw, and writes its rows of the (reps, targets) losses and picks
    that `_run` returns with the number of redraws.  From n = _MIN_THREADED_N on, the blocks run
    through `_map`.

    An `Oracle` is resolved after the last block.  Each block keeps its fits of the oracle's models
    and their losses' screen (`_loss_screen`); `_oracle_candidates` bounds every model's mean loss
    from the screen, and `_block_losses` scores only the candidates, on each block's kept fits, with
    no second fit.  The oracle's column holds the losses of `_first_min` of the candidates' mean
    losses, each reduced as `_aggregate` reduces a column, and its pick is that model's index, on
    every row.  It needs a kind: with kind None its column and pick read 0.
    """
    models, score = _scorer(targets, kind)
    rows = _block_rows(truth.n)
    losses = np.empty((reps, len(targets)))
    picks = np.empty((reps, len(targets)), dtype=np.intp)
    oracles = [i for i, t in enumerate(targets) if isinstance(t, Oracle)] if kind else []

    def block(start):
        """Draw, fit and score the block of rows from start into its rows of losses and picks;
        return its redraws and each oracle's (fits, approx, slack)."""
        stop = min(start + rows, reps)
        y1, y2 = _draw(truth, [seeds.stream(r) for r in range(start, stop)])
        fits, bad = _fit_block(models, y1, y2)
        redrawn = 0
        for attempt in range(1, _MAX_REDRAWS):
            if not bad.any():
                break
            failing = (start + np.flatnonzero(bad)).tolist()
            y1[bad], y2[bad] = _draw(truth, [seeds.stream(r, attempt) for r in failing])
            redrawn += len(failing)
            fits, bad = _fit_block(models, y1, y2)
        if bad.any():
            raise DegenerateVarianceError(
                f"replication {start + np.argmax(bad)}: degenerate variance persisted across {_MAX_REDRAWS} redraws"
            )
        losses[start:stop], picks[start:stop], screens = score(y1, fits, truth)
        return redrawn, screens

    spread = _map if truth.n >= _MIN_THREADED_N else (lambda fn, items: list(map(fn, items)))
    redraws, screens = zip(*spread(block, range(0, reps, rows)))
    degenerate = sum(redraws)
    if degenerate > DEGENERATE_BUDGET * reps:
        raise DegenerateVarianceError(
            f"{degenerate} degenerate replications out of {reps} exceed the "
            f"{DEGENERATE_BUDGET:.1%} budget"
        )
    for k, i in enumerate(oracles):
        # The rows in block order, which is replication order.
        approx, slack = (np.concatenate([screen[k][m] for screen in screens]) for m in (1, 2))
        candidates = _oracle_candidates(approx, slack)
        exact = np.concatenate(
            spread(lambda screen: _block_losses([screen[k][0][j] for j in candidates], truth, kind), screens)
        )
        best = int(_first_min(_mean_and_se(exact.T.copy())[0]))
        losses[:, i], picks[:, i] = exact[:, best], candidates[best]
    return losses, picks, degenerate


def _scorer(targets: Sequence[Target], kind: str | None):
    """The block scorer of the targets: (models, score), score(y1, fits, truth) -> (losses, picks,
    screens), where fits are `_fit_block`'s fits of models, every distinct model of every target, to
    the block's R rows, none of them degenerate.

    losses[r, i] is the loss of target i on row r (0 when kind is None, and for an `Oracle`) and
    picks[r, i] the index of its chosen model in its collection (0 for a Model and an Oracle).
    When some target is a CollectionConfig, every fit is ranked by `_block_screen` and the config
    picks by `selector._screened_pick`: `_first_min`, the first minimum of likelihood plus penalty,
    where NaN never wins, taken from the screen's approximations where their slack decides it and
    from `_block_likelihoods` on the rows where it does not.  `_block_losses` scores, on every row,
    only the fits that some row of a Model or a CollectionConfig reads: each fixed Model's and each
    pick.  screens has one (fits, approx, slack) per Oracle, in target order: its models' fits and
    `_loss_screen` of their losses, for `_run` to resolve (none when kind is None).  Each
    configuration's collection and penalties are computed once, here.
    """
    collections = {t: build_collection(t) for t in targets if isinstance(t, CollectionConfig)}
    members = [t.models if isinstance(t, Oracle) else collections.get(t, [t]) for t in targets]
    models = list(dict.fromkeys(m for ms in members for m in ms))
    column = {m: j for j, m in enumerate(models)}
    cols = [np.array([column[m] for m in ms]) for ms in members]
    pens = [np.array([penalty(m, t) for m in collections[t]]) if t in collections else None for t in targets]
    oracles = [i for i, t in enumerate(targets) if isinstance(t, Oracle)]
    scored = [i for i, t in enumerate(targets) if not isinstance(t, Oracle)]

    def score(y1, fits, truth):
        picks = np.zeros((len(y1), len(targets)), dtype=np.intp)
        if collections:
            approx, slack = _block_screen(y1, fits)
            for i, (c, p) in enumerate(zip(cols, pens)):
                if p is not None:
                    picks[:, i] = _screened_pick(y1, [fits[j] for j in c], approx[:, c], slack[:, c], p)
        losses = np.zeros(picks.shape)
        if kind is None:
            return losses, picks, []
        if scored:
            # The column of the fit that each row reads for each target but the oracles.
            chosen = np.stack([cols[i][picks[:, i]] for i in scored], axis=-1)
            read, where = np.unique(chosen, return_inverse=True)
            read_losses = _block_losses([fits[j] for j in read], truth, kind)
            losses[:, scored] = np.take_along_axis(read_losses, where.reshape(chosen.shape), axis=-1)
        screens = []
        for i in oracles:
            oracle_fits = [fits[j] for j in cols[i]]
            screens.append((oracle_fits, *_loss_screen(oracle_fits, truth, kind)))
        return losses, picks, screens

    return models, score


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
    """One risk report per target (a Model, a CollectionConfig or an Oracle), at the targets'
    common sample size, all on shared seeds (common random numbers).

    A replication whose draw is degenerate for any model of any target is
    redrawn for all of them, so every target sees exactly the same observations.
    """
    losses, _, degenerate = _profile(scenario, targets, reps, seeds, kind)
    return _aggregate(losses, kind, degenerate)


def _profile(scenario: Scenario, targets: Sequence[Target], reps: int, seeds: SeedPolicy, kind: str):
    """`_run` of the targets on the scenario's truth, after `risk_profile`'s checks of its arguments."""
    targets = list(targets)
    if not targets:
        raise ValueError("empty target list")
    sizes = sorted({t.n for t in targets})
    if len(sizes) > 1:
        raise ValueError(f"targets have different sample sizes {sizes}")
    for t in targets:
        for m in t.models if isinstance(t, Oracle) else [t] if isinstance(t, Model) else []:
            if m.num_fine == m.n:
                raise ValueError(f"{m} has one point per fine block, so its variance estimate is 0 on every draw")
    if kind not in RISK_KINDS:
        raise ValueError(f"kind must be one of {RISK_KINDS}, got {kind!r}")
    check_reps("reps", reps, 2)
    return _run(scenario.truth(sizes[0]), targets, reps, seeds, kind)


def oracle_risk(
    scenario: Scenario,
    collection: Sequence[Model],
    reps: int,
    seeds: SeedPolicy,
    kind: str = "kullback",
) -> tuple[Model, RiskReport]:
    """The model with the smallest estimated risk on shared seeds, with its report, picked
    by `selector`'s first-minimum rule: the one-target run of the collection's `Oracle`."""
    oracle = Oracle(collection)
    losses, picks, degenerate = _profile(scenario, [oracle], reps, seeds, kind)
    return oracle.models[picks[0, 0]], _aggregate(losses, kind, degenerate)[0]


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

    The oracle is estimated once per scenario, as the `Oracle` of the collection built
    with the scenario's true gamma; each grid gamma drives both the collection
    filters and the penalty of the selection run.  All runs of one scenario
    are scored on the same draws, each drawn once.  Every oracle collection
    is built before any scenario is scored, so an empty one fails at once.
    """
    scenarios, gamma_grid = list(scenarios), list(gamma_grid)
    if not scenarios:
        raise ValueError("empty scenario list")
    if not gamma_grid:
        raise ValueError("empty gamma grid")
    selections = [CollectionConfig(n, g, theta, epsilon, delta) for g in gamma_grid]
    oracles = [Oracle(build_collection(CollectionConfig(n, sc.true_gamma, theta, epsilon, delta))) for sc in scenarios]
    cells = []
    for i, (sc, target) in enumerate(zip(scenarios, oracles)):
        oracle, *reports = risk_profile(sc, [target] + selections, reps, seeds.namespaced(i), kind)
        for g, rep in zip(gamma_grid, reports):
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
    _, picks, _ = _run(scenario.truth(n), [cfg], reps, seeds, None)
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
    exp(4 (1+epsilon)^2) or the constants' bound (2 s^2 / (l1^2 s + l2^2))^2, s the least
    sigma, is past the float range, as that bound is when both constants are 0."""
    sigma_star = float(scenario.truth(n).sigma.min())
    l1, l2 = scenario.const_mean, scenario.const_var
    if not (math.isfinite(l1) and math.isfinite(l2)):
        raise ValueError(f"Hölder constants must be finite, got const_mean={l1}, const_var={l2}")
    try:
        log_bound = math.exp(4.0 * (1.0 + epsilon) ** 2)
    except OverflowError:
        log_bound = math.inf
    scale = l1 * l1 * sigma_star + l2 * l2
    ratio = 2.0 * sigma_star**2 / scale if scale > 0.0 else math.inf
    return max(ratio * ratio, log_bound)


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
    for Hölder smoothness alpha, the lesser of the mean's and the variance's, the rate
    theory predicts a slope of -2*alpha/(2*alpha + 1).
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
