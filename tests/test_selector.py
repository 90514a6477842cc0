import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heteroselect import estimation
from heteroselect.estimation import (
    LOG_ALLOWANCE,
    VARIANCE_FLOOR,
    DegenerateVarianceError,
    Observations,
    TruthSpec,
    _block_likelihoods,
    _block_losses,
    _block_screen,
    _fit_block,
    _loss,
    _loss_screen,
    _runs,
    _squared_residuals as squared_residuals,
    _variance_terms,
    fit,
    log_likelihood,
)
from heteroselect.model_space import (
    CollectionConfig, EmptyCollectionError, Model, all_models, block_means, build_collection, expand, log_power,
)
from heteroselect.selector import _first_min, _screened_pick, penalty, select
from heteroselect.simlab import RISK_KINDS, SeedPolicy, get_scenario, sample


def test_penalty_hand_values():
    m = Model(16, 0, 1)  # D = 2
    assert penalty(m, CollectionConfig(16, 1.0, 2.0, 0.01, 3.0)) == pytest.approx(5.3812, abs=1e-3)
    assert penalty(m, CollectionConfig(16, 2.0, 2.0, 0.01, 3.0)) == pytest.approx(9.3812, abs=1e-3)


def test_default_weight_reproduces_admissibility_with_equality():
    cfg = CollectionConfig(1024, 2.0, 2.0, 0.01, 3.0)
    for m in build_collection(cfg):
        pen = penalty(m, cfg)
        x_m = m.dim * log_power(m.dim, cfg.epsilon)
        assert pen - cfg.gamma * cfg.theta * m.dim == pytest.approx(x_m, rel=1e-12)
        assert pen >= cfg.gamma * cfg.theta * m.dim + x_m - 1e-9


def test_penalty_strictly_increasing_in_dimension():
    cfg = CollectionConfig(1024, 1.0, 2.0, 0.01, 3.0)
    coll = build_collection(cfg)
    dims = sorted({m.dim for m in coll})
    pens = [penalty(next(m for m in coll if m.dim == d), cfg) for d in dims]
    assert all(b > a for a, b in zip(pens, pens[1:]))


@pytest.fixture
def m1_setup():
    cfg = CollectionConfig(1024, 2.0, 2.0, 0.01, 3.0)
    obs = sample(get_scenario("M1"), 1024, SeedPolicy(11).stream(0))
    return cfg, obs


def test_select_singleton():
    cfg = CollectionConfig(16, 1.0, 2.0, 0.01, 3.0)
    coll = build_collection(cfg)
    assert len(coll) == 1
    rng = np.random.default_rng(9)
    obs = Observations(y1=rng.normal(size=16), y2=rng.normal(size=16))
    res = select(cfg, obs)
    assert res.chosen is coll[0]


def test_select_matches_exhaustive_recomputation(m1_setup):
    # The family is build_collection(cfg), whatever gamma, theta and n the config holds.
    cases = [m1_setup] + [
        (CollectionConfig(n, gamma, 5.0, 0.01, 3.0), sample(get_scenario("M1"), n, SeedPolicy(12).stream(n)))
        for n in (16, 64)
        for gamma in (1.0, 3.0)
    ]
    for cfg, obs in cases:
        coll = build_collection(cfg)
        res = select(cfg, obs)
        assert [a.model for a in res.per_model] == coll
        crits = []
        for m in coll:
            est = fit(m, obs)
            crits.append(log_likelihood(obs.y1, est.mean, est.variance) + penalty(m, cfg))
        assert res.criterion_value == min(crits)
        assert res.chosen is coll[int(np.argmin(crits))]
        assert [a.criterion for a in res.per_model] == crits


def test_select_audit_consistency(m1_setup):
    cfg, obs = m1_setup
    res = select(cfg, obs)
    assert len(res.per_model) == len(build_collection(cfg))
    for a in res.per_model:
        assert a.criterion == a.likelihood + a.penalty
        assert all(type(v) is float for v in (a.likelihood, a.penalty, a.criterion))
    assert res.criterion_value == min(a.criterion for a in res.per_model)
    assert type(res.criterion_value) is float


def test_select_deterministic(m1_setup):
    cfg, obs = m1_setup
    r1 = select(cfg, obs)
    r2 = select(cfg, obs)
    assert r1.chosen is r2.chosen
    assert r1.criterion_value == r2.criterion_value
    np.testing.assert_array_equal(r1.estimate.mean, r2.estimate.mean)
    np.testing.assert_array_equal(r1.estimate.variance, r2.estimate.variance)


def test_select_invariant_under_constant_penalty_shift(m1_setup):
    cfg, obs = m1_setup
    res = select(cfg, obs)
    shifted = np.array([a.likelihood + (a.penalty + 100.0) for a in res.per_model])
    assert build_collection(cfg)[int(_first_min(shifted))] is res.chosen


def test_select_tie_break_prefers_smallest_dimension():
    cfg = CollectionConfig(64, 1.0, 2.0, 0.01, 3.0)
    coll = build_collection(cfg)
    rng = np.random.default_rng(10)
    obs = Observations(y1=rng.normal(size=64), y2=rng.normal(size=64))
    res = select(cfg, obs)
    # a penalty constant across models makes many criteria close; equal criteria
    # must resolve to the earliest (smallest-D) model of the canonical order
    for crits in ([a.criterion for a in res.per_model], [a.likelihood + 50.0 for a in res.per_model]):
        assert _first_min(np.array(crits)) == min(range(len(coll)), key=lambda j: (crits[j], j))
    assert res.chosen is coll[int(_first_min(np.array([a.criterion for a in res.per_model])))]


@pytest.mark.parametrize(
    "criteria, expected",
    [
        ([3.0, 1.0, 2.0, 1.0], 1),  # an exact tie goes to the first index
        ([math.nan, 2.0, 1.0, 1.0], 2),  # NaN never wins
        ([math.inf, math.nan, 5.0], 2),
    ],
)
def test_first_min(criteria, expected):
    assert _first_min(np.array(criteria)) == expected
    assert _first_min(np.array([criteria, criteria])).tolist() == [expected, expected]


@pytest.mark.parametrize(
    "criteria",
    [
        [math.nan, math.nan, math.nan],
        [math.inf, math.nan, math.inf],
        [[1.0, 2.0, 3.0], [math.inf, math.inf, math.inf]],  # one such row among finite ones
    ],
)
def test_first_min_raises_on_a_row_with_no_finite_criterion(criteria):
    with pytest.raises(ValueError, match="^no model has a finite criterion"):
        _first_min(np.array(criteria))


def test_a_screened_row_that_the_slack_cannot_decide_takes_the_exact_first_minimum(monkeypatch):
    # Penalties set so that two criteria lie within the slack: the screen cannot order them, and
    # the row takes `_first_min` of its exact criteria.  That is the later model where its exact
    # criterion is lower by a few ulps, and the earlier one on an exact tie (one fit, twice).
    n = 256
    draws = [sample(get_scenario("M3"), n, SeedPolicy(29).stream(r)) for r in range(4)]
    for obs in draws:
        y1 = obs.y1[None]
        first, later = _fit_block([Model(n, 1, 2), Model(n, 2, 4)], y1, obs.y2[None])[0]
        for fits, tie in (([first, later], False), ([first, first], True)):
            lik = _block_likelihoods(y1, fits)[0]
            approx, slack = _block_screen(y1, fits)
            gap = lik[0] - lik[1]
            while not lik[1] + gap < lik[0] and not tie:
                gap = np.nextafter(gap, -np.inf)
            pens = np.array([0.0, gap])
            crit = lik + pens
            assert (crit[1] == crit[0]) if tie else (crit[1] < crit[0])
            assert abs((approx[0, 0] + pens[0]) - (approx[0, 1] + pens[1])) < slack[0].min()
            assert _screened_pick(y1, fits, approx, slack, pens).tolist() == [_first_min(crit)] == [int(not tie)]
    # An infinite slack sends every row of a block to the exact criteria, whose squared errors are
    # still taken once per fine partition, as the fits of one partition share its means.
    cfg = CollectionConfig(n, 2.0, 2.0, 0.01, 3.0)
    coll = build_collection(cfg)
    y1, y2 = np.stack([obs.y1 for obs in draws]), np.stack([obs.y2 for obs in draws])
    fits, _ = _fit_block(coll, y1, y2)
    pens = np.array([penalty(m, cfg) for m in coll])
    exact = _first_min(_block_likelihoods(y1, fits) + pens)
    approx, slack = _block_screen(y1, fits)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return squared_residuals(*args, **kwargs)

    monkeypatch.setattr(estimation, "_squared_residuals", counted)
    picks = _screened_pick(y1, fits, approx, np.full_like(slack, np.inf), pens)
    assert len(calls) == len({m.num_fine for m in coll}) < len(coll)
    assert picks.tolist() == exact.tolist()


def test_select_empty_collection():
    # At n = 2 no model meets the sample-size bound: the config admits no model.
    rng = np.random.default_rng(12)
    obs = Observations(y1=rng.normal(size=2), y2=rng.normal(size=2))
    with pytest.raises(EmptyCollectionError, match="^no admissible model for n=2"):
        select(CollectionConfig(2, 1.0, 2.0, 0.01, 3.0), obs)


def test_select_raises_when_any_model_is_degenerate():
    # y2 is constant on the first half, so every model with a coarse block inside
    # it has zero residual variance there, whether or not it would be chosen.
    rng = np.random.default_rng(3)
    y2 = rng.normal(size=64)
    y2[:32] = 0.5
    obs = Observations(y1=rng.normal(size=64), y2=y2)
    cfg = CollectionConfig(64, 1.0, 2.0, 0.01, 3.0)
    coll = build_collection(cfg)
    assert len(coll) == 8 and sum(m.num_coarse > 1 for m in coll) == 4
    with pytest.raises(DegenerateVarianceError, match="zero residual variance"):
        select(cfg, obs)


def test_select_raises_when_no_criterion_is_finite():
    # Block sums of values near the float limit overflow, so every criterion is inf or nan.
    rng = np.random.default_rng(7)
    y = rng.uniform(0.85e308, 1.7e308, size=(2, 64))
    obs = Observations(y1=y[0], y2=y[1])
    cfg = CollectionConfig(64, 2.0, 2.0, 0.01, 3.0)
    with pytest.raises(ValueError, match="no model has a finite criterion"):
        select(cfg, obs)


def _expanded_fit(m, y1, y2, bad):
    """Model m's fit of each row, spelled per model on expanded vectors: the y1 fine block means
    and the coarse block means of y2's squared residuals.  Marks in bad the rows with a variance
    below VARIANCE_FLOOR; from then on, their variances read 1.0."""
    mean = expand(block_means(y1, m.num_fine), m.n)
    block_var = block_means((y2 - expand(block_means(y2, m.num_fine), m.n)) ** 2, m.num_coarse)
    bad |= (block_var < VARIANCE_FLOOR).any(axis=-1)
    return mean, expand(np.where(bad[:, None], 1.0, block_var), m.n)


@pytest.mark.parametrize("name, n, rows", [
    # M3's ids stay n-rows, so records of earlier runs still name the same tests.
    pytest.param(name, n, rows, id=f"{n}-{rows}" if name == "M3" else f"{name}-{n}-{rows}")
    for name in ("M3", "M1", "M2", "M4", "lipschitz")
    for n, rows in ((16, 5), (64, 5), (1024, 5), (65536, 1))
])
def test_shared_kernel_equals_per_model_formulas(name, n, rows):
    # The block kernel shares each fine partition's residuals between its models and
    # broadcasts block values into buffers; per model, on expanded vectors, the formulas
    # must give the same bits.  The order is shuffled, so fine partitions recur
    # non-consecutively, and in a multi-row block the middle row has y2 constant on its
    # first half: it turns degenerate partway through the collection.  The fit pass gives
    # every model's block values, which the likelihood and loss passes score.
    rng = np.random.default_rng(n)
    levels = n.bit_length() - 1
    # Every model whose fine blocks hold at least two points; the others fit y2 exactly.
    models = [Model(n, k, 2**e) for k in range(levels) for e in range(levels - k)]
    if n == 65536:
        models = build_collection(CollectionConfig(n, 2.0, 2.0, 0.01, 3.0))
    models = [models[i] for i in rng.permutation(len(models))]
    truth = get_scenario(name).truth(n)
    y1, y2 = truth.s + np.sqrt(truth.sigma) * rng.standard_normal((2, rows, n))
    if rows > 1:
        y2[rows // 2, : n // 2] = 0.5
    bad = np.zeros(rows, dtype=bool)
    expected = {kind: np.zeros((rows, len(models))) for kind in (None,) + RISK_KINDS}
    for j, m in enumerate(models):
        mean, variance = _expanded_fit(m, y1, y2, bad)
        expected[None][:, j] = [log_likelihood(*row) for row in zip(y1, mean, variance)]
        for kind in RISK_KINDS:
            expected[kind][:, j] = _loss(kind, truth, (truth.s - mean) ** 2, variance)
    assert bad.tolist() == [rows > 1 and r == rows // 2 for r in range(rows)]
    fits, got_bad = _fit_block(models, y1, y2)
    assert got_bad.tolist() == bad.tolist()
    assert (_block_likelihoods(y1, fits)[~bad] == expected[None][~bad]).all()
    for kind in RISK_KINDS:
        assert (_block_losses(fits, truth, kind)[~bad] == expected[kind][~bad]).all()


def _draw_breaks(draw, n, shape):
    """Break points among 1, ..., n - 1: 'mixed' ones on dyadic block edges, one point off a dyadic
    edge (like M1's breaks at n/4 - 1, n/2 - 1 and 3n/4 - 1) and at neighbouring points, or none
    ('nowhere'), or all ('everywhere')."""
    if shape == "everywhere":
        return set(range(1, n))
    if shape == "nowhere":
        return set()
    levels = n.bit_length() - 1
    edges = st.integers(1, levels).flatmap(lambda k: st.integers(1, 2**k - 1).map(lambda i: i * (n >> k)))
    breaks = draw(st.sets(edges, max_size=4))
    breaks |= {e - 1 for e in draw(st.sets(edges, max_size=2)) if e > 1}
    breaks |= {i + d for i in draw(st.sets(st.integers(1, n - 2), max_size=2)) for d in (0, 1)}
    return breaks


def _steps(values, breaks, n):
    """The length-n vector that takes its next value at each break."""
    starts = [0] + sorted(breaks)
    return np.repeat(values, np.diff(starts + [n]))


@st.composite
def piecewise_constant_truths(draw):
    """A truth at n in {8, ..., 256} whose sigma and s step on breaks of `_draw_breaks`, each on
    its own, or s on sigma's breaks; s stepping everywhere is pointwise, like M2-M4's."""
    n = 2 ** draw(st.integers(3, 8))
    sigma_breaks = _draw_breaks(draw, n, draw(st.sampled_from(["mixed", "nowhere", "everywhere"])))
    s_shape = draw(st.sampled_from(["mixed", "nowhere", "everywhere", "sigma's"]))
    s_breaks = sigma_breaks if s_shape == "sigma's" else _draw_breaks(draw, n, s_shape)
    values = draw(st.lists(st.floats(0.25, 4.0), min_size=len(sigma_breaks) + 1, max_size=len(sigma_breaks) + 1))
    seed = draw(st.integers(0, 2**32 - 1))
    order = draw(st.permutations(range(len(all_models(n)))))
    s = _steps(np.random.default_rng(seed).normal(size=len(s_breaks) + 1), s_breaks, n)
    return TruthSpec(s, _steps(values, sigma_breaks, n)), seed, order


@settings(deadline=None, max_examples=60)
@given(case=piecewise_constant_truths())
def test_losses_per_run_equal_per_point_losses(case):
    # The kernel takes a whole loss term once per cell of constant s and sigma within a fine
    # block, or else the variance terms once per run of equal sigma within a coarse block; per
    # model, on expanded vectors, the formulas must give the same bits.
    # Every model, shuffled, so coarse levels recur non-consecutively.  Row 1 turns
    # degenerate partway through (y2 constant on its first half).  A model with one-point
    # fine blocks fits y2 exactly and turns every row degenerate, so those models come last;
    # a degenerate row's losses take variance 1.
    truth, seed, order = case
    n, rows = truth.n, 3
    models = sorted((all_models(n)[i] for i in order), key=lambda m: m.num_fine == n)
    y1, y2 = truth.s + np.sqrt(truth.sigma) * np.random.default_rng(seed).standard_normal((2, rows, n))
    y2[1, : n // 2] = 0.5
    bad = np.zeros(rows, dtype=bool)
    expected = {kind: np.zeros((rows, len(models))) for kind in RISK_KINDS}
    for j, m in enumerate(models):
        mean, variance = _expanded_fit(m, y1, y2, bad)
        for kind in RISK_KINDS:
            expected[kind][:, j] = _loss(kind, truth, (truth.s - mean) ** 2, variance)
    fits, got_bad = _fit_block(models, y1, y2)
    assert got_bad.tolist() == bad.tolist()
    for kind in RISK_KINDS:
        assert (_block_losses(fits, truth, kind) == expected[kind]).all()


@settings(deadline=None, max_examples=60)
@given(case=piecewise_constant_truths(), log_scale=st.floats(-3.0, 3.0), offset=st.floats(-1e8, 1e8))
def test_the_loss_screen_is_within_its_slack_of_the_exact_losses(case, log_scale, offset):
    # `_loss_screen` takes every loss by coarse block in closed form.  On a truth a * s + b,
    # a ** 2 * sigma, for every model with at least two points per fine block, in any order, and
    # every kind, each approximation lies within its slack of `_block_losses`, and of the same
    # per-point terms summed one by one, as the slack holds for any order of addition.
    truth, seed, order = case
    a = 10.0**log_scale
    truth = TruthSpec(a * truth.s + offset, a * a * truth.sigma)
    n, rows = truth.n, 3
    models = [all_models(n)[i] for i in order if all_models(n)[i].num_fine < n]
    y1, y2 = truth.s + np.sqrt(truth.sigma) * np.random.default_rng(seed).standard_normal((2, rows, n))
    fits, _ = _fit_block(models, y1, y2)
    for kind in RISK_KINDS:
        approx, slack = _loss_screen(fits, truth, kind)
        assert (np.abs(approx - _block_losses(fits, truth, kind)) <= slack).all()
        for j, (block_mean, block_var) in enumerate(fits):
            sq_err, variance = (truth.s - expand(block_mean, n)) ** 2, expand(block_var, n)
            terms = sq_err if kind == "quadratic_mean" else _variance_terms(kind, truth.sigma, variance)
            if kind == "kullback":
                terms = 0.5 * (sq_err / variance + terms)
            assert (np.abs(approx[:, j] - np.cumsum(terms, axis=-1)[:, -1]) <= slack[:, j]).all()


def test_numpys_log_is_within_the_loss_screens_allowance():
    # `_loss_screen`'s slack allows |np.log(x) - log x| <= LOG_ALLOWANCE * (|log x| + 1) for every
    # positive normal x.  Against a 40-digit reference, on whole arrays (numpy's vector loops and
    # their tails) and on single values: values next to 1, magnitudes over the whole normal range,
    # and variances of the size that the lab meets.
    rng = np.random.default_rng(11)
    near_one = 1.0 + np.arange(-300, 301) * 2.0**-52
    wide = 2.0 ** rng.uniform(-1022.0, 1023.0, 2000)
    typical = rng.uniform(1e-12, 10.0, 2001)
    with localcontext() as ctx:
        ctx.prec = 40
        allowance = Decimal(LOG_ALLOWANCE)
        for x in (near_one, wide, typical, typical[:7]):
            for got in (np.log(x).tolist(), [float(np.log(v)) for v in x[:50]]):
                for value, log in zip(x.tolist(), got):
                    exact = Decimal(value).ln()
                    assert abs(Decimal(log) - exact) <= allowance * (abs(exact) + 1)


def test_runs_of_m1_start_at_every_fine_edge_and_one_point_before_its_breaks():
    # x = (i + 1) / n puts M1's breaks at x = 1/4, 1/2 and 3/4 on points 15, 31 and 47 of n = 64,
    # one point before a dyadic edge, so they split a fine block on every partition but the
    # finest, whose one-point blocks make every point a cell.  Its sigma breaks at 31 alone.
    truth = get_scenario("M1").truth(64)
    for fine in (1, 2, 4, 8, 16, 32):
        edges = set(range(0, 64, 64 // fine))
        for vectors, breaks in (((truth.s, truth.sigma), {15, 31, 47}), ((truth.sigma,), {31})):
            first, length = _runs(fine, *vectors)
            assert first.tolist() == sorted(edges | breaks)
            assert length.tolist() == np.diff(sorted(edges | breaks) + [64]).tolist()
    assert _runs(64, truth.s, truth.sigma) is None
