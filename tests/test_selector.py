import math

import numpy as np
import pytest

from heteroselect.estimation import (
    DegenerateVarianceError,
    Observations,
    _fit_block,
    _fit_rows,
    _loss,
    _neg_log_likelihood,
    fit,
    log_likelihood,
)
from heteroselect.model_space import CollectionConfig, Model, build_collection, expand, log_power
from heteroselect.selector import _first_min, penalty, select
from heteroselect.simlab import RISK_KINDS, get_scenario


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
    from heteroselect.simlab import SeedPolicy, get_scenario, sample

    cfg = CollectionConfig(1024, 2.0, 2.0, 0.01, 3.0)
    obs = sample(get_scenario("M1"), 1024, SeedPolicy(11).stream(0))
    return build_collection(cfg), obs, cfg


def test_select_singleton():
    cfg = CollectionConfig(16, 1.0, 2.0, 0.01, 3.0)
    coll = build_collection(cfg)
    assert len(coll) == 1
    rng = np.random.default_rng(9)
    obs = Observations(y1=rng.normal(size=16), y2=rng.normal(size=16))
    res = select(coll, obs, cfg)
    assert res.chosen is coll[0]


def test_select_matches_exhaustive_recomputation(m1_setup):
    coll, obs, cfg = m1_setup
    res = select(coll, obs, cfg)
    crits = []
    for m in coll:
        est = fit(m, obs)
        crits.append(log_likelihood(obs.y1, est.mean, est.variance) + penalty(m, cfg))
    assert res.criterion_value == min(crits)
    assert res.chosen is coll[int(np.argmin(crits))]
    assert [a.criterion for a in res.per_model] == crits


def test_select_audit_consistency(m1_setup):
    coll, obs, cfg = m1_setup
    res = select(coll, obs, cfg)
    assert len(res.per_model) == len(coll)
    for a in res.per_model:
        assert a.criterion == a.likelihood + a.penalty
        assert all(type(v) is float for v in (a.likelihood, a.penalty, a.criterion))
    assert res.criterion_value == min(a.criterion for a in res.per_model)
    assert type(res.criterion_value) is float


def test_select_deterministic(m1_setup):
    coll, obs, cfg = m1_setup
    r1 = select(coll, obs, cfg)
    r2 = select(coll, obs, cfg)
    assert r1.chosen is r2.chosen
    assert r1.criterion_value == r2.criterion_value
    np.testing.assert_array_equal(r1.estimate.mean, r2.estimate.mean)
    np.testing.assert_array_equal(r1.estimate.variance, r2.estimate.variance)


def test_select_invariant_under_constant_penalty_shift(m1_setup):
    coll, obs, cfg = m1_setup
    res = select(coll, obs, cfg)
    shifted = np.array([a.likelihood + (a.penalty + 100.0) for a in res.per_model])
    assert coll[int(_first_min(shifted))] is res.chosen


def test_select_tie_break_prefers_smallest_dimension():
    cfg = CollectionConfig(64, 1.0, 2.0, 0.01, 3.0)
    coll = build_collection(cfg)
    rng = np.random.default_rng(10)
    obs = Observations(y1=rng.normal(size=64), y2=rng.normal(size=64))
    res = select(coll, obs, cfg)
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
        ([math.nan, math.nan, math.nan], 0),
    ],
)
def test_first_min(criteria, expected):
    assert _first_min(np.array(criteria)) == expected
    assert _first_min(np.array([criteria, criteria])).tolist() == [expected, expected]


def test_select_empty_collection():
    rng = np.random.default_rng(12)
    obs = Observations(y1=rng.normal(size=16), y2=rng.normal(size=16))
    with pytest.raises(ValueError):
        select([], obs, CollectionConfig(16, 1.0, 2.0, 0.01, 3.0))


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
        select(coll, obs, cfg)


def test_select_raises_when_no_criterion_is_finite():
    # Block sums of values near the float limit overflow, so every criterion is inf or nan.
    rng = np.random.default_rng(7)
    y = rng.uniform(0.85e308, 1.7e308, size=(2, 64))
    obs = Observations(y1=y[0], y2=y[1])
    cfg = CollectionConfig(64, 2.0, 2.0, 0.01, 3.0)
    with pytest.raises(ValueError, match="no model has a finite criterion"):
        select(build_collection(cfg), obs, cfg)


@pytest.mark.parametrize("n, rows", [(16, 5), (1024, 5), (65536, 1)])
def test_shared_kernel_equals_per_model_formulas(n, rows):
    # The block kernel shares each fine partition's residuals between its models and
    # broadcasts block values into buffers; per model, on expanded vectors, the formulas
    # must give the same bits.  The order is shuffled, so fine partitions recur
    # non-consecutively, and in a multi-row block the middle row has y2 constant on its
    # first half: it turns degenerate partway through the collection.
    rng = np.random.default_rng(n)
    levels = n.bit_length() - 1
    # Every model whose fine blocks hold at least two points; the others fit y2 exactly.
    models = [Model(n, k, 2**e) for k in range(levels) for e in range(levels - k)]
    if n == 65536:
        models = build_collection(CollectionConfig(n, 2.0, 2.0, 0.01, 3.0))
    models = [models[i] for i in rng.permutation(len(models))]
    ranked = [j % 3 != 1 for j in range(len(models))]
    truth = get_scenario("M3").truth(n)
    y1, y2 = truth.s + np.sqrt(truth.sigma) * rng.standard_normal((2, rows, n))
    if rows > 1:
        y2[rows // 2, : n // 2] = 0.5
    bad = np.zeros(rows, dtype=bool)
    expected = {kind: np.zeros((rows, len(models))) for kind in (None,) + RISK_KINDS}
    for j, m in enumerate(models):
        block_mean, block_var, degenerate = _fit_rows(m, y1, y2)
        bad |= degenerate
        mean, variance = expand(block_mean, n), expand(np.where(bad[:, None], 1.0, block_var), n)
        if ranked[j]:
            expected[None][:, j] = _neg_log_likelihood(y1, mean, variance)
        for kind in RISK_KINDS:
            expected[kind][:, j] = _loss(kind, truth, (truth.s - mean) ** 2, variance)
    assert bad.tolist() == [rows > 1 and r == rows // 2 for r in range(rows)]
    for kind in RISK_KINDS:
        lik, losses, got_bad = _fit_block(models, y1, y2, ranked, truth, kind)
        assert got_bad.tolist() == bad.tolist()
        assert (lik[~bad] == expected[None][~bad]).all()
        assert (losses[~bad] == expected[kind][~bad]).all()
    lik, losses, _ = _fit_block(models, y1, y2, ranked)
    assert (lik[~bad] == expected[None][~bad]).all() and not losses.any()
