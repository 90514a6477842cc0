import math

import numpy as np
import pytest

from heteroselect.estimation import Observations, fit, log_likelihood
from heteroselect.model_space import CollectionConfig, Model, build_collection
from heteroselect.selector import PenaltySpec, default_extra_weight, penalty, select


def test_penalty_hand_values():
    m = Model.create(16, 0, 1)  # D = 2
    assert penalty(m, PenaltySpec(1.0, 2.0, 0.01)) == pytest.approx(5.3812, abs=1e-3)
    assert penalty(m, PenaltySpec(2.0, 2.0, 0.01)) == pytest.approx(9.3812, abs=1e-3)


def test_default_weight_reproduces_admissibility_with_equality():
    spec = PenaltySpec(2.0, 2.0, 0.01)
    for m in build_collection(CollectionConfig(1024, 2.0, 2.0, 0.01, 3.0)):
        pen = penalty(m, spec)
        x_m = default_extra_weight(m, spec.epsilon)
        assert pen - spec.gamma * spec.theta * m.dim == pytest.approx(x_m, rel=1e-12)
        assert pen >= spec.gamma * spec.theta * m.dim + x_m - 1e-9


def test_custom_extra_weight_path():
    m = Model.create(16, 0, 1)
    spec = PenaltySpec(1.0, 2.0, 0.01, extra_weight=lambda mm: 7.0)
    assert penalty(m, spec) == pytest.approx(1.0 * 2.0 * 2 + 7.0)


def test_penalty_strictly_increasing_in_dimension():
    spec = PenaltySpec(1.0, 2.0, 0.01)
    coll = build_collection(CollectionConfig(1024, 1.0, 2.0, 0.01, 3.0))
    dims = sorted({m.dim for m in coll})
    pens = [penalty(next(m for m in coll if m.dim == d), spec) for d in dims]
    assert all(b > a for a, b in zip(pens, pens[1:]))


@pytest.fixture
def m1_setup():
    from heteroselect.simlab import SeedPolicy, get_scenario, sample

    coll = build_collection(CollectionConfig(1024, 2.0, 2.0, 0.01, 3.0))
    obs = sample(get_scenario("M1"), 1024, SeedPolicy(11).stream(0))
    spec = PenaltySpec(2.0, 2.0, 0.01)
    return coll, obs, spec


def test_select_singleton():
    coll = build_collection(CollectionConfig(16, 1.0, 2.0, 0.01, 3.0))
    assert len(coll) == 1
    rng = np.random.default_rng(9)
    obs = Observations(y1=rng.normal(size=16), y2=rng.normal(size=16))
    res = select(coll, obs, PenaltySpec(1.0, 2.0, 0.01))
    assert res.chosen is coll[0]


def test_select_matches_exhaustive_recomputation(m1_setup):
    coll, obs, spec = m1_setup
    res = select(coll, obs, spec)
    crits = []
    for m in coll:
        est = fit(m, obs)
        crits.append(log_likelihood(obs.y1, est.mean, est.variance) + penalty(m, spec))
    assert res.criterion_value == min(crits)
    assert res.chosen is coll[int(np.argmin(crits))]
    assert [a.criterion for a in res.per_model] == crits


def test_select_audit_consistency(m1_setup):
    coll, obs, spec = m1_setup
    res = select(coll, obs, spec)
    assert len(res.per_model) == len(coll)
    for a in res.per_model:
        assert a.criterion == a.likelihood + a.penalty
    assert res.criterion_value == min(a.criterion for a in res.per_model)


def test_select_deterministic(m1_setup):
    coll, obs, spec = m1_setup
    r1 = select(coll, obs, spec)
    r2 = select(coll, obs, spec)
    assert r1.chosen is r2.chosen
    assert r1.criterion_value == r2.criterion_value
    np.testing.assert_array_equal(r1.estimate.mean, r2.estimate.mean)
    np.testing.assert_array_equal(r1.estimate.variance, r2.estimate.variance)


def test_select_invariant_under_constant_penalty_shift(m1_setup):
    coll, obs, spec = m1_setup
    shifted = PenaltySpec(
        spec.gamma,
        spec.theta,
        spec.epsilon,
        extra_weight=lambda m: default_extra_weight(m, spec.epsilon) + 100.0,
    )
    assert select(coll, obs, spec).chosen is select(coll, obs, shifted).chosen


def test_select_tie_break_prefers_smallest_dimension():
    coll = build_collection(CollectionConfig(64, 1.0, 2.0, 0.01, 3.0))
    rng = np.random.default_rng(10)
    obs = Observations(y1=rng.normal(size=64), y2=rng.normal(size=64))
    # a penalty constant across models makes many criteria close; equal criteria
    # must resolve to the earliest (smallest-D) model of the canonical order
    spec = PenaltySpec(1.0, 2.0, 0.01, extra_weight=lambda m: -1.0 * m.dim * 2.0 + 50.0)
    res = select(coll, obs, spec)
    first_min = min(range(len(coll)), key=lambda j: (res.per_model[j].criterion, j))
    assert res.chosen is coll[first_min]


def test_select_empty_collection():
    rng = np.random.default_rng(12)
    obs = Observations(y1=rng.normal(size=16), y2=rng.normal(size=16))
    with pytest.raises(ValueError):
        select([], obs, PenaltySpec(1.0, 2.0, 0.01))


def test_select_raises_when_no_criterion_is_finite():
    # Block sums of values near the float limit overflow, so every criterion is inf or nan.
    rng = np.random.default_rng(7)
    y = rng.uniform(0.85e308, 1.7e308, size=(2, 64))
    obs = Observations(y1=y[0], y2=y[1])
    coll = build_collection(CollectionConfig(64, 2.0, 2.0, 0.01, 3.0))
    with pytest.raises(ValueError, match="no model has a finite criterion"):
        select(coll, obs, PenaltySpec(2.0, 2.0, 0.01))
