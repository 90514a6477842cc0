import math

import numpy as np
import pytest

from heteroselect.estimation import (
    KAPPA,
    DegenerateVarianceError,
    Observations,
    TruthSpec,
    best_approx,
    fit,
    kl_divergence,
    log_likelihood,
    phi,
    prop1_bounds,
)
from heteroselect.model_space import Model


def test_phi_values():
    assert phi(1.0) == 0.0
    assert phi(2.0) == pytest.approx(math.log(2.0) - 0.5)
    assert phi(math.e) == pytest.approx(1.0 / math.e)
    with pytest.raises(ValueError):
        phi(0.0)
    with pytest.raises(ValueError):
        phi(-1.0)


def test_kl_divergence_values():
    truth = TruthSpec(s=[0.0], sigma=[1.0])
    assert kl_divergence(truth, np.array([0.0]), np.array([1.0])) == 0.0
    assert kl_divergence(truth, np.array([1.0]), np.array([1.0])) == pytest.approx(0.5)
    assert kl_divergence(truth, np.array([0.0]), np.array([math.e])) == pytest.approx(
        0.5 / math.e
    )


def test_kl_divergence_nonnegative_and_zero_iff_equal():
    rng = np.random.default_rng(2)
    truth = TruthSpec(s=rng.normal(size=16), sigma=np.exp(rng.normal(size=16)))
    assert kl_divergence(truth, truth.s, truth.sigma) == 0.0
    for _ in range(50):
        t = truth.s + rng.normal(size=16) * rng.choice([0.0, 1.0])
        tau = truth.sigma * np.exp(rng.normal(size=16) * 0.5)
        val = kl_divergence(truth, t, tau)
        assert val >= 0.0
    # any perturbation of size >= 1e-6 moves the divergence strictly above zero
    bumped = truth.s.copy()
    bumped[3] += 1e-6
    assert kl_divergence(truth, bumped, truth.sigma) > 0.0
    tau = truth.sigma.copy()
    tau[5] *= 1.0 + 1e-6
    assert kl_divergence(truth, truth.s, tau) > 0.0


def test_kl_divergence_rejects_nonpositive_variance():
    truth = TruthSpec(s=[0.0, 0.0], sigma=[1.0, 1.0])
    with pytest.raises(ValueError):
        kl_divergence(truth, np.zeros(2), np.array([1.0, 0.0]))


def test_log_likelihood_values():
    assert log_likelihood(np.array([1.0, 2.0]), np.array([1.0, 2.0]), np.ones(2)) == 0.0
    assert log_likelihood(np.array([2.0]), np.array([0.0]), np.array([1.0])) == pytest.approx(2.0)
    assert log_likelihood(np.zeros(2), np.zeros(2), np.full(2, math.e)) == pytest.approx(1.0)


def test_fit_hand_example():
    m = Model.create(4, 0, 2)  # coarse: 1 block of 4, fine: 2 blocks of 2
    obs = Observations(y1=np.zeros(4), y2=np.array([1.0, 3.0, 5.0, 7.0]))
    est = fit(m, obs)
    np.testing.assert_allclose(est.variance, np.ones(4))


def test_fit_mean_is_projection_fixed_point():
    m = Model.create(8, 1, 2)
    y1 = np.repeat([2.0, -1.0, 0.5, 4.0], 2)
    obs = Observations(y1=y1, y2=np.random.default_rng(3).normal(size=8))
    est = fit(m, obs)
    np.testing.assert_array_equal(est.mean, y1)


def test_fit_degenerate_variance_error():
    m = Model.create(4, 0, 2)
    y2 = np.array([1.0, 1.0, 5.0, 5.0])  # already constant on fine blocks
    with pytest.raises(DegenerateVarianceError):
        fit(m, Observations(y1=np.zeros(4), y2=y2))


def test_fit_independence_structure():
    m = Model.create(16, 1, 2)
    rng = np.random.default_rng(4)
    y1 = rng.normal(size=16)
    est_a = fit(m, Observations(y1=y1, y2=rng.normal(size=16)))
    est_b = fit(m, Observations(y1=y1, y2=rng.normal(size=16)))
    np.testing.assert_array_equal(est_a.mean, est_b.mean)
    assert not np.array_equal(est_a.variance, est_b.variance)


def test_fit_estimate_membership_exact():
    m = Model.create(32, 2, 2)
    rng = np.random.default_rng(5)
    est = fit(m, Observations(y1=rng.normal(size=32), y2=rng.normal(size=32)))
    fine = est.mean.reshape(m.fine.num_blocks, m.fine.block_size)
    assert np.all(fine == fine[:, :1])
    coarse = est.variance.reshape(m.coarse.num_blocks, m.coarse.block_size)
    assert np.all(coarse == coarse[:, :1])
    assert np.all(est.variance > 0)


def test_best_approx_exact_representability():
    m = Model.create(8, 1, 2)
    s = np.repeat([1.0, 2.0, 3.0, 4.0], 2)
    truth = TruthSpec(s=s, sigma=np.full(8, 1.7))
    approx, bias = best_approx(m, truth)
    np.testing.assert_allclose(approx.variance, truth.sigma)
    assert bias == pytest.approx(0.0, abs=1e-14)


def test_best_approx_hand_example():
    m = Model.create(2, 0, 1)  # one fine block of 2
    truth = TruthSpec(s=[0.0, 2.0], sigma=[1.0, 1.0])
    approx, bias = best_approx(m, truth)
    np.testing.assert_allclose(approx.mean, [1.0, 1.0])
    np.testing.assert_allclose(approx.variance, [2.0, 2.0])
    assert bias == pytest.approx(math.log(2.0))


def test_best_approx_bias_dual_path_agreement():
    rng = np.random.default_rng(6)
    for _ in range(25):
        m = Model.create(64, int(rng.integers(0, 4)), 2 ** int(rng.integers(0, 3)))
        truth = TruthSpec(s=rng.normal(size=64), sigma=np.exp(rng.normal(size=64) * 0.4))
        approx, bias = best_approx(m, truth)
        via_kl = kl_divergence(truth, approx.mean, approx.variance)
        assert bias == pytest.approx(via_kl, rel=1e-10, abs=1e-12)


def test_best_approx_is_local_minimum():
    rng = np.random.default_rng(7)
    m = Model.create(32, 1, 4)
    truth = TruthSpec(s=rng.normal(size=32), sigma=np.exp(rng.normal(size=32) * 0.3))
    approx, _ = best_approx(m, truth)
    base = kl_divergence(truth, approx.mean, approx.variance)
    for _ in range(200):
        mean_pert = m.fine.expand(rng.normal(scale=0.2, size=m.fine.num_blocks))
        var_pert = m.coarse.expand(np.exp(rng.normal(scale=0.2, size=m.coarse.num_blocks)))
        val = kl_divergence(truth, approx.mean + mean_pert, approx.variance * var_pert)
        assert val >= base - 1e-12


def test_prop1_bounds_examples():
    m = Model.create(1024, 2, 2)  # D = 12
    s = np.repeat(np.arange(8.0), 128)  # in S_m
    truth = TruthSpec(s=s, sigma=np.ones(1024))
    lower, upper = prop1_bounds(m, truth, gamma=2.0, theta=2.0)
    assert lower == pytest.approx(12 / 8.0)
    assert upper == pytest.approx(KAPPA * 4.0 * 4.0 * 12)
    assert upper == pytest.approx(333.266, abs=0.01)


def test_prop1_lower_bound_bias_dominates():
    m = Model.create(16, 0, 1)  # D = 2
    rng = np.random.default_rng(8)
    truth = TruthSpec(s=rng.normal(scale=5.0, size=16), sigma=np.ones(16))
    _, bias = best_approx(m, truth)
    assert bias > m.dim / 4.0
    lower, _ = prop1_bounds(m, truth, gamma=1.0, theta=2.0)
    assert lower == pytest.approx(bias)


def test_prop1_rejects_oversized_model():
    m = Model.create(16, 2, 4)  # D = 20 >> 16/6
    truth = TruthSpec(s=np.zeros(16), sigma=np.ones(16))
    with pytest.raises(ValueError):
        prop1_bounds(m, truth, gamma=1.0, theta=2.0)


def test_observations_validation():
    with pytest.raises(ValueError):
        Observations(y1=np.zeros(3), y2=np.zeros(3))
    with pytest.raises(ValueError):
        Observations(y1=np.zeros(4), y2=np.zeros(8))


def test_observations_reject_non_finite():
    for bad in (np.nan, np.inf, -np.inf):
        y = np.zeros(4)
        y[2] = bad
        with pytest.raises(ValueError, match="finite"):
            Observations(y1=y, y2=np.ones(4))
        with pytest.raises(ValueError, match="finite"):
            Observations(y1=np.ones(4), y2=y)
