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
from heteroselect.model_space import CollectionConfig, Model, expand
from heteroselect.oracle_checks import InverseMomentCase, lemma10_check
from heteroselect.selector import select
from heteroselect.simlab import Scenario


def test_phi_values():
    assert phi(1.0) == 0.0
    assert phi(2.0) == pytest.approx(math.log(2.0) - 0.5)
    assert phi(math.e) == pytest.approx(1.0 / math.e)
    with pytest.raises(ValueError):
        phi(0.0)
    with pytest.raises(ValueError):
        phi(-1.0)
    with pytest.raises(ValueError):
        phi(np.nan)
    with pytest.raises(ValueError):
        phi(np.array([1.0, np.nan]))


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
    with pytest.raises(ValueError):
        kl_divergence(truth, np.zeros(2), np.array([1.0, np.nan]))
    for mean, variance in [([np.nan, 0.0], [1.0, 1.0]), ([0.0, np.inf], [1.0, 1.0]), ([0.0, 0.0], [np.inf, 1.0])]:
        with pytest.raises(ValueError, match="finite"):
            kl_divergence(truth, np.array(mean), np.array(variance))


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf, -np.inf])
def test_log_likelihood_rejects_nonpositive_variance(bad):
    with pytest.raises(ValueError, match="finite" if bad == np.inf else "positive"):
        log_likelihood(np.zeros(2), np.zeros(2), np.array([1.0, bad]))
    if not np.isfinite(bad):
        for y1, mean in [([0.0, bad], [0.0, 0.0]), ([0.0, 0.0], [bad, 0.0])]:
            with pytest.raises(ValueError, match="finite"):
                log_likelihood(np.array(y1), np.array(mean), np.ones(2))


@pytest.mark.parametrize(
    "s, sigma, message",
    [
        ([0.0, 0.0], [1.0, 0.0], "positive"),
        ([0.0, 0.0], [np.nan, 1.0], "finite"),
        ([0.0, 0.0], [np.inf, 1.0], "finite"),
        ([np.nan, 0.0], [1.0, 1.0], "finite"),
        ([0.0, -np.inf], [1.0, 1.0], "finite"),
    ],
)
def test_truth_spec_rejects_bad_values(s, sigma, message):
    with pytest.raises(ValueError, match=message):
        TruthSpec(s=s, sigma=sigma)


def test_log_likelihood_values():
    assert log_likelihood(np.array([1.0, 2.0]), np.array([1.0, 2.0]), np.ones(2)) == 0.0
    assert log_likelihood(np.array([2.0]), np.array([0.0]), np.array([1.0])) == pytest.approx(2.0)
    assert log_likelihood(np.zeros(2), np.zeros(2), np.full(2, math.e)) == pytest.approx(1.0)


def test_fit_hand_example():
    m = Model(4, 0, 2)  # coarse: 1 block of 4, fine: 2 blocks of 2
    obs = Observations(y1=np.zeros(4), y2=np.array([1.0, 3.0, 5.0, 7.0]))
    est = fit(m, obs)
    np.testing.assert_allclose(est.variance, np.ones(4))


def test_fit_mean_is_projection_fixed_point():
    m = Model(8, 1, 2)
    y1 = np.repeat([2.0, -1.0, 0.5, 4.0], 2)
    obs = Observations(y1=y1, y2=np.random.default_rng(3).normal(size=8))
    est = fit(m, obs)
    np.testing.assert_array_equal(est.mean, y1)


def test_fit_degenerate_variance_error():
    m = Model(4, 0, 2)
    y2 = np.array([1.0, 1.0, 5.0, 5.0])  # already constant on fine blocks
    with pytest.raises(DegenerateVarianceError):
        fit(m, Observations(y1=np.zeros(4), y2=y2))


def test_fit_independence_structure():
    m = Model(16, 1, 2)
    rng = np.random.default_rng(4)
    y1 = rng.normal(size=16)
    est_a = fit(m, Observations(y1=y1, y2=rng.normal(size=16)))
    est_b = fit(m, Observations(y1=y1, y2=rng.normal(size=16)))
    np.testing.assert_array_equal(est_a.mean, est_b.mean)
    assert not np.array_equal(est_a.variance, est_b.variance)


def test_fit_estimate_membership_exact():
    m = Model(32, 2, 2)
    rng = np.random.default_rng(5)
    est = fit(m, Observations(y1=rng.normal(size=32), y2=rng.normal(size=32)))
    assert len(est.block_mean) == m.num_fine and len(est.block_variance) == m.num_coarse
    np.testing.assert_array_equal(expand(est.block_mean, m.n), est.mean)
    np.testing.assert_array_equal(expand(est.block_variance, m.n), est.variance)
    fine = est.mean.reshape(m.num_fine, m.n // m.num_fine)
    assert np.all(fine == fine[:, :1])
    coarse = est.variance.reshape(m.num_coarse, m.n // m.num_coarse)
    assert np.all(coarse == coarse[:, :1])
    assert np.all(est.variance > 0)


def test_best_approx_exact_representability():
    m = Model(8, 1, 2)
    s = np.repeat([1.0, 2.0, 3.0, 4.0], 2)
    truth = TruthSpec(s=s, sigma=np.full(8, 1.7))
    approx, bias = best_approx(m, truth)
    np.testing.assert_allclose(approx.variance, truth.sigma)
    assert bias == pytest.approx(0.0, abs=1e-14)


def test_best_approx_hand_example():
    m = Model(2, 0, 1)  # one fine block of 2
    truth = TruthSpec(s=[0.0, 2.0], sigma=[1.0, 1.0])
    approx, bias = best_approx(m, truth)
    np.testing.assert_allclose(approx.mean, [1.0, 1.0])
    np.testing.assert_allclose(approx.variance, [2.0, 2.0])
    assert bias == pytest.approx(math.log(2.0))


def test_best_approx_bias_dual_path_agreement():
    rng = np.random.default_rng(6)
    for _ in range(25):
        m = Model(64, int(rng.integers(0, 4)), 2 ** int(rng.integers(0, 3)))
        truth = TruthSpec(s=rng.normal(size=64), sigma=np.exp(rng.normal(size=64) * 0.4))
        approx, bias = best_approx(m, truth)
        via_kl = kl_divergence(truth, approx.mean, approx.variance)
        assert bias == pytest.approx(via_kl, rel=1e-10, abs=1e-12)


def test_best_approx_is_local_minimum():
    rng = np.random.default_rng(7)
    m = Model(32, 1, 4)
    truth = TruthSpec(s=rng.normal(size=32), sigma=np.exp(rng.normal(size=32) * 0.3))
    approx, _ = best_approx(m, truth)
    base = kl_divergence(truth, approx.mean, approx.variance)
    for _ in range(200):
        mean_pert = expand(rng.normal(scale=0.2, size=m.num_fine), m.n)
        var_pert = expand(np.exp(rng.normal(scale=0.2, size=m.num_coarse)), m.n)
        val = kl_divergence(truth, approx.mean + mean_pert, approx.variance * var_pert)
        assert val >= base - 1e-12


def test_prop1_bounds_examples():
    m = Model(1024, 2, 2)  # D = 12
    s = np.repeat(np.arange(8.0), 128)  # in S_m
    truth = TruthSpec(s=s, sigma=np.ones(1024))
    lower, upper = prop1_bounds(m, truth, gamma=2.0, theta=2.0)
    assert lower == pytest.approx(12 / 8.0)
    assert upper == pytest.approx(KAPPA * 4.0 * 4.0 * 12)
    assert upper == pytest.approx(333.266, abs=0.01)


@pytest.mark.parametrize(
    "theta, upper",
    [
        (1e150, KAPPA * 2.0**2 * 1e150**2 * 12),  # the bias is 0: s is in the model
        (1e154, math.inf),  # the product overflows
        (1.4e154, math.inf),  # theta**2 alone overflows
        (1e300, math.inf),
    ],
)
def test_prop1_upper_bound_past_the_float_range_is_inf(theta, upper):
    m = Model(1024, 2, 2)  # D = 12
    truth = TruthSpec(s=np.zeros(1024), sigma=np.ones(1024))
    assert prop1_bounds(m, truth, 2.0, theta)[1] == upper


def test_prop1_lower_bound_bias_dominates():
    m = Model(16, 0, 1)  # D = 2
    rng = np.random.default_rng(8)
    truth = TruthSpec(s=rng.normal(scale=5.0, size=16), sigma=np.ones(16))
    _, bias = best_approx(m, truth)
    assert bias > m.dim / 4.0
    lower, _ = prop1_bounds(m, truth, gamma=1.0, theta=2.0)
    assert lower == pytest.approx(bias)


def test_prop1_rejects_oversized_model():
    m = Model(16, 2, 4)  # D = 20 >> 16/6
    truth = TruthSpec(s=np.zeros(16), sigma=np.ones(16))
    with pytest.raises(ValueError):
        prop1_bounds(m, truth, gamma=1.0, theta=2.0)


@pytest.mark.parametrize(
    "gamma, theta, message",
    [
        (2.0, 1.0, "theta must be > 1, got 1.0"),
        (2.0, 0.5, "theta must be > 1, got 0.5"),
        (0.5, 2.0, "gamma must be >= 1, got 0.5"),
        (math.nan, 2.0, "gamma must be finite, got nan"),
        (2.0, math.inf, "theta must be finite, got inf"),
    ],
    ids=["theta-1", "theta-0.5", "gamma-0.5", "gamma-nan", "theta-inf"],
)
def test_prop1_bounds_rejects_constants_out_of_range(gamma, theta, message):
    m = Model(1024, 2, 2)
    truth = TruthSpec(s=np.zeros(1024), sigma=np.ones(1024))
    with pytest.raises(ValueError) as info:
        prop1_bounds(m, truth, gamma, theta)
    assert str(info.value) == message


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


_TRUTH8 = TruthSpec(s=np.zeros(8), sigma=np.ones(8))
_OBS8 = Observations(y1=np.arange(8.0), y2=np.arange(8.0) ** 2)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: TruthSpec(s=np.zeros(8), sigma=np.ones(4)), "s and sigma must have equal length"),
        (lambda: kl_divergence(_TRUTH8, np.zeros(4), np.ones(8)), "mean/variance length mismatch with truth"),
        (lambda: log_likelihood(np.zeros(8), np.zeros(8), np.ones(4)), "length mismatch"),
        (lambda: InverseMomentCase(a=np.zeros(8), b=np.ones(4)), "a and b must have equal length"),
        (lambda: fit(Model(16, 0, 1), _OBS8), "observations have length 8, model expects 16"),
        (lambda: best_approx(Model(16, 0, 1), _TRUTH8), "truth has length 8, model expects 16"),
        (
            lambda: select(CollectionConfig(16, 1.0, 2.0, 0.01, 3.0), _OBS8),
            "observations have length 8, config expects 16",
        ),
        (lambda: lemma10_check(np.ones(8), Model(16, 0, 1)), "sigma_diag must have length 16"),
        (
            lambda: Scenario("wide", np.zeros_like, lambda x: 1.0 + 3.0 * x, true_gamma=2.0).truth(8),
            "scenario wide: sampled variance ratio 2.9091 exceeds true_gamma=2.0",
        ),
    ],
    ids=[
        "truth-spec", "kl-divergence", "log-likelihood", "inverse-moment-case", "fit", "best-approx", "select",
        "lemma10", "scenario-truth",
    ],
)
def test_length_and_range_checks_name_the_mismatch(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
