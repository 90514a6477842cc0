import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from heteroselect import oracle_checks, simlab
from heteroselect.estimation import KAPPA, TruthSpec, _fit_rows
from heteroselect.model_space import Model, block_means
from heteroselect.oracle_checks import (
    InverseMomentCase,
    lemma10_battery,
    lemma10_check,
    lemma11_battery,
    lemma11_check,
    prop1_sandwich_check,
    variance_mean_check,
)
from heteroselect.simlab import SeedPolicy, _block_rows, get_scenario


def test_inverse_moment_exact_chi_square_case():
    case = InverseMomentCase(a=np.zeros(4), b=np.ones(4))
    res = lemma11_check(case, reps=100_000, seeds=SeedPolicy(51))
    assert abs(res.mc_estimate - 0.5) <= 4 * res.std_error
    assert res.bound == pytest.approx(0.25 * (1 + KAPPA), abs=1e-12)
    assert res.bound == pytest.approx(0.6839, abs=1e-3)
    assert res.holds


def test_inverse_moment_homogeneity():
    c = 3.7
    base = lemma11_check(InverseMomentCase(a=np.zeros(6), b=np.ones(6)), 20_000, SeedPolicy(52))
    scaled = lemma11_check(InverseMomentCase(a=np.zeros(6), b=np.full(6, c)), 20_000, SeedPolicy(52))
    assert scaled.mc_estimate == pytest.approx(base.mc_estimate / c, rel=1e-12)
    assert scaled.bound == pytest.approx(base.bound / c, rel=1e-12)


def test_inverse_moment_mean_of_z():
    rng = np.random.default_rng(53)
    case = InverseMomentCase(a=rng.normal(size=8), b=np.exp(rng.normal(size=8)))
    reps = 50_000
    z = SeedPolicy(54).stream().standard_normal((reps, 8))
    Z = ((case.a + np.sqrt(case.b) * z) ** 2).sum(axis=1)
    expected = float(np.sum(case.a**2 + case.b))
    se = Z.std(ddof=1) / math.sqrt(reps)
    assert abs(Z.mean() - expected) <= 4 * se


def test_inverse_moment_battery_holds():
    results = lemma11_battery(50, reps=10_000, seeds=SeedPolicy(55))
    assert len(results) == 50
    assert all(r.holds for r in results)


def test_inverse_moment_adversarial_kappa_fails():
    case = InverseMomentCase(a=np.zeros(4), b=np.ones(4))
    res = lemma11_check(case, reps=100_000, seeds=SeedPolicy(56), kappa=0.05)
    assert not res.holds


def test_inverse_moment_chunks_equal_one_draw(monkeypatch):
    rng = np.random.default_rng(62)
    reps = 10_007
    for n in (8, 64):
        case = InverseMomentCase(a=rng.normal(size=n), b=np.exp(rng.normal(size=n)))
        monkeypatch.setattr(simlab, "_BLOCK_POINTS", reps * n)  # one block of all the draws
        whole = lemma11_check(case, reps, SeedPolicy(63))
        monkeypatch.setattr(simlab, "_BLOCK_POINTS", 3 * n)  # 3,336 blocks with a one-row tail
        assert lemma11_check(case, reps, SeedPolicy(63)) == whole


def test_inverse_moment_memory_is_bounded_by_the_chunk():
    n, reps = 64, 200_000
    tracemalloc.start()
    try:
        lemma11_check(InverseMomentCase(a=np.zeros(n), b=np.ones(n)), reps, SeedPolicy(64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Drawing all reps x n normals at once takes 8 * reps * n bytes (102 MB) for the draw alone.
    assert peak < 8 * reps * n / 2


@pytest.mark.parametrize("n", [4, 64])
def test_inverse_moment_equals_the_one_expression_formula(n, monkeypatch):
    rng = np.random.default_rng(65)
    case = InverseMomentCase(a=rng.normal(size=n), b=np.exp(rng.normal(size=n)))
    reps = 10_007
    monkeypatch.setattr(simlab, "_BLOCK_POINTS", 3_000 * n)  # 3 full blocks and a 1,007-row tail
    z = SeedPolicy(66).stream().standard_normal((reps, n))
    inv = 1.0 / (((case.a + np.sqrt(case.b) * z) ** 2).sum(axis=1))
    res = lemma11_check(case, reps, SeedPolicy(66))
    assert res.mc_estimate == float(inv.mean())
    assert res.std_error == float(inv.std(ddof=1) / math.sqrt(reps))


def test_inverse_moment_allocates_no_chunk_sized_temporaries():
    n, reps = 64, 200_000
    case = InverseMomentCase(a=np.zeros(n), b=np.ones(n))
    tracemalloc.start()
    try:
        oracle_checks._inverse_forms(case, reps, SeedPolicy(64).stream())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One block of draws, the per-row `inv`, and 1 MiB for everything else.  The draws are
    # traced alone: `lemma11_check` takes its moments in `inv` itself, with no reps-float temporary.
    assert peak <= 8 * _block_rows(n) * n + 8 * reps + 2**20


@pytest.mark.parametrize("reps", [10_000, 12_345, 123_457])
def test_inverse_moment_statistics_equal_numpys_on_the_same_draws(reps):
    rng = np.random.default_rng(reps)
    case = InverseMomentCase(a=rng.normal(size=8), b=np.exp(rng.normal(size=8)))
    inv = oracle_checks._inverse_forms(case, reps, SeedPolicy(70).stream())
    res = lemma11_check(case, reps, SeedPolicy(70))
    assert res.mc_estimate == float(inv.mean())
    assert res.std_error == float(inv.std(ddof=1) / math.sqrt(reps))


def test_inverse_moment_holds_one_float_per_draw_beyond_the_draw_buffer():
    n, reps = 64, 200_000
    SeedPolicy(64).stream()  # numpy imports numpy.random on the first stream; not traced
    tracemalloc.start()
    try:
        lemma11_check(InverseMomentCase(a=np.zeros(n), b=np.ones(n)), reps, SeedPolicy(64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # `inv` is 8 bytes per draw; its deviations from the mean in a second array would be 8 more.
    assert peak - 8 * _block_rows(n) * n < 10 * reps


@pytest.mark.parametrize(
    "b_max, bound",
    [
        (1e153, (1.0 + 2.0 * KAPPA * 1e153**2 / 2) / 1e153),  # E[Z] = 1e153 + 3 rounds to 1e153
        # Where a step of that formula passes the float range, the same bound without squaring the ratio:
        (1e154, 1.0 / 1e154 + 2.0 * KAPPA * 1e154 * (1e154 / 1e154) / 2),  # the product with 2 kappa overflows
        (1e155, 1.0 / 1e155 + 2.0 * KAPPA * 1e155 * (1e155 / 1e155) / 2),  # (b_max/b_min)^2 alone overflows
    ],
)
def test_inverse_moment_bound_past_the_float_range_is_inf(b_max, bound):
    res = lemma11_check(InverseMomentCase(np.zeros(4), np.array([1.0, 1.0, 1.0, b_max])), 10_000, SeedPolicy(0))
    assert res.bound == bound
    assert res.holds


@pytest.mark.parametrize("b_max", [1e154, 1e155, 1e300])
@pytest.mark.parametrize("kappa", [KAPPA, 1e100, 1e160])
def test_inverse_moment_bound_is_inf_only_where_the_bound_itself_is(b_max, kappa):
    case = InverseMomentCase(np.zeros(4), np.array([1.0, 1.0, 1.0, b_max]))
    exact = (1 + 2 * Fraction(kappa) * Fraction(b_max) ** 2 / 2) / sum(map(Fraction, case.b))
    res = lemma11_check(case, 10_000, SeedPolicy(0), kappa=kappa)
    if exact > sys.float_info.max:
        assert res.bound == math.inf
    else:
        assert res.bound == pytest.approx(float(exact), rel=1e-15)


def test_inverse_moment_case_validation():
    with pytest.raises(ValueError):
        InverseMomentCase(a=np.zeros(2), b=np.ones(2))
    with pytest.raises(ValueError):
        InverseMomentCase(a=np.zeros(4), b=np.array([1.0, 1.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        InverseMomentCase(a=np.zeros(4), b=np.array([1.0, np.nan, 1.0, 1.0]))
    with pytest.raises(ValueError, match="finite"):
        InverseMomentCase(a=np.zeros(4), b=np.array([1.0, np.inf, 1.0, 1.0]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            InverseMomentCase(a=np.array([0.0, bad, 0.0, 0.0]), b=np.ones(4))
    with pytest.raises(ValueError):
        lemma11_check(InverseMomentCase(a=np.zeros(4), b=np.ones(4)), 100, SeedPolicy(0))


@pytest.mark.parametrize("kappa", [math.inf, math.nan, 0.0, -1.0])
def test_inverse_moment_rejects_a_bad_kappa_before_any_draw(kappa, monkeypatch):
    def no_draw(*args):
        raise AssertionError("lemma11_check drew before checking kappa")

    monkeypatch.setattr(oracle_checks, "_inverse_forms", no_draw)
    message = f"kappa must be finite and > 0, got {kappa}"
    with pytest.raises(ValueError, match=message):
        lemma11_check(InverseMomentCase(a=np.zeros(4), b=np.ones(4)), 10_000, SeedPolicy(57), kappa=kappa)
    with pytest.raises(ValueError, match=message):
        lemma11_battery(3, reps=10_000, seeds=SeedPolicy(58), kappa=kappa)


def test_compressed_spectrum_identity_projection():
    m = Model(2, 0, 2)  # fine blocks of size 1: projection is the identity
    res = lemma10_check(np.array([1.0, 2.0]), m)
    assert (res.tau_min, res.tau_max) == (1.0, 2.0)
    assert res.holds


def test_compressed_spectrum_single_block():
    m = Model(2, 0, 1)  # one fine block of 2
    res = lemma10_check(np.array([1.0, 2.0]), m)
    assert res.tau_min == res.tau_max == pytest.approx(1.5)
    assert res.holds


def test_compressed_spectrum_constant_sigma():
    m = Model(16, 1, 2)
    res = lemma10_check(np.full(16, 2.5), m)
    assert res.tau_min == res.tau_max == pytest.approx(2.5)
    assert res.holds


@pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
def test_compressed_spectrum_rejects_nonpositive_sigma(bad):
    with pytest.raises(ValueError, match="positive"):
        lemma10_check(np.array([1.0, bad]), Model(2, 0, 1))


def test_compressed_spectrum_battery():
    results = lemma10_battery(100, n=64, seeds=SeedPolicy(57))
    assert len(results) == 100
    assert all(r.holds for r in results)


def test_compressed_spectrum_trace_identity():
    rng = np.random.default_rng(58)
    for _ in range(20):
        m = Model(64, int(rng.integers(0, 4)), 2 ** int(rng.integers(0, 3)))
        sigma = np.exp(rng.normal(size=64))
        tau = block_means(sigma, m.num_fine)
        diagonal = np.full(m.n, m.num_fine / m.n)  # the projection's diagonal: 1/|J| on each fine block J
        direct = float(np.sum(diagonal * sigma))
        assert tau.sum() == pytest.approx(direct, rel=1e-12)


def test_variance_estimator_mean_identity():
    rng = np.random.default_rng(59)
    m = Model(16, 1, 2)
    truth = TruthSpec(s=rng.normal(size=16), sigma=np.exp(rng.normal(size=16) * 0.4))
    res = variance_mean_check(truth, m, reps=100_000, seeds=SeedPolicy(60))
    assert res.holds
    assert np.all(res.expected > 0)


@pytest.mark.parametrize("reps", [1, 0, -1])
def test_variance_estimator_mean_rejects_fewer_than_two_reps_before_any_draw(reps, monkeypatch):
    def no_draw(*args):
        raise AssertionError("variance_mean_check drew before checking reps")

    monkeypatch.setattr(oracle_checks, "_gaussian_blocks", no_draw)
    truth = TruthSpec(s=np.zeros(16), sigma=np.ones(16))
    with pytest.raises(ValueError, match=f"reps must be >= 2, got {reps}"):
        variance_mean_check(truth, Model(16, 1, 2), reps, SeedPolicy(69))


def test_variance_estimator_mean_equals_the_one_expression_formula(monkeypatch):
    rng = np.random.default_rng(67)
    m = Model(16, 1, 2)
    truth = TruthSpec(s=rng.normal(size=16), sigma=np.exp(rng.normal(size=16) * 0.4))
    reps = 5_003
    monkeypatch.setattr(simlab, "_BLOCK_POINTS", 2_000 * m.n)  # 2 full blocks and a 1,003-row tail
    stream = SeedPolicy(68).stream()
    sighats = []
    for done in range(0, reps, 2_000):
        y2 = truth.s + np.sqrt(truth.sigma) * stream.standard_normal((min(2_000, reps - done), m.n))
        sighats.append(_fit_rows(m, y2, y2)[1])
    per_block = np.concatenate(sighats).T.copy()  # one row of reps estimates per coarse block
    empirical = per_block.mean(axis=-1)  # the two-pass mean and std of numpy
    se = per_block.std(axis=-1, ddof=1) / math.sqrt(reps)
    res = variance_mean_check(truth, m, reps, SeedPolicy(68))
    assert np.array_equal(res.empirical, empirical)
    assert np.array_equal(res.std_error, se)


def test_prop1_sandwich_small_case():
    entries = prop1_sandwich_check(get_scenario("M1"), n=256, reps=500, seeds=SeedPolicy(61))
    assert entries
    assert all(e.holds for e in entries)
    for e in entries:
        assert e.lower <= e.upper
