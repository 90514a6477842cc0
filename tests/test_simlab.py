import itertools
import math
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heteroselect import simlab
from heteroselect.estimation import (
    DegenerateVarianceError,
    Observations,
    TruthSpec,
    _block_likelihoods,
    _block_losses,
    _block_log_likelihood,
    _block_screen,
    _fit_block,
    _squared_residuals,
    fit,
    kl_divergence,
)
from heteroselect.model_space import CollectionConfig, Model, all_models, build_collection
from heteroselect.oracle_checks import lemma11_battery, prop1_sandwich_check
from heteroselect.selector import _first_min, penalty, select
from heteroselect.simlab import (
    Oracle,
    RiskReport,
    Scenario,
    SeedPolicy,
    builtin_scenarios,
    convergence_experiment,
    get_scenario,
    lipschitz_scenario,
    mc_risk,
    oracle_risk,
    rate_threshold,
    ratio_table,
    risk_profile,
    sample,
    selection_frequency,
)


def test_builtin_scenario_pointwise_values():
    m1 = get_scenario("M1")
    assert m1.mean_fn(np.array([0.1]))[0] == 4.0
    assert m1.var_fn(np.array([0.1]))[0] == 2.0
    m4 = get_scenario("M4")
    assert m4.var_fn(np.array([0.75]))[0] == pytest.approx(1.0)


def test_scenario_gamma_consistency_on_grid():
    for sc in builtin_scenarios():
        truth = sc.truth(1024)
        ratio = truth.sigma.max() / truth.sigma.min()
        assert ratio <= sc.true_gamma * (1 + 1e-9)
    m2 = get_scenario("M2")
    truth = m2.truth(256)
    assert truth.sigma.max() / truth.sigma.min() == 1.0 == m2.true_gamma


@pytest.mark.parametrize("bad", [0.0, np.nan])
def test_scenario_truth_rejects_nonpositive_variance(bad):
    sc = Scenario("bad", lambda x: x, lambda x: np.where(x > 0.9, bad, 1.0), true_gamma=1.0)
    with pytest.raises(ValueError, match="not positive"):
        sc.truth(64)


def test_unknown_scenario():
    with pytest.raises(KeyError):
        get_scenario("M99")


def test_sample_deterministic():
    sc = get_scenario("M3")
    seeds = SeedPolicy(123)
    a = sample(sc, 64, seeds.stream(5))
    b = sample(sc, 64, seeds.stream(5))
    np.testing.assert_array_equal(a.y1, b.y1)
    np.testing.assert_array_equal(a.y2, b.y2)
    c = sample(sc, 64, seeds.stream(6))
    assert not np.array_equal(a.y1, c.y1)


@pytest.mark.parametrize("name", ["M1", "M3"])
@pytest.mark.parametrize("rows", [1, 5])
def test_draw_equals_the_one_expression_formula(name, rows):
    n = 64
    truth = get_scenario(name).truth(n)
    seeds = SeedPolicy(321)
    y1, y2 = simlab._draw(truth, [seeds.stream(r) for r in range(rows)])
    z = np.array([seeds.stream(r).standard_normal(2 * n) for r in range(rows)])
    assert np.array_equal(y1, truth.s + np.sqrt(truth.sigma) * z[:, :n])
    assert np.array_equal(y2, truth.s + np.sqrt(truth.sigma) * z[:, n:])
    assert y1.flags.c_contiguous and y2.flags.c_contiguous


def test_sample_mean_matches_truth():
    sc = get_scenario("M2")
    truth = sc.truth(8)
    seeds = SeedPolicy(77)
    reps = 20_000
    acc = np.zeros(8)
    acc_sq = np.zeros(8)
    for r in range(reps):
        y1 = sample(sc, 8, seeds.stream(r)).y1
        acc += y1
        acc_sq += y1**2
    emp = acc / reps
    se = np.sqrt((acc_sq / reps - emp**2) / reps)
    assert np.all(np.abs(emp - truth.s) <= 4 * se)


def test_seed_policy_substreams_are_distinct():
    seeds = SeedPolicy(0)
    a = seeds.stream(0).standard_normal(4)
    b = seeds.stream(1).standard_normal(4)
    assert not np.array_equal(a, b)
    ns = seeds.namespaced(3)
    c = ns.stream(0).standard_normal(4)
    assert not np.array_equal(a, c)


def test_mc_risk_singleton_pipeline_equivalence():
    sc = get_scenario("M1")
    cfg = CollectionConfig(16, 1.0, 2.0, 0.01, 3.0)
    coll = build_collection(cfg)
    assert len(coll) == 1
    seeds = SeedPolicy(5)
    fixed = mc_risk(sc, coll[0], 200, seeds)
    piped = mc_risk(sc, cfg, 200, seeds)
    assert fixed == piped


def test_mc_risk_deterministic():
    sc = get_scenario("M4")
    seeds = SeedPolicy(9)
    t = CollectionConfig(64, 2.0, 2.0, 0.01, 3.0)
    assert mc_risk(sc, t, 50, seeds) == mc_risk(sc, t, 50, seeds)


def test_mc_risk_rejects_bad_args():
    sc = get_scenario("M1")
    coll = build_collection(CollectionConfig(16, 1.0, 2.0, 0.01, 3.0))
    with pytest.raises(ValueError):
        mc_risk(sc, coll[0], 1, SeedPolicy(0))
    with pytest.raises(ValueError):
        mc_risk(sc, coll[0], 10, SeedPolicy(0), kind="nope")
    with pytest.raises(ValueError, match="sample sizes"):
        risk_profile(sc, [Model(64, 0, 1), CollectionConfig(128, 2.0, 2.0, 0.01, 3.0)], 10, SeedPolicy(0))
    with pytest.raises(ValueError, match="empty"):
        risk_profile(sc, [], 10, SeedPolicy(0))


def test_risk_profile_rejects_a_model_with_one_point_per_fine_block(monkeypatch):
    sc = get_scenario("M1")
    models = all_models(64)
    # Such a model fits y2 exactly, so its variance estimate is 0 on every draw.
    exact = [m for m in models if m.num_fine == m.n]
    assert exact == [Model(64, k, 64 >> k) for k in range(7)]

    def no_run(*args, **kwargs):
        raise AssertionError("risk_profile drew before rejecting the target")

    monkeypatch.setattr(simlab, "_run", no_run)
    with pytest.raises(ValueError, match=r"^Model\(n=64, level=0, per_block_dim=64\) has one point per fine block"):
        risk_profile(sc, models, 40, SeedPolicy(7))
    cfg = CollectionConfig(64, 2.0, 2.0, 0.01, 3.0)
    with pytest.raises(ValueError, match=r"^Model\(n=64, level=6, per_block_dim=1\) has one point"):
        risk_profile(sc, [cfg, Model(64, 6, 1)], 40, SeedPolicy(7))
    monkeypatch.undo()
    # Every other model is scored.
    reports = risk_profile(sc, [m for m in models if m not in exact], 40, SeedPolicy(7))
    assert all(r.degenerate == 0 for r in reports)


def test_oracle_risk_minimizes_over_shared_seeds():
    sc = get_scenario("M1")
    coll = build_collection(CollectionConfig(256, 2.0, 2.0, 0.01, 3.0))
    seeds = SeedPolicy(21)
    best, report = oracle_risk(sc, coll, 80, seeds)
    reports = risk_profile(sc, coll, 80, seeds)
    assert report.estimate == min(r.estimate for r in reports)
    assert report.estimate <= min(r.estimate for r in reports) + 1e-15


def test_the_oracle_is_the_first_minimum_of_the_estimates_and_never_nan(monkeypatch):
    # The loss kernel and its screen are stubbed: model j of the collection loses estimates[j]
    # plus and minus (j + 1) / 64 on the two rows of a run, and the screen gives those losses with
    # no slack.  The oracle is the first of the two least estimates, a NaN estimate never wins
    # (its screen is not finite, so every model is scored exactly), and with no finite estimate the
    # oracle is a ValueError, in `oracle_risk` and in `ratio_table` alike.
    sc = get_scenario("M1")
    cfg = CollectionConfig(256, 2.0, 2.0, 0.01, 3.0)
    coll = build_collection(cfg)
    estimates = [math.nan, 2.0, 1.0, 1.0] + [5.0] * (len(coll) - 4)
    index = {(m.num_fine, m.num_coarse): j for j, m in enumerate(coll)}

    def losses(fits, truth, kind):
        j = np.array([index[mean.shape[-1], var.shape[-1]] for mean, var in fits])
        sign = np.where(np.arange(len(fits[0][0])) % 2, -1.0, 1.0)[:, None]
        return np.array(estimates)[j] + sign * (j + 1) / 64

    monkeypatch.setattr(simlab, "_block_losses", losses)
    monkeypatch.setattr(simlab, "_loss_screen", lambda *args: (losses(*args), np.zeros((2, len(args[0])))))
    best, report = oracle_risk(sc, coll, 2, SeedPolicy(0))
    assert best is coll[2] and report == risk_profile(sc, [coll[2]], 2, SeedPolicy(0))[0]
    [cell] = ratio_table([sc], [2.0], 256, 2, SeedPolicy(0))
    selection, oracle = risk_profile(sc, [cfg, coll[2]], 2, SeedPolicy(0).namespaced(0))
    assert cell.ratio == selection.estimate / oracle.estimate and oracle.estimate == 1.0
    estimates[:] = [math.nan] * len(coll)
    for run in (
        lambda: oracle_risk(sc, coll, 2, SeedPolicy(0)),
        lambda: ratio_table([sc], [2.0], 256, 2, SeedPolicy(0)),
    ):
        with pytest.raises(ValueError, match="^no model has a finite criterion"):
            run()


def test_the_oracle_scores_exactly_only_the_models_that_can_win(monkeypatch):
    # M4 at n = 256 over 20 reps in two blocks: the screen leaves one candidate of the collection's
    # models, which alone is scored exactly after the last block.  With an infinite slack every
    # model is a candidate and scored exactly, and the oracle is the same, bit for bit.
    sc, n = get_scenario("M4"), 256
    coll = build_collection(CollectionConfig(n, sc.true_gamma, 2.0, 0.01, 3.0))
    monkeypatch.setattr(simlab, "_BLOCK_POINTS", 10 * n)
    calls = []

    def recorded(fits, *args):
        calls.append(len(fits))
        return _block_losses(fits, *args)

    monkeypatch.setattr(simlab, "_block_losses", recorded)
    best, report = oracle_risk(sc, coll, 20, SeedPolicy(9))
    assert calls == [1, 1]
    screen = simlab._loss_screen
    monkeypatch.setattr(simlab, "_loss_screen", lambda *args: (screen(*args)[0], np.full((10, len(args[0])), np.inf)))
    calls.clear()
    assert oracle_risk(sc, coll, 20, SeedPolicy(9)) == (best, report)
    assert calls == [len(coll)] * 2


@settings(deadline=None, max_examples=30)
@given(
    name=st.sampled_from(["M1", "M2", "M3", "M4", "lipschitz"]),
    kind=st.sampled_from(simlab.RISK_KINDS),
    log_scale=st.floats(-3.0, 3.0),
    offset=st.floats(-1e8, 1e8),
    blocks=st.integers(1, 3),
    workers=st.sampled_from([1, 2]),
    master=st.integers(0, 2**63 - 1),
)
@example(name="M3", kind="kullback", log_scale=-3.0, offset=1e8, blocks=3, workers=2, master=0)
@example(name="M1", kind="quadratic_mean", log_scale=3.0, offset=-1e8, blocks=2, workers=1, master=0)
@example(name="M2", kind="quadratic_variance", log_scale=0.0, offset=0.0, blocks=1, workers=2, master=0)
def test_the_screened_oracle_is_the_first_minimum_of_the_exact_estimates(
    name, kind, log_scale, offset, blocks, workers, master
):
    # On a truth a * s + b, a ** 2 * sigma (step truths and smooth ones), in one to three 3-row
    # blocks, the last one ragged, on one worker or two, the screened oracle's model and report are
    # those of `_first_min` over the exact estimates of every model of the collection.
    n, rows = 128, 3
    sc = get_scenario(name)
    truth = sc.truth(n)
    a = 10.0**log_scale
    truth = TruthSpec(a * truth.s + offset, a * a * truth.sigma)
    coll = build_collection(CollectionConfig(n, sc.true_gamma, 2.0, 0.01, 3.0))
    reps, seeds = (blocks - 1) * rows + 2, SeedPolicy(master)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simlab, "_BLOCK_POINTS", rows * n)
        patch.setattr(simlab, "_MIN_THREADED_N", 1)
        patch.setattr(simlab, "_WORKERS", workers)
        losses, picks, degenerate = simlab._run(truth, [Oracle(coll)], reps, seeds, kind)
        every, _, every_degenerate = simlab._run(truth, coll, reps, seeds, kind)
    reports = simlab._aggregate(every, kind, every_degenerate)
    best = int(_first_min(np.array([r.estimate for r in reports])))
    assert picks[:, 0].tolist() == [best] * reps
    assert losses[:, 0].tobytes() == every[:, best].tobytes()
    assert simlab._aggregate(losses, kind, degenerate) == [reports[best]]


def test_every_selection_path_raises_when_no_criterion_is_finite():
    # theta = 1e308 makes every penalty inf, so no model has a finite criterion on any draw: the
    # lab's screen cannot pick, and its exact criteria raise, on the calling thread (one block at
    # n = 64) or on `_map`'s (two blocks at the least threaded n).
    sc = get_scenario("M1")
    threaded = simlab._MIN_THREADED_N
    for n, reps in ((64, 2), (threaded, simlab._block_rows(threaded) + 1)):
        cfg = CollectionConfig(n, 2.0, 1e308, 0.01, 3.0)
        with pytest.raises(ValueError, match="^no model has a finite criterion") as expected:
            select(cfg, sample(sc, n, SeedPolicy(0).stream(0)))
        for run in (
            lambda: mc_risk(sc, cfg, reps, SeedPolicy(0)),
            lambda: risk_profile(sc, [Model(n, 0, 1), cfg], reps, SeedPolicy(0), "quadratic_mean"),
            lambda: simlab._run(sc.truth(n), [cfg], reps, SeedPolicy(0), None),  # the path of selection_frequency
            lambda: ratio_table([sc], [2.0], n, reps, SeedPolicy(0), theta=1e308),
            lambda: convergence_experiment(lipschitz_scenario(), [n, 2 * n], reps, SeedPolicy(0), theta=1e308),
        ):
            with pytest.raises(ValueError) as got:
                run()
            assert str(got.value) == str(expected.value)


def test_the_engine_runs_on_a_bare_truth(monkeypatch):
    # A truth built without a scenario, on the least threaded n in two blocks, gives the run
    # behind `risk_profile` bit for bit: its losses, picks and redraws.
    sc = get_scenario("M4")
    n = simlab._MIN_THREADED_N
    reps = simlab._block_rows(n) + 3
    targets = [Model(n, 1, 4), CollectionConfig(n, 2.0, 2.0, 0.01, 3.0)]
    run, runs = simlab._run, []

    def recorded(*args):
        runs.append(run(*args))
        return runs[-1]

    monkeypatch.setattr(simlab, "_run", recorded)
    risk_profile(sc, targets, reps, SeedPolicy(5))
    truth = sc.truth(n)
    bare = TruthSpec(truth.s.copy(), truth.sigma.copy())
    losses, picks, degenerate = run(bare, targets, reps, SeedPolicy(5), "kullback")
    [(want_losses, want_picks, want_degenerate)] = runs
    assert losses.tobytes() == want_losses.tobytes() and picks.tolist() == want_picks.tolist()
    assert degenerate == want_degenerate
    assert len(set(picks[:, 1].tolist())) > 1


def test_oracle_model_for_m1():
    sc = get_scenario("M1")
    coll = build_collection(CollectionConfig(1024, 2.0, 2.0, 0.01, 3.0))
    best, _ = oracle_risk(sc, coll, 60, SeedPolicy(31))
    assert (best.level, best.per_block_dim) == (1, 2)


def test_crn_oracle_beats_selection_up_to_noise():
    sc = get_scenario("M4")
    target = CollectionConfig(512, 2.0, 2.0, 0.01, 3.0)
    seeds = SeedPolicy(13)
    _, oracle = oracle_risk(sc, build_collection(target), 80, seeds)
    sel = mc_risk(sc, target, 80, seeds)
    assert oracle.estimate <= sel.estimate + 3 * (oracle.std_error + sel.std_error)


def test_ratio_table_layout_and_determinism():
    sc = [get_scenario("M1")]
    cells = ratio_table(sc, [1.0, 2.0], 128, 20, SeedPolicy(17))
    assert [(c.scenario, c.gamma) for c in cells] == [("M1", 1.0), ("M1", 2.0)]
    again = ratio_table(sc, [1.0, 2.0], 128, 20, SeedPolicy(17))
    assert cells == again
    with pytest.raises(ValueError):
        ratio_table(sc, [], 128, 20, SeedPolicy(17))


def test_ratio_table_rejects_an_empty_scenario_list():
    with pytest.raises(ValueError, match="empty scenario list"):
        ratio_table([], [1.0], 64, 2, SeedPolicy(17))


def test_ratio_table_equals_separate_passes():
    scenarios = [get_scenario("M1"), get_scenario("M4")]
    grid = [1.0, 2.5]
    n, reps, seeds = 128, 20, SeedPolicy(43)
    cells = ratio_table(scenarios, grid, n, reps, seeds)
    expected = []
    for i, sc in enumerate(scenarios):
        sc_seeds = seeds.namespaced(i)
        oracle_coll = build_collection(CollectionConfig(n, sc.true_gamma, 2.0, 0.01, 3.0))
        _, oracle = oracle_risk(sc, oracle_coll, reps, sc_seeds)
        for g in grid:
            rep = mc_risk(sc, CollectionConfig(n, g, 2.0, 0.01, 3.0), reps, sc_seeds)
            ratio = rep.estimate / oracle.estimate
            se = abs(ratio) * math.sqrt(
                (rep.std_error / rep.estimate) ** 2 + (oracle.std_error / oracle.estimate) ** 2
            )
            expected.append((sc.name, g, ratio, se))
    assert [(c.scenario, c.gamma, c.ratio, c.std_error) for c in cells] == expected


def test_selection_frequency_trivial_predicate():
    sc = get_scenario("M1")
    assert selection_frequency(sc, 64, lambda m: True, 1000, SeedPolicy(19)) == 1.0
    with pytest.raises(ValueError):
        selection_frequency(sc, 64, lambda m: True, 10, SeedPolicy(19))


def test_risk_report_std_error_definition():
    sc = get_scenario("M2")
    coll = build_collection(CollectionConfig(64, 1.0, 2.0, 0.01, 3.0))
    rep = mc_risk(sc, coll[0], 40, SeedPolicy(23))
    assert rep.std_error >= 0
    assert rep.replications == 40


@pytest.mark.parametrize("reps", [2, 3, 500, 8192, 8193, 20000])
def test_aggregate_equals_one_reduction_per_column(reps):
    rng = np.random.default_rng(reps)
    losses = np.column_stack(
        [
            rng.exponential(size=reps),
            np.full(reps, 0.25),  # constant, summed exactly: the standard error is exactly 0
            rng.normal(size=reps) * 1e6 + 3e9,
            rng.exponential(size=reps) ** 4,
            -rng.exponential(size=reps) * 1e-12,
        ]
    )
    reports = simlab._aggregate(losses, "kullback", 3)
    assert len(reports) == losses.shape[1]
    for j, rep in enumerate(reports):
        col = losses[:, j]
        assert rep.estimate == float(col.mean())
        assert rep.std_error == float(col.std(ddof=1) / math.sqrt(reps))
        assert (rep.replications, rep.kind, rep.degenerate) == (reps, "kullback", 3)
    assert reports[1].std_error == 0.0


def _bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


@pytest.mark.parametrize("reps", [2, 3, 8192, 8193, 20000])
@pytest.mark.parametrize("two_d", [False, True])
def test_mean_and_se_equals_numpys_mean_and_std(reps, two_d):
    rng = np.random.default_rng(reps)
    rows = np.stack(
        [
            rng.exponential(size=reps),
            np.full(reps, -0.0),  # constant: the standard error is exactly 0
            np.full(reps, 2.0**996),  # ~1e300, summed exactly
            rng.integers(-1000, 1000, size=reps) * 5e-324,  # subnormals
            rng.normal(size=reps) * 1e150 + 1e152,  # squared deviations near 1e300
            rng.normal(size=reps) * 1e6 + 3e9,
        ]
    )
    std_errors = []
    for x in [rows] if two_d else list(rows):
        given = x.copy()
        mean, se = simlab._mean_and_se(x)
        assert _bits(mean) == _bits(given.mean(-1))
        assert _bits(se) == _bits(given.std(-1, ddof=1) / math.sqrt(reps))
        assert _bits(x) == _bits((given - given.mean(-1, keepdims=True)) ** 2)  # the squared deviations
        std_errors.append(se)
    std_errors = np.hstack(std_errors)
    assert std_errors[1] == std_errors[2] == 0.0


def test_convergence_guards():
    sc = lipschitz_scenario()
    seeds = SeedPolicy(29)
    with pytest.raises(ValueError):
        convergence_experiment(sc, [256], 10, seeds)
    with pytest.raises(ValueError):
        convergence_experiment(sc, [200, 400], 10, seeds)
    with pytest.raises(ValueError):
        convergence_experiment(sc, [512, 256], 10, seeds)
    # below the admissible threshold (about 59 for these constants)
    assert rate_threshold(sc, 256, 0.01) > 32
    with pytest.raises(ValueError):
        convergence_experiment(sc, [16, 32], 10, seeds)


@pytest.mark.parametrize("epsilon", [13.0, 1e200])  # exp(4 (1+epsilon)^2) overflows; at 1e200 the square does
def test_rate_threshold_past_the_float_range_is_inf(epsilon):
    assert rate_threshold(lipschitz_scenario(), 256, epsilon) == math.inf


@pytest.mark.parametrize("const", [0.0, 1e-100])  # the bound divides by 0; its square overflows
def test_rate_threshold_vanishing_constants_are_inf(const):
    assert rate_threshold(lipschitz_scenario()._replace(const_mean=const, const_var=const), 256, 0.01) == math.inf


def test_rate_threshold_huge_constants_leave_the_log_bound():
    sc = lipschitz_scenario()._replace(const_mean=1e200, const_var=1e200)
    assert rate_threshold(sc, 256, 0.01) == math.exp(4.0 * 1.01**2)


@pytest.mark.parametrize("field", ["const_mean", "const_var"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_rate_threshold_rejects_a_non_finite_constant(field, value):
    sc = lipschitz_scenario()._replace(**{field: value})
    with pytest.raises(ValueError, match=f"{field}={value}"):
        rate_threshold(sc, 256, 0.01)
    with pytest.raises(ValueError, match=f"{field}={value}"):
        convergence_experiment(sc, [16, 32], 10, SeedPolicy(29))


def test_convergence_output_shape_and_normalization():
    sc = lipschitz_scenario()
    res = convergence_experiment(sc, [64, 128], 20, SeedPolicy(37))
    assert [p.n for p in res.points] == [64, 128]
    target = CollectionConfig(64, sc.true_gamma, 2.0, 0.01, 3.0)
    rep = mc_risk(sc, target, 20, SeedPolicy(37).namespaced(0))
    assert res.points[0].normalized_risk == pytest.approx(rep.estimate / 64, rel=1e-12)


def test_doubling_reps_shrinks_std_error():
    sc = get_scenario("M2")
    coll = build_collection(CollectionConfig(64, 1.0, 2.0, 0.01, 3.0))
    small = mc_risk(sc, coll[0], 200, SeedPolicy(41))
    large = mc_risk(sc, coll[0], 800, SeedPolicy(41))
    assert large.std_error < small.std_error


def _tiny_variance_scenario():
    return Scenario("tiny", lambda x: np.zeros_like(x), lambda x: np.full_like(x, 1e-14), true_gamma=1.0)


def _hooked_fit(monkeypatch, bad_draws=(), only_with=None, slow_draws=(), barrier=None):
    """Wrap the lab's fit pass `simlab._fit_block`: record each block of y1 draws and the thread
    that fits it, and flag as degenerate the rows holding the given y1 draws (only in calls that
    fit the model only_with, when given).  A block holding one of slow_draws sleeps first; every
    block waits on barrier, when given.  Returns the lists of blocks and threads."""
    seen, threads = [], []
    bad, slow = ({y1.tobytes() for y1 in draws} for draws in (bad_draws, slow_draws))

    def fit_block(models, y1, y2):
        seen.append(y1.copy())
        threads.append(threading.get_ident())
        rows = [row.tobytes() for row in y1]
        if slow.intersection(rows):
            time.sleep(0.02)
        if barrier:
            barrier.wait()
        fits, degenerate = _fit_block(models, y1, y2)
        if only_with is None or only_with in models:
            degenerate = degenerate | np.array([row in bad for row in rows], dtype=bool)
        return fits, degenerate

    monkeypatch.setattr(simlab, "_fit_block", fit_block)
    return seen, threads


def test_persistent_degenerate_draws_raise_after_max_redraws(monkeypatch):
    sc = _tiny_variance_scenario()
    coll = build_collection(CollectionConfig(16, 1.0, 2.0, 0.01, 3.0))
    seeds = SeedPolicy(1)
    seen, _ = _hooked_fit(monkeypatch)
    with pytest.raises(DegenerateVarianceError, match="persisted"):
        mc_risk(sc, coll[0], 10, seeds)
    keys = [(0,)] + [(0, k) for k in range(1, simlab._MAX_REDRAWS)]
    assert len(seen) == len(keys)
    for y1, key in zip(seen, keys):
        np.testing.assert_array_equal(y1[0], sample(sc, 16, seeds.stream(*key)).y1)
    with pytest.raises(DegenerateVarianceError, match="persisted"):
        risk_profile(sc, coll, 10, seeds)
    with pytest.raises(DegenerateVarianceError, match="persisted"):
        selection_frequency(sc, 16, lambda m: True, 1000, seeds)


def test_degenerate_draw_is_redrawn_from_its_substream(monkeypatch):
    sc = get_scenario("M2")
    model = build_collection(CollectionConfig(16, 1.0, 2.0, 0.01, 3.0))[0]
    seeds = SeedPolicy(11)
    reps = 1000
    _hooked_fit(monkeypatch, [sample(sc, 16, seeds.stream(3)).y1])
    rep = mc_risk(sc, model, reps, seeds)
    assert rep.degenerate == 1
    truth = sc.truth(16)
    losses = []
    for r in range(reps):
        est = fit(model, sample(sc, 16, seeds.stream(*((3, 1) if r == 3 else (r,)))))
        losses.append(kl_divergence(truth, est.mean, est.variance))
    assert rep.estimate == np.array(losses).mean()


@pytest.mark.parametrize("bad_keys", [[(3,), (5,)], [(3,), (3, 1)]])
def test_second_degenerate_draw_exceeds_budget(monkeypatch, bad_keys):
    sc = get_scenario("M2")
    model = build_collection(CollectionConfig(16, 1.0, 2.0, 0.01, 3.0))[0]
    seeds = SeedPolicy(11)
    _hooked_fit(monkeypatch, [sample(sc, 16, seeds.stream(*key)).y1 for key in bad_keys])
    with pytest.raises(DegenerateVarianceError, match="budget"):
        mc_risk(sc, model, 1000, seeds)


GRID = [1.0, 1.5, 2.0, 2.5, 3.0]


def _targets(sc, n, grid):
    """The oracle collection's models and one CollectionConfig per gamma, as `ratio_table` scores them."""
    oracle = build_collection(CollectionConfig(n, sc.true_gamma, 2.0, 0.01, 3.0))
    return oracle + [
        CollectionConfig(n, g, 2.0, 0.01, 3.0)
        for g in grid
    ]


def _scalar_estimate(target, obs):
    if isinstance(target, CollectionConfig):
        return select(target, obs).estimate
    return fit(target, obs)


def _scalar_loss(kind, truth, est):
    if kind == "kullback":
        return kl_divergence(truth, est.mean, est.variance)
    if kind == "quadratic_mean":
        return float(np.sum((truth.s - est.mean) ** 2))
    return float(np.sum((truth.sigma - est.variance) ** 2))


@settings(deadline=None, max_examples=8)
@given(master=st.integers(0, 2**63 - 1))
def test_batched_scoring_equals_scalar_path(master):
    n, rows = 128, 4
    for k, sc in enumerate(builtin_scenarios()):
        truth = sc.truth(n)
        seeds = SeedPolicy(master).namespaced(k)
        y1, y2 = simlab._draw(truth, [seeds.stream(r) for r in range(rows)])
        targets = _targets(sc, n, GRID)
        scored = {kind: simlab._scorer(targets, kind)(y1, y2, truth)[:3] for kind in simlab.RISK_KINDS}
        for r in range(rows):
            obs = Observations(y1[r], y2[r])
            for i, t in enumerate(targets):
                if isinstance(t, CollectionConfig):
                    result = select(t, obs)
                    for _, picks, _ in scored.values():
                        assert build_collection(t)[picks[r, i]] == result.chosen
                    est = result.estimate
                else:
                    est = fit(t, obs)
                for kind, (losses, _, bad) in scored.items():
                    assert not bad[r]
                    assert losses[r, i] == _scalar_loss(kind, truth, est)


def test_the_lab_scores_only_the_fits_it_reads_and_exactly(monkeypatch):
    # One block with a degenerate row (y2 constant on its first half).  Two fixed models and two
    # configs, whose picks include models that no fixed target holds.  The scorer must pick
    # by the likelihoods of every fit plus the penalties, hand `_block_losses` only the fits
    # that some row reads, and gather to each row the loss that scoring every fit gives.
    n, rows = 64, 6
    truth = get_scenario("M1").truth(n)
    y1, y2 = simlab._draw(truth, [SeedPolicy(83).stream(r) for r in range(rows)])
    y2[2, : n // 2] = 0.5
    fixed = [Model(n, 0, 1), Model(n, 1, 2)]
    configs = [CollectionConfig(n, g, 2.0, 0.01, 3.0) for g in (1.0, 2.0)]
    targets = fixed[:1] + configs[:1] + fixed[1:] + configs[1:]
    members = [build_collection(t) if isinstance(t, CollectionConfig) else [t] for t in targets]
    models = list(dict.fromkeys(m for ms in members for m in ms))
    fits, bad = _fit_block(models, y1, y2)
    assert bad.tolist() == [r == 2 for r in range(rows)]
    lik = _block_likelihoods(y1, fits)
    scored = []

    def recorded_losses(fits, *args):
        scored.append(fits)
        return _block_losses(fits, *args)

    monkeypatch.setattr(simlab, "_block_losses", recorded_losses)
    for kind in simlab.RISK_KINDS:
        every = _block_losses(fits, truth, kind)
        losses, picks, got_bad, _ = simlab._scorer(targets, kind)(y1, y2, truth)
        assert got_bad.tolist() == bad.tolist()
        read = set()
        for i, (t, ms) in enumerate(zip(targets, members)):
            cols = np.array([models.index(m) for m in ms])
            if isinstance(t, CollectionConfig):
                pens = np.array([penalty(m, t) for m in ms])
                assert (picks[:, i] == _first_min(lik[:, cols] + pens)).all()
            else:
                assert not picks[:, i].any()
            chosen = cols[picks[:, i]]
            read |= set(chosen.tolist())
            assert (losses[:, i] == every[np.arange(rows), chosen]).all()
        assert read - {models.index(m) for m in fixed}, "some pick is a model no fixed target holds"
        passed = scored.pop()
        assert len(passed) == len(read) < len(models)
        for (mean, var), j in zip(passed, sorted(read)):
            assert (mean == fits[j][0]).all() and (var == fits[j][1]).all()


@settings(deadline=None, max_examples=40)
@given(
    name=st.sampled_from(["M1", "M2", "M3", "M4", "lipschitz"]),
    n=st.sampled_from([64, 256, 1024]),
    log_scale=st.floats(-8.0, 8.0),
    offset=st.floats(-1e8, 1e8),
    master=st.integers(0, 2**63 - 1),
)
@example(name="M3", n=1024, log_scale=-8.0, offset=1e8, master=0)
@example(name="M1", n=64, log_scale=8.0, offset=-1e8, master=0)
@example(name="M2", n=16384, log_scale=0.0, offset=1e8, master=0)
def test_screened_picks_equal_the_first_minimum_of_exact_criteria(name, n, log_scale, offset, master):
    # The lab picks from `_block_screen`'s approximate likelihoods and takes exact ones only where
    # their slack cannot decide.  On draws mapped to a * y + b, every fit's approximation is within
    # its slack of the exact likelihood, and of the exact pass's per-point terms summed one by one,
    # as the slack holds for any order of addition; and every pick of every gamma of the table's
    # grid is `_first_min` of the exact criteria, on every row: a degenerate one (y2 constant on
    # its first half; its variances read 1.0) and those that a small scale makes degenerate too.
    rows = 8
    truth = get_scenario(name).truth(n)
    y1, y2 = simlab._draw(truth, [SeedPolicy(master).stream(r) for r in range(rows)])
    y1, y2 = 10.0**log_scale * y1 + offset, 10.0**log_scale * y2 + offset
    y2[0, : n // 2] = offset
    configs = [CollectionConfig(n, g, 2.0, 0.01, 3.0) for g in GRID]
    collections = [build_collection(cfg) for cfg in configs]
    models = list(dict.fromkeys(m for ms in collections for m in ms))
    fits, bad = _fit_block(models, y1, y2)
    assert bad[0]
    lik = _block_likelihoods(y1, fits)
    approx, slack = _block_screen(y1, fits)
    assert (np.abs(approx - lik) <= slack).all()
    y1_err, terms = np.empty((2,) + y1.shape)
    for j, (block_mean, block_var) in enumerate(fits):
        _block_log_likelihood(_squared_residuals(y1, block_mean, out=y1_err), block_var, out=terms)
        seq = 0.5 * np.cumsum(terms, axis=-1)[:, -1]
        assert (np.abs(approx[:, j] - seq) <= slack[:, j]).all()
    _, picks, got_bad, _ = simlab._scorer(configs, None)(y1, y2, truth)
    assert (got_bad == bad).all()
    for i, (cfg, ms) in enumerate(zip(configs, collections)):
        cols = [models.index(m) for m in ms]
        pens = np.array([penalty(m, cfg) for m in ms])
        assert (picks[:, i] == _first_min(lik[:, cols] + pens)).all()


def test_a_reused_scorer_equals_a_fresh_one_on_every_truth():
    # The kernel keeps nothing between calls, so a scorer that has scored a block of one
    # truth scores a block of another exactly as a new scorer does, in either order: its
    # oracle's screen too.
    n = 64
    cfg = CollectionConfig(n, 2.0, 2.0, 0.01, 3.0)
    targets = build_collection(cfg) + [cfg, Oracle(build_collection(cfg))]
    for kind, order in itertools.product(simlab.RISK_KINDS, [("M1", "M4"), ("M4", "M1")]):
        reused = simlab._scorer(targets, kind)
        for name in order:
            truth = get_scenario(name).truth(n)
            y1, y2 = simlab._draw(truth, [SeedPolicy(71).stream(r) for r in range(8)])
            losses, picks, bad, [(_, approx, slack)] = reused(y1, y2, truth)
            fresh_losses, fresh_picks, fresh_bad, [(_, *fresh_screen)] = simlab._scorer(targets, kind)(y1, y2, truth)
            assert (losses == fresh_losses).all() and (picks == fresh_picks).all()
            assert (bad == fresh_bad).all()
            assert (approx == fresh_screen[0]).all() and (slack == fresh_screen[1]).all()


def test_results_do_not_depend_on_block_size(monkeypatch):
    def results(n, reps, seeds):
        scenarios = [get_scenario("M1"), get_scenario("M3")]
        tables = [ratio_table(scenarios, [1.0, 2.0], n, reps, seeds, kind=k) for k in simlab.RISK_KINDS]
        coll = build_collection(CollectionConfig(n, 2.0, 2.0, 0.01, 3.0))
        profile = risk_profile(get_scenario("M4"), coll, reps, seeds.namespaced(7))
        freq = selection_frequency(
            get_scenario("M1"), n, lambda m: m.num_coarse == 2, 1000, seeds.namespaced(8)
        )
        return tables, profile, freq

    n, seeds = 32, SeedPolicy(3)
    # Draw 4 sits in the middle of a 3-row block and is degenerate in the 1000-rep
    # run (the 20-rep run has other seeds); both counts leave an uneven tail.
    _hooked_fit(monkeypatch, [
        sample(get_scenario("M1"), n, seeds.namespaced(0).stream(4)).y1,
        sample(get_scenario("M4"), n, seeds.namespaced(7).stream(4)).y1,
        sample(get_scenario("M1"), n, seeds.namespaced(8).stream(4)).y1,
    ])
    runs = {}
    for rows in (1, 3, 5000):
        monkeypatch.setattr(simlab, "_BLOCK_POINTS", rows * n)
        runs[rows] = (results(n, 20, SeedPolicy(2)), results(n, 1000, seeds))
    assert runs[1] == runs[3] == runs[5000]
    degenerate = [rep.degenerate for rep in runs[1][1][1]]
    assert degenerate == [1] * len(degenerate)


def test_results_do_not_depend_on_worker_count(monkeypatch):
    n = 32

    def results(seeds):
        scenarios = [get_scenario("M1"), get_scenario("M3")]
        tables = [ratio_table(scenarios, [1.0, 2.0], n, 20, seeds, kind=k) for k in simlab.RISK_KINDS]
        coll = build_collection(CollectionConfig(n, 2.0, 2.0, 0.01, 3.0))
        profile = risk_profile(get_scenario("M4"), coll, 1000, seeds.namespaced(7))
        freq = selection_frequency(get_scenario("M1"), n, lambda m: m.num_coarse == 2, 1000, seeds.namespaced(8))
        rate = convergence_experiment(lipschitz_scenario(), [64, 128], 20, seeds.namespaced(9))
        battery = lemma11_battery(5, 10_000, seeds.namespaced(10))
        sandwich = prop1_sandwich_check(get_scenario("M1"), n, 20, seeds.namespaced(11))
        return tables, profile, freq, rate, battery, sandwich

    seeds = SeedPolicy(5)
    # 7-row blocks at n = 32: 3 blocks of each 20-rep run and 143 of each 1000-rep one.  Draw 500
    # sits in the middle of block 71 of the profile's run and is degenerate there.
    monkeypatch.setattr(simlab, "_BLOCK_POINTS", 7 * n)
    monkeypatch.setattr(simlab, "_MIN_THREADED_N", 1)  # the lab's blocks on threads at every n
    _hooked_fit(monkeypatch, [sample(get_scenario("M4"), n, seeds.namespaced(7).stream(500)).y1])
    runs = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(simlab, "_WORKERS", workers)
        runs[workers] = results(seeds)
    assert runs[1] == runs[2] == runs[3]
    assert [rep.degenerate for rep in runs[1][1]] == [1] * len(runs[1][1])
    assert runs[1][5] and all(e.holds for e in runs[1][5])


def test_two_persistently_degenerate_blocks_raise_the_serial_message(monkeypatch):
    # Replications 4 and 10 are degenerate on every redraw, in blocks 1 and 3 of four 3-row
    # blocks.  Block 1 is slowed down, so that block 3 fails first in time on 2 or 3 workers.
    sc, n, seeds = get_scenario("M2"), 16, SeedPolicy(13)
    model = build_collection(CollectionConfig(n, 1.0, 2.0, 0.01, 3.0))[0]

    def every_draw(r):
        keys = [(r,)] + [(r, k) for k in range(1, simlab._MAX_REDRAWS)]
        return [sample(sc, n, seeds.stream(*key)).y1 for key in keys]

    slow = every_draw(4)
    _hooked_fit(monkeypatch, slow + every_draw(10), slow_draws=slow)
    monkeypatch.setattr(simlab, "_BLOCK_POINTS", 3 * n)
    monkeypatch.setattr(simlab, "_MIN_THREADED_N", 1)
    for workers in (1, 2, 3):
        monkeypatch.setattr(simlab, "_WORKERS", workers)
        with pytest.raises(DegenerateVarianceError) as err:
            mc_risk(sc, model, 12, seeds)
        assert str(err.value) == (
            f"replication 4: degenerate variance persisted across {simlab._MAX_REDRAWS} redraws"
        )


def test_map_runs_items_on_helper_threads_and_returns_them_in_order(monkeypatch):
    monkeypatch.setattr(simlab, "_WORKERS", 3)
    barrier = threading.Barrier(3, timeout=10)

    def fn(x):
        if x < 3:
            barrier.wait()  # the first three items run at once, so on three threads
        return x * x, threading.get_ident()

    out = simlab._map(fn, range(10))
    assert [y for y, _ in out] == [x * x for x in range(10)]
    assert len({ident for _, ident in out[:3]}) == 3
    assert simlab._map(fn, []) == []


def test_map_raises_the_lowest_failing_items_error(monkeypatch):
    monkeypatch.setattr(simlab, "_WORKERS", 3)
    ran = []

    def fn(x):
        ran.append(x)
        if x == 2:
            time.sleep(0.05)  # item 5 fails first in time
        if x in (2, 5):
            raise ValueError(f"item {x}")
        return x

    with pytest.raises(ValueError, match="^item 2$"):
        simlab._map(fn, range(40))
    assert set(range(3)) <= set(ran)


def test_a_callers_errstate_holds_in_helper_threads(monkeypatch):
    monkeypatch.setattr(simlab, "_WORKERS", 2)
    barrier = threading.Barrier(2, timeout=10)
    threads = set()

    def fn(_):
        barrier.wait()  # both items run at once, on two threads
        threads.add(threading.get_ident())
        return np.divide(np.ones(1), np.zeros(1))

    with np.errstate(all="raise"):
        with pytest.raises(FloatingPointError):
            simlab._map(fn, range(2))
    assert len(threads) == 2
    with np.errstate(all="raise", divide="ignore"):
        assert [float(x[0]) for x in simlab._map(fn, range(2))] == [math.inf, math.inf]


def test_blocks_run_on_threads_from_the_threaded_sample_size_on(monkeypatch):
    # Four 2-row blocks on 2 workers: below _MIN_THREADED_N every block is scored on the
    # calling thread; at it, the blocks are scored two at a time, which a 2-party barrier
    # in the fit needs to pass at all.
    monkeypatch.setattr(simlab, "_WORKERS", 2)
    barrier = None
    for n in (simlab._MIN_THREADED_N // 2, simlab._MIN_THREADED_N):
        _, threads = _hooked_fit(monkeypatch, barrier=barrier)
        monkeypatch.setattr(simlab, "_BLOCK_POINTS", 2 * n)
        mc_risk(get_scenario("M1"), Model(n, 2, 4), 8, SeedPolicy(3))
        assert len(threads) == 4
        if barrier:
            assert len(set(threads)) == 2
        else:
            assert set(threads) == {threading.get_ident()}
        barrier = threading.Barrier(2, timeout=10)


def test_draw_degenerate_for_one_target_is_redrawn_for_all(monkeypatch):
    sc, n, reps, seeds = get_scenario("M1"), 128, 1000, SeedPolicy(47)
    targets = _targets(sc, n, [1.0, 2.0])
    only_g1 = Model(n, 2, 4)
    in_collection = [build_collection(t) for t in targets if isinstance(t, CollectionConfig)]
    assert only_g1 in in_collection[0] and only_g1 not in in_collection[1] and only_g1 not in targets
    truth = sc.truth(n)
    keys = [(3, 1) if r == 3 else (r,) for r in range(reps)]
    y1, y2 = simlab._draw(truth, [seeds.stream(*key) for key in keys])
    expected, _, _, _ = simlab._scorer(targets, "kullback")(y1, y2, truth)
    redrawn = sample(sc, n, seeds.stream(3, 1))
    assert list(expected[3]) == [
        _scalar_loss("kullback", truth, _scalar_estimate(t, redrawn)) for t in targets
    ]

    _hooked_fit(monkeypatch, [sample(sc, n, seeds.stream(3)).y1], only_with=only_g1)
    reports = risk_profile(sc, targets, reps, seeds, "kullback")
    assert [rep.degenerate for rep in reports] == [1] * len(targets)
    assert [rep.estimate for rep in reports] == [expected[:, j].mean() for j in range(len(targets))]
