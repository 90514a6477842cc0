import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heteroselect import estimation, simlab
from heteroselect.estimation import (
    DegenerateVarianceError,
    Observations,
    _fit_rows,
    fit,
    kl_divergence,
)
from heteroselect.model_space import CollectionConfig, Model, build_collection
from heteroselect.selector import select
from heteroselect.simlab import (
    Scenario,
    SeedPolicy,
    SelectionTarget,
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
    fixed = mc_risk(sc, 16, coll[0], 200, seeds)
    piped = mc_risk(sc, 16, SelectionTarget(cfg), 200, seeds)
    assert fixed == piped


def test_mc_risk_deterministic():
    sc = get_scenario("M4")
    seeds = SeedPolicy(9)
    t = SelectionTarget(CollectionConfig(64, 2.0, 2.0, 0.01, 3.0))
    assert mc_risk(sc, 64, t, 50, seeds) == mc_risk(sc, 64, t, 50, seeds)


def test_mc_risk_rejects_bad_args():
    sc = get_scenario("M1")
    coll = build_collection(CollectionConfig(16, 1.0, 2.0, 0.01, 3.0))
    with pytest.raises(ValueError):
        mc_risk(sc, 16, coll[0], 1, SeedPolicy(0))
    with pytest.raises(ValueError):
        mc_risk(sc, 16, coll[0], 10, SeedPolicy(0), kind="nope")


def test_oracle_risk_minimizes_over_shared_seeds():
    sc = get_scenario("M1")
    coll = build_collection(CollectionConfig(256, 2.0, 2.0, 0.01, 3.0))
    seeds = SeedPolicy(21)
    best, report = oracle_risk(sc, 256, coll, 80, seeds)
    reports = risk_profile(sc, 256, coll, 80, seeds)
    assert report.estimate == min(r.estimate for r in reports)
    assert report.estimate <= min(r.estimate for r in reports) + 1e-15


def test_oracle_model_for_m1():
    sc = get_scenario("M1")
    coll = build_collection(CollectionConfig(1024, 2.0, 2.0, 0.01, 3.0))
    best, _ = oracle_risk(sc, 1024, coll, 60, SeedPolicy(31))
    assert (best.level, best.per_block_dim) == (1, 2)


def test_crn_oracle_beats_selection_up_to_noise():
    sc = get_scenario("M4")
    target = SelectionTarget(CollectionConfig(512, 2.0, 2.0, 0.01, 3.0))
    seeds = SeedPolicy(13)
    _, oracle = oracle_risk(sc, 512, target.collection, 80, seeds)
    sel = mc_risk(sc, 512, target, 80, seeds)
    assert oracle.estimate <= sel.estimate + 3 * (oracle.std_error + sel.std_error)


def test_ratio_table_layout_and_determinism():
    sc = [get_scenario("M1")]
    cells = ratio_table(sc, [1.0, 2.0], 128, 20, SeedPolicy(17))
    assert [(c.scenario, c.gamma) for c in cells] == [("M1", 1.0), ("M1", 2.0)]
    again = ratio_table(sc, [1.0, 2.0], 128, 20, SeedPolicy(17))
    assert cells == again
    with pytest.raises(ValueError):
        ratio_table(sc, [], 128, 20, SeedPolicy(17))


def test_ratio_table_equals_separate_passes():
    scenarios = [get_scenario("M1"), get_scenario("M4")]
    grid = [1.0, 2.5]
    n, reps, seeds = 128, 20, SeedPolicy(43)
    cells = ratio_table(scenarios, grid, n, reps, seeds)
    expected = []
    for i, sc in enumerate(scenarios):
        sc_seeds = seeds.namespaced(i)
        oracle_coll = build_collection(CollectionConfig(n, sc.true_gamma, 2.0, 0.01, 3.0))
        _, oracle = oracle_risk(sc, n, oracle_coll, reps, sc_seeds)
        for g in grid:
            rep = mc_risk(sc, n, SelectionTarget(CollectionConfig(n, g, 2.0, 0.01, 3.0)), reps, sc_seeds)
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
    rep = mc_risk(sc, 64, coll[0], 40, SeedPolicy(23))
    assert rep.std_error >= 0
    assert rep.replications == 40


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


def test_convergence_output_shape_and_normalization():
    sc = lipschitz_scenario()
    res = convergence_experiment(sc, [64, 128], 20, SeedPolicy(37))
    assert [p.n for p in res.points] == [64, 128]
    target = SelectionTarget(CollectionConfig(64, sc.true_gamma, 2.0, 0.01, 3.0))
    rep = mc_risk(sc, 64, target, 20, SeedPolicy(37).namespaced(0))
    assert res.points[0].normalized_risk == pytest.approx(rep.estimate / 64, rel=1e-12)


def test_doubling_reps_shrinks_std_error():
    sc = get_scenario("M2")
    coll = build_collection(CollectionConfig(64, 1.0, 2.0, 0.01, 3.0))
    small = mc_risk(sc, 64, coll[0], 200, SeedPolicy(41))
    large = mc_risk(sc, 64, coll[0], 800, SeedPolicy(41))
    assert large.std_error < small.std_error


def _tiny_variance_scenario():
    return Scenario("tiny", lambda x: np.zeros_like(x), lambda x: np.full_like(x, 1e-14), true_gamma=1.0)


def _recording_fit(monkeypatch, bad_draws=()):
    """Patch the shared per-model fit to record each block of y1 draws and to flag
    the rows holding the given y1 draws as degenerate."""
    seen = []
    bad = {y1.tobytes() for y1 in bad_draws}

    def fake_fit_rows(m, y1, y2, fine=None):
        seen.append(y1.copy())
        mean, block_var, degenerate = _fit_rows(m, y1, y2, fine)
        forced = np.array([row.tobytes() in bad for row in np.atleast_2d(y1)])
        return mean, block_var, degenerate | forced.reshape(np.shape(degenerate))

    monkeypatch.setattr(estimation, "_fit_rows", fake_fit_rows)
    return seen


def test_persistent_degenerate_draws_raise_after_max_redraws(monkeypatch):
    sc = _tiny_variance_scenario()
    coll = build_collection(CollectionConfig(16, 1.0, 2.0, 0.01, 3.0))
    seeds = SeedPolicy(1)
    seen = _recording_fit(monkeypatch)
    with pytest.raises(DegenerateVarianceError, match="persisted"):
        mc_risk(sc, 16, coll[0], 10, seeds)
    keys = [(0,)] + [(0, k) for k in range(1, simlab._MAX_REDRAWS)]
    assert len(seen) == len(keys)
    for y1, key in zip(seen, keys):
        np.testing.assert_array_equal(y1[0], sample(sc, 16, seeds.stream(*key)).y1)
    with pytest.raises(DegenerateVarianceError, match="persisted"):
        risk_profile(sc, 16, coll, 10, seeds)
    with pytest.raises(DegenerateVarianceError, match="persisted"):
        selection_frequency(sc, 16, lambda m: True, 1000, seeds)


def test_degenerate_draw_is_redrawn_from_its_substream(monkeypatch):
    sc = get_scenario("M2")
    model = build_collection(CollectionConfig(16, 1.0, 2.0, 0.01, 3.0))[0]
    seeds = SeedPolicy(11)
    reps = 1000
    _recording_fit(monkeypatch, [sample(sc, 16, seeds.stream(3)).y1])
    rep = mc_risk(sc, 16, model, reps, seeds)
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
    _recording_fit(monkeypatch, [sample(sc, 16, seeds.stream(*key)).y1 for key in bad_keys])
    with pytest.raises(DegenerateVarianceError, match="budget"):
        mc_risk(sc, 16, model, 1000, seeds)


GRID = [1.0, 1.5, 2.0, 2.5, 3.0]


def _targets(sc, n, grid):
    """The oracle collection's models and one SelectionTarget per gamma, as `ratio_table` scores them."""
    oracle = build_collection(CollectionConfig(n, sc.true_gamma, 2.0, 0.01, 3.0))
    return oracle + [
        SelectionTarget(CollectionConfig(n, g, 2.0, 0.01, 3.0))
        for g in grid
    ]


def _scalar_estimate(target, obs):
    if isinstance(target, SelectionTarget):
        return select(target.collection, obs, target.config).estimate
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
        scored = {kind: simlab._scorer(targets, kind)(y1, y2, truth) for kind in simlab.RISK_KINDS}
        for r in range(rows):
            obs = Observations(y1[r], y2[r])
            for i, t in enumerate(targets):
                if isinstance(t, SelectionTarget):
                    result = select(t.collection, obs, t.config)
                    for _, picks, _ in scored.values():
                        assert t.collection[picks[r, i]] is result.chosen
                    est = result.estimate
                else:
                    est = fit(t, obs)
                for kind, (losses, _, bad) in scored.items():
                    assert not bad[r]
                    assert losses[r, i] == _scalar_loss(kind, truth, est)


def test_results_do_not_depend_on_block_size(monkeypatch):
    def results(n, reps, seeds):
        scenarios = [get_scenario("M1"), get_scenario("M3")]
        tables = [ratio_table(scenarios, [1.0, 2.0], n, reps, seeds, kind=k) for k in simlab.RISK_KINDS]
        coll = build_collection(CollectionConfig(n, 2.0, 2.0, 0.01, 3.0))
        profile = risk_profile(get_scenario("M4"), n, coll, reps, seeds.namespaced(7))
        freq = selection_frequency(
            get_scenario("M1"), n, lambda m: m.num_coarse == 2, 1000, seeds.namespaced(8)
        )
        return tables, profile, freq

    n, seeds = 32, SeedPolicy(3)
    # Draw 4 sits in the middle of a 3-row block and is degenerate in the 1000-rep
    # run (the 20-rep run has other seeds); both counts leave an uneven tail.
    _recording_fit(monkeypatch, [
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


def test_draw_degenerate_for_one_target_is_redrawn_for_all(monkeypatch):
    sc, n, reps, seeds = get_scenario("M1"), 128, 1000, SeedPolicy(47)
    targets = _targets(sc, n, [1.0, 2.0])
    only_g1 = Model(n, 2, 4)
    in_collection = [t.collection for t in targets if isinstance(t, SelectionTarget)]
    assert only_g1 in in_collection[0] and only_g1 not in in_collection[1] and only_g1 not in targets
    truth = sc.truth(n)
    keys = [(3, 1) if r == 3 else (r,) for r in range(reps)]
    y1, y2 = simlab._draw(truth, [seeds.stream(*key) for key in keys])
    expected, _, _ = simlab._scorer(targets, "kullback")(y1, y2, truth)
    redrawn = sample(sc, n, seeds.stream(3, 1))
    assert list(expected[3]) == [
        _scalar_loss("kullback", truth, _scalar_estimate(t, redrawn)) for t in targets
    ]

    bad_y1 = sample(sc, n, seeds.stream(3)).y1.tobytes()

    def fit_rows(m, y1, y2, fine=None):
        mean, block_var, degenerate = _fit_rows(m, y1, y2, fine)
        if m == only_g1:
            forced = np.array([row.tobytes() == bad_y1 for row in np.atleast_2d(y1)])
            degenerate = degenerate | forced.reshape(np.shape(degenerate))
        return mean, block_var, degenerate

    monkeypatch.setattr(estimation, "_fit_rows", fit_rows)
    reports = simlab._risks(sc, n, targets, reps, seeds, "kullback")
    assert [rep.degenerate for rep in reports] == [1] * len(targets)
    assert [rep.estimate for rep in reports] == [expected[:, j].mean() for j in range(len(targets))]
