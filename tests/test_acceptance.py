"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line per criterion.  The Monte Carlo criteria
use fixed seeds and the reference repetition counts; the whole module runs in
a few minutes.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math

import numpy as np
import pytest

from heteroselect.cli import EXIT_OK, main
from heteroselect.estimation import (
    KAPPA,
    TruthSpec,
    best_approx,
    fit,
    kl_divergence,
    log_likelihood,
)
from heteroselect.model_space import CollectionConfig, Model, build_collection, project
from heteroselect.oracle_checks import (
    InverseMomentCase,
    lemma10_battery,
    lemma11_battery,
    lemma11_check,
    prop1_sandwich_check,
    variance_mean_check,
)
from heteroselect.selector import penalty, select
from heteroselect.simlab import (
    SeedPolicy,
    convergence_experiment,
    get_scenario,
    lipschitz_scenario,
    ratio_table,
    sample,
    selection_frequency,
)

SEED = 20080724
GRID = [1.0, 1.5, 2.0, 2.5, 3.0]
REPS = 500
N = 1024


def report(criterion, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def row(cells, scenario):
    return [c.ratio for c in cells if c.scenario == scenario]


def test_criterion_1_table1_kullback_ratios():
    seeds = SeedPolicy(SEED)
    m1 = row(ratio_table([get_scenario("M1")], GRID, N, REPS, seeds.namespaced(1)), "M1")
    m2 = row(ratio_table([get_scenario("M2")], [1.0], N, REPS, seeds.namespaced(2)), "M2")
    m4 = row(ratio_table([get_scenario("M4")], GRID, N, REPS, seeds.namespaced(4)), "M4")
    ref_m1 = [0.98, 1.02, 1.02, 1.04, 1.01]
    ref_m4 = [1.25, 1.26, 1.27, 1.32, 1.33]
    ok_m1 = all(abs(a - b) <= 0.15 for a, b in zip(m1, ref_m1))
    ok_m2 = abs(m2[0] - 1.49) <= 0.25
    ok_m4 = all(abs(a - b) <= 0.15 for a, b in zip(m4, ref_m4))
    detail = (
        f"M1={[round(v, 3) for v in m1]} M2(g=1)={m2[0]:.3f} M4={[round(v, 3) for v in m4]}"
    )
    report("criterion 1 (Kullback ratio table)", ok_m1 and ok_m2 and ok_m4, detail)


def test_criterion_2_quadratic_ratio_spot_checks():
    seeds = SeedPolicy(SEED)
    m1 = row(
        ratio_table([get_scenario("M1")], GRID, N, REPS, seeds.namespaced(11), kind="quadratic_mean"),
        "M1",
    )
    m3 = row(
        ratio_table([get_scenario("M3")], [1.0], N, REPS, seeds.namespaced(13), kind="quadratic_variance"),
        "M3",
    )
    ok_m1 = all(abs(v - 1.0) <= 0.15 for v in m1)
    ok_m3 = abs(m3[0] - 2.02) <= 0.3
    report(
        "criterion 2 (quadratic ratio spot checks)",
        ok_m1 and ok_m3,
        f"M1 quad-mean={[round(v, 3) for v in m1]} M3 quad-var(g=1)={m3[0]:.3f}",
    )


def test_criterion_3_selection_frequencies():
    seeds = SeedPolicy(SEED)
    freq_m1 = selection_frequency(
        get_scenario("M1"), N, lambda m: m.level == 1 and m.per_block_dim == 2, 10_000,
        seeds.namespaced(21),
    )
    freq_m2 = selection_frequency(
        get_scenario("M2"), N, lambda m: m.num_coarse == 1, 10_000, seeds.namespaced(22)
    )
    report(
        "criterion 3 (selection frequencies)",
        freq_m1 >= 0.99 and freq_m2 >= 0.999,
        f"M1 good-model={freq_m1:.4f} (>=0.99), M2 homoscedastic={freq_m2:.5f} (>=0.999)",
    )


def test_criterion_4_risk_sandwich():
    entries = prop1_sandwich_check(
        get_scenario("M1"), n=N, reps=2000, seeds=SeedPolicy(SEED).namespaced(31)
    )
    bad = [e for e in entries if not e.holds]
    report(
        "criterion 4 (risk sandwich, all M1 models)",
        not bad,
        f"{len(entries)} models checked, {len(bad)} outside bounds",
    )


def test_criterion_5_convergence_rate():
    res = convergence_experiment(
        lipschitz_scenario(),
        [256, 512, 1024, 2048, 4096, 8192, 16384],
        reps=80,
        seeds=SeedPolicy(SEED).namespaced(41),
    )
    risks = [p.normalized_risk for p in res.points]
    decreasing = all(b < a for a, b in zip(risks, risks[1:]))
    report(
        "criterion 5 (convergence rate)",
        res.slope <= -2.0 / 3.0 + 0.2 and decreasing,
        f"slope={res.slope:.3f} (<= -0.467), strictly decreasing={decreasing}",
    )


def test_criterion_6_exact_analytic_suite():
    rng = np.random.default_rng(SEED)
    truth = TruthSpec(s=rng.normal(size=64), sigma=np.exp(rng.normal(size=64) * 0.4))

    ok = kl_divergence(truth, truth.s, truth.sigma) == 0.0
    bumped = truth.s.copy()
    bumped[0] += 1e-6
    ok &= kl_divergence(truth, bumped, truth.sigma) > 0.0
    for _ in range(100):
        t = truth.s + rng.normal(size=64)
        tau = truth.sigma * np.exp(rng.normal(size=64) * 0.3)
        ok &= kl_divergence(truth, t, tau) >= 0.0

    for m in [Model(64, 1, 2), Model(64, 2, 1), Model(64, 0, 4)]:
        approx, bias = best_approx(m, truth)
        ok &= abs(bias - kl_divergence(truth, approx.mean, approx.variance)) <= 1e-10 * max(
            1.0, abs(bias)
        )
        y = rng.normal(size=64)
        py = project(m, y)
        ok &= np.allclose(project(m, py), py, rtol=1e-10, atol=1e-12)
        ok &= abs(np.dot(y - py, py)) <= 1e-10 * max(1.0, float(np.dot(y, y)))

    cfg = CollectionConfig(N, 2.0, 2.0, 0.01, 3.0)
    coll = build_collection(cfg)
    obs = sample(get_scenario("M1"), N, SeedPolicy(SEED).stream(0))
    res = select(coll, obs, cfg)
    crits = [
        log_likelihood(obs.y1, fit(m, obs).mean, fit(m, obs).variance) + penalty(m, cfg)
        for m in coll
    ]
    ok &= res.criterion_value == min(crits)

    pen = penalty(Model(16, 0, 1), CollectionConfig(16, 1.0, 2.0, 0.01, 3.0))
    ok &= abs(pen - 5.3812) <= 1e-3

    report("criterion 6 (exact/analytic suite)", bool(ok), f"penalty(D=2)={pen:.4f}")


def test_criterion_7_oracle_batteries():
    seeds = SeedPolicy(SEED)
    exact = lemma11_check(
        InverseMomentCase(a=np.zeros(4), b=np.ones(4)), reps=100_000, seeds=seeds.namespaced(51)
    )
    ok_exact = (
        abs(exact.mc_estimate - 0.5) <= 4 * exact.std_error
        and abs(exact.bound - 0.25 * (1 + KAPPA)) <= 1e-9
        and exact.holds
    )
    battery11 = lemma11_battery(50, reps=10_000, seeds=seeds.namespaced(52))
    battery10 = lemma10_battery(100, n=64, seeds=seeds.namespaced(53))
    rng = np.random.default_rng(SEED + 1)
    m = Model(16, 1, 2)
    truth = TruthSpec(s=rng.normal(size=16), sigma=np.exp(rng.normal(size=16) * 0.4))
    mean_check = variance_mean_check(truth, m, reps=100_000, seeds=seeds.namespaced(54))
    ok = (
        ok_exact
        and all(r.holds for r in battery11)
        and all(r.holds for r in battery10)
        and mean_check.holds
    )
    report(
        "criterion 7 (oracle batteries)",
        ok,
        f"exact E[1/Z]={exact.mc_estimate:.4f} bound={exact.bound:.4f}; "
        f"lemma11 {sum(r.holds for r in battery11)}/50, lemma10 {sum(r.holds for r in battery10)}/100, "
        f"variance-mean holds={mean_check.holds}",
    )


def test_criterion_8_cli_determinism(tmp_path):
    args = [
        "table", "--scenario", "M1,M2", "--gamma-grid", "1,2", "--n", "256",
        "--reps", "20", "--seed", "77",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--output", str(out1)]) == EXIT_OK
    assert main(args + ["--output", str(out2)]) == EXIT_OK
    identical = out1.read_bytes() == out2.read_bytes()
    report("criterion 8 (byte-identical table runs)", identical, f"{out1.stat().st_size} bytes")
