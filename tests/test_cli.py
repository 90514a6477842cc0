import json

import numpy as np
import pytest

from heteroselect import cli
from heteroselect.cli import EXIT_INPUT, EXIT_OK, EXIT_VERIFY, main
from heteroselect.estimation import log_likelihood
from heteroselect.model_space import Model
from heteroselect.selector import PenaltySpec, penalty
from heteroselect.simlab import SeedPolicy, get_scenario, sample


def write_csv(path, y1, y2):
    lines = ["y1,y2"] + [f"{float(a)!r},{float(b)!r}" for a, b in zip(y1, y2)]
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def m1_csv(tmp_path):
    obs = sample(get_scenario("M1"), 1024, SeedPolicy(101).stream(0))
    path = tmp_path / "m1.csv"
    write_csv(path, obs.y1, obs.y2)
    return path


def test_fit_selects_good_model_and_round_trips(m1_csv, tmp_path):
    out = tmp_path / "fit.json"
    code = main(["fit", "--input", str(m1_csv), "--output", str(out), "--gamma", "2"])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["model"] == {"k_m": 1, "d_m": 2, "D_m": 6}
    assert len(payload["mean"]) == 1024
    assert len(payload["variance"]) == 1024
    # round trip: criterion = likelihood + penalty recomputed from the payload
    y1 = np.loadtxt(m1_csv, delimiter=",", skiprows=1)[:, 0]
    m = Model.create(1024, payload["model"]["k_m"], payload["model"]["d_m"])
    lik = log_likelihood(y1, np.array(payload["mean"]), np.array(payload["variance"]))
    pen = penalty(m, PenaltySpec(2.0, 2.0, 0.01))
    assert payload["criterion"] == pytest.approx(lik + pen, rel=1e-10)
    assert "audit" in payload
    assert len(payload["audit"]) >= 1
    assert min(a["criterion"] for a in payload["audit"]) == payload["criterion"]


def test_fit_quiet_drops_audit(m1_csv, tmp_path):
    out = tmp_path / "fit.json"
    assert main(["fit", "--input", str(m1_csv), "--output", str(out), "--quiet"]) == EXIT_OK
    assert "audit" not in json.loads(out.read_text())


def test_fit_rejects_non_power_of_two_without_truncate(tmp_path, capsys):
    path = tmp_path / "odd.csv"
    rng = np.random.default_rng(102)
    write_csv(path, rng.normal(size=1000), rng.normal(size=1000))
    assert main(["fit", "--input", str(path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "1024" in err and "512" in err


def test_fit_truncate_flag(tmp_path, capsys):
    path = tmp_path / "odd.csv"
    rng = np.random.default_rng(103)
    write_csv(path, rng.normal(size=1000), rng.normal(size=1000))
    out = tmp_path / "fit.json"
    assert main(["fit", "--input", str(path), "--output", str(out), "--truncate", "--gamma", "1"]) == EXIT_OK
    assert len(json.loads(out.read_text())["mean"]) == 512
    assert "truncat" in capsys.readouterr().err


def test_fit_degenerate_input(tmp_path):
    path = tmp_path / "const.csv"
    write_csv(path, np.ones(64), np.ones(64))
    assert main(["fit", "--input", str(path)]) == EXIT_INPUT


def test_fit_malformed_csv(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    assert main(["fit", "--input", str(bad)]) == EXIT_INPUT
    bad.write_text("y1,y2\n1,notanumber\n")
    assert main(["fit", "--input", str(bad)]) == EXIT_INPUT


def test_table_csv_output_and_determinism(tmp_path):
    args = [
        "table", "--scenario", "M1", "--gamma-grid", "1,2", "--n", "128",
        "--reps", "10", "--seed", "5",
    ]
    out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    assert main(args + ["--output", str(out1)]) == EXIT_OK
    assert main(args + ["--output", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().splitlines()
    assert lines[0] == "scenario,gamma,ratio,std_error"
    assert len(lines) == 3
    assert all(line.startswith("M1,") for line in lines[1:])


def test_table_env_seed_override(tmp_path, monkeypatch):
    base = ["table", "--scenario", "M1", "--gamma-grid", "1", "--n", "128", "--reps", "10"]
    explicit = tmp_path / "explicit.csv"
    assert main(base + ["--seed", "99", "--output", str(explicit)]) == EXIT_OK
    monkeypatch.setenv("HETEROSELECT_SEED", "99")
    via_env = tmp_path / "env.csv"
    assert main(base + ["--seed", "0", "--output", str(via_env)]) == EXIT_OK
    assert explicit.read_bytes() == via_env.read_bytes()


def test_table_json_format(tmp_path):
    out = tmp_path / "t.json"
    assert main([
        "table", "--scenario", "M2", "--gamma-grid", "1", "--n", "128",
        "--reps", "5", "--format", "json", "--output", str(out),
    ]) == EXIT_OK
    rows = json.loads(out.read_text())
    assert rows[0]["scenario"] == "M2"
    assert set(rows[0]) == {"scenario", "gamma", "ratio", "std_error"}


def test_table_unknown_scenario():
    assert main(["table", "--scenario", "M99", "--reps", "5"]) == EXIT_INPUT


@pytest.mark.parametrize(
    "flags",
    [["--n", "1000"], ["--reps", "1"], ["--reps", "0", "--n", "64"], ["--theta", "1"]],
)
def test_table_bad_flags_are_input_errors(flags):
    assert main(["table", "--scenario", "M1", "--gamma-grid", "1"] + flags) == EXIT_INPUT


def test_fit_bad_gamma_is_an_input_error(m1_csv, tmp_path):
    out = tmp_path / "fit.json"
    assert main(["fit", "--input", str(m1_csv), "--gamma", "0.5", "--output", str(out)]) == EXIT_INPUT
    assert not out.exists()


def test_verify_bad_n_fails_before_any_check(monkeypatch):
    def no_battery(*args, **kwargs):
        raise AssertionError("verify ran a check before validating its flags")

    monkeypatch.setattr(cli, "lemma11_check", no_battery)
    assert main(["verify", "--n", "1000"]) == EXIT_INPUT


def test_convergence_csv(tmp_path):
    out = tmp_path / "conv.csv"
    assert main([
        "convergence", "--n-grid", "64,128,256", "--reps", "10", "--output", str(out),
    ]) == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,normalized_risk,std_error"
    assert len(lines) == 5  # header + 3 rows + slope comment
    assert lines[-1].startswith("# slope,")


def test_convergence_single_point_grid_is_an_error():
    assert main(["convergence", "--n-grid", "256", "--reps", "10"]) == EXIT_INPUT


def test_verify_passes_and_reports(tmp_path):
    out = tmp_path / "verify.json"
    assert main([
        "verify", "--n", "256", "--reps", "100000", "--seed", "7", "--output", str(out),
    ]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["passed"]
    names = [c["name"] for c in report["checks"]]
    assert names == [
        "inverse_moment_exact_chi_square",
        "inverse_moment_random_battery",
        "compressed_spectrum_battery",
        "risk_sandwich_m1",
    ]


def test_verify_adversarial_kappa_fails(tmp_path):
    out = tmp_path / "verify.json"
    assert main([
        "verify", "--n", "256", "--reps", "100000", "--seed", "7",
        "--kappa", "0.05", "--output", str(out),
    ]) == EXIT_VERIFY
    report = json.loads(out.read_text())
    assert not report["passed"]
