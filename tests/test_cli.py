import codecs
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from heteroselect import cli, simlab
from heteroselect.cli import EXIT_INPUT, EXIT_OK, EXIT_VERIFY, main
from heteroselect.estimation import KAPPA, Observations, log_likelihood
from heteroselect.model_space import CollectionConfig, Model
from heteroselect.oracle_checks import (
    InverseMomentCase,
    lemma10_battery,
    lemma11_battery,
    lemma11_check,
    prop1_sandwich_check,
)
from heteroselect.selector import penalty, select
from heteroselect.simlab import (
    SeedPolicy,
    convergence_experiment,
    get_scenario,
    lipschitz_scenario,
    ratio_table,
    sample,
)


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
    m = Model(1024, payload["model"]["k_m"], payload["model"]["d_m"])
    lik = log_likelihood(y1, np.array(payload["mean"]), np.array(payload["variance"]))
    pen = penalty(m, CollectionConfig(1024, 2.0, 2.0, 0.01, 3.0))
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


def test_fit_overflowing_input_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "big.csv"
    rng = np.random.default_rng(104)
    write_csv(path, rng.uniform(0.85e308, 1.7e308, size=64), rng.uniform(0.85e308, 1.7e308, size=64))
    assert main(["fit", "--input", str(path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: no model has a finite criterion") and err.count("\n") == 1


def test_fit_malformed_csv(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    assert main(["fit", "--input", str(bad)]) == EXIT_INPUT
    bad.write_text("y1,y2\n1,notanumber\n")
    assert main(["fit", "--input", str(bad)]) == EXIT_INPUT


def _fit_data(name):
    """1024 rows, or the count after an '@': a scenario draw, or 'blocks', a mean with 128 well-separated levels."""
    if name == "blocks":
        rng = np.random.default_rng(105)
        s = np.repeat(np.tile([0.0, 10.0], 64), 8)
        return s + rng.normal(size=1024), s + rng.normal(size=1024)
    name, _, rows = name.partition("@")
    obs = sample(get_scenario(name), int(rows or 1024), SeedPolicy(106).stream(0))
    return obs.y1, obs.y2


def _reference_fit_text(y1, y2, gamma, quiet):
    """`fit`'s output, encoded by dumping the whole payload with the full mean/variance vectors."""
    cfg = CollectionConfig(len(y1), gamma, 2.0, 0.01, 3.0)
    result = select(cfg, Observations(y1=y1, y2=y2))
    chosen_audit = next(a for a in result.per_model if a.model is result.chosen)
    payload = {
        "model": result.chosen.describe(),
        "mean": result.estimate.mean.tolist(),
        "variance": result.estimate.variance.tolist(),
        "criterion": result.criterion_value,
        "penalty": chosen_audit.penalty,
        "likelihood": chosen_audit.likelihood,
    }
    if not quiet:
        payload["audit"] = [
            {**a.model.describe(), "likelihood": a.likelihood, "penalty": a.penalty, "criterion": a.criterion}
            for a in result.per_model
        ]
    return json.dumps(payload, indent=2) + "\n", result.chosen


@pytest.mark.parametrize(
    "data, flags",
    [
        ("M1", []),
        ("M2", []),
        ("M3", []),
        ("M4", []),
        ("blocks", ["--gamma", "1"]),
        ("M1", ["--quiet"]),
        ("M2", ["--truncate"]),
        ("M3", ["--output", "-"]),
        # Each vector spans several of `_json_runs`' pieces.
        ("M1@8192", []),
        ("M1@8192", ["--output", "-"]),
    ],
)
def test_fit_output_is_byte_identical_to_reference_encoding(data, flags, tmp_path, capsys):
    y1, y2 = _fit_data(data)
    if "--truncate" in flags:
        y1, y2 = y1[:1000], y2[:1000]
    path = tmp_path / "in.csv"
    write_csv(path, y1, y2)
    gamma = float(flags[flags.index("--gamma") + 1]) if "--gamma" in flags else 2.0
    n = 1 << (len(y1).bit_length() - 1)
    expected, chosen = _reference_fit_text(y1[:n], y2[:n], gamma, "--quiet" in flags)
    if data == "blocks":
        assert chosen.num_fine == 128
    argv = ["fit", "--input", str(path)] + flags
    if "--output" not in flags:
        argv += ["--output", str(tmp_path / "fit.json")]
    assert main(argv) == EXIT_OK
    if "--output" in flags:
        got = capsys.readouterr().out.encode()
    else:
        got = (tmp_path / "fit.json").read_bytes()
    assert got == expected.encode()


_JSON_VALUES = [-0.0, 5e-324, 1e300, 0.1, 1 / 3, -2.5, 7.0, 1e-7]


@pytest.mark.parametrize("piece_chars", [1, 7, 64, cli._PIECE_CHARS])
@pytest.mark.parametrize("blocks", [[1 / 3], [5e-324, -0.0], _JSON_VALUES], ids=["1", "2", "n"])
@pytest.mark.parametrize("n", [8, 64])
def test_json_runs_join_to_the_whole_vector_encoding(n, blocks, piece_chars, monkeypatch):
    monkeypatch.setattr(cli, "_PIECE_CHARS", piece_chars)
    if len(blocks) == len(_JSON_VALUES):
        blocks = _JSON_VALUES * (n // len(_JSON_VALUES))
    blocks = np.array(blocks)
    expected = json.dumps({"v": np.repeat(blocks, n // len(blocks)).tolist()}, indent=2)
    pieces = list(cli._json_runs(blocks, n))
    assert "".join(pieces) == expected[len('{\n  "v": ') : -len("\n}")]
    # Runs split across pieces; at one character a piece ends just before the last value.
    if piece_chars <= 64:
        assert len(pieces) > 1
    if piece_chars == 1:
        assert pieces[-1] == repr(float(blocks[-1])) + "\n  ]"


def test_fit_to_a_pipe_the_reader_closes_early_ends_quietly(tmp_path):
    # ~800 KB of vectors cannot fit the pipe's buffer, so the writer meets the closed pipe.
    y1, y2 = _fit_data("M1@16384")
    path = tmp_path / "in.csv"
    write_csv(path, y1, y2)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    argv = [sys.executable, "-m", "heteroselect.cli", "fit", "--input", str(path), "--output", "-"]
    with open(tmp_path / "err", "wb") as err:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env)
        assert proc.stdout.read(10) == b'{\n  "model'
        proc.stdout.close()
        assert proc.wait(timeout=120) == EXIT_OK
    assert (tmp_path / "err").read_bytes() == b""


_DIALECT = [
    ("y1,y2\n1,2\n\n3,4\n", ([1.0, 3.0], [2.0, 4.0])),
    ("y1,y2\n1,2\n   \n3,4\n", ([1.0, 3.0], [2.0, 4.0])),
    ("y1,y2\r\n1.5,2\r\n3,4\r\n", ([1.5, 3.0], [2.0, 4.0])),
    ("y1,y2\n 1.5 , 2 \n3,\t-4e-3\n", ([1.5, 3.0], [2.0, -4e-3])),
    ("y1,y2\n-0.0,1e-320\n0.1,+2E2\n", ([-0.0, 0.1], [1e-320, 200.0])),
    ("y1,y2\n7,8\n", ([7.0], [8.0])),
    ('y1,y2\n"1.5","2"\n3,4\n', ([1.5, 3.0], [2.0, 4.0])),
    ("y1,y2\n1_0,2\n3,4\n", ([10.0, 3.0], [2.0, 4.0])),
    (" Y1 , Y2 \n1,2\n", ([1.0], [2.0])),
    ("y1,y2\n1,2\n3,4\n5,6\nnan,7\n", "{path}:5: non-finite value"),
    ("y1,y2\n1,2\n3,4\n5,6\n7,inf\n", "{path}:5: non-finite value"),
    ("y1,y2\n1,2\n1e400,4\n", "{path}:3: non-finite value"),
    ("y1,y2\n1,2\n3,4,5\n6,7\n", "{path}:3: expected two columns, got 3"),
    ("y1,y2\n1,2,3\n4,5,6\n", "{path}:2: expected two columns, got 3"),
    ("y1,y2\n1,2,\n", "{path}:2: expected two columns, got 3"),
    ("y1,y2\n1\n2\n", "{path}:2: expected two columns, got 1"),
    ("y1,y2\n# note\n1,2\n", "{path}:2: expected two columns, got 1"),
    ("y1,y2\n1,2\n,3\n", "{path}:3: malformed number"),
    ("y1,y2\n1,2\n1d5,3\n", "{path}:3: malformed number"),
    ("y1,y2\n", "{path}: no data rows"),
    ("y1,y2\n\n\n", "{path}: no data rows"),
    ("a,b\n1,2\n", "{path}: expected CSV header 'y1,y2', got ['a', 'b']"),
    ('y1,y2\n"1\n",2\nnan,3\n', "{path}:4: non-finite value"),
    ('y1,y2\n"1\n",2\n3,4,5\n', "{path}:4: expected two columns, got 3"),
    # Fields past the csv module's 131,072-character limit, which is kept.  The data row's digits
    # overflow to inf, so `np.loadtxt` hands the file to the row loop.
    pytest.param(
        "y1,y2\n1,2\n" + "1" * 200_000 + ",2\n", "{path}:3: field larger than field limit (131072)", id="long-field",
    ),
    pytest.param(
        "y" * 200_000 + ",y2\n1,2\n", "{path}:1: field larger than field limit (131072)", id="long-header-field",
    ),
    # A finite over-long field, which `np.loadtxt` alone would read as 1.0; and one inside the limit,
    # on a line long enough to take the row loop, which reads it.
    pytest.param(
        "y1,y2\n1,2\n" + "0" * 199_999 + "1,2\n",
        "{path}:3: field larger than field limit (131072)",
        id="long-finite-field",
    ),
    pytest.param("y1,y2\n1,2\n" + "0" * 99_999 + "1,2\n", ([1.0, 1.0], [2.0, 2.0]), id="long-field-in-limit"),
]


@pytest.mark.parametrize("text, expected", _DIALECT)
@pytest.mark.filterwarnings("error")  # parsing prints nothing but the error it raises
def test_read_pairs_dialect(text, expected, tmp_path):
    _check_read_pairs(text.encode(), expected, tmp_path)


@pytest.mark.parametrize("text, expected", _DIALECT)
@pytest.mark.filterwarnings("error")
def test_read_pairs_skips_a_byte_order_mark(text, expected, tmp_path):
    # Excel's "CSV UTF-8" starts the file with one; errors still name the row's own line.
    _check_read_pairs(codecs.BOM_UTF8 + text.encode(), expected, tmp_path)


def _check_read_pairs(data, expected, tmp_path):
    path = tmp_path / "in.csv"
    path.write_bytes(data)
    if isinstance(expected, str):
        with pytest.raises(cli.InputError) as info:
            cli._read_pairs(str(path))
        assert str(info.value) == expected.format(path=path)
        return
    for got, want in zip(cli._read_pairs(str(path)), expected):
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert got.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["convergence", "--n", "1000", "--n-grid", "64,128", "--reps", "2"],
        ["convergence", "--gamma", "0.1", "--n-grid", "64,128", "--reps", "2"],
        ["table", "--gamma", "0.1", "--scenario", "M1", "--gamma-grid", "1", "--n", "64", "--reps", "2"],
        ["verify", "--gamma", "0.1", "--n", "256"],
        ["fit", "--input", "unused.csv", "--n", "7"],
    ],
)
def test_unused_flags_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == EXIT_INPUT
    assert "unrecognized arguments" in capsys.readouterr().err


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
    # Reference encoding: each value as the repr of a Python float, so a numpy scalar
    # (whose repr is `np.float64(...)` under numpy 2) in a record shows up here.
    cells = ratio_table([get_scenario("M1")], [1.0, 2.0], n=128, reps=10, seeds=SeedPolicy(5))
    expected = ["scenario,gamma,ratio,std_error"]
    expected += [f"{c.scenario},{float(c.gamma)!r},{float(c.ratio)!r},{float(c.std_error)!r}" for c in cells]
    assert out1.read_text() == "\n".join(expected) + "\n"


def test_table_env_seed_override(tmp_path, monkeypatch):
    base = ["table", "--scenario", "M1", "--gamma-grid", "1", "--n", "128", "--reps", "10"]
    explicit = tmp_path / "explicit.csv"
    assert main(base + ["--seed", "99", "--output", str(explicit)]) == EXIT_OK
    monkeypatch.setenv("HETEROSELECT_SEED", "99")
    via_env = tmp_path / "env.csv"
    assert main(base + ["--seed", "0", "--output", str(via_env)]) == EXIT_OK
    assert explicit.read_bytes() == via_env.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--scenario", "M1", "--gamma-grid", "1", "--n", "64", "--reps", "2"],
        ["verify", "--n", "256"],
        ["convergence", "--n-grid", "64,128", "--reps", "2"],
    ],
    ids=["table", "verify", "convergence"],
)
@pytest.mark.parametrize("source", ["--seed", "HETEROSELECT_SEED"])
def test_negative_seed_is_an_input_error(argv, source, monkeypatch, capsys):
    if source == "--seed":
        argv = argv + ["--seed", "-1"]
    else:
        monkeypatch.setenv("HETEROSELECT_SEED", "-1")
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {source} must be non-negative, got -1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "--input", "{csv}"],
        ["table", "--scenario", "M1", "--gamma-grid", "1", "--n", "64", "--reps", "2"],
    ],
    ids=["fit", "table"],
)
def test_unwritable_output_is_an_input_error(argv, m1_csv, tmp_path, capsys):
    out = tmp_path / "missing" / "out.txt"
    argv = [a.format(csv=m1_csv) for a in argv] + ["--output", str(out)]
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1


def test_table_json_format(tmp_path):
    out = tmp_path / "t.json"
    assert main([
        "table", "--scenario", "M2", "--gamma-grid", "1", "--n", "128",
        "--reps", "5", "--format", "json", "--output", str(out),
    ]) == EXIT_OK
    rows = json.loads(out.read_text())
    assert rows[0]["scenario"] == "M2"
    assert set(rows[0]) == {"scenario", "gamma", "ratio", "std_error"}
    cells = ratio_table([get_scenario("M2")], [1.0], n=128, reps=5, seeds=SeedPolicy(0))
    expected = json.dumps(
        [{"scenario": c.scenario, "gamma": c.gamma, "ratio": c.ratio, "std_error": c.std_error} for c in cells],
        indent=2,
    )
    assert out.read_text() == expected + "\n"


def test_table_all_scenarios_by_default(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["table", "--gamma-grid", "1", "--n", "64", "--reps", "2", "--output", str(out)]) == EXIT_OK
    rows = out.read_text().strip().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["M1", "M2", "M3", "M4"]


def test_table_empty_gamma_grid(capsys):
    assert main(["table", "--scenario", "M1", "--gamma-grid", ",", "--n", "64", "--reps", "2"]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: empty gamma grid\n"


def test_table_empty_scenario_list(capsys):
    assert main(["table", "--scenario", ",", "--gamma-grid", "1", "--n", "64", "--reps", "2"]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: empty scenario list\n"


def test_table_scenario_entries_are_stripped(tmp_path):
    # Like --gamma-grid: blanks around an entry and blank entries are ignored, "all" included.
    base = ["table", "--gamma-grid", "1", "--n", "64", "--reps", "2", "--seed", "5", "--output"]
    for spaced_value, plain_value in [(" M1, M2 ,", "M1,M2"), (" all ", "all")]:
        spaced, plain = tmp_path / "spaced.csv", tmp_path / "plain.csv"
        assert main(base + [str(spaced), "--scenario", spaced_value]) == EXIT_OK
        assert main(base + [str(plain), "--scenario", plain_value]) == EXIT_OK
        assert spaced.read_bytes() == plain.read_bytes()


def test_non_integer_env_seed_is_an_input_error(monkeypatch, capsys):
    monkeypatch.setenv("HETEROSELECT_SEED", "4.2")
    assert main(["table", "--scenario", "M1", "--gamma-grid", "1", "--n", "64", "--reps", "2"]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: HETEROSELECT_SEED must be an integer, got '4.2'\n"


def test_fit_unreadable_input(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    assert main(["fit", "--input", str(missing)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {missing}: ") and err.count("\n") == 1


def test_fit_a_nul_byte_is_an_input_error_naming_its_line(tmp_path, capsys):
    # Python 3.10's csv module rejects the byte itself, later versions read a malformed number.
    path = tmp_path / "nul.csv"
    path.write_bytes(b"y1,y2\n1,2\n1\x00,2\n")
    assert main(["fit", "--input", str(path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:3: ") and err.count("\n") == 1


@pytest.mark.parametrize("data", [b"y1,y2\n1.0,2.0\n\xff\xfe,3\n", b"\xff\xfe1,y2\n1.0,2.0\n"])
def test_fit_non_utf8_input_is_an_input_error(tmp_path, capsys, data):
    path = tmp_path / "latin.csv"
    path.write_bytes(data)
    assert main(["fit", "--input", str(path)]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {path}: not UTF-8 text (invalid start byte)\n"


def test_fit_reads_a_byte_order_mark_file_through_loadtxt(m1_csv, tmp_path, monkeypatch):
    bom = tmp_path / "bom.csv"
    bom.write_bytes(codecs.BOM_UTF8 + m1_csv.read_bytes())
    loadtxt, shapes = np.loadtxt, []

    def recording_loadtxt(*args, **kwargs):
        data = loadtxt(*args, **kwargs)
        shapes.append(data.shape)
        return data

    monkeypatch.setattr(np, "loadtxt", recording_loadtxt)
    for path in (m1_csv, bom):
        assert main(["fit", "--input", str(path), "--output", str(path.with_suffix(".json"))]) == EXIT_OK
    assert shapes == [(1024, 2), (1024, 2)]  # both parsed by `np.loadtxt`, not the row loop
    assert bom.with_suffix(".json").read_bytes() == m1_csv.with_suffix(".json").read_bytes()


def test_table_unknown_scenario(capsys):
    assert main(["table", "--scenario", "M99", "--reps", "5"]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: unknown scenario 'M99'\n"


@pytest.mark.parametrize(
    "argv, library_call",
    [
        (["table", "--scenario", "M1", "--gamma-grid", "1", "--n", "64", "--reps", "2"], "ratio_table"),
        (["convergence", "--n-grid", "64,128", "--reps", "2"], "convergence_experiment"),
        (["fit", "--input", "{csv}"], "select"),
    ],
    ids=["table", "convergence", "fit"],
)
def test_any_library_value_error_is_an_input_error(argv, library_call, m1_csv, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(cli, library_call, boom)
    assert main([a.format(csv=m1_csv) for a in argv]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: boom\n"


@pytest.mark.parametrize(
    "flags",
    [["--n", "1000"], ["--reps", "1"], ["--reps", "0", "--n", "64"], ["--theta", "1"]],
)
def test_table_bad_flags_are_input_errors(flags):
    assert main(["table", "--scenario", "M1", "--gamma-grid", "1"] + flags) == EXIT_INPUT


@pytest.mark.parametrize(
    "argv",
    [["table", "--scenario", "M1", "--gamma-grid", "1"], ["convergence", "--n-grid", "64,128"]],
)
def test_lab_commands_word_a_bad_reps_alike(argv, capsys):
    assert main(argv + ["--reps", "1"]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: --reps must be >= 2, got 1\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["table", "--epsilon", "1000", "--reps", "2", "--n", "64"], "no admissible model for n=64,"),
        (["fit", "--input", "{csv}", "--epsilon", "1000"], "no admissible model for n=1024,"),
        (["verify", "--epsilon", "1000"], "no admissible model for n=1024,"),
        (["convergence", "--epsilon", "13", "--reps", "2"], "n_grid starts below the admissible threshold inf"),
    ],
    ids=["table", "fit", "verify", "convergence"],
)
def test_an_epsilon_past_the_float_range_is_one_error_line(argv, message, m1_csv, capsys):
    assert main([a.format(csv=m1_csv) for a in argv]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "--input", "{csv}"],
        ["table", "--n", "64", "--reps", "2"],
        ["convergence", "--n-grid", "64,128", "--reps", "2"],
    ],
    ids=["fit", "table", "convergence"],
)
def test_an_overflowing_penalty_is_one_error_line(argv, m1_csv, capsys):
    # theta = 1e308 makes every penalty inf, so no model has a finite criterion.
    assert main([a.format(csv=m1_csv) for a in argv] + ["--theta", "1e308"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: no model has a finite criterion") and err.count("\n") == 1


def test_verify_with_a_bound_past_the_float_range_writes_its_report(tmp_path):
    # theta**2 overflows at 1.4e154: the sandwich's upper bound is inf, not an OverflowError.
    out = tmp_path / "verify.json"
    assert main(["verify", "--theta", "1.4e154", "--n", "64", "--output", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["passed"] is True


def test_fit_two_rows_with_an_underflowing_log_power_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "two-rows.csv"
    write_csv(path, [0.5, 2.0], [1.5, -1.0])
    assert main(["fit", "--input", str(path), "--epsilon", "3000"]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        "error: no admissible model for n=2, gamma=2.0, theta=2.0: sample size too small for this configuration\n"
    )


def test_table_empty_oracle_collection_fails_before_any_replication(monkeypatch, capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("table ran replications before building every collection")

    monkeypatch.setattr(simlab, "_run", no_run)
    # At n=16 M3's true gamma 7/3 admits no model, while the grid gammas 1 and 2 do.
    assert main(["table", "--n", "16", "--gamma-grid", "1,2", "--reps", "2"]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: no admissible model for n=16, gamma=2.3333333333333335")


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--gamma-grid", "1,nan"], "gamma"),
        (["--gamma-grid", "inf"], "gamma"),
        (["--delta", "inf"], "delta"),
        (["--theta", "nan"], "theta"),
        (["--epsilon", "inf"], "epsilon"),
    ],
)
def test_table_non_finite_constants_are_input_errors(flags, field, capsys):
    argv = ["table", "--scenario", "M1", "--n", "64", "--reps", "2"] + flags
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err.startswith(f"error: {field} must be finite, got ")


def test_fit_bad_gamma_is_an_input_error(m1_csv, tmp_path):
    out = tmp_path / "fit.json"
    assert main(["fit", "--input", str(m1_csv), "--gamma", "0.5", "--output", str(out)]) == EXIT_INPUT
    assert not out.exists()


def test_verify_bad_n_fails_before_any_check(monkeypatch):
    def no_battery(*args, **kwargs):
        raise AssertionError("verify ran a check before validating its flags")

    for name in ("lemma11_check", "lemma11_battery", "lemma10_battery"):
        monkeypatch.setattr(cli, name, no_battery)
    # 4 is a power of two with no admissible sandwich model; at epsilon = 1000 its penalty overflows.
    for flags in (["--n", "1000"], ["--n", "4"], ["--epsilon", "1000"]):
        assert main(["verify"] + flags) == EXIT_INPUT


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--reps", "-5"], "--reps must be >= 100000, got -5"),
        (["--reps", "99999"], "--reps must be >= 100000, got 99999"),
        (["--kappa", "0"], "--kappa must be finite and > 0, got 0.0"),
        (["--kappa=-1"], "--kappa must be finite and > 0, got -1.0"),
        (["--kappa", "nan"], "--kappa must be finite and > 0, got nan"),
        (["--kappa", "inf"], "--kappa must be finite and > 0, got inf"),
    ],
)
def test_verify_bad_reps_or_kappa_fails_before_any_check(flags, message, monkeypatch, capsys):
    def no_battery(*args, **kwargs):
        raise AssertionError("verify ran a check before validating its flags")

    for name in ("lemma11_check", "prop1_sandwich_check"):
        monkeypatch.setattr(cli, name, no_battery)
    assert main(["verify", "--n", "256"] + flags) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {message}\n"


def test_verify_help_states_the_reps_floor(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    assert "at least 100,000" in " ".join(capsys.readouterr().out.split())


def test_convergence_csv(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    assert main([
        "convergence", "--n-grid", "64,128,256", "--reps", "10", "--output", str(out),
    ]) == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,normalized_risk,std_error"
    assert len(lines) == 5  # header + 3 rows + slope comment
    assert lines[-1].startswith("# slope,")
    result = convergence_experiment(lipschitz_scenario(), [64, 128, 256], reps=10, seeds=SeedPolicy(0))
    expected = ["n,normalized_risk,std_error"]
    expected += [f"{int(p.n)!r},{float(p.normalized_risk)!r},{float(p.std_error)!r}" for p in result.points]
    expected += [f"# slope,{float(result.slope)!r}"]
    assert out.read_text() == "\n".join(expected) + "\n"
    assert capsys.readouterr().err == f"fitted log-log slope: {result.slope:.4f}\n"


def test_convergence_json(tmp_path):
    out = tmp_path / "conv.json"
    assert main([
        "convergence", "--n-grid", "64,128", "--reps", "10", "--format", "json", "--output", str(out),
    ]) == EXIT_OK
    report = json.loads(out.read_text())
    assert [p["n"] for p in report["points"]] == [64, 128]
    assert set(report["points"][0]) == {"n", "normalized_risk", "std_error"}
    assert isinstance(report["slope"], float)
    result = convergence_experiment(lipschitz_scenario(), [64, 128], reps=10, seeds=SeedPolicy(0))
    points = [{"n": p.n, "normalized_risk": p.normalized_risk, "std_error": p.std_error} for p in result.points]
    assert out.read_text() == json.dumps({"points": points, "slope": result.slope}, indent=2) + "\n"


@pytest.mark.parametrize("grid", ["256", "256.9,512"])
def test_convergence_single_point_grid_is_an_error(grid):
    assert main(["convergence", "--n-grid", grid, "--reps", "10"]) == EXIT_INPUT


def _reference_verify_text(n, reps, seed, kappa):
    """`verify`'s report, built check by check from the oracle results, and the names
    of the failed checks."""
    seeds = SeedPolicy(seed)
    exact = lemma11_check(
        InverseMomentCase(a=np.zeros(4), b=np.ones(4)), reps=reps, seeds=seeds.namespaced(0), kappa=kappa
    )
    checks = [
        {
            "name": "inverse_moment_exact_chi_square",
            "passed": bool(exact.holds and abs(exact.mc_estimate - 0.5) <= 4.0 * exact.std_error),
            "mc_estimate": exact.mc_estimate,
            "bound": exact.bound,
            "std_error": exact.std_error,
        }
    ]
    battery = lemma11_battery(50, reps=reps // 10, seeds=seeds.namespaced(1), kappa=kappa)
    spectrum = lemma10_battery(100, n=64, seeds=seeds.namespaced(2))
    entries = prop1_sandwich_check(get_scenario("M1"), n=n, reps=reps // 50, seeds=seeds.namespaced(3))
    for name, key, results in [
        ("inverse_moment_random_battery", "cases", battery),
        ("compressed_spectrum_battery", "cases", spectrum),
        ("risk_sandwich_m1", "models", entries),
    ]:
        checks.append(
            {
                "name": name,
                "passed": all(r.holds for r in results),
                key: len(results),
                "failures": sum(not r.holds for r in results),
            }
        )
    passed = all(c["passed"] for c in checks)
    failed = [c["name"] for c in checks if not c["passed"]]
    return json.dumps({"passed": passed, "checks": checks}, indent=2) + "\n", failed


def test_verify_passes_and_reports(tmp_path):
    out = tmp_path / "verify.json"
    assert main([
        "verify", "--n", "256", "--reps", "100000", "--seed", "7", "--output", str(out),
    ]) == EXIT_OK
    assert out.read_text() == _reference_verify_text(256, 100_000, 7, KAPPA)[0]
    report = json.loads(out.read_text())
    assert report["passed"]
    names = [c["name"] for c in report["checks"]]
    assert names == [
        "inverse_moment_exact_chi_square",
        "inverse_moment_random_battery",
        "compressed_spectrum_battery",
        "risk_sandwich_m1",
    ]


def test_verify_adversarial_kappa_fails(tmp_path, capsys):
    out = tmp_path / "verify.json"
    assert main([
        "verify", "--n", "256", "--reps", "100000", "--seed", "7",
        "--kappa", "0.05", "--output", str(out),
    ]) == EXIT_VERIFY
    report = json.loads(out.read_text())
    assert not report["passed"]
    expected, failed = _reference_verify_text(256, 100_000, 7, 0.05)
    assert out.read_text() == expected
    assert capsys.readouterr().err == f"verification failed: {', '.join(failed)} failed\n"
