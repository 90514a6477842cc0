"""heteroselect benchmark: run one workload through the CLI and print its metrics.

    python3 perfbench/run.py --workload {table,verify,fit_large} [--seed N]
                             [--seconds S] [--trace 0|1]

Run from anywhere; paths are resolved from this file.  The program is used
from source (`src/` on PYTHONPATH); nothing is installed.  Each workload body
runs `heteroselect.cli.main` in a fresh single-threaded worker process
(`worker.py`), one body after another, until `--seconds` are used up.  Every
output is checked against `reference.py`.  The last stdout line is the result
JSON; the line before it is the run manifest.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import reference
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

#: Recorded default workload seed.
DEFAULT_SEED = 20080724
TABLE_N = 1024
TABLE_REPS = 20
TABLE_GAMMAS = [1.0, 1.5, 2.0, 2.5, 3.0]
#: `verify` at its defaults: the M1 sandwich runs max(100000 // 50, 2000) replications.
VERIFY_SANDWICH_REPS = 2000
VERIFY_LEMMA11_CASES = 1 + 50
VERIFY_LEMMA10_CASES = 100
FIT_N = 65536
#: Median time of `worker.calibrate` on the machine that defined the benchmark
#: (2-vCPU Xeon, Python 3.11, numpy 2.4); times are reported at this speed.
CAL_REF_S = 0.0145
WORKER_TIMEOUT_S = 150

#: One process, no extra threads: pin every BLAS/OpenMP pool numpy may start.
PIN_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

TRACED = [name for name, _, _ in tracing.TARGETS]


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


@dataclass
class Workload:
    calls: list[list[str]]  # CLI argv of each call in one body
    outputs: list[Path]  # output file of each call
    check: Callable[[int], str | None]  # call index -> error message, or None when correct
    datasets: int  # Monte Carlo replications (fit_large: input files) fitted per body
    points: int  # data points fitted per body
    # Traced span counts per body of the program as it was when the benchmark was
    # defined.  Informational only: a change that cuts calls is expected to differ.
    baseline_calls: dict[str, int]
    rows_read: int = 0
    params: dict = field(default_factory=dict)


def _counts(nonzero: dict[str, int]) -> dict[str, int]:
    return {**dict.fromkeys(TRACED, 0), **nonzero}


def table_workload(seed: int, work: Path) -> Workload:
    out = work / "table.csv"
    rows = reference.table_rows(seed, TABLE_N, TABLE_REPS, TABLE_GAMMAS)

    def check(_: int) -> str | None:
        with open(out, newline="") as fh:
            got = list(csv.reader(fh))
        if got[0] != ["scenario", "gamma", "ratio", "std_error"] or len(got) != len(rows) + 1:
            return f"table: unexpected shape {len(got)} rows, header {got[0]}"
        for line, (name, gamma, ratio, se) in zip(got[1:], rows):
            if line[0] != name or float(line[1]) != gamma:
                return f"table: row {line} out of order, expected {name},{gamma}"
            if not (reference.close(float(line[2]), ratio) and reference.close(float(line[3]), se)):
                return f"table: row {line} differs from reference ratio {ratio!r}, se {se!r}"
        return None

    reps = TABLE_REPS
    size = {g: len(reference.collection(TABLE_N, g)) for g in TABLE_GAMMAS}
    oracle_fits = sum(len(reference.collection(TABLE_N, sc[2])) for sc in reference.SCENARIOS.values()) * reps
    select_fits = len(reference.SCENARIOS) * sum(size.values()) * reps
    runs = len(reference.SCENARIOS) * (1 + len(TABLE_GAMMAS))
    selects = len(reference.SCENARIOS) * len(TABLE_GAMMAS) * reps
    return Workload(
        calls=[["table", "--n", str(TABLE_N), "--reps", str(reps), "--seed", str(seed), "--output", str(out)]],
        outputs=[out],
        check=check,
        datasets=runs * reps,
        points=runs * reps * TABLE_N,
        baseline_calls=_counts({
            "cli.main": 1,
            "simlab.ratio_table": 1,
            "simlab.mc_risk": selects // reps,
            "simlab.risk_profile": len(reference.SCENARIOS),
            "simlab.sample": runs * reps,
            "simlab.stream": runs * reps,
            "simlab.truth": runs * reps + runs,
            "selector.select": selects,
            "selector.penalty": select_fits,
            "estimation.fit": select_fits + oracle_fits,
            "estimation.log_likelihood": select_fits,
            "estimation.kl_divergence": oracle_fits + selects,
            "model_space.project": 2 * (select_fits + oracle_fits),
            "model_space.build_collection": runs,
        }),
        params={"n": TABLE_N, "reps": reps, "gammas": TABLE_GAMMAS, "kind": "kullback"},
    )


def verify_workload(seed: int, work: Path) -> Workload:
    out = work / "verify.json"
    models = len(reference.collection(TABLE_N, reference.SCENARIOS["M1"][2]))
    names = [
        "inverse_moment_exact_chi_square",
        "inverse_moment_random_battery",
        "compressed_spectrum_battery",
        "risk_sandwich_m1",
    ]

    def check(_: int) -> str | None:
        with open(out) as fh:
            report = json.load(fh)
        checks = report.get("checks", [])
        if report.get("passed") is not True or [c.get("name") for c in checks] != names:
            return f"verify: passed={report.get('passed')}, checks {[c.get('name') for c in checks]}"
        if not all(c["passed"] is True for c in checks) or checks[3].get("models") != models:
            return f"verify: failing checks or {checks[3].get('models')} sandwich models, expected {models}"
        return None

    fits = VERIFY_SANDWICH_REPS * models
    return Workload(
        calls=[["verify", "--seed", str(seed), "--output", str(out)]],
        outputs=[out],
        check=check,
        datasets=VERIFY_SANDWICH_REPS,
        points=VERIFY_SANDWICH_REPS * TABLE_N,
        baseline_calls=_counts({
            "cli.main": 1,
            "simlab.risk_profile": 1,
            "simlab.sample": VERIFY_SANDWICH_REPS,
            # risk_profile's replications, one per lemma11 check, one per battery generator
            "simlab.stream": VERIFY_SANDWICH_REPS + VERIFY_LEMMA11_CASES + 2,
            "simlab.truth": VERIFY_SANDWICH_REPS + 2,
            "estimation.fit": fits,
            "estimation.kl_divergence": fits,
            "estimation.best_approx": models,
            "estimation.prop1_bounds": models,
            "model_space.project": 2 * fits + models,
            "model_space.build_collection": 1,
            "oracle_checks.lemma11_check": VERIFY_LEMMA11_CASES,
            "oracle_checks.lemma10_check": VERIFY_LEMMA10_CASES,
            "oracle_checks.prop1_sandwich_check": 1,
        }),
        params={"n": TABLE_N, "defaults": True},
    )


def fit_large_workload(seed: int, work: Path) -> Workload:
    inputs = reference.fit_inputs(seed, FIT_N)
    calls, outputs, expected = [], [], []
    for name, y1, y2 in inputs:
        path = work / f"fit_{name}.csv"
        with open(path, "w") as fh:
            fh.write("y1,y2\n")
            fh.writelines(f"{a!r},{b!r}\n" for a, b in zip(y1.tolist(), y2.tolist()))
        outputs.append(work / f"fit_{name}.json")
        calls.append(["fit", "--input", str(path), "--output", str(outputs[-1])])
        expected.append(reference.fit_choice(y1, y2))
    models = len(reference.collection(FIT_N, reference.FIT_GAMMA))

    def check(i: int) -> str | None:
        with open(outputs[i]) as fh:
            got = json.load(fh)
        name, ref = inputs[i][0], expected[i]
        if got["model"] != ref["model"]:
            return f"fit {name}: chose {got['model']}, reference {ref['model']}"
        if len(got["audit"]) != models or got["criterion"] != min(a["criterion"] for a in got["audit"]):
            return f"fit {name}: criterion is not the audit minimum over {models} models"
        for key in ("criterion", "likelihood", "penalty"):
            if not reference.close(got[key], ref[key]):
                return f"fit {name}: {key} {got[key]!r} differs from reference {ref[key]!r}"
        for key in ("mean", "variance"):
            if len(got[key]) != FIT_N:
                return f"fit {name}: {key} has length {len(got[key])}, expected {FIT_N}"
            bad = reference.far(np.asarray(got[key], dtype=float), ref[key], ref["scale"])
            if bad.size:
                j = int(bad[0])
                return f"fit {name}: {key}[{j}] = {got[key][j]!r} differs from reference {float(ref[key][j])!r}"
        return None

    files = len(inputs)
    return Workload(
        calls=calls,
        outputs=outputs,
        check=check,
        datasets=files,
        points=files * FIT_N,
        baseline_calls=_counts({
            "cli.main": files,
            "cli.read_pairs": files,
            "cli.cmd_fit": files,
            "selector.select": files,
            "selector.penalty": files * models,
            "estimation.fit": files * models,
            "estimation.log_likelihood": files * models,
            "model_space.project": 2 * files * models,
            "model_space.build_collection": files,
        }),
        rows_read=files * FIT_N,
        params={"n": FIT_N, "files": [name for name, _, _ in inputs], "gamma": reference.FIT_GAMMA},
    )


WORKLOADS = {"table": table_workload, "verify": verify_workload, "fit_large": fit_large_workload}


def worker_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("HETEROSELECT_SEED", "PYTHONPATH")}
    env.update(PIN_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_worker(work: Path, calls: list[list[str]], trace: bool) -> dict:
    spec, result = work / "spec.json", work / "result.json"
    spec.write_text(json.dumps({"calls": calls, "trace": trace}))
    result.unlink(missing_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), str(spec), str(result)],
            cwd=ROOT,
            env=worker_env(),
            capture_output=True,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(result.read_text())


@dataclass
class Body:
    worker: dict
    failed: int
    output_bytes: int
    errors: list[str]


def run_body(work: Path, wl: Workload, trace: bool) -> Body:
    for out in wl.outputs:
        out.unlink(missing_ok=True)
    res = run_worker(work, wl.calls, trace)
    errors = []
    for i, call in enumerate(res["calls"]):
        if call["error"] is not None or call["exit"] != 0:
            errors.append(f"call {i}: exit {call['exit']}, {call['error']}")
            continue
        try:
            message = wl.check(i)
        except (OSError, ValueError, KeyError, IndexError, TypeError, csv.Error) as exc:
            message = f"call {i}: unreadable output: {exc!r}"
        if message:
            errors.append(message)
    # The worker calls cli.main once per call, whatever the program does inside.
    if trace and (main_calls := res["trace"]["layers"]["cli.main"]["calls"]) != len(wl.calls):
        raise BenchError(f"traced cli.main ran {main_calls} times, expected {len(wl.calls)}")
    size = sum(out.stat().st_size for out in wl.outputs if out.exists())
    return Body(worker=res, failed=len(errors), output_bytes=size, errors=errors)


def measure(work: Path, wl: Workload, seconds: float, trace: bool) -> list[tuple[Body, Body | None]]:
    """Run bodies back to back until the next one would overrun `seconds`.

    Untraced mode gives (body, None) pairs; traced mode alternates an untraced
    and a traced body, so the tracing overhead is measured on the same seed.
    """
    pairs, cycles = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain = run_body(work, wl, trace=False)
        traced = run_body(work, wl, trace=True) if trace else None
        pairs.append((plain, traced))
        cycles.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(cycles) > seconds:
            return pairs


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def speed_scale(body: Body) -> float:
    """Reference seconds per measured second in this body: CAL_REF_S / calibration time, averaged over its samples.

    The samples are spread evenly over the body's wall time, so their mean
    ratio is the time-averaged speed.
    """
    return statistics.fmean(CAL_REF_S / c for c in body.worker["speed_s"])


def end_to_end(wl: Workload, bodies: list[Body]) -> dict[str, tuple[float, str]]:
    """Medians over the bodies; times are scaled to reference speed (see README, Noise)."""

    def med(key):
        return statistics.median(b.worker[key] * speed_scale(b) for b in bodies)

    wall = med("wall_s")
    latencies = [c["seconds"] * 1000.0 * speed_scale(b) for b in bodies for c in b.worker["calls"]]
    # Import runs right before the first calibration, so that one alone scales it.
    setup = statistics.median(b.worker["setup_s"] * CAL_REF_S / b.worker["calibration_s"][0] for b in bodies)
    return {
        "setup_s": (setup, "s"),
        "wall_s": (wall, "s"),
        "cpu_s": (med("cpu_s"), "s"),
        "peak_rss_mb": (statistics.median(b.worker["peak_rss_mb"] for b in bodies), "MiB"),
        "reps_per_s": (wl.datasets / wall, "1/s"),
        "points_per_s": (wl.points / wall, "1/s"),
        "fit_p50_ms": (statistics.median(latencies), "ms"),
        "fit_p90_ms": (_p90(latencies), "ms"),
    }


def layer_metrics(wl: Workload, body: Body) -> dict[str, float]:
    """Per-layer metrics of one traced body, times scaled to reference speed."""
    layers = body.worker["trace"]["layers"]
    counters = body.worker["trace"]["counters"]
    scale = speed_scale(body)

    def calls(name):
        return layers[name]["calls"]

    def self_s(name):
        return layers[name]["self_s"] * scale

    def per_call(value, name):
        return value / calls(name) if calls(name) else 0.0

    def per_second(value, name):
        return value / (layers[name]["total_s"] * scale) if calls(name) else 0.0

    out = {
        "cli.read_pairs.self_s": self_s("cli.read_pairs"),
        "cli.read_pairs.rows_per_s": per_second(wl.rows_read, "cli.read_pairs"),
        "cli.cmd_fit.self_s": self_s("cli.cmd_fit"),
        "cli.output_bytes": float(body.output_bytes),
        "simlab.loop.self_s": sum(self_s(name) for name in tracing.LOOP_LAYERS),
        "selector.select.models_per_call": per_call(counters.get("selector.select.models", 0.0), "selector.select"),
        "estimation.fit.degenerate": counters.get("estimation.fit.degenerate", 0.0),
        "model_space.project.bytes": counters.get("model_space.project.bytes", 0.0),
        "oracle_checks.lemma11_check.draws": counters.get("oracle_checks.lemma11_check.draws", 0.0),
        "oracle_checks.lemma11_check.draws_per_s": per_second(
            counters.get("oracle_checks.lemma11_check.draws", 0.0), "oracle_checks.lemma11_check"
        ),
    }
    for name in (
        "simlab.sample",
        "simlab.truth",
        "simlab.stream",
        "selector.select",
        "selector.penalty",
        "estimation.fit",
        "estimation.log_likelihood",
        "estimation.kl_divergence",
        "model_space.project",
        "model_space.build_collection",
        "oracle_checks.lemma11_check",
    ):
        out[f"{name}.calls"] = float(calls(name))
        out[f"{name}.self_s"] = self_s(name)
    for name in (
        "estimation.best_approx",
        "estimation.prop1_bounds",
        "oracle_checks.lemma10_check",
        "oracle_checks.prop1_sandwich_check",
    ):
        out[f"{name}.self_s"] = self_s(name)
    for name in ("simlab.sample", "selector.penalty", "estimation.fit"):
        out[f"{name}.unique_frac"] = per_call(layers[name]["unique"], name)
    return out


def per_layer(wl: Workload, pairs: list[tuple[Body, Body]]) -> dict[str, tuple[float, str]]:
    per_body = [layer_metrics(wl, traced) for _, traced in pairs]
    values = {key: statistics.median(m[key] for m in per_body) for key in per_body[0]}
    plain_wall = statistics.median(p.worker["wall_s"] * speed_scale(p) for p, _ in pairs)
    traced_wall = statistics.median(t.worker["wall_s"] * speed_scale(t) for _, t in pairs)
    values["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    return {key: (value, _unit(key)) for key, value in sorted(values.items())}


def _unit(metric: str) -> str:
    for suffix, unit in (
        (".self_s", "s"),
        (".calls", "count"),
        (".unique_frac", "ratio"),
        (".degenerate", "count"),
        (".models_per_call", "count"),
        (".bytes", "bytes"),
        ("output_bytes", "bytes"),
        (".rows_per_s", "rows/s"),
        (".draws_per_s", "draws/s"),
        (".draws", "count"),
        ("overhead_frac", "ratio"),
    ):
        if metric.endswith(suffix):
            return unit
    raise KeyError(metric)


def calls_vs_baseline(wl: Workload, pairs: list) -> dict[str, list[int]]:
    """Layers whose traced call count in the first traced body differs from the baseline: [got, baseline]."""
    traced = next((t for _, t in pairs if t is not None), None)
    if traced is None:
        return {}
    layers = traced.worker["trace"]["layers"]
    return {k: [layers[k]["calls"], v] for k, v in wl.baseline_calls.items() if layers[k]["calls"] != v}


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def _commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository (git is not asked to search above it)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--verify", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def manifest(args, wl: Workload, pairs: list) -> dict:
    cpu_model = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines() if line.startswith("model name")),
        "unknown",
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(str(index / "level")).strip(), _read(str(index / "type")).strip()
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(str(index / "size")).strip()
    source = hashlib.sha256()
    for path in sorted((SRC / "heteroselect").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    bodies = len(pairs)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "cal_ref_s": CAL_REF_S,
        "trace": args.trace,
        "params": wl.params,
        "bodies": bodies,  # traced mode: untraced/traced pairs
        "calls": bodies * len(wl.calls),
        # unscaled measurements of every untraced body, in run order
        "raw": {
            key: [plain.worker[key] for plain, _ in pairs]
            for key in ("setup_s", "wall_s", "cpu_s", "calibration_s", "speed_s", "probe_s", "calls")
        },
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _commit(),
        "source_sha256": source.hexdigest(),
        "thread_env": PIN_ENV,
        "calls_vs_baseline": calls_vs_baseline(wl, pairs),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # Turn SIGTERM into an exception, so the running worker is killed and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "heteroselect" / "cli.py").is_file():
        print(f"perfbench: error: no heteroselect sources under {SRC}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_run" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, work)
        run_worker(work, [], trace=False)  # compile bytecode and warm the file cache
        pairs = measure(work, wl, args.seconds, bool(args.trace))
        bodies = [b for pair in pairs for b in pair if b is not None]
        for body in bodies:
            for error in body.errors:
                print(f"perfbench: check failed: {error}", file=sys.stderr)
        if args.trace:
            metrics = per_layer(wl, pairs)
        else:
            metrics = end_to_end(wl, [plain for plain, _ in pairs])
        failed = sum(b.failed for b in bodies)
        result = {
            "correct": failed == 0,
            "attempted": len(bodies) * len(wl.calls),
            "failed": failed,
            "metrics": {
                key: {"value": value, "unit": unit}
                for key, (value, unit) in metrics.items()
            },
        }
        info = manifest(args, wl, pairs)
        if info["calls_vs_baseline"]:
            print(f"perfbench: note: traced call counts [got, baseline]: {info['calls_vs_baseline']}", file=sys.stderr)
        print(json.dumps({"manifest": info}))
        print(json.dumps(result))
        return 0
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
