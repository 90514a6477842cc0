"""Command-line front end: fit user data, run simulation campaigns, verify oracles.

Defaults mirror the benchmark settings (n=1024, theta=2, epsilon=0.01,
delta=3, gamma grid {1, 1.5, 2, 2.5, 3}, 500 repetitions), so a bare
invocation of `table` reproduces the reference experiments.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import sys
import warnings
from collections.abc import Iterable, Iterator

import numpy as np

from .estimation import KAPPA, DegenerateVarianceError, Observations
from .model_space import DELTA, EPSILON, THETA, CollectionConfig, check_reps
from .oracle_checks import (
    InverseMomentCase,
    lemma10_battery,
    lemma11_battery,
    lemma11_check,
    prop1_sandwich_check,
)
from .selector import select
from .simlab import (
    RISK_KINDS,
    SeedPolicy,
    builtin_scenarios,
    convergence_experiment,
    get_scenario,
    lipschitz_scenario,
    ratio_table,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VERIFY = 3

#: The fewest draws `verify --reps` accepts: its checks' tolerances assume at least this many.
VERIFY_MIN_REPS = 100_000


class InputError(ValueError):
    """A problem with input data or flags that the library does not check itself, or one whose library
    check the CLI repeats (`--kappa`) so that the message names the flag and fires before any work.
    `--reps` goes through the library's own `check_reps` under its flag name."""


def _resolve_seed(args) -> int:
    env = os.environ.get("HETEROSELECT_SEED")
    if env is None:
        seed, source = args.seed, "--seed"
    else:
        try:
            seed, source = int(env), "HETEROSELECT_SEED"
        except ValueError as exc:
            raise InputError(f"HETEROSELECT_SEED must be an integer, got {env!r}") from exc
    if seed < 0:
        raise InputError(f"{source} must be non-negative, got {seed}")
    return seed


def _lines_within_field_limit(path: str) -> bool:
    """Whether no line of the file is past `csv.field_size_limit()` characters, which `np.loadtxt`
    does not check: true when each whole block of half that many bytes holds a line break, as a
    longer line covers one (so a line between half the limit and the limit fails too)."""
    size = max(csv.field_size_limit() // 2, 1)
    with open(path, "rb") as fh:
        return all(len(b) < size or b"\n" in b or b"\r" in b for b in iter(lambda: fh.read(size), b""))


def _read_pairs(path: str) -> tuple[np.ndarray, np.ndarray]:
    """The two columns of a `y1,y2` CSV file, as contiguous float arrays.

    `np.loadtxt` parses the data rows when it can.  On a file with no line past
    the csv module's field size limit, it accepts a strict subset of the row
    loop's dialect, with bit-equal values.  Anything it rejects or reads as
    other than at least one row of two finite columns, and any file that may
    hold a longer line, goes through the row loop, which defines the dialect
    and reports the offending line.  A UTF-8 byte-order mark before the header
    (Excel's "CSV UTF-8") is skipped.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip().lower() for h in header] != ["y1", "y2"]:
                raise InputError(f"{path}: expected CSV header 'y1,y2', got {header}")
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
                    data = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None, dtype=float)
            except ValueError:
                data = None
            parsed = data is not None and data.shape[0] > 0 and data.shape[1] == 2 and np.isfinite(data).all()
            if parsed and _lines_within_field_limit(path):
                y1, y2 = data.T.copy()
                return y1, y2
            fh.seek(0)
            reader = csv.reader(fh)
            next(reader)
            y1, y2 = [], []
            for row in reader:
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != 2:
                    raise InputError(f"{path}:{reader.line_num}: expected two columns, got {len(row)}")
                try:
                    a, b = float(row[0]), float(row[1])
                except ValueError as exc:
                    raise InputError(f"{path}:{reader.line_num}: malformed number") from exc
                if not (math.isfinite(a) and math.isfinite(b)):
                    raise InputError(f"{path}:{reader.line_num}: non-finite value")
                y1.append(a)
                y2.append(b)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except csv.Error as exc:  # a field past csv.field_size_limit(); on Python 3.10, a NUL byte
        raise InputError(f"{path}:{reader.line_num}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    if not y1:
        raise InputError(f"{path}: no data rows")
    return np.array(y1), np.array(y2)


def _power_of_two_length(y1, y2, truncate: bool):
    n = len(y1)
    if n & (n - 1) == 0:
        return y1, y2
    lower = 1 << (n.bit_length() - 1)
    upper = lower * 2
    if not truncate:
        raise InputError(
            f"row count {n} is not a power of two: supply {upper} rows or pass "
            f"--truncate to use the first {lower}"
        )
    print(f"warning: truncating {n} rows to {lower}", file=sys.stderr)
    return y1[:lower], y2[:lower]


def _write_text(path: str | None, pieces: Iterable[str]) -> None:
    """Write the strings of `pieces` in turn to `path`, or to stdout when it is None or '-'."""
    if path is None or path == "-":
        try:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()
        except BrokenPipeError:
            # A reader that closes the pipe early (`fit ... | head`) is no error of the command: stop
            # writing, and send what stdout still buffers to the null device, so the exit flush holds.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    else:
        try:
            with open(path, "w", newline="") as fh:
                fh.writelines(pieces)
        except OSError as exc:
            raise InputError(f"cannot write {path}: {exc}") from exc


def _records_text(records, fmt: str) -> str:
    """NamedTuple records of one type as a JSON list of their fields, or as CSV: a header
    of the field names, then one line per record, each value its `repr` (a str as is)."""
    if fmt == "json":
        return json.dumps([r._asdict() for r in records], indent=2) + "\n"
    lines = [",".join(records[0]._fields)]
    lines += [",".join(v if isinstance(v, str) else repr(v) for v in r) for r in records]
    return "\n".join(lines) + "\n"


#: About how many characters each piece of `_json_runs` holds: the output is written as it is
#: formatted, never held whole, while small runs are batched into one write.
_PIECE_CHARS = 1 << 16


def _json_runs(blocks: np.ndarray, n: int) -> Iterator[str]:
    """Pieces of about `_PIECE_CHARS` characters that join to the length-n vector repeating each
    of `blocks` n // len(blocks) times, as `json.dumps(indent=2)` lays out a list inside the
    payload dict.  Each block is formatted once, by `float.__repr__`: what `json.dumps` writes
    for a finite float, and `select` only returns an estimate with a finite criterion."""
    sep = ",\n    "
    run = n // len(blocks)
    values = blocks.tolist()
    piece, room = ["[\n    "], _PIECE_CHARS
    for i, v in enumerate(values):
        item = float.__repr__(v) + sep
        left = run - (i == len(values) - 1)  # the last value closes the list instead
        while left:
            count = min(left, max(room // len(item), 1))
            piece.append(item * count)
            left -= count
            room -= count * len(item)
            if room <= 0:
                yield "".join(piece)
                piece, room = [], _PIECE_CHARS
    piece.append(float.__repr__(values[-1]) + "\n  ]")
    yield "".join(piece)


def cmd_fit(args) -> int:
    y1, y2 = _read_pairs(args.input)
    y1, y2 = _power_of_two_length(y1, y2, args.truncate)
    obs = Observations(y1=y1, y2=y2)
    cfg = CollectionConfig(obs.n, args.gamma, args.theta, args.epsilon, args.delta)
    result = select(cfg, obs)
    chosen, est = result.chosen, result.estimate
    chosen_audit = next(a for a in result.per_model if a.model is chosen)
    # The vectors are written in place of these placeholders: the same bytes as
    # dumping them whole, without formatting n floats or holding the document.
    payload = {
        "model": chosen.describe(),
        "mean": "@mean",
        "variance": "@variance",
        "criterion": result.criterion_value,
        "penalty": chosen_audit.penalty,
        "likelihood": chosen_audit.likelihood,
    }
    if not args.quiet:
        payload["audit"] = [
            {**a.model.describe(), "likelihood": a.likelihood, "penalty": a.penalty, "criterion": a.criterion}
            for a in result.per_model
        ]
    head, rest = json.dumps(payload, indent=2).split('"@mean"', 1)
    middle, tail = rest.split('"@variance"', 1)
    pieces = itertools.chain(
        [head], _json_runs(est.block_mean, chosen.n), [middle], _json_runs(est.block_variance, chosen.n), [tail, "\n"]
    )
    _write_text(args.output, pieces)
    return EXIT_OK


def _parse_list(text: str, kind=float) -> list:
    """The comma-separated entries of `text`, each stripped and parsed by `kind`; blank entries are skipped."""
    try:
        return [kind(t.strip()) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise InputError(f"malformed numeric list {text!r}") from exc


def cmd_table(args) -> int:
    seed = _resolve_seed(args)
    if args.scenario.strip() == "all":
        scenarios = builtin_scenarios()
    else:
        try:
            scenarios = _parse_list(args.scenario, get_scenario)
        except KeyError as exc:  # str() of a KeyError is the repr of its message
            raise InputError(exc.args[0]) from exc
    cells = ratio_table(
        scenarios,
        _parse_list(args.gamma_grid),
        n=args.n,
        reps=check_reps("--reps", args.reps, 2),
        seeds=SeedPolicy(seed),
        kind=args.kind,
        theta=args.theta,
        epsilon=args.epsilon,
        delta=args.delta,
    )
    _write_text(args.output, [_records_text(cells, args.format)])
    return EXIT_OK


def cmd_convergence(args) -> int:
    seed = _resolve_seed(args)
    scenario = lipschitz_scenario()
    result = convergence_experiment(
        scenario,
        _parse_list(args.n_grid, int),
        reps=check_reps("--reps", args.reps, 2),
        seeds=SeedPolicy(seed),
        theta=args.theta,
        epsilon=args.epsilon,
        delta=args.delta,
    )
    if args.format == "json":
        text = json.dumps({**result._asdict(), "points": [p._asdict() for p in result.points]}, indent=2) + "\n"
    else:
        text = _records_text(result.points, "csv") + f"# slope,{result.slope!r}\n"
    _write_text(args.output, [text])
    print(f"fitted log-log slope: {result.slope:.4f}", file=sys.stderr)
    return EXIT_OK


def _count_check(name: str, key: str, results) -> dict:
    """A check that passes when every result holds, with the number of results under `key`."""
    failures = sum(not r.holds for r in results)
    return {"name": name, "passed": failures == 0, key: len(results), "failures": failures}


def cmd_verify(args) -> int:
    seed = _resolve_seed(args)
    seeds = SeedPolicy(seed)
    kappa = args.kappa
    check_reps("--reps", args.reps, VERIFY_MIN_REPS)
    if not (math.isfinite(kappa) and kappa > 0):
        raise InputError(f"--kappa must be finite and > 0, got {kappa}")

    # First: constants that admit no sandwich model fail in its collection, before any draw.
    entries = prop1_sandwich_check(
        get_scenario("M1"),
        n=args.n,
        reps=args.reps // 50,
        seeds=seeds.namespaced(3),
        theta=args.theta,
        epsilon=args.epsilon,
        delta=args.delta,
    )
    exact = lemma11_check(
        InverseMomentCase(a=np.zeros(4), b=np.ones(4)),
        reps=args.reps,
        seeds=seeds.namespaced(0),
        kappa=kappa,
    )
    battery = lemma11_battery(50, reps=args.reps // 10, seeds=seeds.namespaced(1), kappa=kappa)
    spectrum = lemma10_battery(100, n=64, seeds=seeds.namespaced(2))
    checks = [
        {
            "name": "inverse_moment_exact_chi_square",
            "passed": bool(exact.holds and abs(exact.mc_estimate - 0.5) <= 4.0 * exact.std_error),
            "mc_estimate": exact.mc_estimate,
            "bound": exact.bound,
            "std_error": exact.std_error,
        },
        _count_check("inverse_moment_random_battery", "cases", battery),
        _count_check("compressed_spectrum_battery", "cases", spectrum),
        _count_check("risk_sandwich_m1", "models", entries),
    ]
    passed = all(c["passed"] for c in checks)
    _write_text(args.output, [json.dumps({"passed": passed, "checks": checks}, indent=2) + "\n"])
    if not passed:
        failed = ", ".join(c["name"] for c in checks if not c["passed"])
        print(f"verification failed: {failed} failed", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heteroselect",
        description="Mean/variance estimation by penalized model selection, with a simulation lab.",
    )
    # No prefix matching: `table --gamma` would silently mean `--gamma-grid`.
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, needs_seed=True, needs_n=True):
        if needs_n:
            p.add_argument("--n", type=int, default=1024, help="sample size (power of two)")
        p.add_argument("--theta", type=float, default=THETA)
        p.add_argument("--epsilon", type=float, default=EPSILON)
        p.add_argument("--delta", type=float, default=DELTA)
        p.add_argument("--output", default=None, help="output path (default stdout)")
        if needs_seed:
            p.add_argument("--seed", type=int, default=0, help="master seed (HETEROSELECT_SEED overrides)")

    p_fit = sub.add_parser("fit", help="select a model for a y1,y2 CSV file", allow_abbrev=False)
    add_common(p_fit, needs_seed=False, needs_n=False)
    p_fit.add_argument("--gamma", type=float, default=2.0, help="variance-ratio bound")
    p_fit.add_argument("--input", required=True, help="CSV with header y1,y2")
    p_fit.add_argument("--truncate", action="store_true", help="truncate to the largest power of two")
    p_fit.add_argument("--quiet", action="store_true", help="omit the per-model audit table")
    p_fit.set_defaults(func=cmd_fit)

    p_table = sub.add_parser(
        "table", help="risk-ratio table over scenarios and gamma values", allow_abbrev=False
    )
    add_common(p_table)
    p_table.add_argument("--scenario", default="all", help="comma-separated scenario names or 'all'")
    p_table.add_argument("--gamma-grid", default="1,1.5,2,2.5,3")
    p_table.add_argument("--reps", type=int, default=500)
    p_table.add_argument("--kind", choices=RISK_KINDS, default="kullback")
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")
    p_table.set_defaults(func=cmd_table)

    p_conv = sub.add_parser(
        "convergence", help="normalized-risk decay along a grid of sample sizes", allow_abbrev=False
    )
    add_common(p_conv, needs_n=False)
    p_conv.add_argument("--n-grid", default="256,512,1024,2048,4096,8192,16384")
    p_conv.add_argument("--reps", type=int, default=100)
    p_conv.add_argument("--format", choices=("csv", "json"), default="csv")
    p_conv.set_defaults(func=cmd_convergence)

    p_verify = sub.add_parser("verify", help="run the verification oracle batteries", allow_abbrev=False)
    add_common(p_verify)
    p_verify.add_argument(
        "--reps",
        type=int,
        default=VERIFY_MIN_REPS,
        help=f"draws of the exact inverse-moment check, at least {VERIFY_MIN_REPS:,}; "
        "the random battery uses reps/10 per case and the risk sandwich reps/50",
    )
    p_verify.add_argument("--kappa", type=float, default=KAPPA)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # The one error policy: a bad flag or input, found here or by the library, is exit 2.
    try:
        return args.func(args)
    except (ValueError, DegenerateVarianceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
