"""Run one workload body in a fresh interpreter and report what it cost.

    python3 perfbench/worker.py SPEC.json RESULT.json

SPEC.json holds `{"calls": [[cli args...], ...], "trace": bool}`.  The worker
times a cold `import heteroselect.cli` (only `signal`, `sys` and `time` are loaded
before it), then runs `heteroselect.cli.main` once per entry of `calls` and
writes wall, CPU, peak RSS, per-call latency and exit codes to RESULT.json.

Wall times are taken on `run_clock`: elapsed time minus the time the process
sat runnable but waiting for a CPU, so other processes on a shared machine do
not show up as the program's time.  While the body runs, a SIGALRM timer
samples the machine's speed with a short calibration every `PROBE_PERIOD_S`;
the time spent in those samples is taken out of the body's times.
With `"trace": true` it first wraps the modules' public functions (see
`tracing.py`) and adds the per-layer summary.
"""

import signal
import sys
import time

PROBE_PERIOD_S = 0.25
PROBE_ROUNDS = 100


def _waited_s() -> float:
    """Seconds this process has been runnable but waiting for a CPU; 0 where Linux schedstat is missing."""
    try:
        with open("/proc/self/schedstat") as fh:
            return int(fh.read().split()[1]) / 1e9
    except (OSError, IndexError, ValueError):
        return 0.0


def run_clock() -> float:
    """`time.perf_counter` that stops while the process waits for a CPU."""
    return time.perf_counter() - _waited_s()


def _cpu_seconds(resource) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def calibrate(np, rounds: int = 1000) -> float:
    """Seconds per 1000 rounds of a fixed mix of interpreter work and small numpy calls, like the program's."""
    x = np.linspace(0.5, 1.5, 1024)
    start = run_clock()
    total = 0.0
    for _ in range(rounds):
        total += float(np.sum((x - x.mean()) ** 2 / x))
    return (run_clock() - start) * 1000 / rounds


class SpeedProbe:
    """Samples `calibrate` every PROBE_PERIOD_S of wall time while the body runs.

    The machine's speed can change within one body, so a calibration at each
    end is not enough.  The handler runs between bytecodes of the program, in
    its thread; `spent` is the time it took, to be taken out of the body.
    """

    def __init__(self, np):
        self.np = np
        self.samples = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        start = run_clock()
        self.samples.append(calibrate(self.np, PROBE_ROUNDS))
        self.spent += run_clock() - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main() -> int:
    spec_path, result_path = sys.argv[1:3]
    start = run_clock()
    import heteroselect.cli

    setup_s = run_clock() - start

    import json
    import resource

    import numpy as np

    with open(spec_path) as fh:
        spec = json.load(fh)
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    calls = []
    cal_before = calibrate(np)
    cpu0 = _cpu_seconds(resource)
    wall0 = run_clock()
    with SpeedProbe(np) as probe:
        for argv in spec["calls"]:
            t0, spent0 = run_clock(), probe.spent
            try:
                code, error = heteroselect.cli.main(argv), None
            except Exception as exc:  # reported as a failed operation, not a crashed worker
                code, error = None, f"{type(exc).__name__}: {exc}"
            seconds = run_clock() - t0 - (probe.spent - spent0)
            calls.append({"seconds": seconds, "exit": code, "error": error})
    wall_s = run_clock() - wall0 - probe.spent
    cpu_s = _cpu_seconds(resource) - cpu0 - probe.spent
    cal_after = calibrate(np)

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calls": calls,
        "calibration_s": [cal_before, cal_after],
        # speed samples in time order: the two calibrations and the probes between them
        "speed_s": [cal_before, *probe.samples, cal_after],
        "probe_s": probe.spent,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
