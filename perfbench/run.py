"""hybridcorr benchmark: drives ``hybridcorr.cli.main(argv)`` in-process.

    python3 perfbench/run.py --workload agree3 --seed 1 --seconds 10 --trace 0

One single-threaded closed loop: each operation (one ``cli.main`` call)
starts when the previous one has returned.  A run repeats whole passes over
the workload's operations until the time spent inside ``cli.main`` reaches
``--seconds``, and checks every verdict against its known answer.  The last
line of standard output is one JSON object: the end-to-end metrics with
``--trace 0``, the per-layer metrics (from spans around each module's public
functions) with ``--trace 1``.  The exit code is 0 only when every
operation gave its known answer.  See perfbench/README.md.

End-to-end times are scaled to a reference machine speed, measured by
fixed pure-Python work that runs every 0.2 s throughout the run (see
SpeedProbe); the raw figures are printed on the summary line.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
HASH_SEED = "0"
SETUP_REPEATS = 3
PROBE_INTERVAL_S = 0.2
# What one probe sample takes on the reference machine.  Scaled times are
# raw times multiplied by PROBE_REFERENCE_S / (mean probe sample).
PROBE_REFERENCE_S = 0.003

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s.p50": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Enumeration caps handed to hybridcorr through its environment
    # variables; the defaults are the acceptance suite's.
    p.add_argument("--max-nominals", type=int, default=12)
    p.add_argument("--max-enum", type=int, default=50_000_000)
    return p.parse_args(argv)


def fresh_import() -> None:
    """Import hybridcorr from this checkout's src/, dropping any copy
    already loaded."""
    for name in [m for m in sys.modules if m == "hybridcorr" or m.startswith("hybridcorr.")]:
        del sys.modules[name]
    cli = importlib.import_module("hybridcorr.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"hybridcorr was imported from {cli.__file__}, not from {SRC}")


_PROBE_FNS = tuple(lambda env, k=k: (env[k] & env[(k + 1) % 8]) | (env[k] >> 1) for k in range(8))


def probe_work() -> None:
    """Fixed pure-Python work of the kinds hybridcorr's evaluators do:
    integer arithmetic, closure calls over a list, dict and str allocation."""
    acc = 0
    for i in range(20_000):
        acc += i * i
    env = list(range(8))
    for _ in range(250):
        for f in _PROBE_FNS:
            acc ^= f(env)
    table = {}
    for i in range(3_000):
        table[i & 255] = (i, str(i & 63))


class SpeedProbe:
    """Times probe_work() every PROBE_INTERVAL_S seconds, from a SIGALRM
    handler, for as long as it is entered.

    The machine the benchmark was defined on is shared: the same loop took
    anywhere from 0.44 s to 1.09 s within half an hour, in phases lasting
    from under a second to many minutes.  Over ten seeds per workload,
    scaling by the probe's mean sample time cut the spread of ops_per_s and
    op_s.p50 (interquartile range over median) from 0.09-0.25 to 0.04-0.12.
    The probe's own time is subtracted from every latency it interrupts.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.total = 0.0

    def sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        probe_work()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.total += dt

    def __enter__(self) -> SpeedProbe:
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self) -> float:
        """Factor turning a raw duration into one at the reference speed."""
        return PROBE_REFERENCE_S / statistics.fmean(self.samples)


class Runner:
    """Runs operations and records their latencies and failures."""

    def __init__(self, probe: SpeedProbe, tracer=None):
        self.probe = probe
        self.tracer = tracer
        self.latencies: list[float] = []
        self.failures: list[str] = []

    def execute(self, op, op_id: int) -> bool:
        out, err = io.StringIO(), io.StringIO()
        escaped = None
        if self.tracer is not None:
            self.tracer.begin_op(op_id)
        main = sys.modules["hybridcorr.cli"].main
        probed = self.probe.total
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(list(op.argv))
        except (Exception, SystemExit):
            # An exception escaping cli.main is a failed operation, not the
            # end of the run.
            rc, escaped = None, traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - t0 - (self.probe.total - probed)
        self.latencies.append(elapsed)
        problem = escaped
        if problem is None and rc != op.expect_rc:
            problem = f"exit code {rc}, expected {op.expect_rc}: {err.getvalue().strip()[:200]}"
        if problem is None:
            try:
                problem = op.check(out.getvalue())
            except (ValueError, KeyError, TypeError) as e:
                problem = f"unreadable output ({e!r})"
        if problem is not None:
            self.failures.append(f"{op.label}: {problem}")
        return problem is None


def setup(workload_name: str, seed: int, probe: SpeedProbe):
    """Import hybridcorr, build the workload's inputs and run its warm-up
    operation.  Returns the workload and the seconds it took."""
    probed = probe.total
    t0 = time.perf_counter()
    fresh_import()
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name](seed)
    warm = Runner(probe)
    if not warm.execute(workload.warmup, -1):
        raise RuntimeError(f"warm-up operation failed: {warm.failures[0]}")
    return workload, time.perf_counter() - t0 - (probe.total - probed)


def percentile(sorted_values: list[float], q: float) -> float:
    k = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[k]


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    os.environ["HYBRIDCORR_MAX_NOMINALS"] = str(args.max_nominals)
    os.environ["HYBRIDCORR_MAX_ENUM"] = str(args.max_enum)
    sys.path.insert(0, str(SRC))

    with SpeedProbe() as probe:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            workload, seconds = setup(args.workload, args.seed, probe)
            setup_times.append(seconds)

        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        runner = Runner(probe, tracer)
        passes = 0
        op_id = 0
        while passes == 0 or sum(runner.latencies) < args.seconds:
            if tracer is not None:
                tracer.begin_pass()
            for op in workload.ops:
                runner.execute(op, op_id)
                op_id += 1
            passes += 1
        if tracer is not None:
            tracer.uninstall()

    lat = sorted(runner.latencies)
    attempted, failed = len(lat), len(runner.failures)
    busy = sum(lat)
    scale = probe.scale()
    above_p90 = attempted - 1 - int(0.9 * attempted)
    p90 = (
        f"{percentile(lat, 0.9) * scale:.6f} s" if above_p90 >= 10
        else "not reported (fewer than 10 samples above it)"
    )
    print(
        f"workload={args.workload} seed={args.seed} passes={passes} ops={attempted} "
        f"failed={failed} failed_ratio={failed / attempted:.6f} op_s.p90={p90} "
        f"samples={attempted} caps: HYBRIDCORR_MAX_NOMINALS={args.max_nominals} "
        f"HYBRIDCORR_MAX_ENUM={args.max_enum}"
    )
    print(
        f"raw (unscaled): setup_s={statistics.median(setup_times):.6f} "
        f"ops_per_s={attempted / busy:.6f} op_s.p50={statistics.median(lat):.6f} "
        f"scale={scale:.4f} from {len(probe.samples)} probe samples"
    )
    for line in runner.failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)

    if args.trace:
        layers = tracing.layer_metrics(tracer, passes)
        layers["trace.ops_per_s"] = attempted / busy / scale
        metrics = {
            name: {"value": value, "unit": tracing.PER_LAYER[name]}
            for name, value in layers.items()
        }
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"{args.workload}.spans.tsv")
    else:
        values = {
            "setup_s": statistics.median(setup_times) * scale,
            "ops_per_s": attempted / busy / scale,
            "op_s.p50": statistics.median(lat) * scale,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    # Fix string hashing before anything runs, so that set iteration order,
    # and with it every count the traced run reports, repeats exactly.
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]])
    sys.exit(main())
