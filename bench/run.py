"""commca benchmark: closed-loop, single-process runner for the `commca` CLI.

One client runs jobs back to back; each job is a workload's list of CLI
commands, called in-process through `commca.cli.main(argv)` on input files
generated from the seed.  Every job's outputs are checked outside the timed
region.  The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.

    python3 bench/run.py --workload sim-constant --seed 42 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1 runs
half of the time untraced and half with spans around every layer call, and
reports the per-layer metrics.  --smoke sets up once and runs one job.

Set-up and job times are reported at a fixed reference speed of the host.
The speed of a shared host can change by 1.5-2x from one second to the next
and stay low for tens of seconds, and wall times follow it.  So while the
benchmark sets up and (with --trace 0) runs jobs, a timer interrupts the
process every SAMPLE_INTERVAL_S and times a short loop that does not call the
program (`HostSpeed`).  An interval's time is its wall time minus the samples
taken inside it, scaled by REF_NOMINAL_S over the mean sample time inside it.
The traced half-runs of --trace 1 take no samples, so spans hold only the
program's time.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools to one thread before numpy is imported, so the
# benchmark measures the program and not the scheduler.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import numpy

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
SETUP_REPEATS = 3
SAMPLE_INTERVAL_S = 0.1
# The typical time of one host-speed sample on a 2-vCPU Xeon VM; it only
# sets the scale of the reported job times.
REF_NOMINAL_S = 0.0045

sys.path.insert(0, str(BENCH))
import tracing  # noqa: E402
import workloads  # noqa: E402


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="set up once and run a single job")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def _import_commca() -> None:
    """Import commca from this checkout's src/."""
    if not (SRC / "commca" / "__init__.py").is_file():
        raise ImportError(f"no commca package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import commca.cli

    if Path(commca.__file__).resolve().parent != SRC / "commca":
        raise ImportError(f"commca imported from {commca.__file__}, not {SRC}")


def environment() -> dict:
    import numpy

    model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


_REF_VALUES = [((i * 7919) % 1009) / 7.0 for i in range(2048)]
_REF_HELD = frozenset(range(200, 256))
_REF_SRC = numpy.arange(1 << 18, dtype=numpy.float64)  # 2 MB, more than L2 holds
_REF_DST = numpy.empty_like(_REF_SRC)


def reference_s() -> float:
    """Time a fixed piece of work that does not call the program: list and set
    work on numpy scalars with sorting, a 2 MB array copy, and float formatting
    into one long string.  These are the kinds of work the program's jobs do,
    in cache and out of it.  About 4-5 ms."""
    x, held = numpy.array(_REF_VALUES[:256]), _REF_HELD
    acc = 0.0
    t = perf_counter()
    for u in range(0, 256, 4):
        p = [x[v] if v not in held else 100.0 for v in range(u % 7, 256, 3)]
        p.sort()
        acc += p[len(p) // 2]
    numpy.copyto(_REF_DST, _REF_SRC)
    acc += len("\n".join(f"{u},{u % 7},legitimate,{v!r}" for u, v in enumerate(_REF_VALUES)))
    return perf_counter() - t


class HostSpeed:
    """Samples the host's speed while active: every SAMPLE_INTERVAL_S a timer
    signal runs `reference_s` between two bytecodes of the main thread."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self._old = None

    def _tick(self, signum, frame):
        self.samples.append((perf_counter(), reference_s()))

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def elapsed(self, t0: float) -> float:
        """Seconds since t0 at the reference speed."""
        return self.scaled(t0, perf_counter())

    def scaled(self, t0: float, t1: float) -> float:
        """The time from t0 to t1 without the samples taken in it, at the
        reference speed (unscaled if no sample fell in it)."""
        inside = [d for t, d in self.samples if t0 <= t < t1]
        if not inside:
            return t1 - t0
        return (t1 - t0 - sum(inside)) * REF_NOMINAL_S / statistics.mean(inside)


def run_job(workload) -> list[workloads.Output]:
    """Run one job's commands in order and return their outputs."""
    import commca.cli

    outputs = []
    for argv in workload.commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = commca.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # a crash is a failed job, not a failed benchmark
                traceback.print_exc()
                rc = None
        outputs.append(workloads.Output(rc, out.getvalue(), err.getvalue()))
    return outputs


def _report(label: str, problems: list[str]) -> None:
    for line in problems[:5]:
        print(f"# {label}: {line}", file=sys.stderr)


class Loop:
    """Closed loop over one workload: one job at a time, each checked after it ends.

    With a tracer, each job's spans carry the job's index.  `times` holds the
    wall time of each job; with a `HostSpeed` sampler, `scaled` holds each
    job's time at the reference speed.
    """

    def __init__(self, workload, tracer: tracing.Tracer | None = None,
                 host: HostSpeed | None = None):
        self.workload = workload
        self.tracer = tracer
        self.host = host
        self.times: list[float] = []
        self.scaled: list[float] = []
        self.failed = 0
        self.units = 0

    def job(self) -> None:
        if self.tracer is not None:
            self.tracer.job = len(self.times)
        t0 = perf_counter()
        outputs = run_job(self.workload)
        t1 = perf_counter()
        problems = self.workload.check(outputs)
        self.times.append(t1 - t0)
        if self.host is not None:
            self.scaled.append(self.host.scaled(t0, t1))
        if problems:
            self.failed += 1
            _report(f"job {len(self.times)} failed", problems)
        else:
            self.units += self.workload.units(outputs)
        self.workload.clean()

    def run_for(self, seconds: float, smoke: bool) -> None:
        """Start jobs until `seconds` have passed (at least one; exactly one if smoke)."""
        start = perf_counter()
        while not self.times or (not smoke and perf_counter() - start < seconds):
            self.job()


def setup(args, expected, host: HostSpeed) -> tuple[float, object, bool]:
    """Import, generate inputs and run one warm-up job, several times.

    Returns the median set-up time at the reference speed (import included
    once: a process imports commca once), the workload of the last
    repetition, and whether every warm-up job passed its check.
    """
    t = perf_counter()
    _import_commca()
    import_s = host.elapsed(t)
    reps, ok, workload = [], True, None
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        if workload is not None:
            shutil.rmtree(workload.workdir, ignore_errors=True)
        t = perf_counter()
        workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
        workload = workloads.make(args.workload, args.seed, workdir, expected)
        outputs = run_job(workload)
        reps.append(host.elapsed(t))
        problems = workload.check(outputs)
        if problems:
            ok = False
            _report("warm-up job failed", problems)
        workload.clean()
    return import_s + statistics.median(reps), workload, ok


def measure(args) -> dict:
    expected = json.loads((BENCH / "expected.json").read_text())
    WORK.mkdir(exist_ok=True)
    with HostSpeed() as host:
        setup_s, workload, warm_ok = setup(args, expected, host)
    print("# env " + json.dumps(environment()))
    try:
        if args.trace == 0:
            with host:
                plain = Loop(workload, host=host)
                plain.run_for(args.seconds, args.smoke)
            correct = len(plain.times) - plain.failed
            p50 = statistics.median(plain.scaled)
            metrics = {
                "setup_s": (setup_s, "s"),
                "job_s_p50": (p50, "s"),
                "work_per_s": (plain.units / correct / p50 if correct else 0.0, "units/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "ok_frac": (correct / len(plain.times), "ratio"),
            }
            loops = [plain]
            print(f"# {args.workload}: {len(plain.times)} jobs, wall time median "
                  f"{statistics.median(plain.times):.4f} s, fastest {min(plain.times):.4f} s, "
                  f"times {[round(t, 4) for t in plain.times]}, "
                  f"at reference speed {[round(t, 4) for t in plain.scaled]}, "
                  f"{len(host.samples)} host-speed samples, median "
                  f"{statistics.median(d for _, d in host.samples) * 1e3:.3f} ms")
        else:
            metrics, loops = traced(args, workload)
    finally:
        shutil.rmtree(workload.workdir, ignore_errors=True)
    attempted = sum(len(loop.times) for loop in loops)
    failed = sum(loop.failed for loop in loops)
    return {
        "correct": warm_ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def traced(args, workload):
    """Half the time untraced, half traced; per-layer medians over traced jobs.

    No host-speed sampler runs here, so spans hold only the program's time.
    """
    plain = Loop(workload)
    plain.run_for(args.seconds / 2, args.smoke)
    tracer = tracing.Tracer()
    spanned = Loop(workload, tracer)
    with tracing.Instrumentation(tracer):
        spanned.run_for(args.seconds / 2, args.smoke)
    jobs = list(range(len(spanned.times)))
    tracer.dump(WORK / f"spans-{args.workload}-seed{args.seed}.json")

    layers = tracing.median_layers(tracer, jobs)
    counts, repeated = tracing.job_counts(tracer, jobs)
    if not repeated:
        print("# warning: per-job counts differ between traced jobs", file=sys.stderr)
    rows = counts["protocol.csv_rows"]
    cells = counts["protocol.cells"]
    metrics = {k: (v, "s") for k, v in layers.items() if k != "robustness.cover_s"}
    metrics["protocol.csv_ns_per_row"] = (
        layers["protocol.csv_s"] / rows * 1e9 if rows else 0.0, "ns/row")
    metrics["protocol.run_ns_per_cell"] = (
        layers["protocol.run_s"] / cells * 1e9 if cells else 0.0, "ns/cell")
    metrics["trace.overhead_s"] = (
        statistics.median(spanned.times) - statistics.median(plain.times), "s")
    for name in ("protocol.cells", "protocol.csv_bytes", "robustness.verdicts",
                 "robustness.preservation_subsets", "graph.agents"):
        metrics[name] = (counts[name], "count")

    main_s = layers["cli.main_s"]
    print(f"# {args.workload}: untraced jobs {[round(t, 4) for t in plain.times]}, "
          f"traced jobs {[round(t, 4) for t in spanned.times]}")
    print(f"# shares of cli.main_s={main_s:.4f}s: "
          f"protocol.run {layers['protocol.run_s'] / main_s:.3f}, "
          f"protocol.csv {layers['protocol.csv_s'] / main_s:.3f}, "
          f"robustness.* {layers['robustness.cover_s'] / main_s:.3f}")
    per_command = [tracer.command_times(j) for j in jobs]
    for i, label in enumerate(workload.labels):
        row = {k: statistics.median(c[i][k] for c in per_command) for k in per_command[0][i]}
        print(f"# command {label}: " + ", ".join(f"{k} {v:.4f}s" for k, v in row.items()))
    return metrics, [plain, spanned]


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        result = measure(args)
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
