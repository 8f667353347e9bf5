"""qfluct benchmark: one workload, one client, closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload holevo-sweep --seed 1 --seconds 25 --trace 0

--trace 0 measures the end-to-end metrics; --trace 1 runs each operation
untraced and traced, back to back, and reports per-layer call counts, self
times and the tracing overhead.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A results file with the environment
is written to .perfbench_results/ in the working directory.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported, so that every run uses the same BLAS threads.
BLAS_THREADS = 2
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(HERE)]

# Listed here rather than taken from workloads.py: importing that module imports
# qfluct, which belongs inside the timed set-up.
WORKLOAD_NAMES = ("holevo-campaign", "holevo-sweep", "channel-verify", "cli-scenarios")
MIN_OPS = 100          # at least 10 samples beyond p90
SETUP_PROBES = 4       # fresh-interpreter set-ups before and again after the timed phase
MAX_MEASURE_S = 120.0  # stop a timed phase here even if MIN_OPS is not reached
WAIT_NOTE = "no layer queues or retries work, so there is no waiting time to report"


def timed_setup(workload: str, seed: int, tmp: Path):
    """Import qfluct and build the workload's inputs; returns (seconds, workload)."""
    start = time.perf_counter()
    import qfluct  # noqa: F401
    import qfluct.cli  # noqa: F401
    import workloads

    wl = workloads.build(workload, seed, tmp)
    return time.perf_counter() - start, wl


def setup_probe(workload: str, seed: int) -> float:
    """One set-up in a fresh interpreter, as a user pays it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Pass:
    """Latencies and failures of one pass over operations."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.failures: dict[int, str] = {}  # operation index -> reason


def rounds(wl, seconds: float, min_ops: int):
    """Operation indices 0, 1, ... of a closed loop.

    Stops at the first whole round of the input mix after `seconds` of wall
    time with at least `min_ops` done, or after MAX_MEASURE_S.
    """
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if i % wl.cycle == 0 and ((elapsed >= seconds and i >= min_ops) or elapsed >= MAX_MEASURE_S):
            return
        yield i
        i += 1


def timed(call, i: int):
    """Run call(i); returns (seconds, result, reason), with a reason if it raised."""
    t0 = time.perf_counter()
    try:
        result, reason = call(i), None
    except Exception as exc:  # an operation that raises counts as failed
        result, reason = None, f"raised {exc!r}"
    return time.perf_counter() - t0, result, reason


def verdict(wl, i: int, result, reason: str | None) -> str | None:
    """Reason operation i failed, or None; runs the check outside the timer."""
    if reason is None:
        try:
            reason = wl.check(i, result)
        except Exception as exc:
            reason = f"check raised {exc!r}"
    return reason


def measure(wl, seconds: float, min_ops: int, checked: bool = True) -> Pass:
    out = Pass()
    for i in rounds(wl, seconds, min_ops):
        latency, result, reason = timed(wl.run, i)
        out.latencies.append(latency)
        if checked:
            reason = verdict(wl, i, result, reason)
        if reason:
            out.failures[i] = reason
    return out


def measure_traced(wl, seconds: float, tracer) -> tuple[Pass, Pass]:
    """Run each operation untraced and traced, back to back.

    The wrappers are installed only around the traced run, and every second
    round runs the traced one first, so that both passes see the same host
    speed and the same cache state.  The traced result must be bit-identical
    to the untraced one and its root span must cover its children.
    """
    untraced, traced = Pass(), Pass()

    def traced_run(i):
        tracer.install()
        try:
            return tracer.root(wl.run, i)
        finally:
            tracer.uninstall()

    for i in rounds(wl, seconds, wl.cycle):
        if (i // wl.cycle) % 2:
            t_latency, t_out, t_reason = timed(traced_run, i)
            u_latency, u_result, u_reason = timed(wl.run, i)
        else:
            u_latency, u_result, u_reason = timed(wl.run, i)
            t_latency, t_out, t_reason = timed(traced_run, i)
        t_result, duration, covered = t_out if t_reason is None else (None, 0.0, 0.0)
        untraced.latencies.append(u_latency)
        traced.latencies.append(t_latency)
        u_reason = verdict(wl, i, u_result, u_reason)
        t_reason = verdict(wl, i, t_result, t_reason)
        if t_reason is None and u_reason is None and wl.fingerprint(u_result) != wl.fingerprint(t_result):
            t_reason = "traced result differs from untraced"
        if t_reason is None and covered > duration:
            t_reason = f"child spans cover {covered!r} s of a {duration!r} s root span"
        if u_reason:
            untraced.failures[i] = u_reason
        if t_reason:
            traced.failures[i] = t_reason
    return untraced, traced


def percentile_ms(latencies: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile, in ms.

    A weighted mean of all order statistics, with the weights of a Beta
    distribution centred on p.  Where p falls between two inputs of the mix
    with different costs (p50 of holevo-sweep lies between its n=64 and n=96
    instances), it blends the neighbouring samples on both sides instead of
    reading one extreme sample.
    """
    import numpy as np
    from scipy.special import betainc

    x = np.sort(np.asarray(latencies))
    n = len(x)
    edges = betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), x)) * 1e3


def end_to_end(run: Pass, setup_s: float, rss_mib: float) -> dict:
    lat = run.latencies
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(lat) / sum(lat), "ops/s"),
        "op_ms_p50": (percentile_ms(lat, 0.5), "ms"),
        "op_ms_p90": (percentile_ms(lat, 0.9), "ms"),
        "peak_rss_mib": (rss_mib, "MiB"),
    }


def instance_medians(wl, run: Pass) -> dict:
    """Median latency of each labelled instance (holevo-sweep's per-size analyze times)."""
    import workloads

    out = {}
    for *_, label in workloads.SWEEP_SHAPES:
        times = [t for i, t in enumerate(run.latencies) if wl.group and wl.group(i) == label]
        out[f"holevo.analyze.{label}_ms"] = (statistics.median(times) * 1e3 if times else 0.0, "ms")
    return out


def per_layer(wl, untraced: Pass, traced: Pass, tracer) -> dict:
    import tracer as tracing

    n = len(traced.latencies)
    metrics = {}
    for name in tracing.SPAN_NAMES:
        metrics[f"{name}.calls_per_op"] = (tracer.calls[name] / n, "calls/op")
        metrics[f"{name}.self_ms_per_op"] = (tracer.self_s[name] * 1e3 / n, "ms/op")
    metrics.update(instance_medians(wl, untraced))
    overhead = sum(traced.latencies) / sum(untraced.latencies) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "frac")
    return metrics


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "blas_threads": BLAS_THREADS,
        "blas_threads_runtime": _blas_runtime_threads(np),
        "nproc": os.cpu_count(),
        "nproc_available": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "platform": platform.platform(),
    }


def _blas_runtime_threads(np) -> int | None:
    """Thread count OpenBLAS reports, when numpy bundles scipy-openblas."""
    import ctypes

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        try:
            fn = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return int(fn())
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "qfluct" / "__init__.py").is_file():
        print(f"error: qfluct sources not found under {SRC}", file=sys.stderr)
        return 2

    tmp = Path(tempfile.mkdtemp(prefix=".perfbench_tmp-", dir=Path.cwd()))
    try:
        setup_s, wl = timed_setup(args.workload, args.seed, tmp)
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        setup_samples = []
        if args.trace == 0:
            # Fresh-interpreter set-ups before and after the timed phase, so
            # that their median spans the run rather than one moment of the
            # host's speed.
            setup_samples += [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        # Warm-up: one round, untimed, unchecked and unreported.  The checks
        # load scipy, which qfluct never imports, so peak memory is read here:
        # set-up plus one round of every input of the mix.
        measure(wl, 0.0, wl.cycle, checked=False)
        rss_mib = peak_rss_mib()

        if args.trace == 0:
            run = measure(wl, args.seconds, MIN_OPS)
            setup_samples += [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
            metrics = end_to_end(run, statistics.median(setup_samples), rss_mib)
            extra = instance_medians(wl, run) if wl.group else {}
            attempted = len(run.latencies)
            failures = [f"op {i}: {reason}" for i, reason in run.failures.items()]
            notes = {"op_ms_samples": len(run.latencies)}
        else:
            import tracer as tracing

            tracer = tracing.Tracer()
            untraced, traced = measure_traced(wl, args.seconds, tracer)
            failures = [f"untraced op {i}: {r}" for i, r in untraced.failures.items()]
            failures += [f"traced op {i}: {r}" for i, r in traced.failures.items()]
            metrics = per_layer(wl, untraced, traced, tracer)
            extra = {}
            attempted = len(untraced.latencies) + len(traced.latencies)
            notes = {"op_ms_samples": len(traced.latencies), "wait_time": WAIT_NOTE}
            if not wl.group:
                notes["holevo.analyze.n*_ms"] = "this workload runs no holevo-sweep instance; reported as 0"
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "setup_samples_s": setup_samples,
        "peak_rss_end_mib": peak_rss_mib(),
        "notes": notes,
        "instance_medians": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "failures": failures[:20],
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    results = Path.cwd() / ".perfbench_results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-trace{args.trace}-seed{args.seed}.json").write_text(json.dumps(record, indent=2) + "\n")

    for key, value in notes.items():
        print(f"# {key}: {value}")
    for failure in failures[:5]:
        print(f"# FAILED {failure}")
    for k, (v, u) in extra.items():
        print(f"# {k} {v:.6g} {u}")
    for k, (v, u) in metrics.items():
        print(f"{k} {v:.6g} {u}")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
