"""End-to-end and per-layer benchmark of the trijunction CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload protocol-coupler-n3 --seed 1 \\
        --seconds 20 --trace 0

One closed-loop caller drives ``trijunction.cli.main(argv)`` in this process:
each pass runs the workload's command lines back to back, and the next pass
starts when the previous one has returned.  Every pass is checked (see
``workloads.check``).  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it wraps the chain's functions (see
``tracing.py``) and reports the per-layer metrics instead.  Earlier stdout
lines are JSON run records (environment, pass statistics, self-time table);
the last line is the result object.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from tracing import PER_LAYER_UNITS, Tracer, layer_metrics, self_time_table  # noqa: E402
from workloads import WORKLOADS, check, draw_gaps, load_reference, payload, run_commands  # noqa: E402

SETUP_REPEATS = 9
# Fresh interpreter: import the package and run one 1-qubit rotation (the
# kernel's JIT warm-up when numba is present), timed from inside.
SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import numpy as np
import trijunction
from trijunction import kernels
kernels.apply_rotation(np.array([1.0, 0.0], dtype=complex), 1, 1, 0, 0, 0.25)
print(repr(time.perf_counter() - start))
"""

END_TO_END_UNITS = {"wall_s": "s", "wall_tail_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def blas_info() -> dict:
    """BLAS library and its thread count, read from numpy's bundled OpenBLAS."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                info["threads"] = int(getattr(lib, symbol)())
                return info
    return info


def environment(workload, seed: int, gaps: dict) -> dict:
    import numpy as np

    from trijunction import kernels

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "record": "env",
        "workload": workload.name,
        "qubits": workload.qubits,
        "seed": seed,
        "gaps": gaps,
        "commands": workload.commands(gaps),
        "backend": kernels.active_backend(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas_info(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def measure_setup() -> float:
    """One fresh interpreter's import + first rotation, timed from inside."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples above it.

    Returns (value, percentile, samples beyond).  With ten or fewer samples
    no such percentile exists and the maximum is returned with 0 beyond.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    k = n - 11
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


class Runner:
    """Runs and checks passes of one workload."""

    def __init__(self, workload, gaps, reference):
        from trijunction.cli import main

        self.workload = workload
        self.gaps = gaps
        self.reference = reference
        self.commands = workload.commands(gaps)
        self._main = main
        self.attempted = 0
        self.failed = 0

    def run_pass(self):
        """Return (seconds, outputs, diagnostics); outputs is None on failure."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            outputs = run_commands(self._main, self.commands)
            seconds = time.perf_counter() - start
            errors, diag = check(self.workload, outputs, self.gaps, self.reference)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.fail("raised")
            return time.perf_counter() - start, None, {}
        if errors:
            self.fail("; ".join(errors))
            return seconds, None, diag
        return seconds, outputs, diag

    def fail(self, reason: str):
        print(f"pass {self.attempted} failed: {reason}", file=sys.stderr)
        self.failed += 1


def run_untraced(runner, seconds: float) -> tuple[dict, dict]:
    runner.run_pass()  # warm-up, checked but not timed
    times, setups = [], []
    begin = time.perf_counter()
    while (now := time.perf_counter() - begin) < seconds:
        # Set-up probes run between passes, spread evenly over the window,
        # so that their median does not rest on one stretch of machine load.
        if len(setups) < SETUP_REPEATS * now / seconds:
            setups.append(measure_setup())
            continue
        elapsed, outputs, _ = runner.run_pass()
        if outputs is not None:
            times.append(elapsed)
    while len(setups) < SETUP_REPEATS:
        setups.append(measure_setup())
    setup_s = statistics.median(setups)
    if not times:
        raise RuntimeError("no pass succeeded")
    tail_s, tail_pct, beyond = tail(times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": statistics.median(times),
        "wall_tail_s": tail_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    record = {
        "record": "passes",
        "timed_passes": len(times),
        "wall_tail_percentile": tail_pct,
        "wall_tail_samples_beyond": beyond,
        "fail_frac": runner.failed / runner.attempted,
    }
    return {k: _metric(v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, record


def run_traced(runner, seconds: float) -> tuple[dict, dict]:
    _, outputs, _ = runner.run_pass()  # untraced reference, also the warm-up
    if outputs is None:
        raise RuntimeError("untraced reference pass failed")
    expected = payload(outputs)
    tracer = Tracer()
    per_pass: list[dict] = []
    walls = []
    coverage: list[str] = []
    tracer.install()
    try:
        begin = time.perf_counter()
        while time.perf_counter() - begin < seconds:
            tracer.begin_pass()
            elapsed, outputs, diag = runner.run_pass()
            if outputs is None:
                continue
            if payload(outputs) != expected:
                runner.fail("traced results differ from the untraced pass")
                continue
            out_bytes = sum(len(o.text.encode()) for o in outputs)
            metrics = layer_metrics(tracer, out_bytes)
            metrics.update({f"check.{k}": v for k, v in diag.items()})
            if per_pass and not _same_counts(per_pass[0], metrics):
                runner.fail("per-pass counts changed between passes")
                continue
            per_pass.append(metrics)
            walls.append(elapsed)
            coverage = tracer.coverage_errors(runner.workload.name)
    finally:
        tracer.uninstall()
    if not per_pass:
        raise RuntimeError("no traced pass succeeded")
    table = self_time_table(tracer)
    exact = _exact_counts(per_pass[0])
    metrics = {
        name: per_pass[0][name] if name in exact else statistics.median(p[name] for p in per_pass)
        for name in per_pass[0]
    }
    metrics["trace.wall_s"] = statistics.median(walls)
    record = {"record": "self_time", "passes": len(per_pass), "spans": table}
    if coverage:
        record["coverage_errors"] = coverage
    return {k: _metric(metrics[k], unit) for k, unit in PER_LAYER_UNITS.items()}, record


def _exact_counts(metrics: dict) -> list[str]:
    """Work counts, which must repeat exactly from pass to pass.  Output
    size is not one of them: it varies with meta.wall_time_s."""
    counts = [k for k, unit in PER_LAYER_UNITS.items() if unit == "count" and k in metrics]
    return counts + ["kernels.bytes_computed"]


def _same_counts(a: dict, b: dict) -> bool:
    return all(a[k] == b[k] for k in _exact_counts(a))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="trijunction CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "trijunction" / "cli.py").is_file():
        print(f"error: no trijunction sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    gaps = draw_gaps(args.seed)
    print(json.dumps(environment(workload, args.seed, gaps)), flush=True)
    runner = Runner(workload, gaps, load_reference())
    if args.trace:
        metrics, record = run_traced(runner, args.seconds)
    else:
        metrics, record = run_untraced(runner, args.seconds)
    print(json.dumps(record), flush=True)
    if record.get("coverage_errors"):
        for line in record["coverage_errors"]:
            print(f"error: {line}", file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
