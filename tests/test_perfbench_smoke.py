"""The benchmark in ``perfbench/`` runs: each workload completes one short
traced run with every pass correct and every trace site called.

This catches a change that breaks the benchmark (a renamed site, a rejected
workload flag, a changed count) in the test suite rather than in a full
benchmark run.  The traced work counts are pinned: a cache that skipped a
traced call would lower them.  Untraced runs are not used here: their set-up
probes fill a window this short, so no pass would run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
WORKLOADS = ["protocol-coupler-n3", "adiabatic-continuous-n3", "resources-n8"]
# ``mappings.map_reuse`` hashes (MajoranaHamiltonian, layout) pairs and
# ``pauli.interp_dup`` hashes PauliSum term tuples, so these two also pin
# the equality and hashing of the value types.
COUNTS = {
    "protocol-coupler-n3": {
        "kernels.rotations": 72,
        "kernels.matrix_rotations": 36,
        "simulator.ground_space_calls": 2,
        "mappings.map_calls": 2,
        "mappings.map_reuse": 0.5,
        "pauli.interp_dup": 0.0,
    },
    "adiabatic-continuous-n3": {
        "kernels.rotations": 16764,
        "compiler.gates": 93408,
        "pauli.sum_ops": 7200,
        "mappings.map_calls": 7,
        "mappings.map_reuse": 3 / 7,
        "pauli.interp_dup": 4.0,
    },
    "resources-n8": {
        "compiler.gates": 112896,
        "pauli.sum_ops": 2880,
        "mappings.map_calls": 48,
        "mappings.map_reuse": 1.0,
        "pauli.interp_dup": 2.0,
    },
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_passes(workload):
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    records = [json.loads(line) for line in done.stdout.splitlines()]
    assert records[0]["record"] == "env"
    assert records[-2]["record"] == "self_time"
    assert "coverage_errors" not in records[-2]
    assert records[-1]["attempted"] >= 1
    assert records[-1]["failed"] == 0
    metrics = records[-1]["metrics"]
    for name, count in COUNTS[workload].items():
        assert metrics[name]["value"] == count, name


def test_setup_probe_and_environment_record(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    from workloads import WORKLOADS as BENCH_WORKLOADS, draw_gaps

    assert set(BENCH_WORKLOADS) == set(WORKLOADS)
    assert run.measure_setup() > 0.0
    workload = BENCH_WORKLOADS["resources-n8"]
    env = run.environment(workload, 1, draw_gaps(1))
    assert env["record"] == "env"
    assert env["backend"] == "numpy"
    json.dumps(env)
