"""Committed performance records: the form of every ``BENCH_*.json``.

Each file holds ``runs``, the unmodified ``perfbench/run.py`` stdout records
of each run tagged with its tree, workload, pair index and order, and
``pairs``: per workload and end-to-end metric, the change/parent ratio of
each pair, their median and k/N (pairs in which the change was lower).
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
TREES = {"parent", "change"}


def test_at_least_one_record_is_committed():
    assert RECORDS


@pytest.fixture(params=RECORDS, ids=lambda p: p.name)
def bench(request):
    return json.loads(request.param.read_text())


def test_each_covered_workload_has_runs_of_both_trees(bench):
    trees = {}
    for run in bench["runs"]:
        assert run["tree"] in TREES
        trees.setdefault(run["workload"], set()).add(run["tree"])
    assert trees
    assert all(seen == TREES for seen in trees.values()), trees
    assert set(bench["pairs"]) <= set(trees)


def test_each_run_starts_with_its_env_record(bench):
    for run in bench["runs"]:
        env = run["records"][0]
        assert env["record"] == "env"
        assert env["workload"] == run["workload"]


def test_each_pair_ratio_is_read_off_the_runs(bench):
    final = {}
    for run in bench["runs"]:
        if run.get("pair") is not None:
            metrics = run["records"][-1]["metrics"]
            final[run["workload"], run["pair"], run["tree"]] = metrics
    for workload, by_metric in bench["pairs"].items():
        for metric, summary in by_metric.items():
            ratios = [
                final[workload, i, "change"][metric]["value"]
                / final[workload, i, "parent"][metric]["value"]
                for i in range(summary["N"])
            ]
            assert summary["ratios"] == ratios


def test_each_stored_median_is_the_median_of_its_ratios(bench):
    for by_metric in bench["pairs"].values():
        for summary in by_metric.values():
            ratios = summary["ratios"]
            assert summary["median"] == statistics.median(ratios)
            assert summary["N"] == len(ratios)
            assert summary["k"] == sum(r < 1 for r in ratios)
