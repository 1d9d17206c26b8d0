"""Record the reference outputs the benchmark checks every pass against.

Usage:  python3 perfbench/make_reference.py

Writes perfbench/reference.json: the adiabatic-continuous-n3 fidelity for
every point of the gap grid (7^3 = 343 runs, a few minutes on two cores),
the integer counts of that workload, the protocol-coupler-n3 shape counts,
and the resources-n8 CSV.  Run it only when the program's results are meant
to change; the benchmark treats any drift from this file as a failed pass.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import (  # noqa: E402
    GAP_FLAGS,
    GAP_GRID,
    REFERENCE_PATH,
    WORKLOADS,
    adiabatic_counts,
    gap_key,
    protocol_counts,
    run_commands,
)


def _adiabatic(gaps: dict) -> tuple[str, float, dict]:
    from trijunction.cli import main

    (out,) = run_commands(main, WORKLOADS["adiabatic-continuous-n3"].commands(gaps))
    if out.code != 0:
        raise RuntimeError(f"adiabatic run failed for {gaps}")
    res = out.doc()["results"]
    return gap_key(gaps), res["braid_fidelity"], adiabatic_counts(res)


def main() -> int:
    from trijunction.cli import main as cli_main

    grid = [dict(zip(GAP_FLAGS, values)) for values in itertools.product(GAP_GRID, repeat=3)]
    with multiprocessing.get_context("spawn").Pool(min(2, os.cpu_count())) as pool:
        rows = pool.map(_adiabatic, grid)
    counts = {json.dumps(c, sort_keys=True) for _, _, c in rows}
    if len(counts) != 1:
        raise RuntimeError(f"adiabatic counts depend on the gap scales: {counts}")

    defaults = dict(zip(GAP_FLAGS, (1.0, 1.0, 1.0)))
    verify, braid = (
        o.doc()["results"]
        for o in run_commands(cli_main, WORKLOADS["protocol-coupler-n3"].commands(defaults))
    )
    (resources,) = run_commands(cli_main, WORKLOADS["resources-n8"].commands(defaults))
    reference = {
        "adiabatic_counts": rows[0][2],
        "adiabatic_fidelity": {key: fid for key, fid, _ in rows},
        "protocol_counts": protocol_counts(verify, braid),
        "resources_csv": resources.text,
    }
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_PATH.name}: {len(rows)} adiabatic fidelities")
    return 0


if __name__ == "__main__":
    sys.exit(main())
