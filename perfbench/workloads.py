"""The three benchmark workloads: CLI argument lists drawn from a seed, and
the correctness check every pass must satisfy.

A workload is a fixed list of ``trijunction`` command lines.  One pass runs
them back to back through ``trijunction.cli.main`` in-process, with stdout
captured.  The seed draws the gap scales ``--delta``, ``--alpha`` and
``--tcoupling`` from a grid on [0.5, 2]; the grid is finite so that every
seed has an adiabatic fidelity recorded in ``reference.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

GAP_GRID = tuple(0.5 + 0.25 * k for k in range(7))
GAP_FLAGS = ("delta", "alpha", "tcoupling")

# The CLI's own phase tolerance for n > 1, and its swap-fidelity tolerance.
PHASE_TOL = 1e-6
SWAP_FID_TOL = 1e-9
ADIABATIC_FID_TOL = 1e-9


def draw_gaps(seed: int) -> dict[str, float]:
    rng = random.Random(seed)
    return {flag: rng.choice(GAP_GRID) for flag in GAP_FLAGS}


def gap_key(gaps: dict[str, float]) -> str:
    return ",".join(f"{gaps[flag]:g}" for flag in GAP_FLAGS)


def _gap_args(gaps: dict[str, float]) -> list[str]:
    args = []
    for flag in GAP_FLAGS:
        args += [f"--{flag}", repr(gaps[flag])]
    return args


@dataclass(frozen=True)
class Workload:
    name: str
    qubits: int  # register width of the largest state or circuit

    def commands(self, gaps: dict[str, float]) -> list[list[str]]:
        if self.name == "protocol-coupler-n3":
            common = ["--sites", "3", "--mapping", "coupler", *_gap_args(gaps)]
            return [["verify", *common], ["braid", *common]]
        if self.name == "adiabatic-continuous-n3":
            return [[
                "adiabatic", "--sites", "3", "--mapping", "continuous",
                "--tau", "80", "--trotter-steps", "200", *_gap_args(gaps),
            ]]
        # resources ignores the gap scales.
        return [["resources", "--sites", "8", "--format", "csv"]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("protocol-coupler-n3", 10),
        Workload("adiabatic-continuous-n3", 9),
        Workload("resources-n8", 25),
    )
}


@dataclass
class Output:
    argv: list[str]
    code: int
    text: str

    def doc(self) -> dict:
        return json.loads(self.text)


def run_commands(main, commands: list[list[str]]) -> list[Output]:
    """Run each command line through ``main`` with stdout captured."""
    outputs = []
    for argv in commands:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(list(argv))
        outputs.append(Output(argv, code, buffer.getvalue()))
    return outputs


def payload(outputs: list[Output]) -> str:
    """The byte-deterministic part of a pass: config and results, or CSV."""
    parts = []
    for out in outputs:
        if out.text.startswith("{"):
            doc = out.doc()
            parts.append(json.dumps([doc["config"], doc["results"]], sort_keys=True))
        else:
            parts.append(out.text)
    return "\n".join(parts)


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def protocol_counts(verify: dict, braid: dict) -> dict:
    return {
        "steps": braid["steps"],
        "final_state_len": len(braid["final_state_plus"]),
        "conjugation_rows": len(verify["conjugation_chain"]),
    }


def adiabatic_counts(results: dict) -> dict:
    return {k: results[k] for k in ("two_qubit_count", "depth", "per_transition_two_qubit")}


def check(
    workload: Workload, outputs: list[Output], gaps: dict, reference: dict
) -> tuple[list[str], dict[str, float]]:
    """Return (errors, diagnostics) for one pass.

    Float payloads are compared by tolerance, never byte for byte; integer
    counts, depths and the resources CSV must match the reference exactly.
    """
    errors = [f"{o.argv[0]} exited {o.code}" for o in outputs if o.code != 0]
    diag = {
        "dphi_err": 0.0,
        "unitarity_defect": 0.0,
        "swap_fid_err": 0.0,
        "adiabatic_fidelity": 0.0,
    }
    if errors:
        return errors, diag
    if workload.name == "protocol-coupler-n3":
        verify, braid = (o.doc()["results"] for o in outputs)
        for res, cmd in ((verify, "verify"), (braid, "braid")):
            if res.get("checks_passed") is not True:
                errors.append(f"{cmd}: checks_passed is not true")
        dphi_err = max(
            abs(verify["dphi_single"] - math.pi / 2),
            abs(verify["dphi_double"] - math.pi),
        )
        swap_err = max(
            abs(braid[f"fidelity_{tag}_to_opposite"] - 1.0)
            for tag in ("plus", "minus")
        )
        diag["dphi_err"] = dphi_err
        diag["unitarity_defect"] = max(
            verify["unitarity_defect_single"], verify["unitarity_defect_double"]
        )
        diag["swap_fid_err"] = swap_err
        if dphi_err > PHASE_TOL:
            errors.append(f"braid phase off by {dphi_err:.3g}")
        if swap_err > SWAP_FID_TOL:
            errors.append(f"swap fidelity off 1 by {swap_err:.3g}")
        got, expect = protocol_counts(verify, braid), reference["protocol_counts"]
        if got != expect:
            errors.append(f"protocol counts {got} != {expect}")
    elif workload.name == "adiabatic-continuous-n3":
        res = outputs[0].doc()["results"]
        fid = res["braid_fidelity"]
        diag["adiabatic_fidelity"] = fid
        ref_fid = reference["adiabatic_fidelity"][gap_key(gaps)]
        if abs(fid - ref_fid) > ADIABATIC_FID_TOL:
            errors.append(f"adiabatic fidelity {fid!r} != reference {ref_fid!r}")
        got, expect = adiabatic_counts(res), reference["adiabatic_counts"]
        if got != expect:
            errors.append(f"adiabatic counts {got} != {expect}")
    else:
        if outputs[0].text != reference["resources_csv"]:
            errors.append("resources CSV differs from reference")
    return errors, diag
