"""In-memory span tracing of the trijunction chain, from outside the package.

Each traced function is wrapped where its caller looks it up (the module
attribute, class attribute or dispatch-table entry the caller reads), so the
program itself is unchanged.  A wrapper records one span (name, start, end,
parent) per call; spans stay in memory for one pass and are then reduced to
per-name self time and call counts, from which ``layer_metrics`` derives the
per-layer metrics.

``SPANS`` also names, for every lookup site, the workloads designed to
exercise it.  ``Tracer.coverage_errors`` fails a traced run when such a site
recorded no call, and ``install`` raises when a site no longer exists, so a
renamed or bypassed function shows up as an error instead of as 0 s.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass

P, A, R = "protocol-coupler-n3", "adiabatic-continuous-n3", "resources-n8"


@dataclass(frozen=True)
class SpanSpec:
    name: str  # "<layer>.<function>": the layer is the function's home module
    module: str  # module whose attribute the caller looks up
    attr: str  # "func", "Class.method" or "TABLE[key]"
    workloads: tuple[str, ...]  # workloads that must record at least one call


SPANS = (
    SpanSpec("cli.cmd_verify", "cli", "_COMMANDS[verify]", (P,)),
    SpanSpec("cli.cmd_braid", "cli", "_COMMANDS[braid]", (P,)),
    SpanSpec("cli.cmd_adiabatic", "cli", "_COMMANDS[adiabatic]", (A,)),
    SpanSpec("cli.cmd_resources", "cli", "_COMMANDS[resources]", (R,)),
    SpanSpec("cli.emit", "cli", "_emit", (P, A, R)),
    SpanSpec("majorana.conjugate_hamiltonian", "cli", "conjugate_hamiltonian", (P,)),
    SpanSpec("hamiltonians.trijunction_h", "cli", "trijunction_h", (P,)),
    SpanSpec("hamiltonians.trijunction_h", "simulator", "trijunction_h", (P, A)),
    SpanSpec("hamiltonians.trijunction_h", "compiler", "trijunction_h", (A, R)),
    SpanSpec("simulator.trijunction_ground_space", "simulator", "trijunction_ground_space", (P, A)),
    SpanSpec("simulator.ground_space", "simulator", "ground_space", (P, A)),
    SpanSpec("simulator.braid_unitary", "simulator", "braid_unitary", (P,)),
    SpanSpec("simulator.project_braid", "simulator", "project_braid", (P,)),
    SpanSpec("simulator.apply_braid", "simulator", "apply_braid", (P,)),
    SpanSpec("simulator.run_adiabatic", "simulator", "run_adiabatic", (A,)),
    SpanSpec("simulator.trotter_adiabatic", "simulator", "trotter_adiabatic", (A,)),
    SpanSpec("simulator.trotter_step", "simulator", "trotter_step", (A,)),
    SpanSpec("mappings.map_hamiltonian", "simulator", "map_hamiltonian", (P, A)),
    SpanSpec("mappings.map_hamiltonian", "compiler", "map_hamiltonian", (A, R)),
    SpanSpec("mappings.map_monomial", "simulator", "map_monomial", (P, A)),
    SpanSpec("mappings.exchange_rotation", "simulator", "exchange_rotation", (P,)),
    SpanSpec("mappings.exchange_rotation", "compiler", "exchange_rotation", (R,)),
    SpanSpec("kernels.apply_rotation", "kernels", "apply_rotation", (P, A)),
    SpanSpec("kernels.rotate_matrix", "kernels", "rotate_matrix", (P,)),
    SpanSpec("pauli.to_matrix", "pauli", "PauliSum.to_matrix", (P, A)),
    SpanSpec("pauli.add", "pauli", "PauliSum.__add__", (A, R)),
    SpanSpec("pauli.mul", "pauli", "PauliSum.__mul__", ()),
    SpanSpec("pauli.rmul", "pauli", "PauliSum.__rmul__", (A, R)),
    SpanSpec("compiler.sweep", "compiler", "sweep", (R,)),
    SpanSpec("compiler.compile_braiding", "compiler", "compile_braiding", (R,)),
    SpanSpec("compiler.compile_adiabatic", "compiler", "compile_adiabatic", (A, R)),
    SpanSpec("compiler.compile_rotation", "compiler", "compile_rotation", (A, R)),
    SpanSpec("compiler.count_resources", "compiler", "count_resources", (A, R)),
)


def _record_sizes(tracer, name, args, result):
    """Keep what the derived metrics need; anything costly waits for the
    end of the pass so that it is not charged to the calling span."""
    if name == "kernels.apply_rotation":
        tracer.tally[name] += args[0].shape[0]
    elif name == "kernels.rotate_matrix":
        tracer.tally[name] += args[0].size
    elif name == "simulator.ground_space":
        tracer.tally["ground_kept"] += result.basis.shape[1]
        tracer.tally["ground_dim"] += result.basis.shape[0]
    elif name == "simulator.project_braid":
        tracer.tally["braid_cols_used"] += args[1].basis.shape[1]
        tracer.tally["braid_cols"] += args[0].shape[1]
    elif name in ("compiler.compile_adiabatic", "compiler.compile_braiding"):
        tracer.tally["gates"] += len(result.gates)
    elif name == "pauli.add":
        tracer.kept["interpolations"].append(result)
    elif name == "mappings.map_hamiltonian":
        tracer.kept["mapped"].append((args[0], args[1]))


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self):
        self._patches = []
        self.spans: list = []  # (site index into SPANS, start, end, parent)
        self._stack: list[int] = []
        self.tally: dict[str, int] = defaultdict(int)
        self.kept: dict[str, list] = defaultdict(list)

    def _wrap(self, site, fn):
        spans, stack = self.spans, self._stack
        name = SPANS[site].name

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (site, start, end, parent)
            _record_sizes(self, name, args, result)
            return result

        return traced

    def install(self):
        """Patch every lookup site in ``SPANS``; unknown names raise."""
        for site, spec in enumerate(SPANS):
            owner, key = _resolve(spec)
            original = _get(owner, key)
            self._patches.append((owner, key, original))
            _set(owner, key, self._wrap(site, original))

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            _set(owner, key, original)

    def begin_pass(self):
        # Wrappers hold the span list and stack, so clear them in place.
        self.spans.clear()
        self._stack.clear()
        self.tally.clear()
        self.kept.clear()

    def reduce(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per-name self time (duration minus direct children) and calls."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (site, start, end, _) in enumerate(self.spans):
            name = SPANS[site].name
            self_s[name] += end - start - child[i]
            calls[name] += 1
        return self_s, calls

    def coverage_errors(self, workload: str) -> list[str]:
        """Lookup sites designated for ``workload`` that recorded no call."""
        used = {site for site, _, _, _ in self.spans}
        return [
            f"span {spec.name} at trijunction.{spec.module}.{spec.attr} recorded no call"
            for site, spec in enumerate(SPANS)
            if workload in spec.workloads and site not in used
        ]


def _resolve(spec: SpanSpec):
    owner = importlib.import_module(f"trijunction.{spec.module}")
    path = spec.attr
    if "[" in path:
        table, key = path[:-1].split("[")
        return getattr(owner, table), key
    *parents, leaf = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if leaf not in vars(owner):
        raise AttributeError(f"trijunction.{spec.module}.{path} does not exist")
    return owner, leaf


def _get(owner, key):
    return owner[key] if isinstance(owner, dict) else getattr(owner, key)


def _set(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


PER_LAYER_UNITS = {
    "simulator.ground_space_s": "s",
    "simulator.ground_space_calls": "count",
    "simulator.eig_used_frac": "ratio",
    "simulator.braid_unitary_s": "s",
    "simulator.braid_cols_used_frac": "ratio",
    "simulator.project_braid_s": "s",
    "simulator.trotter_s": "s",
    "simulator.apply_braid_s": "s",
    "kernels.rotations": "count",
    "kernels.rotation_s": "s",
    "kernels.amp_updates": "count",
    "kernels.ns_per_amp": "ns",
    "kernels.bytes_computed": "bytes",
    "kernels.matrix_rotations": "count",
    "kernels.matrix_rotation_s": "s",
    "kernels.matrix_ns_per_amp": "ns",
    "pauli.to_matrix_s": "s",
    "pauli.sum_ops": "count",
    "pauli.sum_arith_s": "s",
    "pauli.interp_dup": "ratio",
    "compiler.rotations": "count",
    "compiler.gates": "count",
    "compiler.compile_s": "s",
    "compiler.count_resources_s": "s",
    "compiler.ns_per_gate": "ns",
    "mappings.map_calls": "count",
    "mappings.map_reuse": "ratio",
    "mappings.map_s": "s",
    "majorana.conjugate_s": "s",
    "majorana.conjugate_calls": "count",
    "hamiltonians.build_s": "s",
    "hamiltonians.build_calls": "count",
    "cli.emit_s": "s",
    "cli.output_bytes": "bytes",
    "check.dphi_err": "rad",
    "check.unitarity_defect": "1",
    "check.swap_fid_err": "1",
    "check.adiabatic_fidelity": "1",
    "trace.spans": "count",
    "trace.wall_s": "s",
}


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(tracer: Tracer, output_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass, before the check diagnostics."""
    self_s, calls = tracer.reduce()
    kept, tally = tracer.kept, tracer.tally

    amps = tally["kernels.apply_rotation"]
    matrix_amps = tally["kernels.rotate_matrix"]
    sum_ops = ("pauli.add", "pauli.mul", "pauli.rmul")
    interpolations = kept["interpolations"]
    distinct_interp = len({(h.num_qubits, h.terms) for h in interpolations})
    mapped = kept["mapped"]
    compile_s = sum(
        self_s[f"compiler.{f}"]
        for f in ("sweep", "compile_braiding", "compile_adiabatic", "compile_rotation")
    )
    gates = tally["gates"]
    return {
        "simulator.ground_space_s": self_s["simulator.ground_space"],
        "simulator.ground_space_calls": calls["simulator.ground_space"],
        "simulator.eig_used_frac": _ratio(tally["ground_kept"], tally["ground_dim"]),
        "simulator.braid_unitary_s": self_s["simulator.braid_unitary"],
        "simulator.braid_cols_used_frac": _ratio(
            tally["braid_cols_used"], tally["braid_cols"]
        ),
        "simulator.project_braid_s": self_s["simulator.project_braid"],
        "simulator.trotter_s": self_s["simulator.trotter_adiabatic"]
        + self_s["simulator.trotter_step"],
        "simulator.apply_braid_s": self_s["simulator.apply_braid"],
        "kernels.rotations": calls["kernels.apply_rotation"],
        "kernels.rotation_s": self_s["kernels.apply_rotation"],
        "kernels.amp_updates": amps,
        "kernels.ns_per_amp": _ratio(self_s["kernels.apply_rotation"], amps, 1e9),
        # Computed, not measured: one complex128 read and one write per
        # amplitude or matrix entry a rotation produces.
        "kernels.bytes_computed": 32 * (amps + matrix_amps),
        "kernels.matrix_rotations": calls["kernels.rotate_matrix"],
        "kernels.matrix_rotation_s": self_s["kernels.rotate_matrix"],
        "kernels.matrix_ns_per_amp": _ratio(
            self_s["kernels.rotate_matrix"], matrix_amps, 1e9
        ),
        "pauli.to_matrix_s": self_s["pauli.to_matrix"],
        "pauli.sum_ops": sum(calls[name] for name in sum_ops),
        "pauli.sum_arith_s": sum(self_s[name] for name in sum_ops),
        "pauli.interp_dup": _ratio(len(interpolations), distinct_interp),
        "compiler.rotations": calls["compiler.compile_rotation"],
        "compiler.gates": gates,
        "compiler.compile_s": compile_s,
        "compiler.count_resources_s": self_s["compiler.count_resources"],
        "compiler.ns_per_gate": _ratio(
            compile_s + self_s["compiler.count_resources"], gates, 1e9
        ),
        "mappings.map_calls": len(mapped),
        "mappings.map_reuse": _ratio(len(set(mapped)), len(mapped)),
        "mappings.map_s": sum(
            t for name, t in self_s.items() if name.startswith("mappings.")
        ),
        "majorana.conjugate_s": self_s["majorana.conjugate_hamiltonian"],
        "majorana.conjugate_calls": calls["majorana.conjugate_hamiltonian"],
        "hamiltonians.build_s": self_s["hamiltonians.trijunction_h"],
        "hamiltonians.build_calls": calls["hamiltonians.trijunction_h"],
        "cli.emit_s": self_s["cli.emit"],
        "cli.output_bytes": output_bytes,
        "trace.spans": len(tracer.spans),
    }


def self_time_table(tracer: Tracer) -> dict[str, dict]:
    """Self time and calls of every span name in the last pass, largest first."""
    self_s, calls = tracer.reduce()
    order = sorted(self_s, key=self_s.get, reverse=True)
    return {name: {"self_s": self_s[name], "calls": calls[name]} for name in order}
