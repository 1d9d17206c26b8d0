"""Gate compilation and circuit resource accounting for both protocols.

Gates are abstract: single-qubit basis changes (h, s, sdg), z rotations
(rz, angle convention exp(-i*angle/2*Z)) and one two-qubit entangler (cx).
Entangler count is the hardware-agnostic two-qubit metric; cx, cz and
echoed-cross-resonance differ only by single-qubit dressing so their counts
coincide.  Each Pauli rotation exp(-i*theta*P) of weight w compiles to a
basis change onto Z, a cx ladder down the support, one rz(2*theta), and the
mirror image: exactly 2*(w-1) entanglers.  No cross-fragment cancellation is
attempted; counts are structural.  Everything but the rz angle depends on the
string alone, so each string's fragment is built once and kept in a bounded
cache of the 1024 most recent strings, keyed by the plain ints
(num_qubits, x, z), whose hash and equality run in C.

Depth is ASAP-scheduled on all-to-all connectivity: a gate starts one tick
after the latest gate sharing any of its qubits.  The counter walks one step
segment at a time with a local entangler count, and reads the depth off the
qubit clocks at the end.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .hamiltonians import TrijunctionParams, trijunction_h
from .hamiltonians import trotter_rotations, trotter_slices
from .majorana import PROTOCOL_CONFIGS, braid_exchanges, protocol_steps
from .mappings import QubitLayout, exchange_rotation, layout_for, map_hamiltonian
from .pauli import PauliString

__all__ = [
    "Circuit",
    "Gate",
    "ResourceReport",
    "circuit_unitary",
    "compile_adiabatic",
    "compile_braiding",
    "compile_rotation",
    "count_resources",
    "sweep",
]


class Gate(NamedTuple):
    name: str
    qubits: tuple[int, ...]
    angle: float | None = None


@dataclass
class Circuit:
    num_qubits: int
    gates: list[Gate] = field(default_factory=list)
    global_phase: float = 0.0
    # gate-count boundaries after each protocol step / transition
    step_bounds: list[int] = field(default_factory=list)


@dataclass(frozen=True)
class ResourceReport:
    n: int
    method: str
    mapping: str
    two_qubit_count: int
    depth: int
    per_step: tuple[int, ...] = ()


@functools.lru_cache(maxsize=1024)
def _fragment(
    num_qubits: int, x: int, z: int
) -> tuple[tuple[Gate, ...], int, tuple[Gate, ...]]:
    """(head, rz qubit, tail) of the phase-free string with bitmasks (x, z),
    of weight >= 1, read off the bits: the basis change (sdg, h where x and z
    are set; h where x alone is) and the cx ladder down the support before
    the rz, and their mirror image after it.  Cached on the ints for the 1024
    most recent strings."""
    support = [q for q in range(num_qubits) if (x | z) >> q & 1]
    pre: list[Gate] = []
    post: list[Gate] = []
    for q in support:
        if x >> q & 1 and z >> q & 1:
            pre += [Gate("sdg", (q,)), Gate("h", (q,))]
            post += [Gate("h", (q,)), Gate("s", (q,))]
        elif x >> q & 1:
            pre.append(Gate("h", (q,)))
            post.append(Gate("h", (q,)))
    ladder = [Gate("cx", pair) for pair in zip(support, support[1:])]
    return (*pre, *ladder), support[-1], (*reversed(ladder), *post)


def compile_rotation(
    string: PauliString, angle: float
) -> tuple[list[Gate], float]:
    """Gate fragment for exp(-i*angle*P) plus its global-phase contribution.

    Weight-0 strings produce no gates, only the phase exp(-i*angle).
    """
    if string.phase_exp != 0:
        raise ValueError("rotation axis must be a phase-free Hermitian string")
    if string.is_identity:
        return [], -angle
    head, q, tail = _fragment(string.num_qubits, string.x, string.z)
    return [*head, Gate("rz", (q,), 2.0 * angle), *tail], 0.0


def compile_braiding(layout: QubitLayout, steps: int = 6) -> Circuit:
    """Concatenated pi/4 rotations of every exchange in ``braid_exchanges``."""
    circuit = Circuit(layout.total_qubits)
    for k, o in enumerate(braid_exchanges(layout.n, steps), start=1):
        gates, phase = compile_rotation(*exchange_rotation(o, layout))
        circuit.gates.extend(gates)
        circuit.global_phase += phase
        if k % (2 * layout.n) == 0:  # every step is 2n exchanges
            circuit.step_bounds.append(len(circuit.gates))
    return circuit


def compile_adiabatic(
    layout: QubitLayout,
    params: TrijunctionParams,
    tau: float,
    substeps: int,
    reps: int = 1,
) -> Circuit:
    """Trotterised interpolation circuit over all six transitions: the
    rotations of ``hamiltonians.trotter_rotations`` for every slice of
    ``hamiltonians.trotter_slices``, the sequence the simulator applies."""
    circuit = Circuit(layout.total_qubits)
    mapped = {
        c: map_hamiltonian(trijunction_h(c, params), layout) for c in PROTOCOL_CONFIGS
    }
    for ci, cf in protocol_steps():
        for h_s, dt in trotter_slices(mapped[ci], mapped[cf], tau, substeps):
            for string, angle in trotter_rotations(h_s, dt, reps):
                gates, phase = compile_rotation(string, angle)
                circuit.gates.extend(gates)
                circuit.global_phase += phase
        circuit.step_bounds.append(len(circuit.gates))
    return circuit


def count_resources(
    circuit: Circuit, n: int = 0, method: str = "", mapping: str = ""
) -> ResourceReport:
    """Entangler count and ASAP depth, with per-step entangler breakdown.

    Walks one step segment at a time (``step_bounds`` holds the gate count at
    the end of each step, in order; gates after the last bound count only in
    the total).  A qubit's clock only grows, so the depth is the largest
    final clock.
    """
    clocks = [0] * circuit.num_qubits
    gates = circuit.gates
    counts = []
    start = 0
    for end in (*circuit.step_bounds, len(gates)):
        cx = 0
        for name, qubits, _ in gates[start:end]:
            if name == "cx":
                a, b = qubits
                tick = 1 + (clocks[a] if clocks[a] > clocks[b] else clocks[b])
                clocks[a] = clocks[b] = tick
                cx += 1
            else:
                (q,) = qubits
                clocks[q] += 1
        counts.append(cx)
        start = end
    return ResourceReport(
        n=n,
        method=method,
        mapping=mapping,
        two_qubit_count=sum(counts),
        depth=max(clocks, default=0),
        per_step=tuple(counts[:-1]),
    )


def sweep(
    n_values: Sequence[int],
    methods: Sequence[str] = ("adiabatic", "braiding"),
    mappings: Sequence[str] = ("continuous", "coupler"),
    substeps: int = 10,
    reps: int = 1,
) -> list[ResourceReport]:
    """One report per (n, method, mapping), ordered exactly that way."""
    reports = []
    for n in sorted(n_values):
        for method in sorted(methods):
            for mapping in sorted(mappings):
                layout = layout_for(mapping, n)
                if method == "braiding":
                    circuit = compile_braiding(layout, steps=6)
                elif method == "adiabatic":
                    params = TrijunctionParams(n=n)
                    # tau only sets rz angles, which count_resources never reads
                    circuit = compile_adiabatic(layout, params, 1.0, substeps, reps)
                else:
                    raise ValueError(f"unknown method {method!r}")
                reports.append(count_resources(circuit, n, method, mapping))
    return reports


_H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0)
_S = np.diag([1.0, 1.0j]).astype(np.complex128)
_SDG = _S.conj()


def _gate_matrix(gate: Gate, num_qubits: int) -> np.ndarray:
    if gate.name == "cx":
        control, target = gate.qubits
        dim = 1 << num_qubits
        idx = np.arange(dim)
        flipped = np.where((idx >> control) & 1, idx ^ (1 << target), idx)
        M = np.zeros((dim, dim), dtype=np.complex128)
        M[flipped, idx] = 1.0
        return M
    if gate.name == "rz":
        m = np.diag(
            [np.exp(-0.5j * gate.angle), np.exp(0.5j * gate.angle)]
        ).astype(np.complex128)
    else:
        m = {"h": _H, "s": _S, "sdg": _SDG}[gate.name]
    (q,) = gate.qubits
    full = np.array([[1.0 + 0.0j]])
    for qq in range(num_qubits - 1, -1, -1):
        full = np.kron(full, m if qq == q else np.eye(2, dtype=np.complex128))
    return full


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Dense matrix of the circuit including its recorded global phase."""
    # Each gate is a dense 2^Q x 2^Q complex matrix: 16.8 MB at Q = 10, 4.3 GB at 14.
    if circuit.num_qubits > 10:
        raise ValueError("dense circuit evaluation limited to 10 qubits")
    U = np.eye(1 << circuit.num_qubits, dtype=np.complex128)
    for gate in circuit.gates:
        U = _gate_matrix(gate, circuit.num_qubits) @ U
    return np.exp(1j * circuit.global_phase) * U
