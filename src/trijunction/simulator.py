"""Exact state-vector dynamics and ground-space braid analysis.

States are plain complex128 arrays of length 2^Q treated as values: every
operation returns a fresh array and preserves the norm to better than 1e-12.
Exchange unitaries and Trotter factors are single Pauli rotations and go
through the numpy rotation kernel.  Ground spaces are diagonalised one parity
and gauge sector at a time, in blocks of 2^Q/2 (continuous) or 2^Q/4 (coupler)
rows; only the exact-evolution oracle takes a full eigendecomposition.  Both
start from the dense matrix (desk-scale, up to ``DENSE_QUBIT_LIMIT`` qubits),
in real arithmetic whenever it is real.

A braid is projected through its action on the two ground columns: the
exchange rotations are applied to the 2^Q x 2 ground basis G and the 2 x 2
block G^dagger (U G) is read off.  The full 2^Q x 2^Q braid unitary is built
only as a test oracle.

Ground-space convention
-----------------------
Within the degenerate lowest eigenspace the returned basis diagonalises the
mapped zero-mode pair operator ("parity"): column 0 has parity +1, column 1
parity -1, each with its first significant amplitude made real positive.
There is no parity-free form.  On the coupler layout the lowest eigenspace is
four-dimensional (the gauge redundancy doubles it); there the slice with gauge
eigenvalue equal to the parity eigenvalue is selected, which is the slice
containing the reference single-site ground pair.  Reported braid phases are
basis-independent.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .hamiltonians import (
    PROTOCOL_CONFIGS,
    Configuration,
    TrijunctionParams,
    schedule,
    trijunction_h,
    trotter_rotations,
    trotter_slices,
    zero_mode_pair,
)
from .majorana import ExchangeOperator, braid_exchanges
from .mappings import QubitLayout, exchange_rotation, gauge_operator, map_hamiltonian, map_monomial
from .pauli import DENSE_QUBIT_LIMIT, PauliString, PauliSum, commutes, multiply

__all__ = [
    "BraidReport",
    "GroundSpace",
    "apply_braid",
    "apply_exchange",
    "apply_rotation",
    "braid_unitary",
    "evolve_exact",
    "fidelity",
    "ground_space",
    "prepare_initial",
    "project_braid",
    "run_adiabatic",
    "trijunction_ground_space",
    "trotter_adiabatic",
    "trotter_step",
]

DEGENERACY_ATOL = 1e-8  # energy window of the degenerate ground level


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>|^2."""
    if a.shape != b.shape:
        raise ValueError("state dimensions differ")
    return float(abs(np.vdot(a, b)) ** 2)


def apply_rotation(psi: np.ndarray, string: PauliString, theta: float) -> np.ndarray:
    """exp(-i*theta*P)|psi> for a phase-free Hermitian string P."""
    return kernels.apply_rotation(
        psi, string.num_qubits, string.x, string.z, string.phase_exp, theta
    )


def apply_exchange(
    psi: np.ndarray, o: ExchangeOperator, layout: QubitLayout
) -> np.ndarray:
    string, theta = exchange_rotation(o, layout)
    return apply_rotation(psi, string, theta)


def apply_braid(psi: np.ndarray, layout: QubitLayout, steps: int = 6) -> np.ndarray:
    """Apply the exchange sequence of the first ``steps`` protocol steps."""
    for o in braid_exchanges(layout.n, steps):
        psi = apply_exchange(psi, o, layout)
    return psi


def braid_unitary(
    layout: QubitLayout, steps: int = 3, columns: np.ndarray | None = None
) -> np.ndarray:
    """U @ columns for the unitary U of the first ``steps`` protocol steps
    (3 = one braid), for a (2^Q, k) block ``columns``.

    Without ``columns`` the dense unitary U itself is returned; that form is
    a test oracle and is limited to ``DENSE_QUBIT_LIMIT`` qubits.
    """
    dim = 1 << layout.total_qubits
    if columns is None:
        if layout.total_qubits > DENSE_QUBIT_LIMIT:
            raise ValueError(f"dense unitary limited to {DENSE_QUBIT_LIMIT} qubits")
        columns = np.eye(dim, dtype=np.complex128)
    elif columns.ndim != 2 or columns.shape[0] != dim:
        raise ValueError(f"braid columns must have {dim} rows")
    for o in braid_exchanges(layout.n, steps):
        string, theta = exchange_rotation(o, layout)
        columns = kernels.rotate_matrix(
            columns, string.num_qubits, string.x, string.z, string.phase_exp, theta
        )
    return columns


@dataclass(frozen=True)
class GroundSpace:
    """Isometry onto the two lowest eigenstates, columns ordered by parity."""

    basis: np.ndarray
    energies: np.ndarray


@dataclass(frozen=True)
class BraidReport:
    ugs: np.ndarray
    eigenphases: np.ndarray
    dphi: float
    unitarity_defect: float


def _fix_phase(v: np.ndarray) -> np.ndarray:
    nz = np.flatnonzero(np.abs(v) > 1e-8 * np.max(np.abs(v)))
    lead = v[nz[0]]
    return v * (lead.conjugate() / abs(lead))


def _dense_matrix(h: PauliSum) -> np.ndarray:
    """Dense matrix of ``h``, as a real array when every string has an even
    number of Y factors: a phase-free Pauli string is real exactly then."""
    H = h.to_matrix()
    return H.real if all((s.x & s.z).bit_count() % 2 == 0 for _, s in h.terms) else H


def _dense_eigh(h: PauliSum) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of the dense matrix of ``h`` (the evolution oracle)."""
    return np.linalg.eigh(_dense_matrix(h))


def ground_space(
    h: PauliSum, parity: tuple[float, PauliString], gauge: PauliString | None = None
) -> GroundSpace:
    """Two lowest eigenvectors of ``h`` under the documented basis convention.

    ``parity`` is a (sign, string) pair for the conserved zero-mode operator;
    ``gauge`` restricts to its redundancy slice on the coupler layout.  Both
    must commute with every term of ``h`` and with each other.  H is
    diagonalised one joint eigenvalue sector of them at a time, with one basis
    vector per orbit of basis states under their X masks: the sector projector
    applied to the orbit's smallest index (Sandvik, arXiv:1101.3281, sec. 4).
    """
    symmetries = [parity] + ([(1.0, gauge)] if gauge is not None else [])
    for name, (_, s) in zip(("parity", "gauge"), symmetries):
        for _, other in (*h.terms, *symmetries):
            if not commutes(s, other):
                raise ValueError(
                    f"{name} string {s.label()} is not conserved: "
                    f"it anticommutes with {other.label()}"
                )
    H = _dense_matrix(h)
    group = [PauliString.identity(h.num_qubits)]  # element m: the S_j with bit j in m
    for _, s in symmetries:
        group += [multiply(g, s) for g in group]
    span = list(dict.fromkeys(g.x for g in group))
    idx = np.arange(1 << h.num_qubits)
    rep = idx[np.min([idx ^ a for a in span], axis=0) == idx]
    spectra, ground = [], {}
    for pattern in itertools.product((1.0, -1.0), repeat=len(symmetries)):
        chars = [1.0]  # element m: the t_j * c_j with bit j in m
        for t, (c, _) in zip(pattern, symmetries):
            chars += [d * t * c for d in chars]
        # prod_j (1 + t_j c_j S_j)|rep[o]> has amplitude C[o, a] on rep[o] ^ span[a]
        C = np.zeros((len(rep), len(span)), dtype=np.complex128)
        for g, chi in zip(group, chars):
            phases = kernels.pauli_action_phases(h.num_qubits, g.x, g.z, g.phase_exp)
            C[:, span.index(g.x)] += chi * phases[rep]
        C = C if C.imag.any() else C.real  # B stays real when H is
        norms = np.linalg.norm(C, axis=1)
        keep = norms > 0.5  # a row of Gaussian integers is 0 or has norm >= 1
        C, rows = C[keep] / norms[keep, None], rep[keep, None] ^ np.array(span)
        B = sum(
            C[:, a].conj()[:, None] * H[np.ix_(rows[:, a], rows[:, b])] * C[:, b]
            for a in range(len(span))
            for b in range(len(span))
        )
        if len(set(pattern)) == 1:  # the (+, +) and (-, -) sectors are lifted
            w, V = np.linalg.eigh(B)
            ground[pattern[0]] = (w, rows, V[:, :1] * C)
        else:
            w = np.linalg.eigvalsh(B)
        spectra.append(w)
    levels = np.sort(np.concatenate(spectra))
    top = levels[0] + DEGENERACY_ATOL
    if np.count_nonzero(levels <= top) < 2:
        raise ValueError("ground level is not degenerate")
    G = np.zeros((len(idx), 2), dtype=np.complex128)
    for col, target in enumerate((1.0, -1.0)):
        w, rows, amps = ground[target]
        if (dim := np.count_nonzero(w <= top)) != 1:
            raise ValueError(f"parity/gauge slice has dimension {dim}, expected 1")
        G[rows, col] = amps
        G[:, col] = _fix_phase(G[:, col])
    return GroundSpace(G, levels[:2].copy())


def trijunction_ground_space(
    config: Configuration, params: TrijunctionParams, layout: QubitLayout
) -> GroundSpace:
    """Ground space of the mapped trijunction Hamiltonian, convention applied."""
    h = map_hamiltonian(trijunction_h(config, params), layout)
    sign_c, parity_string = map_monomial(zero_mode_pair(config, params.n), layout)
    parity = (float(sign_c.real), parity_string)
    gauge = gauge_operator(layout, config.c) if layout.kind == "coupler" else None
    return ground_space(h, parity=parity, gauge=gauge)


def prepare_initial(gs: GroundSpace, sign: int = +1) -> np.ndarray:
    """(g1 +- g2)/sqrt(2)."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    psi = (gs.basis[:, 0] + sign * gs.basis[:, 1]) / math.sqrt(2.0)
    return psi / np.linalg.norm(psi)


def project_braid(U: np.ndarray, gs: GroundSpace) -> BraidReport:
    """Project a braid onto the ground pair and extract the phases.

    ``U`` is either the full square unitary or its (2^Q, 2) action U @ G on
    the ground columns G, as returned by ``braid_unitary(layout, steps,
    gs.basis)``.
    """
    dim = gs.basis.shape[0]
    if U.shape == (dim, dim):
        UG = U @ gs.basis
    elif U.shape == gs.basis.shape:
        UG = U
    else:
        raise ValueError(
            f"braid operator of shape {U.shape} is neither the {dim}x{dim} "
            f"unitary nor its action on the {gs.basis.shape[1]} ground columns"
        )
    W = gs.basis.conj().T @ UG
    lam = np.linalg.eigvals(W)
    dphi = float(abs(np.angle(lam[1] * np.conj(lam[0]))))
    defect = float(np.linalg.norm(W.conj().T @ W - np.eye(2), 2))
    return BraidReport(W, np.angle(lam), dphi, defect)


def evolve_exact(psi: np.ndarray, h: PauliSum, t: float) -> np.ndarray:
    """exp(-i*H*t)|psi> through a dense eigendecomposition."""
    evals, evecs = _dense_eigh(h)
    return evecs @ (np.exp(-1j * evals * t) * (evecs.conj().T @ psi))


def trotter_step(psi: np.ndarray, h: PauliSum, dt: float, reps: int = 1) -> np.ndarray:
    """First-order product formula for exp(-i*H*dt) in the fixed term order."""
    for string, angle in trotter_rotations(h, dt, reps):
        psi = apply_rotation(psi, string, angle)
    return psi


def trotter_adiabatic(
    psi: np.ndarray,
    h_init: PauliSum,
    h_final: PauliSum,
    tau: float,
    substeps: int,
    reps: int = 1,
) -> np.ndarray:
    """One protocol transition: S piecewise-constant slices of the linear
    interpolation, each Trotterised for duration tau/S."""
    for h_s, dt in trotter_slices(h_init, h_final, tau, substeps):
        psi = trotter_step(psi, h_s, dt, reps)
    return psi


def run_adiabatic(
    layout: QubitLayout,
    params: TrijunctionParams,
    tau: float,
    substeps: int,
    reps: int = 1,
) -> tuple[np.ndarray, float]:
    """Drive |Psi(0)>_+ through all six transitions; return the final state
    and its overlap-squared with |Psi(0)>_-."""
    gs = trijunction_ground_space(Configuration(1, 2), params, layout)
    mapped = {
        c: map_hamiltonian(trijunction_h(c, params), layout) for c in PROTOCOL_CONFIGS
    }
    psi = prepare_initial(gs, +1)
    for ci, cf in schedule():
        psi = trotter_adiabatic(psi, mapped[ci], mapped[cf], tau, substeps, reps)
    target = prepare_initial(gs, -1)
    return psi, fidelity(target, psi)
