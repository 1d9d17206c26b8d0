"""Exact state-vector dynamics and ground-space braid analysis.

States are plain complex128 arrays of length 2^Q treated as values: every
operation returns a fresh array and preserves the norm to better than 1e-12.
Exchange unitaries and Trotter factors are single Pauli rotations and go
through the numpy rotation kernel.  A ground space takes no eigensolve:
every term of a trijunction Hamiltonian pairs two Majorana modes that no
other term touches, so the mapped strings commute and the parity +1 (and
gauge +1) ground state is the image of commuting projectors, built with the
same kernel in O(terms * 2^Q); the unpaired Majorana mode maps it to its
partner.  The dense matrix (up to ``DENSE_QUBIT_LIMIT`` qubits, real
whenever H is) only certifies the pair, and only the exact-evolution oracle
diagonalises it.

A braid is projected through its action on the two ground columns: the
exchange rotations are applied to the 2^Q x 2 ground basis G and the 2 x 2
block G^dagger (U G) is read off.  The full 2^Q x 2^Q braid unitary is built
only as a test oracle.

Ground-space convention
-----------------------
Within the degenerate lowest eigenspace, at energy exactly -sum |c|, the
returned basis diagonalises the mapped zero-mode pair operator ("parity"):
column 0 has parity +1 and column 1, the free mode y_{b,n-1} applied to
column 0, parity -1; each has its first nonzero amplitude made real
positive.  There is no parity-free form.  On the coupler layout the lowest
eigenspace is four-dimensional (the gauge redundancy doubles it); column 0
has gauge +1 and the flip carries the arm-a gauge string, so column 1 has
gauge -1: the slice containing the reference single-site ground pair.
Reported braid phases are basis-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .hamiltonians import (
    TrijunctionParams,
    trijunction_h,
    trotter_rotations,
    trotter_slices,
    zero_mode_pair,
)
from .majorana import PROTOCOL_CONFIGS, Configuration, braid_exchanges, protocol_steps
from .mappings import QubitLayout, exchange_rotation, gauge_operator, map_hamiltonian, map_majorana, map_monomial
from .pauli import DENSE_QUBIT_LIMIT, PauliString, PauliSum, commutes, multiply

__all__ = [
    "BraidReport",
    "GroundSpace",
    "apply_braid",
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

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))  # phases of the support probe


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


def apply_braid(psi: np.ndarray, layout: QubitLayout, steps: int = 6) -> np.ndarray:
    """Apply the exchange sequence of the first ``steps`` protocol steps."""
    for o in braid_exchanges(layout.n, steps):
        psi = apply_rotation(psi, *exchange_rotation(o, layout))
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
    dphi: float
    unitarity_defect: float


def _fix_phase(v: np.ndarray) -> np.ndarray:
    lead = v[np.flatnonzero(v)[0]]
    return v * (lead.conjugate() / abs(lead))


def _gf2_rank(vectors: list[int]) -> int:
    """Rank over GF(2) of bit vectors held as ints."""
    pivots: dict[int, int] = {}  # leading bit -> row
    for v in vectors:
        while v and (lead := v.bit_length()) in pivots:
            v ^= pivots[lead]
        if v:
            pivots[lead] = v
    return len(pivots)


def _project(v: np.ndarray, stabilizers: list[tuple[float, PauliString]]) -> np.ndarray:
    """prod_k (1 + s_k P_k)/2 @ v for commuting strings P_k and signs s_k."""
    for sign, p in stabilizers:
        pv = kernels.apply_string_to_matrix(v, p.num_qubits, p.x, p.z, p.phase_exp)
        v = 0.5 * (v + sign * pv)
    return v


def _hermitian_product(H: np.ndarray, v: np.ndarray) -> np.ndarray:
    """H @ v for a Hermitian H, as (v^dagger H)^dagger: it reads only the rows
    of H on v's support.  Two products keep real rows real."""
    nz = np.flatnonzero(v)
    rows, w = H[nz], v[nz].conj()
    wH = w @ rows if np.iscomplexobj(H) else w.real @ rows + 1j * (w.imag @ rows)
    return wH.conj()


def ground_space(
    h: PauliSum,
    parity: tuple[float, PauliString],
    flip: PauliString,
    gauge: PauliString | None = None,
) -> GroundSpace:
    """Ground pair of ``h``, a sum of commuting strings, under the documented
    basis convention.

    ``parity`` is a (sign, string) pair for the conserved zero-mode operator;
    ``gauge`` restricts to its redundancy slice on the coupler layout.  Both
    must commute with every term of ``h`` and with each other; ``flip`` must
    commute with every term and anticommute with both, so it maps the (+, +)
    sector onto the (-, -) one, and column 1 is ``flip`` applied to column 0.

    Column 0 is the stabilizer state with P_k = -sign(c_k) for every term
    c_k P_k and +1 for both symmetries (Gottesman, quant-ph/9705052), so the
    energy is exactly -sum |c_k| (an identity term adds its own c).  Those
    strings must have GF(2) rank Q (one state) and consistent signs (a
    nonzero projection).  The projector
    applied to a fixed vector of distinct phases finds the state's first
    basis index i; applied to |i> it gives exact dyadic amplitudes with
    <i|g> > 0.  The dense matrix serves only to certify ||Hg - Eg|| for g in
    column 0, through the rows of H on g's support: every term is a
    real-weighted Hermitian string, so H = H^dagger.
    """
    for k, (_, s) in enumerate(h.terms):
        for _, t in h.terms[k + 1 :]:
            if not commutes(s, t):
                raise ValueError(f"terms {s.label()} and {t.label()} do not commute")
    symmetries = [parity] + ([(1.0, gauge)] if gauge is not None else [])
    for name, (_, s) in zip(("parity", "gauge"), symmetries):
        for _, other in (*h.terms, *symmetries):
            if not commutes(s, other):
                raise ValueError(
                    f"{name} string {s.label()} is not conserved: "
                    f"it anticommutes with {other.label()}"
                )
    checks = [(s, "commute") for _, s in h.terms] + [(s, "anticommute") for _, s in symmetries]
    for other, must in checks:
        if commutes(flip, other) != (must == "commute"):
            raise ValueError(f"flip string {flip.label()} must {must} with {other.label()}")
    energy = sum(c if s.is_identity else -abs(c) for c, s in h.terms)
    if not math.isfinite(energy):
        raise RuntimeError(f"ground pair energy {energy:.3g} is not finite")
    H = h.to_matrix()
    nq = h.num_qubits
    stabilizers = [(-math.copysign(1.0, c), s) for c, s in h.terms if not s.is_identity]
    stabilizers += symmetries
    if (rank := _gf2_rank([s.x << nq | s.z for _, s in stabilizers])) < nq:
        raise ValueError(f"parity/gauge slice has dimension {1 << (nq - rank)}, expected 1")
    probe = _project(np.exp(GOLDEN_ANGLE * 1j * np.arange(1 << nq)), stabilizers)
    i = int(np.argmax(np.abs(probe) > 0.5 * np.max(np.abs(probe))))
    g1 = np.zeros(1 << nq, dtype=np.complex128)
    g1[i] = 1.0
    g1 = _project(g1, stabilizers)
    if g1[i] == 0:  # exact: each projector adds and halves dyadic amplitudes
        raise ValueError("the (+, +) projection vanishes: the term and symmetry signs conflict")
    g1 /= math.sqrt(g1[i].real)  # <i|g1> = ||g1||^2, and i is g1's first nonzero index
    g2 = kernels.apply_string_to_matrix(g1, nq, flip.x, flip.z, flip.phase_exp)
    G = np.stack([g1, _fix_phase(g2)], axis=1)
    # Column 1, the flip times column 0, has the same residual.
    Hg = _hermitian_product(H, g1)
    # In units of the largest |c| the norm cannot overflow; NaN or inf fails.
    scale = max((abs(c) for c, _ in h.terms), default=1.0)
    residual = float(np.linalg.norm((Hg - energy * g1) / scale))
    bound = 1e-10 * sum(abs(c) / scale for c, _ in h.terms)
    if not residual <= bound:
        raise RuntimeError(
            f"ground pair residual {residual * scale:.3g} at energy {energy:.3g} "
            "is not certified"
        )
    return GroundSpace(G, np.full(2, energy))


def trijunction_ground_space(
    config: Configuration, params: TrijunctionParams, layout: QubitLayout
) -> GroundSpace:
    """Ground space of the mapped trijunction Hamiltonian, convention applied.

    The free mode y_{b,n-1} (absent from H_ab) flips the parity, and the arm-a
    gauge (coupler) flips the arm-c gauge and commutes with every mode: so all
    four (parity, gauge) sectors share a spectrum, and their product flips.
    """
    h = map_hamiltonian(trijunction_h(config, params), layout)
    pair = zero_mode_pair(config, params.n)
    sign_c, parity_string = map_monomial(pair, layout)
    parity = (float(sign_c.real), parity_string)
    flip = map_majorana(pair.factors[1], layout)
    if layout.kind == "continuous":
        return ground_space(h, parity, flip)
    gauge_a, gauge_c = (gauge_operator(layout, arm) for arm in (config.a, config.c))
    return ground_space(h, parity, multiply(flip, gauge_a), gauge_c)


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
    return BraidReport(W, dphi, defect)


def evolve_exact(psi: np.ndarray, h: PauliSum, t: float) -> np.ndarray:
    """exp(-i*H*t)|psi> through a dense eigendecomposition."""
    evals, evecs = np.linalg.eigh(h.to_matrix())
    return evecs @ (np.exp(-1j * evals * t) * (evecs.conj().T @ psi))


def trotter_step(psi: np.ndarray, h: PauliSum, dt: float, reps: int = 1) -> np.ndarray:
    """First-order product formula for exp(-i*H*dt) in the fixed term order."""
    rotate = kernels.apply_rotation
    for p, angle in trotter_rotations(h, dt, reps):
        psi = rotate(psi, p.num_qubits, p.x, p.z, p.phase_exp, angle)
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
    gs = trijunction_ground_space(PROTOCOL_CONFIGS[0], params, layout)
    mapped = {
        c: map_hamiltonian(trijunction_h(c, params), layout) for c in PROTOCOL_CONFIGS
    }
    psi = prepare_initial(gs, +1)
    for ci, cf in protocol_steps():
        psi = trotter_adiabatic(psi, mapped[ci], mapped[cf], tau, substeps, reps)
    target = prepare_initial(gs, -1)
    return psi, fidelity(target, psi)
