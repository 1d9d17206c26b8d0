"""State-vector kernel: apply a Pauli-string rotation exp(-i*theta*P) in one pass.

Every Pauli string P (phase exponent e, X-mask x, Z-mask z over Q qubits) acts on
a computational basis state as a permutation plus phase,

    P |i> = w(i) |i XOR x>,   w(i) = i**(e + popcount(x & z)) * (-1)**popcount(i & z),

so row i of P @ M is w(i ^ x) * M[i ^ x] for any M whose rows are indexed by
basis states, and exp(-i*theta*P) @ M = cos(theta) M - i sin(theta) P @ M.
:func:`apply_rotation`, also bound as ``rotate_matrix``, does this for a state
vector and a (2^Q, k) block of columns alike: one vectorised numpy gather,
scaled in place and the result written over it, one temporary fewer than the
two-term expression and equal to it bit for bit.  This is the hot inner loop
of the simulator (exchange rotations and Trotter steps live here).  Bit b of
the index is qubit b; kets are written |q_{Q-1} ... q_1 q_0>.

A run repeats few strings: the three configurations map to 6n at n sites on
either layout, a braid's exchanges to 3n + 3.  So :func:`string_action` builds
each string's permutation i ^ x and phases w[i ^ x] once and keeps the 64 most
recent; the dense builders in ``trijunction.pauli`` scatter the pair.  The
14-qubit certificate stops every kernel path at n = 4, where a whole CLI run
touches at most 28 strings (11 MB at 14 qubits), so the cache never evicts.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "active_backend",
    "apply_rotation",
    "apply_string_to_matrix",
    "rotate_matrix",
    "string_action",
]

_I_POWERS = np.array([1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j])


@functools.lru_cache(maxsize=64)
def string_action(
    num_qubits: int, x: int, z: int, phase_exp: int
) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (perm, w[perm]) with perm = arange(2^Q) ^ x, so that
    (P @ M)[i] = w[perm][i] * M[perm[i]] and P[i, perm[i]] = w[perm][i]."""
    perm = np.arange(1 << num_qubits) ^ x
    par = np.bitwise_count(perm & z) & 1
    wp = _I_POWERS[(phase_exp + (x & z).bit_count()) & 3] * (1.0 - 2.0 * par)
    perm.setflags(write=False)
    wp.setflags(write=False)
    return perm, wp


def apply_string_to_matrix(
    M: np.ndarray, num_qubits: int, x: int, z: int, phase_exp: int
) -> np.ndarray:
    """P @ M, as a new array, for a complex state vector or (2^Q, k) block M
    whose rows are indexed like basis states."""
    if M.shape[0] != (1 << num_qubits):
        raise ValueError(f"{M.shape[0]} rows do not match {num_qubits} qubits")
    perm, wp = string_action(num_qubits, x, z, phase_exp)
    # Timed on a 2-vCPU Xeon, numpy 2.4: M[perm] gathers a 2^9 vector in
    # 1.5 us against 1.8 us for M.take (the adiabatic pass runs 6-9% slower
    # on take), while M.take gathers a (2^9, 2) block in 2.1 us against 12.8.
    if M.ndim == 1:
        out = M[perm]
        out *= wp
    else:
        out = M.take(perm, axis=0)
        out *= wp[:, None]
    return out


def active_backend() -> str:
    """Name of the kernel implementation; there is one, in numpy."""
    return "numpy"


def apply_rotation(
    M: np.ndarray, num_qubits: int, x: int, z: int, phase_exp: int, theta: float
) -> np.ndarray:
    """exp(-i*theta*P) @ M for a state vector or a (2^Q, k) block M, as a new
    complex128 array, bit for bit cos(theta) M - i sin(theta) P @ M."""
    if not math.isfinite(theta):
        raise ValueError(f"rotation angle {theta!r} is not finite")
    M = np.asarray(M, dtype=np.complex128)
    out = apply_string_to_matrix(M, num_qubits, x, z, phase_exp)
    out *= 1j * math.sin(theta)
    return np.subtract(math.cos(theta) * M, out, out=out)


# The benchmark traces state and block rotations under separate names.
rotate_matrix = apply_rotation
