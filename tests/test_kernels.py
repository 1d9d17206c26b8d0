"""Rotation kernel: unitarity, state/block agreement, and the eigen-oracle."""

import numpy as np
import pytest

from trijunction import kernels
from trijunction.pauli import PauliString, to_matrix


def random_state(rng, num_qubits):
    dim = 1 << num_qubits
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def expm_oracle(H, t):
    """exp(-i*H*t) through an eigendecomposition (independent of the kernel)."""
    evals, evecs = np.linalg.eigh(H)
    return (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T


def test_rotation_matches_eigen_oracle():
    rng = np.random.default_rng(12)
    for _ in range(20):
        num_qubits = int(rng.integers(1, 5))
        x = int(rng.integers(0, 1 << num_qubits))
        z = int(rng.integers(0, 1 << num_qubits))
        theta = float(rng.uniform(-3, 3))
        string = PauliString(num_qubits, x, z, 0)
        psi = random_state(rng, num_qubits)
        got = kernels.apply_rotation(psi, num_qubits, x, z, 0, theta)
        want = expm_oracle(to_matrix(string), theta) @ psi
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_rotation_preserves_norm_and_inverts():
    rng = np.random.default_rng(13)
    for _ in range(20):
        num_qubits = int(rng.integers(1, 8))
        psi = random_state(rng, num_qubits)
        x = int(rng.integers(0, 1 << num_qubits))
        z = int(rng.integers(0, 1 << num_qubits))
        theta = float(rng.uniform(-3, 3))
        rotated = kernels.apply_rotation(psi, num_qubits, x, z, 0, theta)
        assert abs(np.linalg.norm(rotated) - 1.0) < 1e-12
        back = kernels.apply_rotation(rotated, num_qubits, x, z, 0, -theta)
        np.testing.assert_allclose(back, psi, atol=1e-12)


def test_input_state_is_not_mutated():
    rng = np.random.default_rng(14)
    psi = random_state(rng, 4)
    keep = psi.copy()
    kernels.apply_rotation(psi, 4, 5, 9, 0, 0.7)
    np.testing.assert_array_equal(psi, keep)


def test_matrix_rotation_matches_columnwise_state_rotation():
    rng = np.random.default_rng(15)
    num_qubits = 4
    dim = 1 << num_qubits
    M = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    x, z, theta = 9, 3, 0.31
    rotated = kernels.rotate_matrix(M, num_qubits, x, z, 0, theta)
    for col in (0, 7, dim - 1):
        np.testing.assert_allclose(
            rotated[:, col],
            kernels.apply_rotation(M[:, col], num_qubits, x, z, 0, theta),
            atol=1e-12,
        )


@pytest.mark.parametrize("rows", [8, 32])
def test_matrix_rotation_rejects_wrong_row_count(rows):
    M = np.zeros((rows, 2), dtype=np.complex128)
    with pytest.raises(ValueError, match="rows do not match"):
        kernels.rotate_matrix(M, 4, 9, 3, 0, 0.31)
