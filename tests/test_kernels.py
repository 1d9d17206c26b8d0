"""Rotation kernel: unitarity, state/block agreement, the eigen-oracle, and
the per-string action cache."""

import itertools
import math

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


def test_block_rotation_is_the_state_rotation():
    assert kernels.rotate_matrix is kernels.apply_rotation


def test_real_block_rotates_like_its_complex_copy():
    """A float64 (2^Q, k) block is cast to complex128 first, so it rotates
    bit for bit like its complex copy."""
    rng = np.random.default_rng(16)
    num_qubits = 4
    M = rng.normal(size=(1 << num_qubits, 3))
    got = kernels.rotate_matrix(M, num_qubits, 9, 3, 1, 0.31)
    want = kernels.rotate_matrix(M.astype(np.complex128), num_qubits, 9, 3, 1, 0.31)
    assert got.dtype == np.complex128
    assert np.array_equal(bit_pattern(got), bit_pattern(want))


@pytest.mark.parametrize("rows", [8, 32])
def test_matrix_rotation_rejects_wrong_row_count(rows):
    M = np.zeros((rows, 2), dtype=np.complex128)
    with pytest.raises(ValueError, match="rows do not match"):
        kernels.rotate_matrix(M, 4, 9, 3, 0, 0.31)


@pytest.mark.parametrize("rows", [8, 32])
def test_string_action_rejects_wrong_row_count(rows):
    # With the permutation cached at 2^Q rows, a taller block would be cut
    # to 2^Q rows without this check.
    M = np.zeros((rows, 2), dtype=np.complex128)
    with pytest.raises(ValueError, match="rows do not match"):
        kernels.apply_string_to_matrix(M, 4, 9, 3, 0)


@pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("shape", [(16,), (16, 2)])
def test_rotation_rejects_a_non_finite_angle(theta, shape):
    # A NaN angle would give an all-NaN state, and inf a math domain error.
    M = np.ones(shape, dtype=np.complex128)
    with pytest.raises(ValueError, match=f"rotation angle {theta!r} is not finite"):
        kernels.apply_rotation(M, 4, 9, 3, 0, theta)


def uncached_rotation(M, num_qubits, x, z, phase_exp, theta):
    """exp(-i*theta*P) @ M with the string's action rebuilt on every call,
    in the kernel's own arithmetic, so the results must agree to the bit."""
    idx = np.arange(1 << num_qubits, dtype=np.uint64)
    par = np.bitwise_count(idx & np.uint64(z)) & 1
    i_powers = np.array([1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j])
    w = i_powers[(phase_exp + (x & z).bit_count()) & 3] * (1.0 - 2.0 * par)
    perm = np.arange(M.shape[0]) ^ x
    PM = w[perm].reshape(perm.shape + (1,) * (M.ndim - 1)) * M[perm]
    return math.cos(theta) * M - 1j * math.sin(theta) * PM


def random_string(rng, num_qubits):
    return (
        int(rng.integers(0, 1 << num_qubits)),
        int(rng.integers(0, 1 << num_qubits)),
        int(rng.integers(0, 4)),
        float(rng.uniform(-3, 3)),
    )


@pytest.mark.parametrize("num_qubits", [1, 4, 9, 10, 13])
def test_cached_action_is_bitwise_equal_to_uncached_formula(num_qubits):
    rng = np.random.default_rng(100 + num_qubits)
    dim = 1 << num_qubits
    for _ in range(6):
        x, z, e, theta = random_string(rng, num_qubits)
        psi = random_state(rng, num_qubits)
        block = rng.normal(size=(dim, 2)) + 1j * rng.normal(size=(dim, 2))
        keep_psi, keep_block = psi.copy(), block.copy()
        for _ in range(2):  # the first call fills the cache, the second reads it
            got = kernels.apply_rotation(psi, num_qubits, x, z, e, theta)
            want = uncached_rotation(psi, num_qubits, x, z, e, theta)
            assert np.array_equal(got, want)
            got = kernels.rotate_matrix(block, num_qubits, x, z, e, theta)
            want = uncached_rotation(block, num_qubits, x, z, e, theta)
            assert np.array_equal(got, want)
        assert np.array_equal(psi, keep_psi)
        assert np.array_equal(block, keep_block)


def test_cached_action_arrays_are_read_only():
    perm, wp = kernels.string_action(5, 0b10110, 0b01101, 0)
    assert not perm.flags.writeable
    assert not wp.flags.writeable
    with pytest.raises(ValueError):
        perm[0] = 1
    with pytest.raises(ValueError):
        wp[0] = 1.0


def test_more_strings_than_the_cache_holds_stay_correct():
    kernels.string_action.cache_clear()
    maxsize = kernels.string_action.cache_info().maxsize
    num_qubits = 8
    rng = np.random.default_rng(21)
    masks = rng.integers(0, 1 << num_qubits, size=(4 * maxsize, 2))
    strings = sorted({(int(x), int(z)) for x, z in masks})[: maxsize + 16]
    assert len(strings) == maxsize + 16
    psi = random_state(rng, num_qubits)
    for _ in range(2):
        for x, z in strings:
            got = kernels.apply_rotation(psi, num_qubits, x, z, 0, 0.4)
            want = uncached_rotation(psi, num_qubits, x, z, 0, 0.4)
            assert np.array_equal(got, want)
    assert kernels.string_action.cache_info().currsize == maxsize


def bit_pattern(a):
    """Each real and imaginary part as its raw 64-bit word, so that a signed
    zero differs from an unsigned one."""
    return np.ascontiguousarray(a).view(np.uint64)


def zero_rich(rng, shape):
    """Complex entries whose parts are signed zeros, +-1 or normal draws."""
    M = np.empty(shape, dtype=np.complex128)
    for part in (M.real, M.imag):
        special = rng.choice([0.0, -0.0, 1.0, -1.0], size=shape)
        part[...] = np.where(rng.random(shape) < 0.5, special, rng.normal(size=shape))
    return M


@pytest.mark.parametrize("phase_exp", range(4))
@pytest.mark.parametrize("cols", [None, 1, 3])
def test_fused_rotation_is_bitwise_the_two_term_formula(phase_exp, cols):
    """The in-place kernel gives cos(theta) M - i sin(theta) (P @ M) to the
    bit, signed zeros included, and leaves its input as it was."""
    rng = np.random.default_rng(400 + 10 * phase_exp + (cols or 0))
    for num_qubits in (1, 3, 6):
        dim = 1 << num_qubits
        shape = (dim,) if cols is None else (dim, cols)
        for theta in (0.0, -0.0, 0.37, -1.2, math.pi / 2, -math.pi / 2, math.pi):
            x = int(rng.integers(0, dim))
            z = int(rng.integers(0, dim))
            M = zero_rich(rng, shape)
            keep = M.copy()
            rotate = kernels.apply_rotation if cols is None else kernels.rotate_matrix
            got = rotate(M, num_qubits, x, z, phase_exp, theta)
            want = uncached_rotation(M, num_qubits, x, z, phase_exp, theta)
            assert got.shape == shape
            assert np.array_equal(bit_pattern(got), bit_pattern(want))
            assert np.array_equal(bit_pattern(M), bit_pattern(keep))


@pytest.mark.parametrize("num_qubits", [1, 2, 5, 9, 12])
def test_string_action_is_the_encoded_permutation_and_phases(num_qubits):
    """Index by index against the ``pauli`` encoding, P|j> = w(j)|j ^ x>:
    row i of P holds w(i ^ x) in column i ^ x, for the kernel table and for
    the dense matrix built from it."""
    rng = np.random.default_rng(700 + num_qubits)
    dim = 1 << num_qubits
    masks = rng.integers(0, dim, size=(3, 2)).tolist()
    for (x, z), e in itertools.product(masks, range(4)):
        want_perm = [i ^ x for i in range(dim)]
        want_wp = [
            1j ** ((e + (x & z).bit_count()) % 4) * (-1) ** ((i ^ x) & z).bit_count()
            for i in range(dim)
        ]
        perm, wp = kernels.string_action(num_qubits, x, z, e)
        assert perm.tolist() == want_perm
        assert wp.tolist() == want_wp
        if num_qubits <= 9:  # two dense 12-qubit matrices would take 512 MB
            dense = np.zeros((dim, dim), dtype=np.complex128)
            dense[np.arange(dim), want_perm] = want_wp
            assert np.array_equal(to_matrix(PauliString(num_qubits, x, z, e)), dense)
