"""Pauli string algebra against the dense-matrix oracle."""

import copy
import itertools
import pickle
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from trijunction.hamiltonians import Configuration, TrijunctionParams, trijunction_h
from trijunction.mappings import coupler_layout, map_hamiltonian
from trijunction.pauli import (
    DENSE_QUBIT_LIMIT,
    PauliString,
    PauliSum,
    commutes,
    multiply,
    to_matrix,
)

I2 = np.eye(2)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
SINGLE = {"I": I2, "X": SX, "Y": SY, "Z": SZ}


def kron_oracle(label, phase_exp=0):
    m = np.array([[1.0 + 0.0j]])
    for ch in label:
        m = np.kron(m, SINGLE[ch])
    return (1j**phase_exp) * m


def random_string(rng, num_qubits):
    x = int(rng.integers(0, 1 << num_qubits))
    z = int(rng.integers(0, 1 << num_qubits))
    return PauliString(num_qubits, x, z, int(rng.integers(0, 4)))


def test_single_qubit_products():
    X = PauliString.from_label("X")
    Y = PauliString.from_label("Y")
    Z = PauliString.from_label("Z")
    assert multiply(X, Y) == PauliString.from_label("Z", phase_exp=1)
    assert multiply(Y, X) == PauliString.from_label("Z", phase_exp=3)
    assert multiply(Y, Z) == PauliString.from_label("X", phase_exp=1)
    assert multiply(Z, X) == PauliString.from_label("Y", phase_exp=1)
    assert multiply(X, X) == PauliString(1)


def test_identity_multiplication_is_neutral():
    rng = np.random.default_rng(0)
    ident = PauliString(3)
    for _ in range(20):
        s = random_string(rng, 3)
        assert multiply(ident, s) == s
        assert multiply(s, ident) == s


def test_matrix_of_label_matches_kron():
    for label in ("X", "Z", "XYZ", "IZY", "YIIX"):
        np.testing.assert_allclose(
            to_matrix(PauliString.from_label(label)), kron_oracle(label), atol=1e-15
        )


@pytest.mark.parametrize("phase_exp", range(4))
def test_every_short_label_parses_to_its_kron_product(phase_exp):
    # all 84 labels over IXYZ of length 1..3, in both cases
    for length in (1, 2, 3):
        for letters in itertools.product("IXYZ", repeat=length):
            label = "".join(letters)
            s = PauliString.from_label(label, phase_exp)
            assert s == PauliString.from_label(label.lower(), phase_exp)
            assert s.label() == label and s.phase_exp == phase_exp
            np.testing.assert_allclose(
                to_matrix(s), kron_oracle(label, phase_exp), atol=1e-15
            )


def test_to_matrix_basics():
    np.testing.assert_allclose(
        to_matrix(PauliString.from_label("Z")), np.diag([1.0, -1.0])
    )
    np.testing.assert_allclose(
        to_matrix(PauliString.from_label("X")), np.array([[0, 1], [1, 0]])
    )


def test_multiply_agrees_with_matrix_product():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a = random_string(rng, 3)
        b = random_string(rng, 3)
        np.testing.assert_allclose(
            to_matrix(multiply(a, b)), to_matrix(a) @ to_matrix(b), atol=1e-12
        )


def test_multiply_is_associative():
    rng = np.random.default_rng(2)
    for _ in range(50):
        a, b, c = (random_string(rng, 4) for _ in range(3))
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_phase_group_closure():
    rng = np.random.default_rng(3)
    for _ in range(100):
        a = random_string(rng, 4)
        b = random_string(rng, 4)
        assert multiply(a, b).phase_exp in (0, 1, 2, 3)


def test_commutes_matches_matrix_commutator():
    rng = np.random.default_rng(4)
    for _ in range(60):
        a = random_string(rng, 4)
        b = random_string(rng, 4)
        comm = to_matrix(a) @ to_matrix(b) - to_matrix(b) @ to_matrix(a)
        assert commutes(a, b) == (np.linalg.norm(comm) < 1e-12)


def test_commutes_cases():
    zi = PauliString.from_label("ZI")
    ix = PauliString.from_label("IX")
    x = PauliString.from_label("X")
    y = PauliString.from_label("Y")
    assert commutes(zi, ix)
    assert not commutes(x, y)
    assert commutes(x, x)


def test_length_mismatch_raises():
    with pytest.raises(ValueError):
        multiply(PauliString(2), PauliString(3))
    with pytest.raises(ValueError):
        commutes(PauliString(2), PauliString(3))


def test_dense_limit_enforced():
    with pytest.raises(ValueError):
        to_matrix(PauliString(DENSE_QUBIT_LIMIT + 1))


def test_weight_and_label_roundtrip():
    s = PauliString.from_label("XIZY")
    assert s.weight == 3
    assert s.label() == "XIZY"
    assert s.axis(0) == "Y" and s.axis(3) == "X"


def test_hermitian_square_is_identity_up_to_phase():
    rng = np.random.default_rng(5)
    for _ in range(30):
        s = random_string(rng, 3)
        sq = multiply(s, s)
        assert sq.is_identity
        assert sq.phase_exp == (2 * s.phase_exp) % 4


def test_pauli_sum_empty_and_single():
    empty = PauliSum(2)
    np.testing.assert_allclose(empty.to_matrix(), np.zeros((4, 4)))
    z = PauliSum(1, [(1.0, PauliString.from_label("Z"))])
    np.testing.assert_allclose(z.to_matrix(), np.diag([1.0, -1.0]))


def test_pauli_sum_merges_and_prunes():
    z = PauliString.from_label("Z")
    x = PauliString.from_label("X")
    h = PauliSum(1, [(1.0, z), (2.0, z), (0.5, x), (-0.5, x)])
    assert len(h) == 1
    assert h.terms[0][0] == pytest.approx(3.0)


def test_pauli_sum_normalization_idempotent():
    rng = np.random.default_rng(6)
    pairs = [
        (float(rng.normal()), random_string(rng, 3).drop_phase()) for _ in range(12)
    ]
    once = PauliSum(3, pairs)
    twice = PauliSum(3, once.terms)
    assert once.terms == twice.terms


def test_pauli_sum_rejects_non_hermitian_terms():
    iy = PauliString.from_label("Y", phase_exp=1)
    with pytest.raises(ValueError):
        PauliSum(1, [(1.0, iy)])


@pytest.mark.parametrize("coeff", [1e-13j, 1e-300j, 1e-12 + 1e-12j, 1e308 + 1e308j])
def test_an_imaginary_part_is_rejected_at_any_scale(coeff):
    # The imaginary part is measured against the real part, not against an
    # energy unit; abs(1e308 + 1e308j) would overflow to inf and accept it.
    with pytest.raises(ValueError, match="non-Hermitian"):
        PauliSum(1, [(coeff, PauliString.from_label("Z"))])


@pytest.mark.parametrize("coeff, terms", [(1 + 1e-13j, ((1.0, "Z"),)), (0j, ())])
def test_a_rounding_imaginary_part_is_dropped(coeff, terms):
    h = PauliSum(1, [(coeff, PauliString.from_label("Z"))])
    assert [(c, s.label()) for c, s in h.terms] == list(terms)


def test_pauli_sum_matrix_is_hermitian():
    rng = np.random.default_rng(7)
    pairs = [
        (float(rng.normal()), random_string(rng, 3).drop_phase()) for _ in range(10)
    ]
    H = PauliSum(3, pairs).to_matrix()
    np.testing.assert_allclose(H, H.conj().T, atol=1e-14)


@pytest.mark.parametrize(
    "labels,dtype",
    [
        (("ZI", "XX", "YY", "IZ"), np.float64),  # even Y counts: a real matrix
        (("YYYY", "XZXZ", "IIII"), np.float64),
        (("ZI", "XY"), np.complex128),  # one odd-Y string makes it complex
        (("IY", "YZ", "XX"), np.complex128),
    ],
)
def test_pauli_sum_matrix_is_real_exactly_for_even_y_counts(labels, dtype):
    rng = np.random.default_rng(len(labels))
    num_qubits = len(labels[0])
    pairs = [(float(rng.normal()), PauliString.from_label(s)) for s in labels]
    M = PauliSum(num_qubits, pairs).to_matrix()
    assert M.dtype == dtype
    np.testing.assert_array_equal(M, sum(c * to_matrix(s) for c, s in pairs))


@pytest.mark.parametrize("num_qubits", range(1, 11))
@pytest.mark.parametrize("real", [True, False])
def test_selected_rows_are_the_full_matrix_rows_bit_for_bit(num_qubits, real):
    """``to_matrix(rows)`` sums each entry from the same terms in the same
    order, so it is ``to_matrix()[rows]`` exactly, dtype included, for rows
    sorted, unsorted, repeated or none.  Strings share three X masks, so
    most entries sum several terms."""
    rng = np.random.default_rng(num_qubits)
    dim = 1 << num_qubits
    masks = rng.integers(0, dim, size=3)
    strings = [
        PauliString(num_qubits, int(x), int(rng.integers(0, dim)))
        for x in rng.choice(masks, size=4 * num_qubits)
    ]
    strings = [s for s in strings if (s.x & s.z).bit_count() % 2 == 0]
    if not real:
        strings.append(PauliString(num_qubits, 1, 1))  # one Y: complex
    h = PauliSum(num_qubits, [(float(rng.normal()), s) for s in strings])
    full = h.to_matrix()
    assert full.dtype == (np.float64 if real else np.complex128)
    for rows in (
        np.sort(rng.choice(dim, size=min(dim, 5), replace=False)),
        rng.permutation(dim)[:7],
        [dim - 1, 0, dim - 1, 0, 0],
        np.array([], dtype=int),
        np.arange(dim),
    ):
        part = h.to_matrix(rows)
        assert part.dtype == full.dtype
        assert np.array_equal(part, full[rows])


def test_pauli_sum_scalar_and_addition():
    z = PauliString.from_label("ZI")
    x = PauliString.from_label("IX")
    a = PauliSum(2, [(1.0, z)])
    b = PauliSum(2, [(2.0, x)])
    combo = 0.25 * a + b * 0.5
    np.testing.assert_allclose(
        combo.to_matrix(), 0.25 * to_matrix(z) + 1.0 * to_matrix(x)
    )


def test_term_order_is_deterministic():
    zz = PauliString.from_label("ZZ")
    ix = PauliString.from_label("IX")
    xi = PauliString.from_label("XI")
    h = PauliSum(2, [(1.0, zz), (1.0, xi), (1.0, ix)])
    labels = [s.label() for _, s in h.terms]
    assert labels == ["IX", "XI", "ZZ"]  # weight first, then label


def label_key(s):
    return (s.weight, s.label())


@pytest.mark.parametrize("num_qubits", [1, 2, 7, 8, 9, 16, 17, 25, 30, 64])
def test_sort_key_orders_as_weight_then_label(num_qubits):
    # The integer axis code must be the label read in base 4 (I, X, Y, Z as
    # the digits 0..3), so it gives the (weight, label) order; the qubit
    # counts cross byte and word boundaries of the masks.
    rng = random.Random(num_qubits)
    strings = []
    for _ in range(300):
        x = rng.getrandbits(num_qubits)
        z = rng.getrandbits(num_qubits)
        # Sparse strings too, so that equal weights are common at large Q.
        if rng.random() < 0.5:
            keep = rng.getrandbits(num_qubits) & rng.getrandbits(num_qubits)
            x, z = x & keep, z & keep
        strings.append(PauliString(num_qubits, x, z))
    digits = str.maketrans("IXYZ", "0123")
    for s in strings:
        assert s.sort_key() == (s.weight, int(s.label().translate(digits), 4))
    assert sorted(strings, key=PauliString.sort_key) == sorted(strings, key=label_key)
    pairs = [(rng.uniform(-1.0, 1.0), s) for s in strings]
    terms = [s for _, s in PauliSum(num_qubits, pairs).terms]
    assert terms == sorted(set(strings), key=label_key)


def bits(terms):
    """Terms with each coefficient as its exact type and bit pattern."""
    return [(type(c), c.hex(), s) for c, s in terms]


def random_sum(rng, num_qubits, size):
    pairs = []
    for _ in range(size):
        x = rng.getrandbits(num_qubits)
        z = rng.getrandbits(num_qubits)
        # Magnitudes from 1e-14 to 100, so that scaling prunes some terms.
        coeff = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-14.0, 2.0)
        pairs.append((coeff, PauliString(num_qubits, x, z)))
    return PauliSum(num_qubits, pairs)


@pytest.mark.parametrize("k", [2, 3.5, -2.5, 0, -0.0, 1e-13])
def test_real_scaling_keeps_terms_bitwise(k):
    rng = random.Random(7)
    for num_qubits in (1, 3, 6, 9):
        h = random_sum(rng, num_qubits, 40)
        want = PauliSum(num_qubits, ((k * c, s) for c, s in h.terms)).terms
        for scaled in (k * h, h * k):
            assert scaled.num_qubits == num_qubits
            assert bits(scaled.terms) == bits(want)


def test_complex_scaling_goes_through_the_hermitian_check():
    h = random_sum(random.Random(8), 4, 20)
    with pytest.raises(ValueError):
        1j * h
    with pytest.raises(ValueError):
        h * 1j
    assert bits(((1 + 0j) * h).terms) == bits(h.terms)


def test_cached_sort_key_matches_fresh_computation():
    rng = random.Random(9)
    for num_qubits in (1, 5, 9, 17, 30):
        x = rng.getrandbits(num_qubits)
        z = rng.getrandbits(num_qubits)
        s = PauliString(num_qubits, x, z)
        first = s.sort_key()
        assert s.sort_key() is first
        assert first == PauliString(num_qubits, x, z).sort_key()
        assert s == PauliString(num_qubits, x, z)
        assert hash(s) == hash(PauliString(num_qubits, x, z))
        for name in ("x", "_key"):
            with pytest.raises(AttributeError):
                setattr(s, name, 0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: PauliString.from_label("XA"),
        lambda: PauliString.from_label("X Z"),
    ],
    ids=["XA", "X Z"],
)
def test_unknown_axis_raises_value_error(build):
    with pytest.raises(ValueError, match="unknown axis .* on qubit"):
        build()


def test_lowercase_axes_are_accepted():
    assert PauliString.from_label("xz") == PauliString.from_label("XZ")


@pytest.mark.parametrize(
    "args",
    [(-1,), (0, 1), (2, 0b100), (2, 0, 0b1000), (2, -1), (2, 0, -2)],
)
def test_bad_qubit_count_or_bitmask_raises(args):
    with pytest.raises(ValueError):
        PauliString(*args)


def test_bitmasks_filling_every_qubit_are_accepted():
    s = PauliString(2, 0b11, 0b11)
    assert s.label() == "YY"


ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}


def sample_strings():
    """A string whose sort key is not computed yet, one whose key is, and a
    phased one."""
    fresh = PauliString.from_label("XYZI")
    keyed = PauliString.from_label("ZZXY")
    keyed.sort_key()
    phased = PauliString.from_label("YX", phase_exp=3)
    return [fresh, keyed, phased]


@pytest.mark.parametrize("trip", ROUND_TRIPS)
def test_strings_copy_and_pickle_as_values(trip):
    for s in sample_strings():
        t = ROUND_TRIPS[trip](s)
        assert t == s
        assert hash(t) == hash(s) == hash((s.num_qubits, s.x, s.z, s.phase_exp))
        assert t.sort_key() == s.sort_key()
        assert repr(t) == repr(s)


@pytest.mark.parametrize("trip", ROUND_TRIPS)
def test_mapped_sum_copies_and_pickles_bitwise(trip):
    params = TrijunctionParams(n=2)
    h = map_hamiltonian(trijunction_h(Configuration(1, 2), params), coupler_layout(2))
    assert len(h) > 0
    t = ROUND_TRIPS[trip](h)
    assert t.num_qubits == h.num_qubits
    assert bits(t.terms) == bits(h.terms)


def test_hash_is_the_value_tuple_with_reduced_phase():
    for exp in range(-4, 8):
        s = PauliString(3, 0b101, 0b110, exp)
        assert s.phase_exp == exp & 3
        assert hash(s) == hash((3, 0b101, 0b110, exp & 3))


def test_pauli_sum_equality_is_identity():
    h = random_sum(random.Random(10), 3, 6)
    twin = PauliSum(3, h.terms)
    assert bits(twin.terms) == bits(h.terms)
    assert h == h
    assert h != twin


@pytest.mark.parametrize(
    "value, names",
    [
        (PauliString.from_label("XZ"), ("num_qubits", "x", "z", "phase_exp", "_key")),
        (PauliSum(1, [(1.0, PauliString.from_label("Z"))]), ("num_qubits", "terms")),
    ],
    ids=["PauliString", "PauliSum"],
)
def test_fields_cannot_be_assigned(value, names):
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))


@st.composite
def summand_pairs(draw):
    """Two canonical sums on one qubit count, each possibly scaled as in an
    interpolation.  Some of b's terms cancel a's exactly, some leave a
    remainder of at most 1e-12, and the rest fall on any string."""
    n = draw(st.integers(1, 5))
    mask = st.integers(0, (1 << n) - 1)
    string = st.builds(PauliString, st.just(n), mask, mask)
    coeff = st.one_of(st.floats(-10.0, 10.0), st.floats(-1e-11, 1e-11))
    a = PauliSum(n, draw(st.lists(st.tuples(coeff, string), max_size=8)))
    b_terms = draw(st.lists(st.tuples(coeff, string), max_size=8))
    for c, s in a.terms:
        kind = draw(st.sampled_from(("keep", "cancel", "remainder")))
        if kind == "cancel":
            b_terms.append((-c, s))
        elif kind == "remainder":
            b_terms.append((-c + draw(st.floats(-1e-12, 1e-12)), s))
    b = PauliSum(n, b_terms)
    lam = draw(st.sampled_from((None, 0.0, 0.5, 1.0 / 3.0)))
    if lam is None:
        return a, b
    return (1.0 - lam) * a, lam * b


def labelled(num_qubits, *terms):
    return PauliSum(num_qubits, [(c, PauliString.from_label(s)) for c, s in terms])


@settings(max_examples=300, deadline=None)
@given(pair=summand_pairs())
@example(pair=(PauliSum(3), PauliSum(3)))
@example(pair=(PauliSum(2), labelled(2, (0.5, "XY"))))
@example(pair=(labelled(2, (0.7, "ZI"), (1.5, "XX")), labelled(2, (-0.7, "ZI"))))
@example(pair=(labelled(1, (1e-11, "Z")), labelled(1, (-9.5e-12, "Z"))))
@example(pair=(labelled(2, (0.5, "IZ")), labelled(2, (2.0, "XI"), (-1.0, "YI"))))
def test_addition_equals_the_constructor_on_the_joined_terms(pair):
    """``a + b`` merges two canonical sums into exactly the terms the checked
    constructor builds from both term lists, to the bit."""
    a, b = pair
    got = (a + b).terms
    assert bits(got) == bits(PauliSum(a.num_qubits, (*a.terms, *b.terms)).terms)
    keys = [s.sort_key() for _, s in got]
    assert keys == sorted(set(keys))
    assert all(c != 0 and s.phase_exp == 0 for c, s in got)
