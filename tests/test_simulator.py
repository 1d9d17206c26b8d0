"""State-vector protocol checks: ground spaces, braid phases, Trotter paths."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trijunction.hamiltonians import TrijunctionParams, trijunction_h, zero_mode_pair
from trijunction.majorana import (
    PROTOCOL_CONFIGS,
    Configuration,
    MajoranaHamiltonian,
    MajoranaIndex,
    MajoranaMonomial,
    braid_exchanges,
    conjugate_hamiltonian,
    conjugate_monomial,
)
from trijunction.mappings import (
    coupler_layout,
    exchange_rotation,
    gauge_operator,
    layout_for,
    map_hamiltonian,
    map_majorana,
    map_monomial,
)
from trijunction import kernels, simulator
from trijunction.cli import PHASE_TOL
from trijunction.pauli import PauliString, PauliSum, commutes, multiply, to_matrix
from trijunction.simulator import (
    apply_braid,
    apply_rotation,
    braid_unitary,
    evolve_exact,
    fidelity,
    ground_space,
    prepare_initial,
    project_braid,
    run_adiabatic,
    trijunction_ground_space,
    trotter_adiabatic,
    trotter_step,
)

CONFIG_12 = Configuration(1, 2)


def random_state(rng, num_qubits):
    dim = 1 << num_qubits
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def reference_pair(layout):
    """The two single-site ground vectors, written through the layout."""
    dim = 1 << layout.total_qubits

    def ket(arms):
        i = 0
        for a in arms:
            i |= 1 << layout.qubit(a, 0)
        v = np.zeros(dim, dtype=complex)
        v[i] = 1.0
        return v

    g1 = (ket([]) + ket([1, 2])) / np.sqrt(2.0)
    g2 = (ket([1]) + ket([2])) / np.sqrt(2.0)
    return g1, g2


def test_exchange_then_inverse_is_identity():
    rng = np.random.default_rng(31)
    layout = coupler_layout(2)
    psi = random_state(rng, layout.total_qubits)
    for o in braid_exchanges(2, 1):
        string, theta = exchange_rotation(o, layout)
        out = apply_rotation(apply_rotation(psi, string, theta), string, -theta)
        np.testing.assert_allclose(out, psi, atol=1e-12)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def test_exchange_applied_twice_equals_mode_pair_action():
    # O = (1 + g_k g_l)/sqrt(2) squares to g_k g_l, since (g_k g_l)^2 = -1
    rng = np.random.default_rng(32)
    layout = coupler_layout(1)
    psi = random_state(rng, 4)
    o = braid_exchanges(1, 1)[0]
    rotation = exchange_rotation(o, layout)
    twice = apply_rotation(apply_rotation(psi, *rotation), *rotation)
    c, s = map_monomial(MajoranaMonomial(1.0, (o.k, o.l)), layout)
    np.testing.assert_allclose(twice, c * to_matrix(s) @ psi, atol=1e-12)


def test_single_site_braid_matches_reference_block():
    layout = coupler_layout(1)
    U = braid_unitary(layout, 3)
    def ket_index(arms):
        i = 0
        for a in arms:
            i |= 1 << layout.qubit(a, 0)
        return i
    sub = [ket_index(s) for s in ([], [1], [2], [1, 2])]
    block = U[np.ix_(sub, sub)]
    want = np.array(
        [[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]],
        dtype=complex,
    )
    np.testing.assert_allclose(block, want, atol=1e-12)
    others = [i for i in range(16) if i not in sub]
    # every other basis state stays out of the braid's way
    assert np.linalg.norm(U[np.ix_(others, sub)]) < 1e-12


def test_braid_zero_steps_is_identity():
    layout = coupler_layout(2)
    U = braid_unitary(layout, 0)
    np.testing.assert_allclose(U, np.eye(U.shape[0]))


def test_ground_space_single_site_matches_reference_vectors():
    layout = coupler_layout(1)
    gs = trijunction_ground_space(CONFIG_12, TrijunctionParams(n=1), layout)
    g1, g2 = reference_pair(layout)
    np.testing.assert_allclose(gs.basis[:, 0], g1, atol=1e-12)
    np.testing.assert_allclose(gs.basis[:, 1], g2, atol=1e-12)
    np.testing.assert_allclose(gs.energies, [-2.0, -2.0], atol=1e-12)


@pytest.mark.parametrize("kind", ["coupler", "continuous"])
@pytest.mark.parametrize("n", [1, 2])
def test_ground_space_is_an_isometry(kind, n):
    layout = layout_for(kind, n)
    gs = trijunction_ground_space(CONFIG_12, TrijunctionParams(n=n), layout)
    np.testing.assert_allclose(
        gs.basis.conj().T @ gs.basis, np.eye(2), atol=1e-10
    )
    assert gs.energies[0] <= gs.energies[1]


def test_ground_space_requires_degeneracy():
    """H = Z with parity Z has a nondegenerate ground state, and no string
    both commutes with the term and anticommutes with the parity."""
    z = PauliString.from_label("Z")
    h = PauliSum(1, [(1.0, z)])
    for label in "IXYZ":
        with pytest.raises(ValueError, match=f"flip string {label} "):
            ground_space(h, (1.0, z), PauliString.from_label(label))


def test_ground_space_dense_limit():
    h = PauliSum(15)
    with pytest.raises(ValueError, match="limited to 14 qubits"):
        ground_space(h, (1.0, PauliString(15, z=1)), PauliString(15, x=1))


def test_ground_space_dense_limit_comes_before_any_projection(monkeypatch):
    """At 15 qubits, with strings that fix one state (GF(2) rank 15), the
    ceiling raises before the first 2^Q vector is projected."""

    def fail(*args):
        raise AssertionError("projected above the dense limit")

    monkeypatch.setattr(simulator, "_project", fail)
    h = PauliSum(15, [(1.0, PauliString(15, z=1 << q)) for q in range(1, 15)])
    with pytest.raises(ValueError, match="limited to 14 qubits"):
        ground_space(h, (1.0, PauliString(15, z=1)), PauliString(15, x=1))


def test_prepare_initial_superpositions():
    layout = coupler_layout(1)
    gs = trijunction_ground_space(CONFIG_12, TrijunctionParams(n=1), layout)
    plus = prepare_initial(gs, +1)
    minus = prepare_initial(gs, -1)
    assert abs(np.linalg.norm(plus) - 1.0) < 1e-12
    assert abs(np.vdot(plus, minus)) < 1e-12
    g1, g2 = reference_pair(layout)
    np.testing.assert_allclose(plus, (g1 + g2) / np.sqrt(2.0), atol=1e-12)
    with pytest.raises(ValueError):
        prepare_initial(gs, 0)


def test_project_braid_identity_gives_zero_phase():
    layout = coupler_layout(1)
    gs = trijunction_ground_space(CONFIG_12, TrijunctionParams(n=1), layout)
    report = project_braid(np.eye(16, dtype=complex), gs)
    assert report.dphi == pytest.approx(0.0, abs=1e-12)
    assert report.unitarity_defect < 1e-12


def test_project_braid_phase_spectrum_is_basis_invariant():
    rng = np.random.default_rng(33)
    layout = coupler_layout(1)
    gs = trijunction_ground_space(CONFIG_12, TrijunctionParams(n=1), layout)
    U = braid_unitary(layout, 3)
    base = project_braid(U, gs)
    from trijunction.simulator import GroundSpace

    for _ in range(5):
        A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        V, _ = np.linalg.qr(A)
        rotated = GroundSpace(gs.basis @ V, gs.energies)
        report = project_braid(U, rotated)
        assert report.dphi == pytest.approx(base.dphi, abs=1e-9)


def test_project_braid_dimension_checks():
    layout = coupler_layout(1)
    gs = trijunction_ground_space(CONFIG_12, TrijunctionParams(n=1), layout)
    with pytest.raises(ValueError):
        project_braid(np.eye(8, dtype=complex), gs)
    with pytest.raises(ValueError):
        project_braid(np.ones((4, 3), dtype=complex), gs)


@pytest.mark.parametrize("kind", ["coupler", "continuous"])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("steps", [3, 6])
def test_braid_on_ground_columns_matches_dense_oracle(kind, n, steps):
    layout = layout_for(kind, n)
    gs = trijunction_ground_space(CONFIG_12, TrijunctionParams(n=n), layout)
    U = braid_unitary(layout, steps)
    UG = braid_unitary(layout, steps, gs.basis)
    assert UG.shape == gs.basis.shape
    np.testing.assert_allclose(UG, U @ gs.basis, rtol=0, atol=1e-12)
    block = project_braid(UG, gs)
    full = project_braid(U, gs)
    np.testing.assert_allclose(block.ugs, full.ugs, rtol=0, atol=1e-12)
    assert block.dphi == pytest.approx(full.dphi, abs=1e-12)
    assert block.unitarity_defect == pytest.approx(full.unitarity_defect, abs=1e-12)


def test_braid_columns_must_match_the_register():
    layout = coupler_layout(1)
    with pytest.raises(ValueError):
        braid_unitary(layout, 3, np.eye(8, 2, dtype=complex))
    with pytest.raises(ValueError):
        braid_unitary(layout, 3, np.ones(16, dtype=complex))


def assert_matches_full_spectrum(config, layout, params):
    """Compare the ground space with the answer of one eigendecomposition of
    the whole complex matrix: the lowest cluster, sliced by parity and then
    by gauge eigenvalue, each column's first significant amplitude made real
    positive."""
    h = map_hamiltonian(trijunction_h(config, params), layout)
    sign, string = map_monomial(zero_mode_pair(config, params.n), layout)
    symmetries = [(sign.real, string)]
    if layout.kind == "coupler":
        symmetries.append((1.0, gauge_operator(layout, config.c)))
    evals, evecs = np.linalg.eigh(h.to_matrix())
    cluster = evecs[:, evals <= evals[0] + 1e-8]
    cols = []
    for target in (1.0, -1.0):
        sub = cluster
        for c, s in symmetries:
            w, V = np.linalg.eigh(sub.conj().T @ (c * to_matrix(s)) @ sub)
            sub = sub @ V[:, np.abs(w - target) < 1e-6]
        assert sub.shape[1] == 1
        v = sub[:, 0]
        lead = v[np.flatnonzero(np.abs(v) > 1e-8 * np.abs(v).max())[0]]
        cols.append(v * lead.conjugate() / abs(lead))
    gs = trijunction_ground_space(config, params, layout)
    np.testing.assert_allclose(gs.basis, np.stack(cols, axis=1), rtol=0, atol=1e-12)
    np.testing.assert_allclose(gs.energies, evals[:2], rtol=0, atol=1e-12)


@pytest.mark.parametrize("gaps", [{}, dict(delta=0.5, alpha=1.75, t_junction=1.25)])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", ["coupler", "continuous"])
@pytest.mark.parametrize("config", PROTOCOL_CONFIGS)
def test_sector_ground_space_matches_full_spectrum(config, kind, n, gaps):
    """The arm-1 and arm-2 gauges flip the coupler qubit and the arm-3 gauge
    is diagonal, so both kinds of symmetry orbit are covered."""
    params = TrijunctionParams(n=n, **gaps)
    assert_matches_full_spectrum(config, layout_for(kind, n), params)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("scale", [0.5, 2.0])
def test_real_eigh_ground_space_matches_complex(n, scale):
    """The coupler matrix is real, so the certificate multiplies it in real
    arithmetic; the complex full-spectrum answer agrees."""
    layout = coupler_layout(n)
    params = TrijunctionParams(n=n, delta=scale, alpha=scale, t_junction=scale)
    h = map_hamiltonian(trijunction_h(CONFIG_12, params), layout)
    assert h.to_matrix().dtype == np.float64
    assert_matches_full_spectrum(CONFIG_12, layout, params)


@pytest.mark.parametrize("kind,blocks", [("coupler", 4), ("continuous", 2)])
def test_ground_space_never_diagonalises_the_full_matrix(monkeypatch, kind, blocks):
    """No eigensolve at all.  The (+, +) sector, one of ``blocks`` symmetry
    sectors, is reached by two projection passes over every term and every
    symmetry string, and its partner by one application of the flip."""
    solves = []
    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, lambda *a, name=name, **k: solves.append(name))
    applied = []
    apply_string = kernels.apply_string_to_matrix

    def recording(*args):
        applied.append(args[1:])
        return apply_string(*args)

    monkeypatch.setattr(kernels, "apply_string_to_matrix", recording)
    layout = layout_for(kind, 3)
    params = TrijunctionParams(n=3)
    gs = trijunction_ground_space(CONFIG_12, params, layout)
    assert solves == []
    h = map_hamiltonian(trijunction_h(CONFIG_12, params), layout)
    symmetries = blocks.bit_length() - 1
    assert len(applied) == 2 * (len(h) + symmetries) + 1
    assert gs.basis.shape == (1 << layout.total_qubits, 2)


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("kind", ["coupler", "continuous"])
@pytest.mark.parametrize("config", PROTOCOL_CONFIGS)
def test_flip_maps_the_ground_sector_onto_its_partner(monkeypatch, config, kind, n):
    """Bitmask check of the strings ``trijunction_ground_space`` passes on.
    The unpaired mode y_{b,n-1} commutes with H_ab and flips the parity; on
    the coupler layout the arm-a gauge commutes with H_ab and the parity and
    flips the arm-c gauge.  So the four (parity, gauge) sectors share one
    spectrum, and the flip, their product, maps (+, +) onto (-, -)."""
    calls = []

    def recording(h, parity, flip, gauge=None):
        calls.append((h, parity, flip, gauge))

    monkeypatch.setattr(simulator, "ground_space", recording)
    layout = layout_for(kind, n)
    trijunction_ground_space(config, TrijunctionParams(n=n), layout)
    [(h, (_, parity), flip, gauge)] = calls
    terms = [s for _, s in h.terms]
    mode = map_majorana(MajoranaIndex(config.b, n - 1, "y"), layout)
    assert all(commutes(mode, t) for t in terms) and not commutes(mode, parity)
    if kind == "coupler":
        gauge_a = gauge_operator(layout, config.a)
        assert gauge == gauge_operator(layout, config.c)
        assert all(commutes(gauge_a, t) for t in (*terms, parity, mode))
        assert commutes(mode, gauge) and not commutes(gauge_a, gauge)
        assert flip == multiply(mode, gauge_a)
        assert not commutes(flip, gauge)
    else:
        assert gauge is None and flip == mode
    assert all(commutes(flip, t) for t in terms) and not commutes(flip, parity)


def test_ground_space_rejects_a_parity_that_is_not_conserved():
    h = PauliSum(2, [(1.0, PauliString.from_label("ZZ"))])
    with pytest.raises(ValueError, match="parity string XI is not conserved"):
        ground_space(
            h, (1.0, PauliString.from_label("XI")), PauliString.from_label("ZZ")
        )


def test_ground_space_rejects_a_gauge_that_is_not_conserved():
    h = PauliSum(2, [(1.0, PauliString.from_label("ZZ"))])
    with pytest.raises(ValueError, match="parity string XX .* anticommutes with ZI"):
        ground_space(
            h,
            parity=(1.0, PauliString.from_label("XX")),
            flip=PauliString.from_label("IZ"),
            gauge=PauliString.from_label("ZI"),
        )
    with pytest.raises(ValueError, match="gauge string IX .* anticommutes with ZZ"):
        ground_space(
            h,
            parity=(1.0, PauliString.from_label("ZI")),
            flip=PauliString.from_label("XI"),
            gauge=PauliString.from_label("IX"),
        )


def test_ground_space_rejects_a_flip_that_is_not_conserved():
    h = PauliSum(2, [(1.0, PauliString.from_label("ZZ"))])
    with pytest.raises(ValueError, match="flip string XI must commute with ZZ"):
        ground_space(
            h, (1.0, PauliString.from_label("ZI")), PauliString.from_label("XI")
        )


def test_ground_space_rejects_a_flip_that_keeps_the_gauge():
    """XX flips the parity ZI, and the gauge IZ but not the gauge ZZ.  With
    the gauge IZ the signs -ZZ, +ZI, +IZ contradict each other: the (+, +)
    sector holds only |00>, at energy +1, above the ground level -1."""
    h = PauliSum(2, [(1.0, PauliString.from_label("ZZ"))])
    parity, flip = (1.0, PauliString.from_label("ZI")), PauliString.from_label("XX")
    with pytest.raises(ValueError, match=r"\(\+, \+\) projection vanishes"):
        ground_space(h, parity, flip, gauge=PauliString.from_label("IZ"))
    with pytest.raises(ValueError, match="flip string XX must anticommute with ZZ"):
        ground_space(h, parity, flip, gauge=PauliString.from_label("ZZ"))


def test_ground_space_rejects_terms_that_do_not_commute():
    h = PauliSum(2, [(1.0, PauliString.from_label("ZI")), (0.5, PauliString.from_label("XI"))])
    with pytest.raises(ValueError, match="terms XI and ZI do not commute"):
        ground_space(h, (1.0, PauliString.from_label("IZ")), PauliString.from_label("IX"))


def test_ground_space_counts_the_free_qubits():
    """ZZI fixes one qubit pair and the parity ZII one more: the third qubit
    is free, so the slice is two-dimensional."""
    h = PauliSum(3, [(1.0, PauliString.from_label("ZZI"))])
    with pytest.raises(ValueError, match="dimension 2, expected 1"):
        ground_space(h, (1.0, PauliString.from_label("ZII")), PauliString.from_label("XXI"))


def test_ground_space_of_commuting_strings():
    """-XX + 0.25 II with parity ZZ: the Bell state (|00> + |11>)/sqrt(2),
    paired by the flip XI with (|01> + |10>)/sqrt(2); the identity term
    shifts the energy -1 by its own coefficient."""
    h = PauliSum(2, [
        (-1.0, PauliString.from_label("XX")), (0.25, PauliString.from_label("II"))
    ])
    gs = ground_space(h, (1.0, PauliString.from_label("ZZ")), PauliString.from_label("XI"))
    want = np.array([[1, 0], [0, 1], [0, 1], [1, 0]]) / np.sqrt(2.0)
    np.testing.assert_allclose(gs.basis, want, rtol=0, atol=1e-15)
    np.testing.assert_array_equal(gs.energies, [-0.75, -0.75])


def test_ground_space_is_certified_by_the_dense_matrix(monkeypatch):
    """The dense matrix is an independent check: a wrong one is caught."""
    layout = coupler_layout(1)
    to_matrix = PauliSum.to_matrix
    monkeypatch.setattr(PauliSum, "to_matrix", lambda h, rows: (1.01 * to_matrix(h))[rows])
    with pytest.raises(RuntimeError, match="residual .* is not certified"):
        trijunction_ground_space(CONFIG_12, TrijunctionParams(n=1), layout)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["coupler", "continuous"])
def test_support_rows_give_the_dense_residual(kind, n):
    """The certificate reads H only on g's support rows; its residual is the
    full product's, within 1e-15 sum |c|, on real and complex matrices."""
    layout = layout_for(kind, n)
    params = TrijunctionParams(n=n)
    h = map_hamiltonian(trijunction_h(CONFIG_12, params), layout)
    gs = trijunction_ground_space(CONFIG_12, params, layout)
    H, g, energy = h.to_matrix(), gs.basis[:, 0], gs.energies[0]
    assert np.count_nonzero(g) < g.size
    rows = simulator._hermitian_product(h, g)
    full = H @ g
    total = sum(abs(c) for c, _ in h.terms)
    assert np.max(np.abs(rows - full)) <= 1e-15 * total
    residuals = [np.linalg.norm(Hg - energy * g) for Hg in (rows, full)]
    assert abs(residuals[0] - residuals[1]) <= 1e-15 * total


@pytest.mark.parametrize("kind", ["coupler", "continuous"])
@pytest.mark.parametrize("where", ["diagonal", "off-support column"])
def test_a_hermitian_change_on_a_support_row_fails_the_certificate(monkeypatch, kind, where):
    """Changing H[k, j] and H[j, k] together, for k on g's support, moves
    (Hg)_j or (Hg)_k: the rows of the support see a change that only row j
    of the full product reads."""
    layout = layout_for(kind, 2)
    params = TrijunctionParams(n=2)
    g = trijunction_ground_space(CONFIG_12, params, layout).basis[:, 0]
    support = np.flatnonzero(g)
    k = int(support[1])
    j = k if where == "diagonal" else int(np.flatnonzero(g == 0)[0])
    change = 1e-3 if kind == "coupler" or j == k else 1e-3j
    to_matrix = PauliSum.to_matrix

    def perturbed(h, rows):
        H = to_matrix(h).copy()
        H[k, j] += change
        if j != k:
            H[j, k] += np.conj(change)
        return H[rows]

    monkeypatch.setattr(PauliSum, "to_matrix", perturbed)
    with pytest.raises(RuntimeError, match="residual .* is not certified"):
        trijunction_ground_space(CONFIG_12, params, layout)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["coupler", "continuous"])
def test_ground_space_builds_only_the_support_rows(monkeypatch, kind, n):
    """One ``to_matrix`` call per ground space, for exactly the rows on which
    column 0 is nonzero; the whole 2^Q x 2^Q matrix is never filled."""
    built = []
    to_matrix = PauliSum.to_matrix

    def recording(h, rows=None):
        built.append(rows)
        return to_matrix(h, rows)

    monkeypatch.setattr(PauliSum, "to_matrix", recording)
    layout = layout_for(kind, n)
    g = trijunction_ground_space(CONFIG_12, TrijunctionParams(n=n), layout).basis[:, 0]
    [rows] = built
    np.testing.assert_array_equal(rows, np.flatnonzero(g))
    assert len(rows) == np.count_nonzero(g) < g.size


def test_ground_space_certificate_is_scale_free():
    """The residual is measured in units of the largest |c|: its rounding
    error at 1e300 does not overflow the norm, and it needs no term."""
    z, x = PauliString.from_label("Z"), PauliString.from_label("X")
    gs = ground_space(PauliSum(1), (1.0, z), x)
    np.testing.assert_array_equal(gs.energies, [0.0, 0.0])
    params = TrijunctionParams(n=2, delta=1e300, alpha=1e300, t_junction=1e300)
    gs = trijunction_ground_space(CONFIG_12, params, coupler_layout(2))
    np.testing.assert_array_equal(gs.energies, [-5e300, -5e300])


GAP = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)  # log-uniform on [1e-3, 1e3]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", ["coupler", "continuous"])
@settings(max_examples=15, deadline=None)
@given(delta=GAP, alpha=GAP, t_junction=GAP)
def test_ground_pair_and_braid_phases_over_the_gap_scales(kind, n, delta, alpha, t_junction):
    """The ground pair is an isometry at energy -sum |c| and both braids
    give their exact phases, within the CLI's tolerance, at any gap scales."""
    params = TrijunctionParams(n=n, delta=delta, alpha=alpha, t_junction=t_junction)
    layout = layout_for(kind, n)
    h = map_hamiltonian(trijunction_h(CONFIG_12, params), layout)
    gs = trijunction_ground_space(CONFIG_12, params, layout)
    np.testing.assert_allclose(gs.basis.conj().T @ gs.basis, np.eye(2), rtol=0, atol=1e-12)
    assert gs.energies.tolist() == [-sum(abs(c) for c, _ in h.terms)] * 2
    single = braid_unitary(layout, 3, gs.basis)
    assert abs(project_braid(single, gs).dphi - np.pi / 2) <= PHASE_TOL
    double = braid_unitary(layout, 3, single)
    assert abs(project_braid(double, gs).dphi - np.pi) <= PHASE_TOL


def symbolic_dphi(n, steps):
    """|arg(a2/a1)| of the braid on the ground pair of H_12, read off the
    image of the free mode y_b = y_{2,n-1} under the exchanges alone: s*y_b
    gives a2/a1 = s, and s*y_a (y_a = y_{1,n-1}) gives i*s."""
    y_a, y_b = MajoranaIndex(1, n - 1, "y"), MajoranaIndex(2, n - 1, "y")
    one_mode = MajoranaHamiltonian([MajoranaMonomial(1.0, (y_b,))], n)
    (image,) = conjugate_hamiltonian(one_mode, braid_exchanges(n, steps)).terms
    ratio = {(y_b,): 1, (y_a,): 1j}[image.factors] * image.coefficient
    return abs(np.angle(ratio))


@pytest.mark.parametrize("steps", [3, 6])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", ["coupler", "continuous"])
def test_symbolic_braid_phase_matches_the_state_vector(kind, n, steps):
    layout = layout_for(kind, n)
    gs = trijunction_ground_space(CONFIG_12, TrijunctionParams(n=n), layout)
    report = project_braid(braid_unitary(layout, steps, gs.basis), gs)
    assert abs(symbolic_dphi(n, steps) - report.dphi) <= PHASE_TOL


@pytest.mark.parametrize("n", [1, 2, 3, 10, 100, 1000])
def test_symbolic_braid_phases_are_exact_at_any_n(n):
    assert symbolic_dphi(n, 3) == np.pi / 2
    assert symbolic_dphi(n, 6) == np.pi


def test_odd_y_hamiltonian_keeps_complex_eigh():
    layout = layout_for("continuous", 3)
    h = map_hamiltonian(trijunction_h(CONFIG_12, TrijunctionParams(n=3)), layout)
    assert np.linalg.eigh(h.to_matrix())[1].dtype == np.complex128


def test_project_braid_rejects_other_shapes():
    layout = coupler_layout(1)
    gs = trijunction_ground_space(CONFIG_12, TrijunctionParams(n=1), layout)
    for shape in [(16, 1), (16, 3), (8, 2), (2, 16), (16, 16, 1)]:
        with pytest.raises(ValueError):
            project_braid(np.ones(shape, dtype=complex), gs)


@pytest.mark.parametrize("n,tol", [(1, 1e-9), (2, 1e-8), (3, 1e-6)])
def test_braid_phases(n, tol):
    layout = coupler_layout(n)
    gs = trijunction_ground_space(CONFIG_12, TrijunctionParams(n=n), layout)
    single = project_braid(braid_unitary(layout, 3), gs)
    double = project_braid(braid_unitary(layout, 6), gs)
    assert abs(single.dphi - np.pi / 2) < tol
    assert abs(double.dphi - np.pi) < tol
    assert single.unitarity_defect < 1e-8
    assert double.unitarity_defect < 1e-8


def test_double_braid_squares_the_single_braid():
    layout = coupler_layout(2)
    U3 = braid_unitary(layout, 3)
    U6 = braid_unitary(layout, 6)
    np.testing.assert_allclose(U6, U3 @ U3, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2])
def test_full_protocol_swaps_the_superpositions(n):
    layout = coupler_layout(n)
    gs = trijunction_ground_space(CONFIG_12, TrijunctionParams(n=n), layout)
    for sign in (+1, -1):
        psi = prepare_initial(gs, sign)
        final = apply_braid(psi, layout, 6)
        target = prepare_initial(gs, -sign)
        assert fidelity(target, final) >= 1.0 - 1e-9


def test_apply_braid_composes():
    rng = np.random.default_rng(34)
    layout = coupler_layout(1)
    psi = random_state(rng, 4)
    once = apply_braid(apply_braid(psi, layout, 3), layout, 3)
    twice = apply_braid(psi, layout, 6)
    np.testing.assert_allclose(once, twice, atol=1e-12)


@pytest.mark.parametrize("kind", ["coupler", "continuous"])
@pytest.mark.parametrize("n", [1, 2])
def test_exchange_conjugation_bridge(kind, n):
    """Matrix conjugation by each exchange equals the symbolic transform."""
    layout = layout_for(kind, n)
    params = TrijunctionParams(n=n)
    terms = []
    for config in (Configuration(1, 2), Configuration(1, 3), Configuration(2, 3)):
        terms.extend(trijunction_h(config, params).terms)
    for o in sorted(set(braid_exchanges(n, 6))):
        string, theta = exchange_rotation(o, layout)
        P = to_matrix(string)
        O = np.cos(theta) * np.eye(P.shape[0]) - 1j * np.sin(theta) * P
        for term in terms:
            c0, s0 = map_monomial(term, layout)
            c1, s1 = map_monomial(conjugate_monomial(term, o), layout)
            lhs = O @ (c0 * to_matrix(s0)) @ O.conj().T
            assert np.linalg.norm(lhs - c1 * to_matrix(s1), 2) < 1e-10


def test_evolve_exact_basics():
    rng = np.random.default_rng(35)
    layout = coupler_layout(1)
    h = map_hamiltonian(trijunction_h(CONFIG_12, TrijunctionParams(n=1)), layout)
    psi = random_state(rng, 4)
    np.testing.assert_allclose(evolve_exact(psi, h, 0.0), psi, atol=1e-12)
    H = h.to_matrix()
    evolved = evolve_exact(psi, h, 0.8)
    before = np.vdot(psi, H @ psi).real
    after = np.vdot(evolved, H @ evolved).real
    assert abs(before - after) < 1e-10
    assert abs(np.linalg.norm(evolved) - 1.0) < 1e-12


def test_trotter_constant_hamiltonian_converges_like_one_over_s():
    rng = np.random.default_rng(36)
    layout = coupler_layout(1)
    params = TrijunctionParams(n=1)
    h12 = map_hamiltonian(trijunction_h(Configuration(1, 2), params), layout)
    h13 = map_hamiltonian(trijunction_h(Configuration(1, 3), params), layout)
    h = 0.5 * h12 + 0.5 * h13  # non-commuting terms
    psi = random_state(rng, 4)
    exact = evolve_exact(psi, h, 1.0)
    substeps = np.array([2, 5, 10, 20, 50])
    errors = [
        np.linalg.norm(trotter_adiabatic(psi, h, h, 1.0, int(S)) - exact)
        for S in substeps
    ]
    slope = np.polyfit(np.log(substeps), np.log(errors), 1)[0]
    assert -1.3 < slope < -0.7
    assert errors[-1] < errors[0]


def test_trotter_step_respects_reps():
    rng = np.random.default_rng(37)
    layout = coupler_layout(1)
    h = map_hamiltonian(trijunction_h(CONFIG_12, TrijunctionParams(n=1)), layout)
    psi = random_state(rng, 4)
    two_reps = trotter_step(psi, h, 0.5, reps=2)
    chained = trotter_step(trotter_step(psi, h, 0.25), h, 0.25)
    np.testing.assert_allclose(two_reps, chained, atol=1e-12)
    with pytest.raises(ValueError):
        trotter_step(psi, h, 0.1, reps=0)


@pytest.mark.parametrize("dt", [np.inf, -np.inf, np.nan])
def test_trotter_step_rejects_a_non_finite_duration(dt):
    layout = layout_for("continuous", 1)
    h = map_hamiltonian(trijunction_h(CONFIG_12, TrijunctionParams(n=1)), layout)
    psi = np.zeros(1 << layout.total_qubits, dtype=complex)
    psi[0] = 1.0
    with pytest.raises(ValueError, match="rotation angle .* is not finite"):
        trotter_step(psi, h, dt)


def test_run_adiabatic_vanishing_tau_keeps_the_state():
    layout = coupler_layout(1)
    _, fid = run_adiabatic(layout, TrijunctionParams(n=1), tau=1e-8, substeps=2)
    assert fid < 1e-12  # <Psi_-|Psi_+> = 0


def test_run_adiabatic_fidelity_improves_with_substeps():
    layout = coupler_layout(1)
    params = TrijunctionParams(n=1)
    fids = [
        run_adiabatic(layout, params, tau=8.0, substeps=S)[1] for S in (2, 10, 50)
    ]
    assert fids[0] - 1e-3 <= fids[1] <= fids[2] + 1e-3
    assert fids[2] > 0.85


def test_fidelity_properties():
    rng = np.random.default_rng(38)
    a = random_state(rng, 3)
    b = random_state(rng, 3)
    assert fidelity(a, a) == pytest.approx(1.0)
    assert fidelity(a, b) == pytest.approx(fidelity(b, a))
    e0, e1 = np.eye(8, 2, dtype=complex).T
    assert fidelity(e0, e1) == 0.0
    with pytest.raises(ValueError):
        fidelity(np.eye(4)[0], e0)


def test_norm_preserved_along_full_protocol():
    layout = coupler_layout(2)
    gs = trijunction_ground_space(CONFIG_12, TrijunctionParams(n=2), layout)
    psi = prepare_initial(gs, +1)
    for o in braid_exchanges(2, 6):
        psi = apply_rotation(psi, *exchange_rotation(o, layout))
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
