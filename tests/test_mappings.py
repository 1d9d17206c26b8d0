"""Mode-to-string translations: locality, algebra faithfulness, gauge sector."""

import itertools
import math

import numpy as np
import pytest

from trijunction.hamiltonians import Configuration, TrijunctionParams, trijunction_h
from trijunction.majorana import (
    ExchangeOperator,
    MajoranaIndex,
    MajoranaMonomial,
    braid_exchanges,
)
from trijunction.mappings import (
    QubitLayout,
    coupler_layout,
    exchange_rotation,
    gauge_operator,
    layout_for,
    map_hamiltonian,
    map_majorana,
    map_monomial,
)
from trijunction.pauli import PauliString, commutes, multiply, to_matrix


def g(arm, site, orientation):
    return MajoranaIndex(arm, site, orientation)


def all_modes(n):
    return [g(a, s, o) for a in (1, 2, 3) for s in range(n) for o in ("x", "y")]


def test_layout_shapes():
    assert coupler_layout(2).total_qubits == 7
    assert layout_for("continuous", 2).total_qubits == 6
    assert coupler_layout(3).coupler_qubit == 9
    with pytest.raises(ValueError):
        QubitLayout("ring", 2)
    with pytest.raises(ValueError):
        layout_for("continuous", 0)


def test_layout_assignment_is_a_bijection():
    for layout in (coupler_layout(3), layout_for("continuous", 3)):
        qubits = [layout.qubit(a, s) for a in (1, 2, 3) for s in range(3)]
        if layout.kind == "coupler":
            qubits.append(layout.coupler_qubit)
        assert sorted(qubits) == list(range(layout.total_qubits))


def test_coupler_map_site_zero_is_weight_two():
    layout = coupler_layout(1)
    s = map_majorana(g(1, 0, "x"), layout)
    assert s.weight == 2
    assert s.axis(layout.coupler_qubit) == "X"
    assert s.axis(layout.qubit(1, 0)) == "X"
    assert s.phase_exp == 0


def test_coupler_map_carries_z_chain_up_the_arm():
    layout = coupler_layout(3)
    s = map_majorana(g(1, 2, "y"), layout)
    assert s.axis(layout.coupler_qubit) == "X"
    assert s.axis(layout.qubit(1, 0)) == "Z"
    assert s.axis(layout.qubit(1, 1)) == "Z"
    assert s.axis(layout.qubit(1, 2)) == "Y"
    assert s.weight == 4


def test_continuous_map_first_site_is_bare():
    s = map_majorana(g(1, 0, "x"), layout_for("continuous", 2))
    assert s.weight == 1
    assert s.axis(0) == "X"


def test_continuous_map_z_tail_spans_previous_arms():
    layout = layout_for("continuous", 2)
    s = map_majorana(g(2, 1, "y"), layout)  # global site 3
    assert [s.axis(q) for q in range(layout.total_qubits)] == [
        "Z", "Z", "Z", "Y", "I", "I",
    ]


def test_invalid_mode_raises():
    with pytest.raises(ValueError):
        map_majorana(g(1, 5, "x"), coupler_layout(2))
    with pytest.raises(ValueError):
        map_majorana(g(4, 0, "x"), coupler_layout(2))
    with pytest.raises(ValueError):
        gauge_operator(coupler_layout(2), 4)


@pytest.mark.parametrize("kind", ["coupler", "continuous"])
@pytest.mark.parametrize("orientation", ["z", "i", "X"])
def test_orientation_other_than_x_or_y_raises(kind, orientation):
    with pytest.raises(ValueError, match="orientation must be 'x' or 'y'"):
        map_majorana(g(1, 1, orientation), QubitLayout(kind, 2))


def letter_rule_mode(m, layout):
    """Reference: coupler letter of the arm, site letter, Z chain below the site
    (within the arm on the coupler layout, over all lower qubits otherwise)."""
    axes = ["I"] * layout.total_qubits
    q = (m.arm - 1) * layout.n + m.site
    first = q - m.site if layout.kind == "coupler" else 0
    axes[first:q] = ["Z"] * (q - first)
    axes[q] = m.orientation.upper()
    if layout.kind == "coupler":
        axes[3 * layout.n] = "XYZ"[m.arm - 1]
    return PauliString.from_label("".join(reversed(axes)))


def letter_rule_gauge(layout, arm):
    """Reference: coupler letter of ``arm``, Z on every site of the other arms."""
    axes = ["Z"] * (3 * layout.n) + ["XYZ"[arm - 1]]
    first = (arm - 1) * layout.n
    axes[first:first + layout.n] = ["I"] * layout.n
    return PauliString.from_label("".join(reversed(axes)))


@pytest.mark.parametrize("kind", ["coupler", "continuous"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_mode_and_gauge_strings_match_the_letter_rule(kind, n):
    layout = QubitLayout(kind, n)
    for m in all_modes(n):
        assert map_majorana(m, layout) == letter_rule_mode(m, layout)
    if kind == "coupler":
        for arm in (1, 2, 3):
            assert gauge_operator(layout, arm) == letter_rule_gauge(layout, arm)


@pytest.mark.parametrize("kind", ["coupler", "continuous"])
@pytest.mark.parametrize("n", [1, 2])
def test_mapped_modes_anticommute_and_square_to_identity(kind, n):
    layout = QubitLayout(kind, n)
    strings = [map_majorana(m, layout) for m in all_modes(n)]
    for s in strings:
        sq = multiply(s, s)
        assert sq.is_identity and sq.phase_exp == 0
    for s1, s2 in itertools.combinations(strings, 2):
        assert not commutes(s1, s2)


def test_monomial_hopping_maps_to_xx():
    # i y_{a,j} x_{a,j+1} -> -X X on the two sites, coupler factors cancel
    layout = coupler_layout(2)
    c, s = map_monomial(MajoranaMonomial(1j, (g(1, 0, "y"), g(1, 1, "x"))), layout)
    assert c == pytest.approx(-1.0)
    assert s.axis(layout.qubit(1, 0)) == "X"
    assert s.axis(layout.qubit(1, 1)) == "X"
    assert s.weight == 2


def test_monomial_on_site_maps_to_z():
    layout = coupler_layout(2)
    c, s = map_monomial(MajoranaMonomial(1j, (g(3, 1, "x"), g(3, 1, "y"))), layout)
    assert c == pytest.approx(-1.0)
    assert s.axis(layout.qubit(3, 1)) == "Z"
    assert s.weight == 1


def test_junction_monomial_weight_and_sign_against_dense_oracle():
    layout = coupler_layout(1)
    m = MajoranaMonomial(1j, (g(1, 0, "x"), g(2, 0, "x")))
    c, s = map_monomial(m, layout)
    assert s.weight == 3
    assert s.axis(layout.coupler_qubit) == "Z"
    dense = 1j * to_matrix(map_majorana(g(1, 0, "x"), layout)) @ to_matrix(
        map_majorana(g(2, 0, "x"), layout)
    )
    np.testing.assert_allclose(c * to_matrix(s), dense, atol=1e-14)


def test_mapped_product_of_junction_modes_is_weight_three():
    layout = coupler_layout(1)
    a = map_majorana(g(1, 0, "x"), layout)
    b = map_majorana(g(2, 0, "x"), layout)
    prod = multiply(a, b)
    assert prod.weight == 3
    assert prod.axis(layout.coupler_qubit) == "Z"
    np.testing.assert_allclose(
        to_matrix(prod), to_matrix(a) @ to_matrix(b), atol=1e-14
    )


def test_h12_single_site_coupler_terms():
    layout = coupler_layout(1)
    h = map_hamiltonian(
        trijunction_h(Configuration(1, 2), TrijunctionParams(n=1)), layout
    )
    by_label = {s.label(): c for c, s in h.terms}
    # |q3 q2 q1 q0> = |coupler, arm3, arm2, arm1>
    assert by_label == {"IZII": pytest.approx(-1.0), "ZIXX": pytest.approx(-1.0)}


def test_h12_three_site_coupler_term_count():
    h = map_hamiltonian(
        trijunction_h(Configuration(1, 2), TrijunctionParams(n=3)), coupler_layout(3)
    )
    assert len(h) == 8  # 4 hopping + 3 on-site + 1 junction
    weights = sorted(s.weight for _, s in h.terms)
    assert weights == [1, 1, 1, 2, 2, 2, 2, 3]


def test_h12_single_site_continuous_junction_string():
    layout = layout_for("continuous", 1)
    h = map_hamiltonian(
        trijunction_h(Configuration(1, 2), TrijunctionParams(n=1)), layout
    )
    by_label = {s.label(): c for c, s in h.terms}
    # junction i x_{10} x_{20} -> +Y_0 X_1 (empty z-chain), on-site -Z_2
    assert by_label == {"ZII": pytest.approx(-1.0), "IXY": pytest.approx(1.0)}


@pytest.mark.parametrize("kind", ["coupler", "continuous"])
def test_hermitian_quadratics_map_to_real_coefficients(kind):
    layout = QubitLayout(kind, 2)
    modes = all_modes(2)
    for m1, m2 in itertools.combinations(modes, 2):
        c, _ = map_monomial(MajoranaMonomial(1j, (m1, m2)), layout)
        assert abs(c.imag) < 1e-12


def test_gauge_operators_commute_with_every_mode():
    for n in (1, 2):
        layout = coupler_layout(n)
        strings = [map_majorana(m, layout) for m in all_modes(n)]
        for arm in (1, 2, 3):
            G = gauge_operator(layout, arm)
            assert all(commutes(G, s) for s in strings)


def test_gauge_operators_close_at_single_site_by_brute_force():
    # exhaustive search over the 4-qubit strings: the commutant of the six
    # mapped modes is exactly {identity, G1, G2, G3}
    layout = coupler_layout(1)
    strings = [map_majorana(m, layout) for m in all_modes(1)]
    central = {
        (x, z)
        for x in range(16)
        for z in range(16)
        if all(commutes(PauliString(4, x, z), s) for s in strings)
    }
    expected = {(0, 0)} | {
        (gauge_operator(layout, arm).x, gauge_operator(layout, arm).z)
        for arm in (1, 2, 3)
    }
    assert central == expected


def test_gauge_operator_requires_coupler_layout():
    with pytest.raises(ValueError):
        gauge_operator(layout_for("continuous", 2), 1)


@pytest.mark.parametrize("n", [1, 2])
def test_gauge_sector_spectrum_matches_continuous_mapping(n):
    params = TrijunctionParams(n=n)
    h_coupler = map_hamiltonian(
        trijunction_h(Configuration(1, 2), params), coupler_layout(n)
    )
    h_continuous = map_hamiltonian(
        trijunction_h(Configuration(1, 2), params), layout_for("continuous", n)
    )
    G = to_matrix(gauge_operator(coupler_layout(n), 3))
    w, V = np.linalg.eigh(G)
    sector = V[:, w > 0]
    restricted = sector.conj().T @ h_coupler.to_matrix() @ sector
    np.testing.assert_allclose(
        np.sort(np.linalg.eigvalsh(restricted)),
        np.sort(np.linalg.eigvalsh(h_continuous.to_matrix())),
        atol=1e-10,
    )


@pytest.mark.parametrize("kind", ["coupler", "continuous"])
def test_exchange_rotation_is_cached_per_exchange_and_layout(kind):
    layout = layout_for(kind, 3)
    ops = braid_exchanges(3, 6)
    first = [exchange_rotation(o, layout) for o in ops]
    again = [exchange_rotation(o, layout) for o in ops]
    assert all(a is b for a, b in zip(first, again))
    assert first == [exchange_rotation.__wrapped__(o, layout) for o in ops]
    # an equal layout value hits the same entries
    assert exchange_rotation(ops[0], QubitLayout(kind, 3)) is first[0]
    assert len(set(ops)) == 18  # steps 4-6 repeat steps 1-3


def test_exchange_rotation_rejects_a_self_exchange_on_every_call():
    # lru_cache stores no exception, so the check runs each time
    o = ExchangeOperator(g(1, 0, "x"), g(1, 0, "x"))
    for _ in range(3):
        with pytest.raises(ValueError, match="non-quadrature coefficient"):
            exchange_rotation(o, coupler_layout(1))


def monomial_rotation(o, layout):
    """(P, theta) by way of the mapped monomial 1.0 * g_k g_l: the coefficient
    +-i gives theta = -+pi/4."""
    coeff, string = map_monomial(MajoranaMonomial(1.0, (o.k, o.l)), layout)
    assert coeff in (1j, -1j)
    return string, -coeff.imag * (math.pi / 4.0)


@pytest.mark.parametrize("kind", ["coupler", "continuous"])
def test_exchange_angle_is_the_mapped_monomial_angle_exactly(kind):
    for n in range(1, 9):
        layout = QubitLayout(kind, n)
        for o in braid_exchanges(n, 6):
            string, theta = exchange_rotation(o, layout)
            want_string, want_theta = monomial_rotation(o, layout)
            assert string == want_string
            assert theta == want_theta


def test_self_exchange_message_names_the_unit_coefficient():
    o = ExchangeOperator(g(2, 1, "y"), g(2, 1, "y"))
    with pytest.raises(ValueError, match=r"non-quadrature coefficient \(1\+0j\)$"):
        exchange_rotation(o, coupler_layout(2))
