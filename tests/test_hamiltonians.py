"""Hamiltonian builders, configurations and the protocol steps."""

import itertools

import numpy as np
import pytest

from trijunction.compiler import compile_adiabatic
from trijunction.hamiltonians import TrijunctionParams, trijunction_h, zero_mode_pair
from trijunction.majorana import Configuration, MajoranaIndex, protocol_steps
from trijunction.mappings import coupler_layout, layout_for, map_hamiltonian
from trijunction.pauli import to_matrix
from trijunction.simulator import trotter_adiabatic


def g(arm, site, orientation):
    return MajoranaIndex(arm, site, orientation)


def test_epsilon_is_the_antisymmetric_symbol():
    cyclic = {(1, 2, 3), (2, 3, 1), (3, 1, 2)}
    for a, b, c in itertools.permutations((1, 2, 3)):
        cfg = Configuration(a, b)
        assert cfg.c == c
        assert cfg.epsilon == (1 if (a, b, c) in cyclic else -1)
        assert cfg.epsilon == -Configuration(b, a).epsilon


def test_configuration_fields():
    cfg = Configuration(1, 2)
    assert cfg.c == 3 and cfg.epsilon == 1
    assert Configuration(1, 3).epsilon == -1
    with pytest.raises(ValueError):
        Configuration(1, 1)


def test_trijunction_three_sites_matches_reference_terms():
    h = trijunction_h(Configuration(1, 2), TrijunctionParams(n=3))
    assert h.as_multiset() == {
        (g(1, 0, "x"), g(2, 0, "x")): 1j,
        (g(1, 0, "y"), g(1, 1, "x")): 1j,
        (g(1, 1, "y"), g(1, 2, "x")): 1j,
        (g(2, 0, "y"), g(2, 1, "x")): 1j,
        (g(2, 1, "y"), g(2, 2, "x")): 1j,
        (g(3, 0, "x"), g(3, 0, "y")): 1j,
        (g(3, 1, "x"), g(3, 1, "y")): 1j,
        (g(3, 2, "x"), g(3, 2, "y")): 1j,
    }


def test_trijunction_junction_sign_follows_epsilon():
    h13 = trijunction_h(Configuration(1, 3), TrijunctionParams(n=2))
    assert h13.as_multiset()[(g(1, 0, "x"), g(3, 0, "x"))] == -1j
    h31 = trijunction_h(Configuration(3, 1), TrijunctionParams(n=2))
    assert h31 == h13  # ordered pair swap only flips the stored factor order


def test_trijunction_single_site_has_no_hopping():
    h = trijunction_h(Configuration(1, 2), TrijunctionParams(n=1))
    assert h.as_multiset() == {
        (g(1, 0, "x"), g(2, 0, "x")): 1j,
        (g(3, 0, "x"), g(3, 0, "y")): 1j,
    }


def test_schedule_pairs_and_closure():
    pairs = protocol_steps()
    assert len(pairs) == 6
    assert pairs[0] == (Configuration(1, 2), Configuration(1, 3))
    assert pairs[1] == (Configuration(1, 3), Configuration(2, 3))
    assert pairs[2] == (Configuration(2, 3), Configuration(1, 2))
    assert pairs[3:] == pairs[:3]
    for (_, final), (start, _) in zip(pairs, pairs[1:]):
        assert final == start
    assert pairs[-1][1] == pairs[0][0]


def test_schedule_rejects_bad_tau():
    """Both consumers of the protocol steps reject a non-positive step duration."""
    params = TrijunctionParams(n=1)
    layout = layout_for("continuous", 1)
    h = map_hamiltonian(trijunction_h(Configuration(1, 2), params), layout)
    psi = np.zeros(1 << layout.total_qubits, dtype=complex)
    psi[0] = 1.0
    for tau in (0.0, -1.0):
        with pytest.raises(ValueError, match="step duration"):
            trotter_adiabatic(psi, h, h, tau, 1)
        with pytest.raises(ValueError, match="step duration"):
            compile_adiabatic(layout, params, tau, 1)


def test_schedule_rejects_an_overflowing_angle():
    """Both consumers reject a Trotter angle gap * tau / substeps that
    overflows, and accept a finite one."""
    params = TrijunctionParams(n=1, alpha=1e300)
    layout = layout_for("continuous", 1)
    h = map_hamiltonian(trijunction_h(Configuration(1, 2), params), layout)
    psi = np.zeros(1 << layout.total_qubits, dtype=complex)
    psi[0] = 1.0
    with pytest.raises(ValueError, match="Trotter angle.*overflows to inf"):
        trotter_adiabatic(psi, h, h, 1e10, 1)
    with pytest.raises(ValueError, match="Trotter angle.*overflows to inf"):
        compile_adiabatic(layout, params, 1e10, 1)
    assert np.isfinite(trotter_adiabatic(psi, h, h, 1e8, 1)).all()


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", ["coupler", "continuous"])
def test_ground_level_is_degenerate_at_default_parameters(n, kind):
    layout = layout_for(kind, n)
    for config in (Configuration(1, 2), Configuration(1, 3), Configuration(2, 3)):
        h = map_hamiltonian(trijunction_h(config, TrijunctionParams(n=n)), layout)
        evals = np.linalg.eigvalsh(h.to_matrix())
        assert evals[1] - evals[0] < 1e-9


def test_zero_mode_pair_commutes_with_its_hamiltonian():
    n = 2
    params = TrijunctionParams(n=n)
    layout = coupler_layout(n)
    for config in (Configuration(1, 2), Configuration(1, 3)):
        h = map_hamiltonian(trijunction_h(config, params), layout)
        from trijunction.mappings import map_monomial

        c, s = map_monomial(zero_mode_pair(config, n), layout)
        P = c.real * to_matrix(s)
        H = h.to_matrix()
        assert np.linalg.norm(P @ H - H @ P) < 1e-12
        np.testing.assert_allclose(P @ P, np.eye(P.shape[0]), atol=1e-12)
