"""Monomial normalisation, exchange conjugation and the protocol steps."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from trijunction import majorana
from trijunction.majorana import (
    PROTOCOL_CONFIGS,
    Configuration,
    ExchangeOperator,
    MajoranaHamiltonian,
    MajoranaIndex,
    MajoranaMonomial,
    braid_exchanges,
    build_sub_operators,
    conjugate_hamiltonian,
    conjugate_monomial,
    normalize,
    protocol_steps,
)
from trijunction.hamiltonians import TrijunctionParams, trijunction_h
from trijunction.mappings import coupler_layout, exchange_rotation, map_monomial
from trijunction.pauli import to_matrix


def g(arm, site, orientation):
    return MajoranaIndex(arm, site, orientation)


def mono(coeff, *factors):
    return MajoranaMonomial(coeff, tuple(factors))


def test_normalize_single_transposition():
    out = normalize(mono(1.0, g(1, 1, "x"), g(1, 0, "x")))
    assert out == mono(-1.0, g(1, 0, "x"), g(1, 1, "x"))


def test_normalize_squares_cancel():
    out = normalize(mono(2.0, g(2, 0, "y"), g(2, 0, "y")))
    assert out.factors == ()
    assert out.coefficient == 2.0


def test_normalize_orientation_order():
    # y before x at the same (arm, site) costs one sign
    out = normalize(mono(1j, g(1, 0, "y"), g(1, 0, "x"), g(1, 1, "x")))
    assert out == mono(-1j, g(1, 0, "x"), g(1, 0, "y"), g(1, 1, "x"))


ORIENT_RANK = {"x": 0, "y": 1}
MODES = st.builds(
    MajoranaIndex, st.integers(1, 3), st.integers(0, 3), st.sampled_from("xy")
)


def reference_key(f):
    return (f.arm, f.site, ORIENT_RANK[f.orientation])


def reference_normalize(coefficient, factors):
    """Insertion sort by an explicit rank table, one sign per transposition,
    then adjacent equal factors cancel (g**2 = 1)."""
    factors, sign = list(factors), 1
    for i in range(1, len(factors)):
        for j in range(i, 0, -1):
            if reference_key(factors[j]) >= reference_key(factors[j - 1]):
                break
            factors[j - 1], factors[j] = factors[j], factors[j - 1]
            sign = -sign
    reduced = []
    for f in factors:
        if reduced and reduced[-1] == f:
            reduced.pop()
        else:
            reduced.append(f)
    return MajoranaMonomial(sign * coefficient, tuple(reduced))


@settings(max_examples=300, deadline=None)
@given(factors=st.lists(MODES, max_size=6))
@example(factors=[g(1, 0, "x")] * 3)  # g_a**3 = +g_a
@example(factors=[g(1, 0, "x"), g(1, 0, "y"), g(1, 0, "x")])  # one strict inversion: -g_b
@example(factors=[g(2, 0, "x"), g(1, 1, "y"), g(1, 0, "x")])  # three inversions: sign -1
def test_normalize_matches_the_rank_table_reference(factors):
    m = mono(1.5, *factors)
    assert normalize(m) == reference_normalize(1.5, factors)


@settings(max_examples=100, deadline=None)
@given(terms=st.lists(st.lists(MODES, max_size=6), max_size=8))
def test_hamiltonian_terms_follow_the_rank_table_order(terms):
    h = MajoranaHamiltonian([mono(1.0, *fs) for fs in terms], n=4)
    keys = [tuple(map(reference_key, t.factors)) for t in h.terms]
    assert keys == sorted(keys)


def test_normalize_is_idempotent():
    rng = np.random.default_rng(21)
    modes = [g(a, s, o) for a in (1, 2, 3) for s in (0, 1) for o in ("x", "y")]
    for _ in range(50):
        picks = rng.choice(len(modes), size=4, replace=True)
        m = mono(1.0, *(modes[i] for i in picks))
        once = normalize(m)
        assert normalize(once) == once


def test_conjugation_moves_first_mode_with_sign():
    o = ExchangeOperator(g(1, 0, "x"), g(2, 0, "x"))
    assert conjugate_monomial(mono(1.0, g(1, 0, "x")), o) == mono(-1.0, g(2, 0, "x"))
    assert conjugate_monomial(mono(1.0, g(2, 0, "x")), o) == mono(1.0, g(1, 0, "x"))


def test_conjugation_fixes_disjoint_modes():
    o = ExchangeOperator(g(1, 0, "x"), g(2, 0, "x"))
    m = mono(3.0, g(3, 0, "y"))
    assert conjugate_monomial(m, o) == m


def test_conjugation_preserves_the_exchanged_pair():
    o = ExchangeOperator(g(1, 0, "y"), g(2, 0, "y"))
    pair = normalize(mono(1j, g(1, 0, "y"), g(2, 0, "y")))
    assert conjugate_monomial(pair, o) == pair


def test_double_conjugation_matches_matrix_oracle():
    # conjugating twice by O equals conjugating by O^2 = g_k g_l
    layout = coupler_layout(1)
    o = ExchangeOperator(g(1, 0, "y"), g(3, 0, "x"))
    string, theta = exchange_rotation(o, layout)
    P = to_matrix(string)
    O = np.cos(theta) * np.eye(P.shape[0]) - 1j * np.sin(theta) * P
    m = mono(1j, g(1, 0, "x"), g(1, 0, "y"))
    twice = conjugate_monomial(conjugate_monomial(m, o), o)
    c, s = map_monomial(twice, layout)
    c0, s0 = map_monomial(m, layout)
    M = c0 * to_matrix(s0)
    np.testing.assert_allclose(O @ (O @ M @ O.conj().T) @ O.conj().T,
                               c * to_matrix(s), atol=1e-12)


def test_conjugation_preserves_spectrum():
    params = TrijunctionParams(n=2)
    layout = coupler_layout(2)
    h = trijunction_h(Configuration(1, 2), params)
    ops = build_sub_operators(protocol_steps()[0], 2)
    before = np.linalg.eigvalsh(
        sum(c * to_matrix(s) for c, s in
            (map_monomial(t, layout) for t in h.terms))
    )
    after_h = conjugate_hamiltonian(h, ops)
    after = np.linalg.eigvalsh(
        sum(c * to_matrix(s) for c, s in
            (map_monomial(t, layout) for t in after_h.terms))
    )
    np.testing.assert_allclose(before, after, atol=1e-10)


def fold_conjugation(h, ops):
    """The chain one exchange at a time, every term re-normalised after each."""
    terms = list(h.terms)
    for o in ops:
        terms = [conjugate_monomial(t, o) for t in terms]
    return MajoranaHamiltonian(terms, h.n)


# Few arms and sites, so that random exchanges often share a mode; k == l
# (which flips the sign of g_k) and both (k, l) orders are drawn.
SMALL_MODES = st.builds(
    MajoranaIndex, st.integers(1, 2), st.integers(0, 1), st.sampled_from("xy")
)
EXCHANGES = st.builds(ExchangeOperator, SMALL_MODES, SMALL_MODES)
COEFFICIENTS = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)


A, B, C = g(1, 0, "x"), g(1, 1, "y"), g(2, 0, "x")
TERMS = [(1.5j, [A, B]), (-0.5, [B, C]), (2.0, [A]), (1j, [C, A])]


@settings(max_examples=300, deadline=None)
@given(
    terms=st.lists(st.tuples(COEFFICIENTS, st.lists(SMALL_MODES, max_size=4)), max_size=6),
    ops=st.lists(EXCHANGES, max_size=12),
)
@example(terms=TERMS, ops=[ExchangeOperator(A, A)])  # a self-exchange flips g_A
@example(terms=TERMS, ops=[ExchangeOperator(A, B), ExchangeOperator(B, C)])  # A now sits at B
@example(terms=TERMS, ops=[ExchangeOperator(A, B), ExchangeOperator(B, A)])
def test_composed_conjugation_equals_the_folded_chain(terms, ops):
    h = MajoranaHamiltonian([mono(c, *fs) for c, fs in terms], n=2)
    assert conjugate_hamiltonian(h, ops) == fold_conjugation(h, ops)


@pytest.mark.parametrize("n", [1, 3, 8])
def test_protocol_conjugation_equals_the_folded_chain(n):
    h = trijunction_h(Configuration(1, 2), TrijunctionParams(n=n, delta=1.25, alpha=-0.75))
    for steps in (1, 3, 6):
        ops = braid_exchanges(n, steps)
        assert conjugate_hamiltonian(h, ops) == fold_conjugation(h, ops)
        # any iterable is a chain, read once
        assert conjugate_hamiltonian(h, iter(ops)) == conjugate_hamiltonian(h, ops)


@pytest.mark.parametrize("length", [0, 1, 2, 6, 24, 48])
def test_conjugation_normalises_each_term_once(monkeypatch, length):
    # The chain is composed before any term is touched, so its length does
    # not multiply the per-term work (an O(n) chain, not O(n^2)).
    h = trijunction_h(Configuration(1, 2), TrijunctionParams(n=4))
    ops = braid_exchanges(4, 6)[:length]
    calls = []

    def counting(m):
        calls.append(m)
        return normalize(m)

    monkeypatch.setattr(majorana, "normalize", counting)
    conjugate_hamiltonian(h, ops)
    assert len(calls) == len(h.terms)


def test_empty_conjugation_is_identity():
    params = TrijunctionParams(n=2)
    h = trijunction_h(Configuration(1, 2), params)
    assert conjugate_hamiltonian(h, ()) == h
    assert conjugate_hamiltonian(h, (o for o in ())) == h


def test_sub_operator_counts():
    for n in (1, 2, 3, 5):
        for step in protocol_steps():
            assert len(build_sub_operators(step, n)) == 2 * n


def test_sub_operators_single_site_is_junction_only():
    ops = build_sub_operators((Configuration(1, 2), Configuration(1, 3)), 1)
    assert ops == (
        ExchangeOperator(g(2, 0, "y"), g(3, 0, "y")),
        ExchangeOperator(g(2, 0, "x"), g(3, 0, "x")),
    )


def test_sub_operators_three_sites_application_order():
    # donor sweep walks in from the arm end, host sweep walks back out
    ops = build_sub_operators((Configuration(1, 2), Configuration(1, 3)), 3)
    assert ops == (
        ExchangeOperator(g(2, 1, "y"), g(2, 2, "y")),
        ExchangeOperator(g(2, 0, "y"), g(2, 1, "y")),
        ExchangeOperator(g(2, 0, "y"), g(3, 0, "y")),
        ExchangeOperator(g(2, 0, "x"), g(3, 0, "x")),
        ExchangeOperator(g(3, 1, "y"), g(3, 0, "y")),
        ExchangeOperator(g(3, 2, "y"), g(3, 1, "y")),
    )


def test_sub_operators_reject_bad_size():
    with pytest.raises(ValueError):
        build_sub_operators((Configuration(1, 2), Configuration(1, 3)), 0)


@pytest.mark.parametrize(
    "step",
    [
        (Configuration(1, 2), Configuration(1, 2)),  # no arm moves
        (Configuration(1, 2), Configuration(2, 1)),  # the same arms, reordered
    ],
)
def test_sub_operators_reject_a_step_that_moves_no_arm(step):
    # Such a step has no donor or host arm: its "exchanges" would swap modes
    # with themselves, and conjugating H_12 by them flips the junction sign.
    with pytest.raises(ValueError, match="must move exactly one arm") as err:
        build_sub_operators(step, 2)
    assert f"{step[0]} -> {step[1]}" in str(err.value)


def test_protocol_steps_structure():
    steps = protocol_steps()
    assert len(steps) == 6
    assert steps[0][0] == PROTOCOL_CONFIGS[0]
    assert steps[3:] == steps[:3]
    # (donor, host): the arm that goes trivial, the arm that goes topological
    for step, (donor, host) in zip(steps, [(2, 3), (1, 2), (3, 1)]):
        junction = build_sub_operators(step, 1)
        assert junction[0] == ExchangeOperator(g(donor, 0, "y"), g(host, 0, "y"))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_steps_cycle_the_configuration_hamiltonians(n):
    params = TrijunctionParams(n=n)
    cycle = (Configuration(1, 2), Configuration(1, 3), Configuration(2, 3))
    h = trijunction_h(cycle[0], params)
    for k, step in enumerate(protocol_steps()):
        h = conjugate_hamiltonian(h, build_sub_operators(step, n))
        assert h == trijunction_h(cycle[(k + 1) % 3], params), f"step {k + 1}"


def test_first_braid_maps_initial_to_next_configuration():
    params = TrijunctionParams(n=3)
    h12 = trijunction_h(Configuration(1, 2), params)
    ops = build_sub_operators(protocol_steps()[0], 3)
    assert conjugate_hamiltonian(h12, ops) == trijunction_h(
        Configuration(1, 3), params
    )


def test_braid_exchanges_concatenation():
    assert braid_exchanges(2, 0) == ()
    assert len(braid_exchanges(2, 3)) == 12
    assert len(braid_exchanges(2, 6)) == 24
    with pytest.raises(ValueError):
        braid_exchanges(2, 7)


@pytest.mark.parametrize("n", range(1, 7))
def test_steps_four_to_six_repeat_steps_one_to_three(n):
    """The double braid is the single braid applied twice."""
    assert braid_exchanges(n, 6) == braid_exchanges(n, 3) * 2


def test_hamiltonian_merges_duplicate_terms():
    t = mono(1j, g(1, 0, "x"), g(2, 0, "x"))
    h = MajoranaHamiltonian([t, t], n=1)
    assert len(h) == 1
    assert h.terms[0].coefficient == 2j


@pytest.mark.parametrize(
    "trip",
    [copy.copy, copy.deepcopy, lambda h: pickle.loads(pickle.dumps(h))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_trijunction_hamiltonian_copies_and_pickles_as_a_value(trip):
    h = trijunction_h(Configuration(1, 2), TrijunctionParams(n=2))
    t = trip(h)
    assert t == h
    assert hash(t) == hash(h)
    assert t.as_multiset() == h.as_multiset()
    assert t.n == h.n


def test_hamiltonian_equality_is_value_equality_on_canonical_terms():
    a = mono(1j, g(1, 0, "x"), g(2, 0, "x"))
    b = mono(-0.5j, g(2, 0, "y"), g(1, 1, "x"))
    h, same = MajoranaHamiltonian([a, b], n=2), MajoranaHamiltonian([b, a], n=2)
    assert h == same and hash(h) == hash(same)
    assert h != MajoranaHamiltonian([a, b], n=3)
    assert h != MajoranaHamiltonian([a], n=2)


def test_hamiltonian_fields_cannot_be_assigned():
    h = MajoranaHamiltonian([mono(1j, g(1, 0, "x"), g(2, 0, "x"))], n=1)
    for name in ("terms", "n"):
        with pytest.raises(AttributeError):
            setattr(h, name, getattr(h, name))
