"""Gate decomposition, resource counting and the method/mapping orderings."""

import numpy as np
import pytest

from trijunction.compiler import (
    Circuit,
    Gate,
    circuit_unitary,
    compile_adiabatic,
    compile_braiding,
    compile_rotation,
    count_resources,
    sweep,
)
from trijunction.hamiltonians import (
    TrijunctionParams,
    trijunction_h,
    trotter_rotations,
    trotter_slices,
)
from trijunction.majorana import (
    PROTOCOL_CONFIGS,
    ExchangeOperator,
    MajoranaHamiltonian,
    MajoranaIndex,
    MajoranaMonomial,
    braid_exchanges,
    build_sub_operators,
    conjugate_hamiltonian,
    protocol_steps,
)
from trijunction.mappings import (
    coupler_layout,
    exchange_rotation,
    layout_for,
    map_hamiltonian,
    map_majorana,
    map_monomial,
)
from trijunction.pauli import PauliString, to_matrix
from trijunction.simulator import braid_unitary


def expm_oracle(H, t):
    evals, evecs = np.linalg.eigh(H)
    return (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T


def fragment_unitary(string, angle):
    gates, phase = compile_rotation(string, angle)
    return circuit_unitary(Circuit(string.num_qubits, list(gates), phase))


def two_qubit_gates(gates):
    return [gate for gate in gates if gate.name == "cx"]


def test_weight_one_needs_no_entangler():
    gates, _ = compile_rotation(PauliString.from_label("IZI"), 0.3)
    assert not two_qubit_gates(gates)


def test_weight_two_needs_two_entanglers():
    gates, _ = compile_rotation(PauliString.from_label("XX"), 0.3)
    assert len(two_qubit_gates(gates)) == 2


def test_entangler_count_matches_weight_rule():
    rng = np.random.default_rng(41)
    for _ in range(20):
        num_qubits = int(rng.integers(1, 5))
        x = int(rng.integers(0, 1 << num_qubits))
        z = int(rng.integers(0, 1 << num_qubits))
        string = PauliString(num_qubits, x, z, 0)
        if string.weight == 0:
            continue
        gates, _ = compile_rotation(string, 0.7)
        assert len(two_qubit_gates(gates)) == 2 * (string.weight - 1)


def test_weight_zero_is_a_recorded_phase():
    gates, phase = compile_rotation(PauliString(3), 0.4)
    assert gates == []
    assert phase == pytest.approx(-0.4)


def test_fragments_match_exact_exponentials():
    rng = np.random.default_rng(42)
    for _ in range(25):
        num_qubits = int(rng.integers(1, 5))
        x = int(rng.integers(0, 1 << num_qubits))
        z = int(rng.integers(0, 1 << num_qubits))
        string = PauliString(num_qubits, x, z, 0)
        angle = float(rng.uniform(-2, 2))
        got = fragment_unitary(string, angle)
        want = expm_oracle(to_matrix(string), angle)
        overlap = np.trace(want.conj().T @ got)
        got *= np.conj(overlap / abs(overlap))
        assert np.linalg.norm(got - want, 2) < 1e-9


def test_rejects_phased_rotation_axis():
    with pytest.raises(ValueError):
        compile_rotation(PauliString.from_label("X", phase_exp=1), 0.1)


def test_count_resources_empty_circuit():
    report = count_resources(Circuit(3))
    assert report.two_qubit_count == 0 and report.depth == 0


def test_count_resources_disjoint_entanglers_run_in_parallel():
    c = Circuit(4, [Gate("cx", (0, 1)), Gate("cx", (2, 3))])
    report = count_resources(c)
    assert report.two_qubit_count == 2 and report.depth == 1


def test_count_resources_serializes_shared_qubits():
    c = Circuit(3, [Gate("cx", (0, 1)), Gate("cx", (1, 2)), Gate("h", (0,))])
    report = count_resources(c)
    assert report.depth == 2
    assert report.two_qubit_count == 2


def test_depth_is_invariant_under_qubit_relabeling():
    rng = np.random.default_rng(43)
    gates = []
    for _ in range(30):
        if rng.random() < 0.5:
            gates.append(Gate("h", (int(rng.integers(0, 5)),)))
        else:
            a, b = rng.choice(5, size=2, replace=False)
            gates.append(Gate("cx", (int(a), int(b))))
    perm = rng.permutation(5)
    relabeled = [
        Gate(g.name, tuple(int(perm[q]) for q in g.qubits), g.angle) for g in gates
    ]
    assert (
        count_resources(Circuit(5, gates)).depth
        == count_resources(Circuit(5, relabeled)).depth
    )


def test_braiding_single_site_coupler_counts():
    circuit = compile_braiding(coupler_layout(1), 6)
    report = count_resources(circuit)
    # 6 steps x 2 junction rotations, each weight 3 -> 4 entanglers
    assert report.two_qubit_count == 48
    assert report.per_step == (8,) * 6
    rotations = sum(1 for g in circuit.gates if g.name == "rz")
    assert rotations == 12  # 12n rotations over the full protocol


def reference_braiding(layout, steps):
    """Each step's ``build_sub_operators`` exchanges compiled in order, with
    the gate count recorded after each step."""
    circuit = Circuit(layout.total_qubits)
    for step in protocol_steps()[:steps]:
        for o in build_sub_operators(step, layout.n):
            gates, phase = compile_rotation(*exchange_rotation(o, layout))
            circuit.gates.extend(gates)
            circuit.global_phase += phase
        circuit.step_bounds.append(len(circuit.gates))
    return circuit


@pytest.mark.parametrize("kind", ["coupler", "continuous"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_compile_braiding_step_range(kind, n):
    layout = layout_for(kind, n)
    for steps in range(7):
        circuit = compile_braiding(layout, steps)
        assert len(circuit.step_bounds) == steps
        assert circuit == reference_braiding(layout, steps)
    for steps in (-1, 7):
        with pytest.raises(ValueError, match=r"steps must lie in \[0, 6\], got"):
            compile_braiding(layout, steps)


@pytest.mark.parametrize("kind", ["coupler", "continuous"])
def test_braiding_rotation_count_is_12n(kind):
    for n in (1, 2, 3):
        circuit = compile_braiding(layout_for(kind, n), 6)
        assert sum(1 for g in circuit.gates if g.name == "rz") == 12 * n


# Closed forms for the two-qubit count, from the mapped string weights alone.
# A weight-w rotation costs 2(w - 1) entanglers.  Weights: intra-arm hopping
# terms and sweep exchanges 2, on-site terms 1, and the junction string
# between site 0 of arms k and l is 3 on the coupler layout and d + 1 on the
# continuous layout, with d = n for arm pairs (1, 2) and (2, 3) and d = 2n for
# (1, 3) (the Jordan-Wigner string runs over the whole of arm 2).
#
# Braiding: a step is 2(n - 1) sweep exchanges (2 each) and two junction
# exchanges.  Coupler: 6 * [4(n - 1) + 2 * 4] = 24n + 24.  Continuous: the
# junction pairs of the three steps are (2, 3), (1, 2), (3, 1), so one cycle
# costs 3 * 4(n - 1) + 2 * 2(n + n + 2n) and two cycles 56n - 24.
#
# Adiabatic, S slices and r repetitions per transition: slices 1..S-1 hold
# the union of the initial and final terms, slice S only the final terms
# (the initial-only terms are zero at lambda = 1 and pruned).  The union has
# 3(n - 1) hopping terms (the shared arm once), on-site terms (free), and
# both junction strings; the final alone has 2(n - 1) hopping terms and its
# junction string.
#   Coupler: union 6(n - 1) + 2 * 4 = 6n + 2, final 4(n - 1) + 4 = 4n, over
#   six transitions: 6r * [(S - 1)(6n + 2) + 4n].
#   Continuous: the junction costs 2n for (1, 2) and (2, 3) and 4n for
#   (1, 3).  Over the cycle (1, 2) -> (1, 3) -> (2, 3) -> (1, 2) the unions
#   cost 3 * 6(n - 1) + (6n + 6n + 4n) = 34n - 18 and the finals
#   3 * 4(n - 1) + (4n + 2n + 2n) = 20n - 12; two cycles:
#   2r * [(S - 1)(34n - 18) + 20n - 12].
def closed_form_two_qubit_count(method, mapping, n, substeps, reps):
    if method == "braiding":
        return 24 * n + 24 if mapping == "coupler" else 56 * n - 24
    if mapping == "coupler":
        return 6 * reps * ((substeps - 1) * (6 * n + 2) + 4 * n)
    return 2 * reps * ((substeps - 1) * (34 * n - 18) + 20 * n - 12)


@pytest.mark.parametrize(
    "n_first, n_last, substeps, reps",
    [(1, 5, s, r) for s in (1, 2, 3, 7, 10) for r in (1, 2, 3)]
    + [(6, 8, s, r) for s in (1, 3, 10) for r in (1, 2)],
)
def test_two_qubit_counts_match_their_closed_forms(n_first, n_last, substeps, reps):
    for row in sweep(range(n_first, n_last + 1), substeps=substeps, reps=reps):
        expected = closed_form_two_qubit_count(
            row.method, row.mapping, row.n, substeps, reps
        )
        assert row.two_qubit_count == expected, row


def test_adiabatic_count_matches_closed_form():
    layout = coupler_layout(2)
    params = TrijunctionParams(n=2)
    substeps, reps = 3, 2
    circuit = compile_adiabatic(layout, params, 1.0, substeps, reps)
    report = count_resources(circuit)
    total = 0
    h_cache = {}
    for ci, cf in protocol_steps():
        for cfg in (ci, cf):
            if cfg not in h_cache:
                h_cache[cfg] = map_hamiltonian(trijunction_h(cfg, params), layout)
        for s in range(1, substeps + 1):
            lam = s / substeps
            h_s = (1 - lam) * h_cache[ci] + lam * h_cache[cf]
            total += reps * sum(2 * (t.weight - 1) for _, t in h_s.terms)
    assert report.two_qubit_count == total


@pytest.mark.parametrize("kind", ["coupler", "continuous"])
def test_braiding_circuit_matches_simulator_unitary(kind):
    layout = layout_for(kind, 1)
    got = circuit_unitary(compile_braiding(layout, 6))
    want = braid_unitary(layout, 6)
    overlap = np.trace(want.conj().T @ got)
    got *= np.conj(overlap / abs(overlap))
    assert np.linalg.norm(got - want, 2) < 1e-9


@pytest.mark.parametrize("kind", ["coupler", "continuous"])
@pytest.mark.parametrize("reps", [1, 2])
def test_adiabatic_circuit_matches_trotterized_state_path(kind, reps):
    from trijunction.simulator import trotter_adiabatic

    layout = layout_for(kind, 1)
    params = TrijunctionParams(n=1)
    tau, substeps = 0.7, 2
    circuit = compile_adiabatic(layout, params, tau, substeps, reps)
    U = circuit_unitary(circuit)
    psi = np.zeros(1 << layout.total_qubits, dtype=complex)
    psi[3] = 1.0
    expected = psi
    for ci, cf in protocol_steps():
        expected = trotter_adiabatic(
            expected,
            map_hamiltonian(trijunction_h(ci, params), layout),
            map_hamiltonian(trijunction_h(cf, params), layout),
            tau,
            substeps,
            reps,
        )
    got = U @ psi
    overlap = np.vdot(expected, got)
    got *= np.conj(overlap / abs(overlap))
    np.testing.assert_allclose(got, expected, atol=1e-9)


def test_sweep_shape_and_order():
    rows = sweep(range(1, 3))
    assert len(rows) == 8
    keys = [(r.n, r.method, r.mapping) for r in rows]
    assert keys == sorted(keys)


def test_sweep_orderings_hold_at_default_settings():
    rows = sweep(range(1, 5))
    braiding = {(r.n, r.mapping): r for r in rows if r.method == "braiding"}
    adiabatic = {(r.n, r.mapping): r for r in rows if r.method == "adiabatic"}
    for n in (2, 3, 4):
        for mapping in ("coupler", "continuous"):
            assert (
                braiding[(n, mapping)].two_qubit_count
                < adiabatic[(n, mapping)].two_qubit_count
            )
        assert braiding[(n, "coupler")].depth < braiding[(n, "continuous")].depth


def test_sweep_rejects_unknown_method():
    with pytest.raises(ValueError):
        sweep([1], methods=("annealing",))


def reference_fragment(string, angle):
    """compile_rotation's gate list, built anew on every call from the axis
    letters (the compiler reads the bits)."""
    support = string.support()
    pre, post = [], []
    for q in support:
        axis = string.axis(q)
        if axis == "X":
            pre.append(Gate("h", (q,)))
            post.append(Gate("h", (q,)))
        elif axis == "Y":
            pre += [Gate("sdg", (q,)), Gate("h", (q,))]
            post += [Gate("h", (q,)), Gate("s", (q,))]
    ladder = [Gate("cx", (a, b)) for a, b in zip(support, support[1:])]
    rz = Gate("rz", (support[-1],), 2.0 * angle)
    return [*pre, *ladder, rz, *ladder[::-1], *post]


def protocol_strings(kind, n):
    layout = layout_for(kind, n)
    params = TrijunctionParams(n=n)
    strings = [
        string
        for c in PROTOCOL_CONFIGS
        for _, string in map_hamiltonian(trijunction_h(c, params), layout).terms
    ]
    for step in protocol_steps():
        for o in build_sub_operators(step, n):
            strings.append(exchange_rotation(o, layout)[0])
    return strings


@pytest.mark.parametrize("kind", ["coupler", "continuous"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_cached_fragments_match_uncached_fragments(kind, n):
    strings = protocol_strings(kind, n)
    rng = np.random.default_rng(50 + n)
    num_qubits = strings[0].num_qubits
    for _ in range(20):
        x = int(rng.integers(0, 1 << num_qubits))
        z = int(rng.integers(0, 1 << num_qubits))
        strings.append(PauliString(num_qubits, x, z, 0))
    for repeat in range(2):  # the first pass fills the cache, the second reads it
        for k, string in enumerate(strings):
            angle = 0.1 + 0.01 * k + repeat
            gates, phase = compile_rotation(string, angle)
            if string.weight == 0:
                assert (gates, phase) == ([], -angle)
            else:
                assert gates == reference_fragment(string, angle)
                assert phase == 0.0


def test_mutating_a_fragment_does_not_change_the_next():
    string = PauliString.from_label("XYZI")
    gates, _ = compile_rotation(string, 0.3)
    gates.append(Gate("h", (0,)))
    gates[0] = Gate("s", (3,))
    del gates[1]
    again, _ = compile_rotation(string, 0.3)
    assert again == reference_fragment(string, 0.3)


def test_phased_copy_of_cached_string_still_raises():
    string = PauliString.from_label("ZXY")
    compile_rotation(string, 0.2)
    for phase_exp in (1, 2, 3):
        with pytest.raises(ValueError):
            compile_rotation(PauliString(3, string.x, string.z, phase_exp), 0.2)


def heisenberg(gates, x, z, phase):
    """U^dagger P U for the circuit U of ``gates`` (first gate acts first) and
    every string P = i**phase * W(x, z) of the int64 arrays at once.

    One pass over the gates, last first, conjugates all strings P ->
    g^dagger P g on their bitmasks by the tableau rules of Aaronson and
    Gottesman (quant-ph/0406196), tracking the i**k phase.  rz(+-pi/2) is s
    or sdg up to a global phase, which conjugation drops; any other rz angle
    is not a Clifford gate and fails.
    """
    x, z, phase = x.copy(), z.copy(), phase.copy()
    for name, qubits, angle in reversed(gates):
        if name == "cx":
            a, b = qubits
            xa, za, xb, zb = x >> a & 1, z >> a & 1, x >> b & 1, z >> b & 1
            phase += 2 * (xa & zb & (xb ^ za ^ 1))
            x ^= xa << b
            z ^= zb << a
            continue
        (q,) = qubits
        xq, zq = x >> q & 1, z >> q & 1
        if name == "rz":
            assert abs(abs(angle) - np.pi / 2) < 1e-12, angle
            name = "s" if angle > 0 else "sdg"
        if name == "h":  # X <-> Z, Y -> -Y
            phase += 2 * (xq & zq)
            x ^= (xq ^ zq) << q
            z ^= (xq ^ zq) << q
        elif name == "s":  # S^dagger X S = -Y, S^dagger Y S = X
            phase += 2 * (xq & (zq ^ 1))
            z ^= xq << q
        elif name == "sdg":  # S X S^dagger = Y, S Y S^dagger = -X
            phase += 2 * (xq & zq)
            z ^= xq << q
        else:
            raise ValueError(f"unknown gate {name!r}")
    return x, z, phase & 3


def as_arrays(strings):
    return tuple(
        np.array([getattr(s, f) for s in strings], dtype=np.int64)
        for f in ("x", "z", "phase_exp")
    )


def test_heisenberg_matches_dense_conjugation():
    # The tableau oracle itself, gate by gate, against the dense matrices.
    num_qubits = 3
    strings = [
        PauliString(num_qubits, x, z, phase)
        for x in range(8)
        for z in range(8)
        for phase in (0, 2)
    ]
    gates = [Gate(g, (q,)) for g in ("h", "s", "sdg") for q in range(3)]
    gates += [Gate("cx", (a, b)) for a in range(3) for b in range(3) if a != b]
    gates += [Gate("rz", (1,), np.pi / 2), Gate("rz", (2,), -np.pi / 2)]
    for gate in gates:
        U = circuit_unitary(Circuit(num_qubits, [gate]))
        for s, x, z, phase in zip(strings, *heisenberg([gate], *as_arrays(strings))):
            got = to_matrix(PauliString(num_qubits, int(x), int(z), int(phase)))
            np.testing.assert_allclose(got, U.conj().T @ to_matrix(s) @ U, atol=1e-12)


@pytest.mark.parametrize("steps", [1, 3, 6])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("kind", ["coupler", "continuous"])
def test_compiled_braid_maps_every_mode_like_the_inverse_exchange_chain(kind, n, steps):
    # Heisenberg picture (Gottesman, quant-ph/9807006): U^dagger g U for the
    # compiled braid U is g conjugated by the exchanges in reverse order, each
    # inverted ((1 + g_k g_l)^-1 is (1 + g_l g_k) up to scale), at any n.
    layout = layout_for(kind, n)
    modes = [MajoranaIndex(a, j, o) for a in (1, 2, 3) for j in range(n) for o in "xy"]
    got = heisenberg(
        compile_braiding(layout, steps).gates,
        *as_arrays([map_majorana(m, layout) for m in modes]),
    )
    inverse = [ExchangeOperator(o.l, o.k) for o in reversed(braid_exchanges(n, steps))]
    for m, x, z, phase in zip(modes, *got):
        one_mode = MajoranaHamiltonian([MajoranaMonomial(1.0, (m,))], n)
        (image,) = conjugate_hamiltonian(one_mode, inverse).terms
        coeff, string = map_monomial(image, layout)
        sign = int(coeff.real)
        assert coeff == sign and sign in (1, -1)
        want = PauliString(layout.total_qubits, string.x, string.z, 1 - sign)
        assert PauliString(layout.total_qubits, int(x), int(z), int(phase)) == want


@pytest.mark.parametrize("kind", ["coupler", "continuous"])
def test_fragment_head_maps_z_on_the_rz_qubit_to_its_string(kind):
    # exp(-i*theta*P) = V^dagger exp(-i*theta*Z_q) V for the head V, so
    # V^dagger Z_q V must be P; this holds above circuit_unitary's limit.
    for n in range(1, 9):
        layout = layout_for(kind, n)
        mapped = {
            c: map_hamiltonian(trijunction_h(c, TrijunctionParams(n=n)), layout)
            for c in PROTOCOL_CONFIGS
        }
        strings = {
            string
            for ci, cf in protocol_steps()
            for h_s, dt in trotter_slices(mapped[ci], mapped[cf], 1.0, 10)
            for string, _ in trotter_rotations(h_s, dt, 1)
        }
        for string in strings:
            gates, _ = compile_rotation(string, 0.25)
            k = [g.name for g in gates].index("rz")
            (q,) = gates[k].qubits
            z_q = PauliString(string.num_qubits, 0, 1 << q)
            (x,), (z,), (phase,) = heisenberg(gates[:k], *as_arrays([z_q]))
            assert PauliString(string.num_qubits, int(x), int(z), int(phase)) == string


def reference_count(circuit):
    """The per-gate counter: a prefix sum of entanglers over every gate, and
    the depth as the largest tick any gate received."""
    clocks = [0] * circuit.num_qubits
    depth = 0
    prefix = [0]  # cumulative entangler count before gate i
    for gate in circuit.gates:
        if gate.name == "cx":
            a, b = gate.qubits
            tick = 1 + max(clocks[a], clocks[b])
            clocks[a] = clocks[b] = tick
            prefix.append(prefix[-1] + 1)
        else:
            (q,) = gate.qubits
            tick = clocks[q] = clocks[q] + 1
            prefix.append(prefix[-1])
        if tick > depth:
            depth = tick
    per_step = []
    prev = 0
    for bound in circuit.step_bounds:
        per_step.append(prefix[bound] - prev)
        prev = prefix[bound]
    return prefix[-1], depth, tuple(per_step)


def random_circuit(rng, num_qubits, size, bounds):
    circuit = Circuit(num_qubits)
    for _ in range(size):
        if num_qubits > 1 and rng.random() < 0.4:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            circuit.gates.append(Gate("cx", (int(a), int(b))))
        else:
            name = str(rng.choice(["h", "s", "sdg", "rz"]))
            angle = float(rng.normal()) if name == "rz" else None
            circuit.gates.append(Gate(name, (int(rng.integers(num_qubits)),), angle))
    # Sorted draws with replacement: repeated bounds, bounds at 0 and at the
    # end, and (unless a bound lands there) gates after the last bound.
    circuit.step_bounds = sorted(int(b) for b in rng.integers(0, size + 1, size=bounds))
    return circuit


@pytest.mark.parametrize("seed", range(8))
def test_count_resources_matches_the_per_gate_reference(seed):
    rng = np.random.default_rng(300 + seed)
    circuits = [Circuit(0), Circuit(3), Circuit(2, step_bounds=[0, 0])]
    for _ in range(25):
        num_qubits = int(rng.integers(1, 7))
        size = int(rng.integers(0, 60))
        circuits.append(random_circuit(rng, num_qubits, size, int(rng.integers(0, 6))))
    for circuit in circuits:
        report = count_resources(circuit)
        want = reference_count(circuit)
        assert (report.two_qubit_count, report.depth, report.per_step) == want
    assert count_resources(Circuit(0)).depth == 0


def test_count_resources_matches_the_reference_on_compiled_circuits():
    layout = layout_for("continuous", 2)
    circuits = [
        compile_braiding(layout),
        compile_braiding(coupler_layout(2), steps=3),
        compile_adiabatic(layout, TrijunctionParams(n=2), 1.0, 3, reps=2),
    ]
    for circuit in circuits:
        circuit.gates.append(Gate("cx", (0, 1)))  # a gate after the last bound
        report = count_resources(circuit)
        want = reference_count(circuit)
        assert (report.two_qubit_count, report.depth, report.per_step) == want
