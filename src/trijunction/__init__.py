"""Majorana braid emulation on a superconducting trijunction.

Exact state-vector simulation of the exchange-operator braid protocol and its
Trotterised adiabatic baseline, under two Majorana-to-qubit layouts, with gate
compilation and two-qubit-resource accounting.
"""

from .hamiltonians import (
    Configuration,
    TrijunctionParams,
    kitaev_chain,
    schedule,
    trijunction_h,
    zero_mode_pair,
)
from .majorana import (
    BraidStep,
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
from .mappings import (
    QubitLayout,
    continuous_layout,
    coupler_layout,
    exchange_rotation,
    gauge_operator,
    layout_for,
    map_hamiltonian,
    map_majorana,
    map_monomial,
)
from .pauli import PauliString, PauliSum, commutes, multiply, to_matrix
from .simulator import (
    BraidReport,
    GroundSpace,
    apply_braid,
    apply_exchange,
    braid_unitary,
    evolve_exact,
    fidelity,
    ground_space,
    prepare_initial,
    project_braid,
    run_adiabatic,
    trijunction_ground_space,
    trotter_adiabatic,
)

__version__ = "0.1.0"
