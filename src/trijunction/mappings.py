"""Majorana-to-qubit translations for the two trijunction layouts.

coupler layout (3n + 1 qubits)
    Arm a, site j occupies qubit (a-1)*n + j and the shared coupler qubit sits
    at index 3n.  A mode maps to the coupler Pauli tagged to its arm (arm 1 ->
    X, arm 2 -> Y, arm 3 -> Z) times the site Pauli of its orientation times a
    Z chain over the lower sites of the same arm.

continuous layout (3n qubits)
    Arms are concatenated (arm a, site j -> global site (a-1)*n + j) and a
    mode maps to its site Pauli times a Z chain over all lower global sites.

Both translations send distinct modes to mutually anticommuting, Hermitian,
squares-to-identity strings.  The coupler register carries the algebra twice
over: the three ``gauge_operator`` strings commute with every mapped mode and
generate the redundancy, so each mapped spectrum is doubled relative to the
continuous one (restricting to a fixed gauge sector recovers it exactly).
Every string is computed directly as its two bitmasks (``trijunction.pauli``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .majorana import ExchangeOperator, MajoranaHamiltonian, MajoranaIndex, MajoranaMonomial
from .pauli import PauliString, PauliSum, multiply

__all__ = [
    "QubitLayout",
    "coupler_layout",
    "exchange_rotation",
    "gauge_operator",
    "layout_for",
    "map_hamiltonian",
    "map_majorana",
    "map_monomial",
]

# (x, z) bits of a site Pauli by orientation (x -> X, y -> Y) and of the
# coupler Pauli by arm (1 -> X, 2 -> Y, 3 -> Z).
_SITE_BITS = {"x": (1, 0), "y": (1, 1)}
_COUPLER_BITS = {1: (1, 0), 2: (1, 1), 3: (0, 1)}


@dataclass(frozen=True)
class QubitLayout:
    kind: str
    n: int

    def __post_init__(self):
        if self.kind not in ("coupler", "continuous"):
            raise ValueError(f"unknown layout kind {self.kind!r}")
        if self.n < 1:
            raise ValueError(f"sites per arm must be >= 1, got {self.n}")

    @property
    def total_qubits(self) -> int:
        return 3 * self.n + (1 if self.kind == "coupler" else 0)

    @property
    def coupler_qubit(self) -> int:
        if self.kind != "coupler":
            raise ValueError("continuous layout has no coupler qubit")
        return 3 * self.n

    def qubit(self, arm: int, site: int) -> int:
        if arm not in (1, 2, 3):
            raise ValueError(f"arm must be 1, 2 or 3, got {arm}")
        if not 0 <= site < self.n:
            raise ValueError(f"site {site} out of range for n={self.n}")
        return (arm - 1) * self.n + site


def coupler_layout(n: int) -> QubitLayout:
    return QubitLayout("coupler", n)


def layout_for(kind: str, n: int) -> QubitLayout:
    return QubitLayout(kind, n)


def map_majorana(m: MajoranaIndex, layout: QubitLayout) -> PauliString:
    """Pauli string of one mode; always phase +1."""
    if m.orientation not in _SITE_BITS:
        raise ValueError(f"orientation must be 'x' or 'y', got {m.orientation}")
    sx, sz = _SITE_BITS[m.orientation]
    q = layout.qubit(m.arm, m.site)
    if layout.kind == "continuous":
        return PauliString(layout.total_qubits, sx << q, (sz << q) | ((1 << q) - 1))
    # Z chain from the arm's first qubit up to q, then the arm's coupler bits
    cx, cz = _COUPLER_BITS[m.arm]
    c = layout.coupler_qubit
    z = (sz << q) | ((1 << q) - (1 << (q - m.site))) | (cz << c)
    return PauliString(layout.total_qubits, (sx << q) | (cx << c), z)


def map_monomial(
    m: MajoranaMonomial, layout: QubitLayout
) -> tuple[complex, PauliString]:
    """Product of mapped factors; the group phase folds into the coefficient."""
    string = PauliString(layout.total_qubits)
    for f in m.factors:
        string = multiply(string, map_majorana(f, layout))
    return m.coefficient * string.phase, string.drop_phase()


def map_hamiltonian(h: MajoranaHamiltonian, layout: QubitLayout) -> PauliSum:
    return PauliSum(
        layout.total_qubits, (map_monomial(t, layout) for t in h.terms)
    )


def gauge_operator(layout: QubitLayout, arm: int) -> PauliString:
    """Coupler Pauli of ``arm`` times Z on every site of the other two arms.

    Commutes with every mapped mode; the three of them (one per arm) close the
    redundancy algebra of the coupler register.
    """
    c = layout.coupler_qubit
    arm_sites = ((1 << layout.n) - 1) << layout.qubit(arm, 0)
    cx, cz = _COUPLER_BITS[arm]
    other_sites = ((1 << 3 * layout.n) - 1) ^ arm_sites
    return PauliString(layout.total_qubits, cx << c, (cz << c) | other_sites)


# A braid on layout n has 6n distinct exchanges (steps 4-6 repeat 1-3), so
# the cache holds every exchange of a layout up to n = 170 and, for
# ``resources``, of the whole sweep up to --sites 12.
@functools.lru_cache(maxsize=1024)
def exchange_rotation(
    o: ExchangeOperator, layout: QubitLayout
) -> tuple[PauliString, float]:
    """(P, theta) with the exchange unitary equal to exp(-i*theta*P).

    The mode pair product g_k g_l squares to -1, so it maps to i**e, e odd,
    times a Hermitian string P, and (1 + g_k g_l)/sqrt(2) = exp(-i*theta*P)
    with theta = (e - 2) * pi/4.  Results are cached per (exchange, layout);
    both are immutable, and a rejected pair raises again on every call.
    """
    p = multiply(map_majorana(o.k, layout), map_majorana(o.l, layout))
    if p.phase_exp % 2 == 0:
        raise ValueError(f"mode pair mapped to non-quadrature coefficient {p.phase}")
    return p.drop_phase(), (p.phase_exp - 2) * (math.pi / 4.0)
