"""Majorana mode indexing, exchange operators and symbolic conjugation.

A mode lives at (arm, site, orientation) with arm in {1, 2, 3}, site in
[0, n) along the arm, and orientation 'x' or 'y'.  Monomials are ordered
products of modes with a complex weight; normalisation sorts the factors into
the canonical (arm, site, x<y) order, signed by the parity of its inversions
(pairs i < j, f_i > f_j; {g, g'} = 2*delta), and cancels squares (g**2 = 1).

The exchange operator for a mode pair (k, l) is (1 + g_k g_l)/sqrt(2); its
conjugation action sends g_k -> -g_l and g_l -> g_k and fixes every other
mode.

The module owns the configurations (topological arm pairs) and their cycle,
``PROTOCOL_CONFIGS``.  A braid step is the (initial, final) pair of
configurations it connects; six steps, each a donor-arm sweep, a junction
swap and a host-arm sweep, move the two unpaired modes around the
trijunction.  ``build_sub_operators`` returns each step's exchanges in
application order (first element acts first, both on states and in
conjugation chains).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

__all__ = [
    "Configuration",
    "ExchangeOperator",
    "MajoranaHamiltonian",
    "MajoranaIndex",
    "MajoranaMonomial",
    "PROTOCOL_CONFIGS",
    "braid_exchanges",
    "build_sub_operators",
    "conjugate_hamiltonian",
    "conjugate_monomial",
    "normalize",
    "protocol_steps",
]


class MajoranaIndex(NamedTuple):
    """One mode; tuple order, with 'x' < 'y', is the canonical mode order."""

    arm: int
    site: int
    orientation: str


@dataclass(frozen=True)
class MajoranaMonomial:
    """coefficient * g_{f1} g_{f2} ... with factors applied left to right."""

    coefficient: complex
    factors: tuple[MajoranaIndex, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))


def normalize(m: MajoranaMonomial) -> MajoranaMonomial:
    """Sorted factors with sign (-1)**(pairs i < j with factors[i] > factors[j],
    so equal modes never count); squared factors cancel."""
    factors = m.factors
    inversions = sum(a > b for i, a in enumerate(factors) for b in factors[i + 1 :])
    reduced: list[MajoranaIndex] = []
    for f in sorted(factors):
        if reduced and reduced[-1] == f:
            reduced.pop()
        else:
            reduced.append(f)
    return MajoranaMonomial((-1) ** inversions * m.coefficient, tuple(reduced))


@dataclass(frozen=True, slots=True, init=False, repr=False)
class MajoranaHamiltonian:
    """Merged, normalised quadratic monomials over n-site arms, exact zeros dropped;
    equality is value equality on the canonically ordered terms and ``n``."""

    terms: tuple[MajoranaMonomial, ...]
    n: int

    def __init__(self, terms: Iterable[MajoranaMonomial], n: int):
        merged: dict[tuple[MajoranaIndex, ...], complex] = {}
        for term in terms:
            norm = normalize(term)
            merged[norm.factors] = merged.get(norm.factors, 0.0) + norm.coefficient
        kept = [MajoranaMonomial(c, f) for f, c in merged.items() if c != 0]
        kept.sort(key=lambda t: t.factors)
        object.__setattr__(self, "terms", tuple(kept))
        object.__setattr__(self, "n", n)

    def __len__(self) -> int:
        return len(self.terms)

    def as_multiset(self) -> dict[tuple[MajoranaIndex, ...], complex]:
        return {t.factors: t.coefficient for t in self.terms}

    def __repr__(self) -> str:
        def fmt(t):
            body = " ".join(f"g{f.arm}{f.site}{f.orientation}" for f in t.factors)
            return f"({t.coefficient:+g})*{body or '1'}"

        return "MajoranaHamiltonian(" + " + ".join(fmt(t) for t in self.terms) + ")"


class ExchangeOperator(NamedTuple):
    """(1 + g_k g_l)/sqrt(2); conjugation sends g_k -> -g_l, g_l -> g_k."""

    k: MajoranaIndex
    l: MajoranaIndex


def conjugate_monomial(m: MajoranaMonomial, o: ExchangeOperator) -> MajoranaMonomial:
    coeff = m.coefficient
    out = []
    for f in m.factors:
        if f == o.k:
            out.append(o.l)
            coeff = -coeff
        elif f == o.l:
            out.append(o.k)
        else:
            out.append(f)
    return normalize(MajoranaMonomial(coeff, tuple(out)))


def conjugate_hamiltonian(
    h: MajoranaHamiltonian, ops: Iterable[ExchangeOperator]
) -> MajoranaHamiltonian:
    """Conjugate by ``ops`` applied in iteration order (first acts first).

    The chain G = s_m o ... o s_1 is one signed mode map, folded from the last
    exchange: G_j = G_{j+1} o s_j sets l -> G(k) and k -> -G(l).  Each term is
    mapped through it and normalised once, O(len(ops) + terms), equal to
    folding the reference ``conjugate_monomial`` over ``ops``.
    """
    image: dict[MajoranaIndex, tuple[int, MajoranaIndex]] = {}  # mode -> (sign, image)
    for k, l in reversed(tuple(ops)):
        to_k, (sign_l, at_l) = image.get(k, (1, k)), image.get(l, (1, l))
        # in this order a self-exchange (k == l) flips the sign
        image[l], image[k] = to_k, (-sign_l, at_l)
    terms = []
    for t in h.terms:
        coeff, factors = t.coefficient, []
        for f in t.factors:
            sign, mapped = image.get(f, (1, f))
            if sign < 0:
                coeff = -coeff
            factors.append(mapped)
        terms.append(MajoranaMonomial(coeff, tuple(factors)))
    return MajoranaHamiltonian(terms, h.n)


@dataclass(frozen=True)
class Configuration:
    """Topological arm pair (a, b); arm c = the remaining one is trivial."""

    a: int
    b: int

    def __post_init__(self):
        if {self.a, self.b} - {1, 2, 3} or self.a == self.b:
            raise ValueError(f"invalid topological pair ({self.a}, {self.b})")

    @property
    def c(self) -> int:
        return 6 - self.a - self.b

    @property
    def epsilon(self) -> int:
        """eps_abc: +1 when (a, b, c) is a cyclic shift of (1, 2, 3), else -1."""
        return 1 if (self.a, self.b) in ((1, 2), (2, 3), (3, 1)) else -1


PROTOCOL_CONFIGS = (Configuration(1, 2), Configuration(1, 3), Configuration(2, 3))


def build_sub_operators(
    step: tuple[Configuration, Configuration], n: int
) -> tuple[ExchangeOperator, ...]:
    """The 2n exchanges of the step (initial, final), in application order.

    The donor arm is topological before the step and trivial after it; the
    host arm the reverse.  Donor sweep: the unpaired y-mode at the far end of
    the donor arm is walked down to the junction site (n-1 exchanges).
    Junction swap: the y then x modes at site 0 of donor and host are
    exchanged (the two commute).  Host sweep: the mode is walked out to the
    far end of the host arm (n-1 exchanges).  At n = 1 both sweeps are empty
    and the step is the junction swap alone.
    """
    if n < 1:
        raise ValueError(f"sites per arm must be >= 1, got {n}")
    before, after = step
    arms_before, arms_after = {before.a, before.b}, {after.a, after.b}
    if len(arms_before - arms_after) != 1:
        raise ValueError(f"braid step {before} -> {after} must move exactly one arm")
    (c,), (a,) = arms_before - arms_after, arms_after - arms_before  # donor, host
    ops = []
    for j in range(n - 2, -1, -1):
        ops.append(ExchangeOperator(MajoranaIndex(c, j, "y"), MajoranaIndex(c, j + 1, "y")))
    ops.append(ExchangeOperator(MajoranaIndex(c, 0, "y"), MajoranaIndex(a, 0, "y")))
    ops.append(ExchangeOperator(MajoranaIndex(c, 0, "x"), MajoranaIndex(a, 0, "x")))
    for j in range(n - 1):
        ops.append(ExchangeOperator(MajoranaIndex(a, j + 1, "y"), MajoranaIndex(a, j, "y")))
    return tuple(ops)


def protocol_steps() -> tuple[tuple[Configuration, Configuration], ...]:
    """Six (initial, final) configuration pairs, one per braid step, walking
    ``PROTOCOL_CONFIGS`` round twice; a transition of duration tau per pair
    gives a total braid time of 6*tau."""
    cycle = PROTOCOL_CONFIGS
    return tuple((cycle[k % 3], cycle[(k + 1) % 3]) for k in range(6))


def braid_exchanges(n: int, steps: int = 6) -> tuple[ExchangeOperator, ...]:
    """Concatenated exchanges of the first ``steps`` protocol steps."""
    if not 0 <= steps <= 6:
        raise ValueError(f"steps must lie in [0, 6], got {steps}")
    ops: list[ExchangeOperator] = []
    for step in protocol_steps()[:steps]:
        ops.extend(build_sub_operators(step, n))
    return tuple(ops)
