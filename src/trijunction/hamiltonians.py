"""Trijunction Hamiltonians in Majorana form, and the Trotter slicing of
each protocol transition.

A configuration (``majorana.Configuration``) is the pair (a, b) of
topological arms; arm c is trivial.  With x/y modes per site the Hamiltonian is

    H_ab = i*Delta * sum_{k in {a,b}} sum_{j<n-1} y_{kj} x_{k,j+1}
         + i*alpha * sum_l x_{cl} y_{cl}
         + i*eps_abc * t_ab * x_{a0} x_{b0},

with eps the fully antisymmetric symbol, eps_123 = +1.  Default parameters
put alpha = Delta = t_ab = 1, where every paired mode is gapped at unit
energy and the two unpaired y-modes at the far ends of arms a and b are
exact zero modes.  The simulator and the compiler read one Trotter
sequence, from ``trotter_slices`` and ``trotter_rotations``: the state they
evolve is the circuit they count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .majorana import Configuration, MajoranaHamiltonian, MajoranaIndex, MajoranaMonomial
from .pauli import PauliString, PauliSum

__all__ = [
    "TrijunctionParams",
    "trijunction_h",
    "trotter_rotations",
    "trotter_slices",
    "zero_mode_pair",
]


@dataclass(frozen=True)
class TrijunctionParams:
    """n sites per arm; the gaps may have any scale.  Gaps times s, with every
    time divided by s, give the same results but for the energies, times s."""

    n: int
    delta: float = 1.0
    alpha: float = 1.0
    t_junction: float = 1.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"sites per arm must be >= 1, got {self.n}")


def trijunction_h(
    config: Configuration, params: TrijunctionParams
) -> MajoranaHamiltonian:
    n = params.n
    terms = []
    for k in (config.a, config.b):
        for j in range(n - 1):
            terms.append(
                MajoranaMonomial(
                    1j * params.delta,
                    (MajoranaIndex(k, j, "y"), MajoranaIndex(k, j + 1, "x")),
                )
            )
    for l in range(n):
        terms.append(
            MajoranaMonomial(
                1j * params.alpha,
                (MajoranaIndex(config.c, l, "x"), MajoranaIndex(config.c, l, "y")),
            )
        )
    terms.append(
        MajoranaMonomial(
            1j * config.epsilon * params.t_junction,
            (MajoranaIndex(config.a, 0, "x"), MajoranaIndex(config.b, 0, "x")),
        )
    )
    return MajoranaHamiltonian(terms, n)


def trotter_slices(
    h_init: PauliSum, h_final: PauliSum, tau: float, substeps: int
) -> Iterator[tuple[PauliSum, float]]:
    """One protocol transition as S piecewise-constant slices of the linear
    interpolation: (h_s, tau/S) with h_s at lam = s/S for s = 1..S.  The
    Trotter angles are checked once, from the endpoint coefficients."""
    if tau <= 0:
        raise ValueError(f"step duration must be positive, got {tau}")
    if substeps < 1:
        raise ValueError(f"substeps must be >= 1, got {substeps}")
    dt = tau / substeps
    top = max((abs(c) for h in (h_init, h_final) for c, _ in h.terms), default=0.0) * dt
    if not math.isfinite(top):
        raise ValueError(f"the Trotter angle, gap x --tau / --trotter-steps, overflows to {top}")
    for s in range(1, substeps + 1):
        lam = s / substeps
        yield (1.0 - lam) * h_init + lam * h_final, dt


def trotter_rotations(
    h: PauliSum, dt: float, reps: int
) -> list[tuple[PauliString, float]]:
    """First-order product formula for exp(-i*H*dt) as rotations
    exp(-i*angle*P) in application order: the terms of ``h`` in their fixed
    order, each with angle coeff*dt/reps, repeated ``reps`` times."""
    if reps < 1:
        raise ValueError(f"repetitions must be >= 1, got {reps}")
    return [(string, coeff * dt / reps) for coeff, string in h.terms] * reps


def zero_mode_pair(config: Configuration, n: int) -> MajoranaMonomial:
    """Conserved quadratic i * y_{a,n-1} y_{b,n-1} of the two unpaired modes.

    Its mapped eigenvalue splits the two ground states of H_ab; the +1
    eigenvector is taken as the first ground-basis column.
    """
    return MajoranaMonomial(
        1j,
        (MajoranaIndex(config.a, n - 1, "y"), MajoranaIndex(config.b, n - 1, "y")),
    )
