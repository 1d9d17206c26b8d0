"""Phase-tracked multi-qubit Pauli strings and real-weighted Hermitian sums.

Encoding
--------
A string over Q qubits is stored as two bitmasks plus a phase exponent:

    operator = i**phase_exp * prod_q W_q,
    W(x=1, z=0) = X,  W(x=0, z=1) = Z,  W(x=1, z=1) = Y,  W(0, 0) = I,

where bit q of ``x``/``z`` selects the factor on qubit q.  With the per-qubit
convention W = i**(x*z) * X**x * Z**z every W is Hermitian, so a string is
Hermitian exactly when its phase is +-1 (``phase_exp`` even).

Qubit 0 is the rightmost factor in ket labels |q_{Q-1} ... q_1 q_0>, and bit b
of a basis index is qubit b.  Labels returned by :meth:`PauliString.label` are
written in the same ket order.  :meth:`PauliString.from_label` is the one
parser of axis letters; every other constructor takes the bitmasks.

Order
-----
:meth:`PauliString.sort_key` is ``(weight, code)``, where base-4 digit q of
``code`` is the axis code I=0, X=1, Y=2, Z=3 of qubit q, ``(x ^ z) + 2*z``:
the binary digits of ``x ^ z`` read in base 4 (bit q lands at 4**q) plus
twice those of ``z``.  Qubit Q-1 is the most significant digit, so among
strings of one qubit count this is the ``(weight, label())`` order
('I' < 'X' < 'Y' < 'Z').

A :class:`PauliSum` keeps its terms canonical (see ``_canonical``); only an
exactly zero coefficient is dropped, so no operation has an energy unit.  The
constructor converts and checks its inputs first; ``+`` merges its two
operands, canonical already, without that check.

All values are frozen, slotted dataclasses that copy and pickle; the cached
``PauliString._key`` is not part of a value.  Every operation is pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .kernels import string_action

__all__ = [
    "DENSE_QUBIT_LIMIT",
    "PauliString",
    "PauliSum",
    "commutes",
    "multiply",
    "to_matrix",
]

DENSE_QUBIT_LIMIT = 14

_AXIS_OF_BITS = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
_BITS_OF_AXIS = {v: k for k, v in _AXIS_OF_BITS.items()}


@dataclass(frozen=True, slots=True, init=False, repr=False)
class PauliString:
    """One tensor product of single-qubit Paulis with a tracked i**k phase.

    The slot ``_key`` holds :meth:`sort_key` once it has been computed; it is
    not part of the value, so equality and hashing ignore it.
    """

    num_qubits: int
    x: int
    z: int
    phase_exp: int
    _key: tuple[int, int] | None = field(compare=False)

    def __init__(self, num_qubits: int, x: int = 0, z: int = 0, phase_exp: int = 0):
        if num_qubits < 0:
            raise ValueError("qubit count must be non-negative")
        if (x | z) >> num_qubits:
            raise ValueError("bitmask exceeds qubit count")
        object.__setattr__(self, "num_qubits", num_qubits)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "phase_exp", phase_exp & 3)
        object.__setattr__(self, "_key", None)

    @classmethod
    def from_label(cls, label: str, phase_exp: int = 0) -> "PauliString":
        """Build from a ket-ordered label, leftmost character = qubit Q-1; the
        one parser of axis letters ('IXYZ', either case)."""
        x = z = 0
        for i, ch in enumerate(label):
            try:
                bx, bz = _BITS_OF_AXIS[ch.upper()]
            except KeyError:
                qubit = len(label) - 1 - i
                raise ValueError(f"unknown axis {ch!r} on qubit {qubit}") from None
            x = (x << 1) | bx
            z = (z << 1) | bz
        return cls(len(label), x, z, phase_exp)

    def axis(self, qubit: int) -> str:
        return _AXIS_OF_BITS[((self.x >> qubit) & 1, (self.z >> qubit) & 1)]

    def label(self) -> str:
        return "".join(self.axis(q) for q in range(self.num_qubits - 1, -1, -1))

    @property
    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    @property
    def phase(self) -> complex:
        return 1j ** self.phase_exp

    @property
    def is_identity(self) -> bool:
        return self.x == 0 and self.z == 0

    def support(self) -> tuple[int, ...]:
        bits = self.x | self.z
        return tuple(q for q in range(self.num_qubits) if (bits >> q) & 1)

    def drop_phase(self) -> "PauliString":
        if self.phase_exp == 0:
            return self
        return PauliString(self.num_qubits, self.x, self.z, 0)

    def sort_key(self) -> tuple[int, int]:
        """(weight, code): the binary digits of ``x ^ z`` read in base 4 plus
        twice those of ``z``; the (weight, label()) order.  Computed on first
        use and kept."""
        if (key := self._key) is None:
            code = int(format(self.x ^ self.z, "b"), 4)
            key = (self.weight, code | int(format(self.z, "b"), 4) << 1)
            object.__setattr__(self, "_key", key)
        return key

    def __repr__(self) -> str:
        sign = ("+", "+i*", "-", "-i*")[self.phase_exp]
        return f"{sign}{self.label()}"


def multiply(a: PauliString, b: PauliString) -> PauliString:
    """Group product a*b with the accumulated i**k phase."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("Pauli strings act on different qubit counts")
    x = a.x ^ b.x
    z = a.z ^ b.z
    exp = (
        a.phase_exp
        + b.phase_exp
        + (a.x & a.z).bit_count()
        + (b.x & b.z).bit_count()
        - (x & z).bit_count()
        + 2 * (a.z & b.x).bit_count()
    )
    return PauliString(a.num_qubits, x, z, exp)


def commutes(a: PauliString, b: PauliString) -> bool:
    """True iff a*b == b*a (symplectic overlap is even)."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("Pauli strings act on different qubit counts")
    return ((a.x & b.z).bit_count() + (a.z & b.x).bit_count()) % 2 == 0


def _canonical(
    terms: Iterable[tuple[float, PauliString]],
) -> tuple[tuple[float, PauliString], ...]:
    """Real-weighted phase-free strings merged by :meth:`PauliString.sort_key`
    (injective among strings of one qubit count): coefficients summed in input
    order from 0.0, exact zeros (either sign) dropped, the rest in key order."""
    coeffs: dict[tuple[int, int], float] = {}
    strings: dict[tuple[int, int], PauliString] = {}
    for c, string in terms:
        key = string.sort_key()
        coeffs[key] = coeffs.get(key, 0.0) + c
        strings[key] = string
    return tuple(
        (coeffs[key], strings[key])
        for key in sorted(coeffs)
        if coeffs[key] != 0
    )


def to_matrix(s: PauliString) -> np.ndarray:
    """Dense 2^Q x 2^Q realisation P[i, perm[i]] = w[perm][i], no krons."""
    if s.num_qubits > DENSE_QUBIT_LIMIT:
        raise ValueError(f"dense realisation limited to {DENSE_QUBIT_LIMIT} qubits")
    perm, wp = string_action(s.num_qubits, s.x, s.z, s.phase_exp)
    M = np.zeros((perm.size, perm.size), dtype=np.complex128)
    M[np.arange(perm.size), perm] = wp
    return M


@dataclass(frozen=True, slots=True, init=False, eq=False, repr=False)
class PauliSum:
    """Real-weighted sum of phase-free Pauli strings (a Hermitian operator).

    Terms are merged by string, dropped only when exactly zero, and kept in
    the fixed :meth:`PauliString.sort_key` order, weight first and then the
    integer axis code, which is the (weight, label) order; so any consumer
    iterating ``terms`` sees the same deterministic sequence.  Scaling by a
    Python int or float keeps the strings and their order, so it only scales
    and drops zeros.  Equality is identity: two sums with the same terms are not ``==``.
    """

    num_qubits: int
    terms: tuple[tuple[float, PauliString], ...]

    def __init__(
        self, num_qubits: int, terms: Iterable[tuple[complex, PauliString]] = ()
    ):
        real_terms = []
        for coeff, string in terms:
            if string.num_qubits != num_qubits:
                raise ValueError("term qubit count mismatch")
            c = complex(coeff) * string.phase
            if abs(c.imag) > 1e-12 * abs(c.real):
                raise ValueError(f"non-Hermitian term with coefficient {c}")
            real_terms.append((c.real, string.drop_phase()))
        object.__setattr__(self, "num_qubits", num_qubits)
        object.__setattr__(self, "terms", _canonical(real_terms))

    @classmethod
    def _of(
        cls, num_qubits: int, terms: tuple[tuple[float, PauliString], ...]
    ) -> "PauliSum":
        """A sum whose ``terms`` are already canonical, taken as they are."""
        out = object.__new__(cls)
        object.__setattr__(out, "num_qubits", num_qubits)
        object.__setattr__(out, "terms", terms)
        return out

    def __len__(self) -> int:
        return len(self.terms)

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if self.num_qubits != other.num_qubits:
            raise ValueError("summands act on different qubit counts")
        return PauliSum._of(self.num_qubits, _canonical((*self.terms, *other.terms)))

    def __mul__(self, scalar: float) -> "PauliSum":
        if type(scalar) not in (int, float):
            # complex and numpy scalars take the checked, converting path
            return PauliSum(
                self.num_qubits, ((scalar * c, s) for c, s in self.terms)
            )
        terms = tuple((v, s) for c, s in self.terms if (v := scalar * c) != 0)
        return PauliSum._of(self.num_qubits, terms)

    __rmul__ = __mul__

    def to_matrix(self) -> np.ndarray:
        """Dense matrix, real exactly when every string has an even Y count."""
        if self.num_qubits > DENSE_QUBIT_LIMIT:
            raise ValueError(f"dense realisation limited to {DENSE_QUBIT_LIMIT} qubits")
        dim = 1 << self.num_qubits
        real = all((s.x & s.z).bit_count() % 2 == 0 for _, s in self.terms)
        M = np.zeros((dim, dim), dtype=np.float64 if real else np.complex128)
        rows = np.arange(dim)
        for coeff, string in self.terms:
            perm, wp = string_action(self.num_qubits, string.x, string.z, 0)
            M[rows, perm] += coeff * (wp.real if real else wp)
        return M

    def __repr__(self) -> str:
        body = " ".join(f"{c:+g}*{s.label()}" for c, s in self.terms)
        return f"PauliSum({body})" if body else "PauliSum(0)"
