"""Majorana braid emulation on a superconducting trijunction.

Exact state-vector simulation of the exchange-operator braid protocol and its
Trotterised adiabatic baseline, under two Majorana-to-qubit layouts, with gate
compilation and two-qubit-resource accounting.  The package defines only
``__version__``; import every name from its own module, for example
``from trijunction.pauli import PauliString``.
"""

__version__ = "0.1.0"
