"""Pauli operators in binary-symplectic representation."""

from repro.pauli.pauli import PauliOp, commutes, symplectic_matrix, symplectic_product

__all__ = ["PauliOp", "commutes", "symplectic_matrix", "symplectic_product"]
