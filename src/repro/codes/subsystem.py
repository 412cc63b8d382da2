"""Subsystem stabilizer codes with an explicit measured-operator set.

The paper (appendix A) distinguishes between

* the *generator representation* of a code — stabilizer generators,
  logical X/Z pairs and gauge X/Z pairs (Theorem 1), and
* the *measured set* ``Meas = Stab ∪ Gauge`` — the operators a syndrome
  extraction circuit actually measures each cycle (Definition 4).

:class:`SubsystemCode` tracks both.  The stabilizer group is stored via
generators; each generator carries a decomposition into measured checks so
that detectors (deterministic round-to-round comparisons) can be produced
for the simulator even when a stabilizer is only inferred from gauge
measurements (e.g. super-stabilizers).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.pauli import PauliOp
from repro.utils import gf2_independent_rows, gf2_rank, gf2_span_contains

__all__ = ["Check", "SubsystemCode"]


@dataclass(frozen=True)
class Check:
    """A measured operator: an ordinary check or a gauge operator.

    Attributes:
        pauli: the operator measured.
        ancilla: lattice coordinate of the ancilla used, or ``None`` when
            the operator is measured destructively on a data qubit
            (weight-1 gauge measurements).
        basis: ``"X"`` or ``"Z"`` — the CSS type of the operator.
        name: stable identifier used in stabilizer decompositions.
    """

    pauli: PauliOp
    basis: str
    name: str
    ancilla: Optional[tuple] = None

    def __post_init__(self) -> None:
        if self.basis not in ("X", "Z"):
            raise ValueError(f"basis must be 'X' or 'Z', got {self.basis!r}")
        expected = self.pauli.is_x_type() if self.basis == "X" else self.pauli.is_z_type()
        if not expected:
            raise ValueError(f"check {self.name} basis {self.basis} does not match pauli")


@dataclass
class StabilizerGenerator:
    """A generator of the stabilizer group with its measurement decomposition.

    ``measured_via`` lists names of :class:`Check` objects whose product
    equals ``pauli``; comparing that product across rounds yields a
    deterministic detector.
    """

    pauli: PauliOp
    basis: str
    name: str
    measured_via: tuple[str, ...]


class SubsystemCode:
    """A CSS subsystem code over labelled data qubits.

    All codes produced by Surf-Deformer deformations are CSS, so X- and
    Z-type structure is tracked separately throughout.  The single logical
    qubit's representative operators are maintained explicitly and updated
    by the deformation layer whenever their support touches removed qubits.
    """

    def __init__(
        self,
        data_qubits: Iterable,
        stabilizers: Iterable[StabilizerGenerator],
        checks: Iterable[Check],
        logical_x: PauliOp,
        logical_z: PauliOp,
    ) -> None:
        self.data_qubits: set = set(data_qubits)
        self.stabilizers: dict[str, StabilizerGenerator] = {s.name: s for s in stabilizers}
        self.checks: dict[str, Check] = {c.name: c for c in checks}
        self.logical_x = logical_x
        self.logical_z = logical_z
        self._counter = 0

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def stabilizer_ops(self, basis: str | None = None) -> list[PauliOp]:
        """Stabilizer-group generators, optionally restricted to one basis."""
        gens = self.stabilizers.values()
        if basis is None:
            return [g.pauli for g in gens]
        return [g.pauli for g in gens if g.basis == basis]

    def check_ops(self, basis: str | None = None) -> list[PauliOp]:
        """Measured operators, optionally restricted to one basis."""
        checks = self.checks.values()
        if basis is None:
            return [c.pauli for c in checks]
        return [c.pauli for c in checks if c.basis == basis]

    def gauge_ops(self, basis: str | None = None) -> list[PauliOp]:
        """Measured operators that are *not* themselves stabilizer generators.

        These are the gauge operators: their individual outcomes are random
        round to round, only the products listed in stabilizer
        decompositions are deterministic.
        """
        stab_names = {
            name for gen in self.stabilizers.values() if len(gen.measured_via) == 1
            for name in gen.measured_via
        }
        result = []
        for name, check in self.checks.items():
            if name in stab_names:
                continue
            if basis is not None and check.basis != basis:
                continue
            result.append(check.pauli)
        return result

    @property
    def n(self) -> int:
        """Number of data qubits."""
        return len(self.data_qubits)

    def qubit_order(self) -> list:
        """Deterministic ordering of data qubits for dense linear algebra."""
        return sorted(self.data_qubits)

    # ------------------------------------------------------------------
    # Dense matrices for analysis
    # ------------------------------------------------------------------
    def parity_matrix(self, basis: str, *, include_gauges: bool = False) -> np.ndarray:
        """Support matrix of stabilizer generators (rows) over data qubits.

        With ``include_gauges`` the measured gauge operators of the same
        basis are appended as extra rows (used for dressed-logical coset
        computations).
        """
        order = self.qubit_order()
        index = {q: i for i, q in enumerate(order)}
        ops = self.stabilizer_ops(basis)
        if include_gauges:
            ops = ops + self.gauge_ops(basis)
        mat = np.zeros((len(ops), len(order)), dtype=np.uint8)
        for r, op in enumerate(ops):
            support = op.x_support if basis == "X" else op.z_support
            for q in support:
                if q in index:
                    mat[r, index[q]] = 1
        return mat

    # ------------------------------------------------------------------
    # Membership / sanity helpers
    # ------------------------------------------------------------------
    def parity_bitsets(
        self, basis: str, index: Mapping, *, include_gauges: bool = False
    ) -> list[int]:
        """:meth:`parity_matrix` rows as int bitsets: bit ``index[q]`` is qubit ``q``.

        Qubits missing from ``index`` are dropped, as in the matrix.
        """
        ops = self.stabilizer_ops(basis)
        if include_gauges:
            ops = ops + self.gauge_ops(basis)
        rows = []
        for op in ops:
            bits = 0
            for q in op.x_support if basis == "X" else op.z_support:
                i = index.get(q)
                if i is not None:
                    bits |= 1 << i
            rows.append(bits)
        return rows

    def is_stabilizer(self, op: PauliOp) -> bool:
        """Whether ``op`` lies in the stabilizer group (CSS, phase-free)."""
        if not (op.is_x_type() or op.is_z_type()):
            return False
        basis = "X" if op.is_x_type() else "Z"
        index = {q: i for i, q in enumerate(self.data_qubits)}
        vec = 0
        for q in op.x_support if basis == "X" else op.z_support:
            if q not in index:
                return False
            vec |= 1 << index[q]
        return gf2_span_contains(self.parity_bitsets(basis, index), [vec])[0]

    def fresh_name(self, prefix: str) -> str:
        """A name unused by any current check or stabilizer."""
        while True:
            self._counter += 1
            name = f"{prefix}_{self._counter}"
            if name not in self.checks and name not in self.stabilizers:
                return name

    def copy(self) -> "SubsystemCode":
        """Independent deep-enough copy (Pauli ops are immutable)."""
        clone = SubsystemCode(
            data_qubits=set(self.data_qubits),
            stabilizers=[
                StabilizerGenerator(s.pauli, s.basis, s.name, s.measured_via)
                for s in self.stabilizers.values()
            ],
            checks=list(self.checks.values()),
            logical_x=self.logical_x,
            logical_z=self.logical_z,
        )
        clone._counter = self._counter
        return clone

    # ------------------------------------------------------------------
    # Invariant counts
    # ------------------------------------------------------------------
    def num_gauge_qubits(self) -> int:
        """l = n - k - (number of independent stabilizer generators), k=1."""
        order = self.qubit_order()
        rows = [g.pauli.to_symplectic(order) for g in self.stabilizers.values()]
        if not rows:
            return self.n - 1
        rank = gf2_rank(np.array(rows))
        return self.n - 1 - rank

    def independent_stabilizer_names(self) -> list[str]:
        """Names of a maximal independent subset of stabilizer generators."""
        names = list(self.stabilizers)
        order = self.qubit_order()
        rows = np.array(
            [self.stabilizers[n].pauli.to_symplectic(order) for n in names],
            dtype=np.uint8,
        )
        keep = gf2_independent_rows(rows)
        return [names[i] for i in keep]

    def __repr__(self) -> str:
        return (
            f"SubsystemCode(n={self.n}, stabilizers={len(self.stabilizers)}, "
            f"checks={len(self.checks)})"
        )
