"""Validity checks for generator representations and measured sets.

Implements the consistency conditions from the paper's appendix:

* **Theorem 1** — a generator representation is valid iff all operators
  are independent, each logical/gauge X–Z pair anticommutes, and all
  other pairs commute.
* **Definition 4** — a measured set ``Meas = Stab ∪ Gauge`` is valid iff
  measured operators avoid the logical algebra and every stabilizer
  generator's syndrome is recoverable from products of measured operators.

These checks run after every deformation instruction in the test suite,
turning the paper's proofs into executable invariants.  Commutation is
tested for all pairs at once (:func:`repro.pauli.symplectic_matrix`) and
membership in an operator group with one bitset elimination per basis; errors
still name the first offending pair or qubit a pairwise scan would meet.
"""

from __future__ import annotations

import numpy as np

from repro.codes.subsystem import SubsystemCode
from repro.pauli import symplectic_matrix
from repro.utils import gf2_span_contains

__all__ = [
    "ValidityError",
    "check_generator_representation",
    "check_measurement_set",
    "check_code",
]


class ValidityError(AssertionError):
    """A code violated a stabilizer-formalism invariant."""


def check_generator_representation(code: SubsystemCode) -> None:
    """Assert Theorem-1 style invariants on the code.

    Checks that stabilizer generators mutually commute, that the tracked
    logical X/Z anticommute with each other and commute with every
    stabilizer generator, and that the generators are independent of the
    logical operators (the logicals are not secretly stabilizers).
    """
    stabs = list(code.stabilizers.values())
    n = len(stabs)
    ops = [gen.pauli for gen in stabs] + [code.logical_x, code.logical_z]
    anti = symplectic_matrix(ops, ops)
    # Raise on the first offending pair in the order a pairwise scan meets it.
    pairs = np.argwhere(np.triu(anti[:n, :n], 1))
    if pairs.size:
        i, j = pairs[0]
        raise ValidityError(
            f"stabilizers {stabs[i].name} and {stabs[j].name} anticommute"
        )
    if not anti[n, n + 1]:
        raise ValidityError("logical X and Z commute; the logical qubit is lost")
    bad = np.flatnonzero(anti[:n, n:].any(axis=1))
    if bad.size:
        i = int(bad[0])
        which = "X" if anti[i, n] else "Z"
        raise ValidityError(
            f"stabilizer {stabs[i].name} anticommutes with logical {which}"
        )
    for logical, basis in ((code.logical_x, "X"), (code.logical_z, "Z")):
        if code.is_stabilizer(logical):
            raise ValidityError(f"logical {basis} lies in the stabilizer group")
    for logical in (code.logical_x, code.logical_z):
        stray = logical.support - code.data_qubits
        if stray:
            raise ValidityError(f"logical acts on non-code qubits {sorted(stray)}")
    for gen in stabs:
        stray = gen.pauli.support - code.data_qubits
        if stray:
            raise ValidityError(
                f"stabilizer {gen.name} acts on non-code qubits {sorted(stray)}"
            )


def check_measurement_set(code: SubsystemCode) -> None:
    """Assert Definition-4 style invariants on the measured set.

    1. Measured operators commute with the logical operators **or** are
       gauge operators whose stabilizer products do (the paper's
       condition (2) excludes the bare logical algebra; we verify that no
       measured operator anticommutes with both logicals of the encoded
       qubit in a way that would collapse it: every measured operator
       must commute with at least the stabilizer group and the product
       decompositions must reproduce the generators).
    2. Every stabilizer generator's ``measured_via`` product equals the
       generator (condition (3): syndromes are recoverable).
    """
    for name, gen in code.stabilizers.items():
        xs: frozenset = frozenset()
        zs: frozenset = frozenset()
        for check_name in gen.measured_via:
            if check_name not in code.checks:
                raise ValidityError(
                    f"stabilizer {name} references missing check {check_name}"
                )
            pauli = code.checks[check_name].pauli
            xs ^= pauli.x_support
            zs ^= pauli.z_support
        if xs != gen.pauli.x_support or zs != gen.pauli.z_support:
            raise ValidityError(
                f"measured_via product for {name} does not reproduce the generator"
            )
    checks = list(code.checks.items())
    disturbs = symplectic_matrix(
        [check.pauli for _, check in checks], [code.logical_x, code.logical_z]
    ).any(axis=1)
    for (name, check), anticommutes in zip(checks, disturbs, strict=True):
        if anticommutes:
            raise ValidityError(
                f"measured operator {name} anticommutes with a logical operator; "
                "measuring it would disturb the encoded state"
            )
        stray = check.pauli.support - code.data_qubits
        if stray:
            raise ValidityError(
                f"check {name} acts on non-code qubits {sorted(stray)}"
            )


def check_no_bare_logicals(code: SubsystemCode) -> None:
    """Assert that undetected single-qubit errors are gauge or stabilizer.

    A data qubit touched by no X-type stabilizer generator is invisible to
    Z-error detection; that is only safe when ``Z_q`` itself lies in the
    group generated by Z-type stabilizers and measured Z gauges (a trivial
    or pure-gauge error).  Otherwise the deformation silently created a
    weight-1 logical.  Symmetric for the X side.
    """
    index = {q: i for i, q in enumerate(code.data_qubits)}
    for detect_basis, error_basis in (("X", "Z"), ("Z", "X")):
        covered = set()
        for gen in code.stabilizers.values():
            if gen.basis == detect_basis:
                covered |= gen.pauli.support
        bare = list(code.data_qubits - covered)
        if not bare:
            continue
        group = code.parity_bitsets(error_basis, index, include_gauges=True)
        inside = gf2_span_contains(group, [1 << index[q] for q in bare])
        for q, trivial in zip(bare, inside, strict=True):
            if not trivial:
                raise ValidityError(
                    f"qubit {q} has no {detect_basis}-stabilizer coverage and "
                    f"{error_basis}_{q} is not gauge/stabilizer: weight-1 "
                    "logical error"
                )


def check_code(code: SubsystemCode) -> None:
    """Run all validity checks (Theorem 1, Definition 4, bare-logical audit)."""
    check_generator_representation(code)
    check_measurement_set(code)
    check_no_bare_logicals(code)
