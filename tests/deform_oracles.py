"""Reference implementations the deformation unit's fast paths must match.

* :func:`networkx_graph_distance` — the original formulation of the
  matching-graph distance: build the detection graph as a
  ``networkx.MultiGraph``, double it on the crossing label, and run one
  single-pair Dijkstra from ``(v, 0)`` to ``(v, 1)`` per vertex.  The
  runtime :func:`repro.codes.graph_distance` searches the same doubled
  graph as CSR arrays.
* :func:`pairwise_check_code` — the validity audit with one
  ``commutes`` call per operator pair and one ``gf2_in_rowspace`` solve
  per vector.  The runtime :func:`repro.codes.check_code` computes all
  pairs as one packed product and must raise the same first error.

``tests/test_deform_oracles.py`` pins the runtime implementations to
these: same values, same exceptions, same messages.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro.codes import ValidityError
from repro.codes.subsystem import SubsystemCode
from repro.pauli import PauliOp, commutes
from repro.utils import gf2_in_rowspace

__all__ = [
    "detection_graph",
    "networkx_graph_distance",
    "pairwise_check_code",
]

_DETECTING_BASIS = {"Z": "X", "X": "Z"}


def detection_graph(code: SubsystemCode, logical_basis: str) -> nx.MultiGraph:
    """Matching graph of detecting-basis stabilizers.

    Vertices are the detecting-basis stabilizer generators plus a single
    virtual ``"boundary"`` vertex.  Each data qubit becomes an edge joining
    the generators whose support contains it (or the boundary when it is
    contained in exactly one).  Edges carry:

    * ``qubit`` — the data qubit label,
    * ``crossing`` — 1 when the qubit lies in the support of the tracked
      opposite-basis logical operator (used to tell logical cycles from
      stabilizer-product cycles).
    """
    det_basis = _DETECTING_BASIS[logical_basis]
    opposite_logical = code.logical_x if logical_basis == "Z" else code.logical_z
    cross_support = (
        opposite_logical.x_support if det_basis == "X" else opposite_logical.z_support
    )

    generators = [
        (name, gen.pauli)
        for name, gen in code.stabilizers.items()
        if gen.basis == det_basis
    ]
    graph = nx.MultiGraph()
    graph.add_node("boundary")
    for name, _ in generators:
        graph.add_node(name)

    incidence: dict = {q: [] for q in code.data_qubits}
    for name, pauli in generators:
        support = pauli.x_support if det_basis == "X" else pauli.z_support
        for q in support:
            if q in incidence:
                incidence[q].append(name)

    for q, names in incidence.items():
        crossing = 1 if q in cross_support else 0
        if len(names) == 2:
            graph.add_edge(names[0], names[1], qubit=q, crossing=crossing)
        elif len(names) == 1:
            graph.add_edge(names[0], "boundary", qubit=q, crossing=crossing)
        elif len(names) == 0:
            # Gauge qubit: no detecting stabilizer touches it, so errors on
            # it are pure gauge and never affect the logical.  The tracked
            # logical representative must have been rerouted off such
            # qubits by the deformation layer.
            if crossing:
                raise ValueError(
                    "logical representative passes through undetected "
                    f"qubit {q}; reroute the logical before computing "
                    "distance"
                )
        else:
            raise ValueError(
                f"qubit {q} is in {len(names)} {det_basis}-stabilizers; "
                "the matching-graph distance requires <= 2 "
                "(non-graphlike code)"
            )
    return graph


def networkx_graph_distance(code: SubsystemCode, logical_basis: str) -> int:
    """Dressed distance via minimum-weight odd ``crossing`` cycle.

    A ``logical_basis`` error chain is undetectable iff the corresponding
    edge set has even degree at every real vertex (boundary degree is
    unconstrained).  Such a chain is a logical operator iff it
    anticommutes with the opposite logical, i.e. its total ``crossing``
    label is odd.  The minimum-weight odd cycle is found in the standard
    doubled graph: layer changes on crossing edges, shortest path from
    ``(v, 0)`` to ``(v, 1)``.

    Returns ``0`` for a code with no remaining logical (should not occur)
    and raises when the code is non-graphlike.
    """
    graph = detection_graph(code, logical_basis)

    doubled = nx.Graph()
    for u, v, data in graph.edges(data=True):
        flip = data["crossing"]
        for layer in (0, 1):
            a = (u, layer)
            b = (v, layer ^ flip)
            w = 1
            if doubled.has_edge(a, b):
                continue  # parallel edges of equal weight are redundant
            doubled.add_edge(a, b, weight=w)

    best = np.inf
    for node in graph.nodes:
        source, target = (node, 0), (node, 1)
        if source not in doubled or target not in doubled:
            continue
        try:
            length = nx.shortest_path_length(
                doubled, source, target, weight="weight"
            )
        except nx.NetworkXNoPath:
            continue
        best = min(best, length)
    if np.isinf(best):
        raise ValueError(f"no {logical_basis} logical cycle found")
    return int(best)


def pairwise_check_generator_representation(code: SubsystemCode) -> None:
    """``check_generator_representation`` with one ``commutes`` per pair."""
    stabs = list(code.stabilizers.values())
    for i, gen_a in enumerate(stabs):
        for gen_b in stabs[i + 1 :]:
            if not commutes(gen_a.pauli, gen_b.pauli):
                raise ValidityError(
                    f"stabilizers {gen_a.name} and {gen_b.name} anticommute"
                )
    if commutes(code.logical_x, code.logical_z):
        raise ValidityError("logical X and Z commute; the logical qubit is lost")
    for gen in stabs:
        if not commutes(gen.pauli, code.logical_x):
            raise ValidityError(f"stabilizer {gen.name} anticommutes with logical X")
        if not commutes(gen.pauli, code.logical_z):
            raise ValidityError(f"stabilizer {gen.name} anticommutes with logical Z")
    for logical, basis in ((code.logical_x, "X"), (code.logical_z, "Z")):
        if _solve_is_stabilizer(code, logical):
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


def pairwise_check_measurement_set(code: SubsystemCode) -> None:
    """``check_measurement_set`` with one ``commutes`` per check and logical."""
    for name, gen in code.stabilizers.items():
        product = PauliOp.identity()
        for check_name in gen.measured_via:
            if check_name not in code.checks:
                raise ValidityError(
                    f"stabilizer {name} references missing check {check_name}"
                )
            product = product * code.checks[check_name].pauli
        if product != gen.pauli:
            raise ValidityError(
                f"measured_via product for {name} does not reproduce the generator"
            )
    for name, check in code.checks.items():
        if not commutes(check.pauli, code.logical_x) or not commutes(
            check.pauli, code.logical_z
        ):
            raise ValidityError(
                f"measured operator {name} anticommutes with a logical operator; "
                "measuring it would disturb the encoded state"
            )
        stray = check.pauli.support - code.data_qubits
        if stray:
            raise ValidityError(
                f"check {name} acts on non-code qubits {sorted(stray)}"
            )


def pairwise_check_no_bare_logicals(code: SubsystemCode) -> None:
    """``check_no_bare_logicals`` with one ``gf2_in_rowspace`` solve per qubit."""
    order = code.qubit_order()
    index = {q: i for i, q in enumerate(order)}
    for detect_basis, error_basis in (("X", "Z"), ("Z", "X")):
        covered = set()
        for gen in code.stabilizers.values():
            if gen.basis == detect_basis:
                covered |= gen.pauli.support
        group = code.parity_matrix(error_basis, include_gauges=True)
        for q in code.data_qubits - covered:
            vec = np.zeros(len(order), dtype=np.uint8)
            vec[index[q]] = 1
            if not gf2_in_rowspace(group, vec):
                raise ValidityError(
                    f"qubit {q} has no {detect_basis}-stabilizer coverage and "
                    f"{error_basis}_{q} is not gauge/stabilizer: weight-1 "
                    "logical error"
                )


def _solve_is_stabilizer(code: SubsystemCode, op: PauliOp) -> bool:
    """``SubsystemCode.is_stabilizer`` as one ``gf2_in_rowspace`` solve."""
    if not (op.is_x_type() or op.is_z_type()):
        return False
    basis = "X" if op.is_x_type() else "Z"
    order = code.qubit_order()
    index = {q: i for i, q in enumerate(order)}
    vec = np.zeros(len(order), dtype=np.uint8)
    for q in op.x_support if basis == "X" else op.z_support:
        if q not in index:
            return False
        vec[index[q]] = 1
    return gf2_in_rowspace(code.parity_matrix(basis), vec)


def pairwise_check_code(code: SubsystemCode) -> None:
    """``check_code`` built from the pairwise checks above."""
    pairwise_check_generator_representation(code)
    pairwise_check_measurement_set(code)
    pairwise_check_no_bare_logicals(code)
