"""Code distance of (deformed) CSS subsystem codes.

Two independent algorithms:

* :func:`brute_force_distance` — exact coset enumeration over GF(2);
  exponential, used for small codes and as a test oracle.
* :func:`graph_distance` — the matching-graph / odd-cycle method, exact
  whenever every data qubit participates in at most two stabilizer
  generators of the detecting basis.  All codes produced by Surf-Deformer
  deformations satisfy this, because super-stabilizers absorb the merged
  plaquettes.  One ``scipy.sparse.csgraph`` unweighted shortest-path
  call over the doubled graph in CSR form; the networkx formulation it
  replaced is the test oracle in ``tests/deform_oracles.py``.

Conventions: the **Z-distance** is the minimum weight of a Z-type logical
operator; Z errors are detected by **X-type** stabilizers.  Symmetrically
for the X-distance.  The full code distance is ``min(dX, dZ)``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from repro.codes.subsystem import SubsystemCode
from repro.utils import gf2_independent_rows

__all__ = ["brute_force_distance", "graph_distance", "code_distance"]

_DETECTING_BASIS = {"Z": "X", "X": "Z"}


def brute_force_distance(code: SubsystemCode, logical_basis: str) -> int:
    """Exact dressed distance by enumerating the logical coset.

    The dressed ``logical_basis``-distance is the minimum weight of an
    operator in ``logical · <same-basis stabilizers and gauges>`` that
    commutes with all detecting-basis stabilizers.  Because the logical
    coset is an affine subspace, we enumerate
    ``logical ⊕ span(H_basis ∪ gauges)`` directly.

    Exponential in the number of same-basis generators — only use for
    codes with ≲ 20 of them.
    """
    if logical_basis not in ("X", "Z"):
        raise ValueError("logical_basis must be 'X' or 'Z'")
    order = code.qubit_order()
    index = {q: i for i, q in enumerate(order)}
    n = len(order)

    logical = code.logical_x if logical_basis == "X" else code.logical_z
    support = logical.x_support if logical_basis == "X" else logical.z_support
    logical_vec = np.zeros(n, dtype=np.uint8)
    for q in support:
        logical_vec[index[q]] = 1

    same_basis = code.parity_matrix(logical_basis, include_gauges=True)
    # Reduce to an independent generating set to bound the enumeration.
    keep = gf2_independent_rows(same_basis)
    gens = same_basis[keep]
    k = gens.shape[0]
    if k > 24:
        raise ValueError(f"brute force infeasible: {k} same-basis generators")

    best = int(logical_vec.sum())
    for r in range(1, k + 1):
        for combo in combinations(range(k), r):
            vec = logical_vec.copy()
            for idx in combo:
                vec ^= gens[idx]
            weight = int(vec.sum())
            if weight < best:
                best = weight
    return best


def graph_distance(code: SubsystemCode, logical_basis: str) -> int:
    """Dressed distance via minimum-weight odd ``crossing`` cycle.

    The detection graph has one vertex per detecting-basis stabilizer
    generator plus a single ``boundary`` vertex.  Each data qubit is an
    edge joining the generators whose support contains it (or the
    boundary when exactly one does); it is a ``crossing`` edge when the
    qubit lies in the support of the tracked opposite-basis logical.

    A ``logical_basis`` error chain is undetectable iff the corresponding
    edge set has even degree at every real vertex (boundary degree is
    unconstrained).  Such a chain is a logical operator iff it
    anticommutes with the opposite logical, i.e. its total ``crossing``
    label is odd.  The minimum-weight odd cycle is found in the standard
    doubled graph: vertex ``v`` on layer ``l`` becomes ``v + l * V``,
    crossing edges change layer, and the answer is
    ``min_v dist(v, v + V)`` from one unweighted (hop-count) csgraph
    search over the doubled graph's CSR arrays.

    Raises ``ValueError`` when the code is non-graphlike (a qubit in more
    than two detecting generators), when the tracked logical passes
    through a qubit no detecting generator touches, or when no logical
    cycle exists.  The result is memoised on the code's content (see
    :func:`_odd_cycle_distance`), so re-measuring an unchanged code is
    free.
    """
    det_basis = _DETECTING_BASIS[logical_basis]
    opposite_logical = code.logical_x if logical_basis == "Z" else code.logical_z
    crossing = (
        opposite_logical.x_support if det_basis == "X" else opposite_logical.z_support
    )
    supports = tuple(
        gen.pauli.x_support if det_basis == "X" else gen.pauli.z_support
        for gen in code.stabilizers.values()
        if gen.basis == det_basis
    )
    return _odd_cycle_distance(
        logical_basis, supports, tuple(code.data_qubits), crossing
    )


# Bounded memo of recent codes: a removal pass's adopted candidate, the
# distance the pass reports after it, and the first and last rounds of
# adaptive enlargement all measure the same code.
@lru_cache(maxsize=32)
def _odd_cycle_distance(
    logical_basis: str,
    supports: tuple[frozenset, ...],
    data_qubits: tuple,
    crossing: frozenset,
) -> int:
    """:func:`graph_distance` of the detection graph given by its content.

    ``supports`` are the detecting-basis generators' supports, and
    ``data_qubits`` is in the code's iteration order, which fixes the
    qubit named by a non-graphlike ``ValueError``.
    """
    det_basis = _DETECTING_BASIS[logical_basis]
    incidence: dict = {q: [] for q in data_qubits}
    for vertex, support in enumerate(supports, start=1):
        for q in support:
            touching = incidence.get(q)
            if touching is not None:
                touching.append(vertex)

    # Vertex 0 is the boundary.
    heads: list[int] = []
    tails: list[int] = []
    flips: list[int] = []
    for q, touching in incidence.items():
        flip = 1 if q in crossing else 0
        if len(touching) == 2:
            heads.append(touching[0])
            tails.append(touching[1])
        elif len(touching) == 1:
            heads.append(touching[0])
            tails.append(0)
        elif not touching:
            # Gauge qubit: no detecting stabilizer touches it, so errors on
            # it are pure gauge and never affect the logical.  The tracked
            # logical representative must have been rerouted off such
            # qubits by the deformation layer.
            if flip:
                raise ValueError(
                    "logical representative passes through undetected "
                    f"qubit {q}; reroute the logical before computing "
                    "distance"
                )
            continue
        else:
            raise ValueError(
                f"qubit {q} is in {len(touching)} {det_basis}-stabilizers; "
                "the matching-graph distance requires <= 2 "
                "(non-graphlike code)"
            )
        flips.append(flip)

    # An odd cycle contains a crossing edge, and walking the minimum odd
    # cycle from any of its vertices reaches that vertex's other layer,
    # so the endpoints of crossing edges suffice as sources.
    sources = sorted(
        {v for h, t, f in zip(heads, tails, flips, strict=True) for v in (h, t) if f}
    )
    if not sources:
        raise ValueError(f"no {logical_basis} logical cycle found")
    num = len(supports) + 1
    dist = dijkstra(
        _doubled_csr(num, heads, tails, flips), unweighted=True, indices=sources
    )
    cycle = dist[np.arange(len(sources)), np.asarray(sources) + num].min()
    if np.isinf(cycle):
        raise ValueError(f"no {logical_basis} logical cycle found")
    return int(cycle)


def _doubled_csr(
    num: int, heads: list[int], tails: list[int], flips: list[int]
) -> csr_matrix:
    """Symmetric CSR adjacency of the doubled detection graph.

    Edge ``(h, t, f)`` joins ``(h, l)`` to ``(t, l ^ f)`` on both layers
    ``l``; parallel edges stay (they do not change hop counts).
    """
    h = np.asarray(heads, dtype=np.int32)
    t = np.asarray(tails, dtype=np.int32)
    f = np.asarray(flips, dtype=np.int32) * num
    ends_a = np.concatenate([h, h + num])
    ends_b = np.concatenate([t + f, t + num - f])
    src = np.concatenate([ends_a, ends_b])
    dst = np.concatenate([ends_b, ends_a])
    order = np.argsort(src, kind="stable")
    indptr = np.zeros(2 * num + 1, dtype=np.int32)
    np.cumsum(np.bincount(src, minlength=2 * num), out=indptr[1:])
    data = np.ones(src.size, dtype=np.float64)
    return csr_matrix((data, dst[order], indptr), shape=(2 * num, 2 * num))


def code_distance(code: SubsystemCode, *, exact: bool = False) -> tuple[int, int]:
    """``(X-distance, Z-distance)`` of the code.

    ``exact=True`` forces brute-force enumeration (test oracle);
    otherwise the graph method is used.
    """
    if exact:
        return (
            brute_force_distance(code, "X"),
            brute_force_distance(code, "Z"),
        )
    return graph_distance(code, "X"), graph_distance(code, "Z")
