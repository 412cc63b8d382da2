"""Property tests: the deformation unit's array paths against their oracles.

* ``graph_distance`` (CSR search over the doubled detection graph) equals
  the networkx formulation on randomly deformed d = 3/5/7 codes and on
  random detection graphs, raises ``ValueError`` exactly when it does
  (same message), and never exceeds the brute-force dressed distance.
* ``symplectic_matrix`` equals pairwise ``symplectic_product``,
  including Y components and qubits outside any code.
* ``gf2_span_contains`` equals one ``gf2_in_rowspace`` solve per vector.
* ``check_code`` raises the same first ``ValidityError`` as the pairwise
  audit on corrupted deformed codes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes import (
    Check,
    StabilizerGenerator,
    SubsystemCode,
    ValidityError,
    brute_force_distance,
    check_code,
    graph_distance,
)
from repro.deform import defect_removal
from repro.pauli import PauliOp, symplectic_matrix, symplectic_product
from repro.surface import rotated_surface_code
from repro.utils import gf2_in_rowspace, gf2_independent_rows, gf2_span_contains
from tests.deform_oracles import networkx_graph_distance, pairwise_check_code

#: Brute force enumerates 2**k cosets; keep it to small k.
BRUTE_FORCE_MAX_GENERATORS = 10


def outcome(fn, *args):
    """``("ok", value)`` or ``(exception type name, message)``."""
    try:
        return ("ok", fn(*args))
    except (ValueError, ValidityError) as exc:
        return (type(exc).__name__, str(exc))


@st.composite
def deformed_codes(draw):
    """A rotated patch after Defect Removal of a few random qubits."""
    d = draw(st.sampled_from([3, 5, 7]))
    patch = rotated_surface_code(d)
    coords = sorted(patch.all_qubit_coords())
    defects = draw(st.lists(st.sampled_from(coords), min_size=0, max_size=4))
    try:
        defect_removal(patch, defects, compute_distances=False)
    except ValueError:
        pass  # the patch keeps the deformations applied before the failure
    return patch.code


@st.composite
def random_detection_codes(draw):
    """Arbitrary X-type generators and logical X over a few data qubits.

    ``graph_distance(code, "Z")`` reads only these.  Each qubit joins up
    to two generators, or up to three when the draw allows non-graphlike
    codes, so every ``ValueError`` branch is reachable alongside real
    cycles: qubits in three generators, a logical through an undetected
    qubit, graphs without an odd cycle, and supports reaching a qubit
    outside the code.
    """
    n = draw(st.integers(1, 9))
    num_gens = draw(st.integers(2, 7))
    least = draw(st.integers(0, 1))
    most = draw(st.sampled_from([2, 2, 3]))
    members: list[set] = [set() for _ in range(num_gens)]
    for q in [*range(n), "outside"]:
        joined = st.sets(st.integers(0, num_gens - 1), min_size=least, max_size=most)
        for g in draw(joined):
            members[g].add(q)
    logical = draw(st.sets(st.sampled_from([*range(n), "outside"]), min_size=1))
    stabilizers = [
        StabilizerGenerator(PauliOp.x_on(s), "X", f"s{i}", ())
        for i, s in enumerate(members)
    ]
    return SubsystemCode(
        range(n), stabilizers, [], PauliOp.x_on(logical), PauliOp.z_on([0])
    )


class TestGraphDistanceOracle:
    @given(deformed_codes())
    @settings(max_examples=60, deadline=None)
    def test_deformed_codes_match_networkx(self, code):
        for basis in ("X", "Z"):
            assert outcome(graph_distance, code, basis) == outcome(
                networkx_graph_distance, code, basis
            )

    @given(random_detection_codes())
    @settings(max_examples=300, deadline=None)
    def test_random_detection_graphs_match_networkx(self, code):
        assert outcome(graph_distance, code, "Z") == outcome(
            networkx_graph_distance, code, "Z"
        )

    @given(deformed_codes())
    @settings(max_examples=40, deadline=None)
    def test_never_exceeds_brute_force(self, code):
        """Exact on the pristine patch; never above the dressed distance.

        A boundary deformation can leave a fixed gauge degree of freedom
        whose cycles the graph method counts as logical, so on deformed
        codes it may under-report (the safe direction; see
        ``tests/test_integration.py``).
        """
        for basis in ("X", "Z"):
            gens = code.parity_matrix(basis, include_gauges=True)
            if len(gf2_independent_rows(gens)) > BRUTE_FORCE_MAX_GENERATORS:
                continue
            kind, value = outcome(graph_distance, code, basis)
            if kind == "ok":
                assert 1 <= value <= brute_force_distance(code, basis)

    @pytest.mark.parametrize("d", [3, 5])
    def test_pristine_patch_equals_brute_force(self, d):
        code = rotated_surface_code(d).code
        for basis in ("X", "Z"):
            assert graph_distance(code, basis) == brute_force_distance(code, basis)

    def test_error_conditions(self):
        """The three ``ValueError`` conditions candidate scoring relies on."""
        def code(supports, logical):
            stabs = [
                StabilizerGenerator(PauliOp.x_on(s), "X", f"s{i}", ())
                for i, s in enumerate(supports)
            ]
            return SubsystemCode(
                range(3), stabs, [], PauliOp.x_on(logical), PauliOp.z_on([0])
            )

        with pytest.raises(ValueError, match="non-graphlike"):
            graph_distance(code([{0}, {0}, {0}], {0}), "Z")
        with pytest.raises(ValueError, match="undetected qubit 2"):
            graph_distance(code([{0}, {1}], {2}), "Z")
        with pytest.raises(ValueError, match="no Z logical cycle"):
            graph_distance(code([{0, 1}, {1, 2}], ()), "Z")


QUBITS = [(x, y) for x in range(1, 8, 2) for y in range(1, 8, 2)]
#: Labels no surface-code patch uses: checks may reach past the code.
FOREIGN = [(-1, -1), (99, 3), "ancilla"]


def pauli_ops():
    pool = st.sampled_from(QUBITS + FOREIGN)
    return st.builds(
        PauliOp,
        x_support=st.sets(pool, max_size=8),
        z_support=st.sets(pool, max_size=8),
    )


class TestSymplecticMatrix:
    @given(st.lists(pauli_ops(), max_size=12), st.lists(pauli_ops(), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_matches_pairwise_product(self, rows, cols):
        expected = np.array(
            [[symplectic_product(a, b) for b in cols] for a in rows], dtype=np.uint8
        ).reshape(len(rows), len(cols))
        assert np.array_equal(symplectic_matrix(rows, cols), expected)

    @given(st.lists(pauli_ops(), max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_same_list_both_sides(self, ops):
        matrix = symplectic_matrix(ops, ops)
        assert np.array_equal(matrix, matrix.T)
        for i, a in enumerate(ops):
            for j, b in enumerate(ops):
                assert matrix[i, j] == symplectic_product(a, b)

    def test_wide_supports_span_several_words(self):
        line = [(x, 0) for x in range(150)]
        ops = [PauliOp.x_on(line), PauliOp.z_on(line[:129]), PauliOp(line[149:], line[149:])]
        assert symplectic_matrix(ops, ops).tolist() == [
            [0, 1, 1],
            [1, 0, 0],
            [1, 0, 0],
        ]


class TestSpanContains:
    @given(
        st.integers(0, 8),
        st.integers(1, 80),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_rowspace_solve(self, m, n, seed):
        rng = np.random.default_rng(seed)
        matrix = (rng.random((m, n)) < 0.3).astype(np.uint8)
        vectors = (rng.random((6, n)) < 0.3).astype(np.uint8)
        # Some vectors certainly inside the span.
        if m:
            vectors[:3] = (rng.integers(0, 2, (3, m)) @ matrix) % 2

        def bits(row):
            return sum(1 << int(i) for i in np.flatnonzero(row))

        got = gf2_span_contains([bits(r) for r in matrix], [bits(v) for v in vectors])
        assert got == [gf2_in_rowspace(matrix, v) for v in vectors]


def corrupt(code: SubsystemCode, choice: int, pick: int) -> None:
    """Break one validity invariant of ``code`` in place."""
    stabs = list(code.stabilizers.values())
    checks = list(code.checks.values())
    data = sorted(code.data_qubits)
    q = data[pick % len(data)]
    if choice == 0:  # an anticommuting generator
        code.stabilizers["bad"] = StabilizerGenerator(PauliOp.z_on([q]), "Z", "bad", ())
    elif choice == 1:  # logical X moved onto a single qubit
        code.logical_x = PauliOp.x_on([q])
    elif choice == 2:  # a measured check that disturbs the logicals
        code.checks["bad"] = Check(PauliOp.x_on([q]), "X", "bad")
    elif choice == 3:  # a check reaching outside the code
        code.checks["bad"] = Check(PauliOp.x_on([q, (-5, -5)]), "X", "bad")
    elif choice == 4 and stabs:  # a generator whose decomposition is wrong
        gen = stabs[pick % len(stabs)]
        gen.measured_via = gen.measured_via[:-1]
    elif choice == 5 and checks:  # a measured check dropped
        del code.checks[checks[pick % len(checks)].name]
    elif choice == 6:  # a qubit left uncovered by X-type generators
        for gen in [g for g in stabs if g.basis == "X" and q in g.pauli.support]:
            del code.stabilizers[gen.name]


class TestCheckCodeOracle:
    @given(deformed_codes(), st.integers(0, 7), st.integers(0, 10_000))
    @settings(max_examples=120, deadline=None)
    def test_same_first_error_as_pairwise_audit(self, code, choice, pick):
        corrupt(code, choice, pick)
        assert outcome(check_code, code) == outcome(pairwise_check_code, code)
