"""Defect Removal subroutine — Algorithm 1 of the paper.

Routes each defective qubit to the appropriate instruction:

* interior data qubit → ``DataQ_RM``
* interior syndrome qubit → ``SyndromeQ_RM``
* boundary qubit → ``PatchQ_RM``, with the fixed basis chosen by the
  qubit's edge type, or by :func:`balancing` for corner qubits (fig. 8):
  the option that best balances the X- and Z-distances wins.

Returns the distance lost relative to the pre-removal code (Algorithm 1's
return value feeds Adaptive Enlargement).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.codes.distance import graph_distance
from repro.deform.gauge import stabilizers_containing
from repro.deform.instructions import data_q_rm, patch_q_rm, syndrome_q_rm
from repro.surface.lattice import Coord, is_data_coord, is_face_coord
from repro.surface.patch import SurfacePatch

__all__ = ["defect_removal", "balancing", "RemovalReport"]


@dataclass
class RemovalReport:
    """Outcome of one Defect Removal pass."""

    handled: list[tuple[Coord, str]] = field(default_factory=list)
    skipped: list[Coord] = field(default_factory=list)
    distance_before: tuple[int, int] = (0, 0)
    distance_after: tuple[int, int] = (0, 0)

    @property
    def distance_loss(self) -> tuple[int, int]:
        """``(ΔdX, ΔdZ)`` lost to the removal pass."""
        return (
            self.distance_before[0] - self.distance_after[0],
            self.distance_before[1] - self.distance_after[1],
        )


def balancing(patch: SurfacePatch, q0: Coord) -> str:
    """Choose the fixed basis for a corner defect (fig. 8).

    Tries both options on copies and picks the one maximising the code
    distance ``min(dX, dZ)``, breaking ties towards the larger total —
    i.e. the balanced choice of fig. 8(b) rather than ASC-S's fixed
    minimal-disable choice of fig. 8(a).
    """
    best_basis, best_key = "Z", None
    for basis in ("Z", "X"):
        trial = patch.copy()
        try:
            patch_q_rm(trial, q0, fix_basis=basis)
            dx = graph_distance(trial.code, "X")
            dz = graph_distance(trial.code, "Z")
        except (ValueError, RuntimeError):
            continue
        key = (min(dx, dz), dx + dz)
        if best_key is None or key > best_key:
            best_basis, best_key = basis, key
    return best_basis


def defect_removal(
    patch: SurfacePatch,
    defects: set[Coord] | list[Coord],
    *,
    compute_distances: bool = True,
) -> RemovalReport:
    """Algorithm 1: remove every defective qubit from the code.

    ``defects`` may contain data-qubit coordinates (odd, odd) and ancilla
    face coordinates (even, even).  Already-removed qubits are skipped —
    the subroutine is idempotent, so the deformation unit can feed it the
    full persisted defect map each cycle.

    ``compute_distances=False`` skips the before/after distance
    measurement (used in hot loops where the caller measures anyway).
    """
    report = RemovalReport()
    if compute_distances:
        report.distance_before = (
            graph_distance(patch.code, "X"),
            graph_distance(patch.code, "Z"),
        )

    # Data defects first: once defective data qubits are excised, the
    # checks of nearby defective ancillas are already truncated, so
    # SyndromeQ_RM never places gauge measurements on doomed qubits.
    ordered = sorted(
        set(defects), key=lambda c: (0 if is_data_coord(c) else 1, c)
    )
    for defect in ordered:
        action = _route_defect(patch, defect)
        if action is None:
            report.skipped.append(defect)
        else:
            report.handled.append((defect, action))

    if compute_distances:
        report.distance_after = (
            graph_distance(patch.code, "X"),
            graph_distance(patch.code, "Z"),
        )
    return report


def _score_and_adopt(
    patch: SurfacePatch,
    candidates: list[tuple[str, "SurfacePatch"]],
    defect: Coord,
) -> str:
    """Adopt the validated candidate treatment with the best distance.

    Candidates failing the code validity audit (e.g. a boundary fix that
    would orphan a qubit) are discarded; earlier candidates win ties, so
    list the preferred instruction first.  The audit runs only on a
    candidate whose distance would beat the best so far: one that
    cannot win is never adopted, valid or not.
    """
    from repro.codes.validity import ValidityError, check_code

    best = None
    best_key = None
    for priority, (action, trial) in enumerate(candidates):
        try:
            dx = graph_distance(trial.code, "X")
            dz = graph_distance(trial.code, "Z")
        except ValueError:
            continue
        key = (min(dx, dz), dx + dz, -priority)
        if best_key is not None and key <= best_key:
            continue
        try:
            check_code(trial.code)
        except (ValueError, RuntimeError, ValidityError):
            continue
        best, best_key = (action, trial), key
    if best is None:
        raise ValueError(f"defect {defect}: no consistent removal exists")
    _adopt(patch, best[1])
    return best[0]


def _route_defect(patch: SurfacePatch, defect: Coord) -> str | None:
    """Dispatch one defect to an instruction; returns the action name.

    Every applicable instruction is attempted on a copy, validated, and
    scored by the resulting code distance; the best consistent option is
    adopted.  This realises Algorithm 1's dispatch *and* the fig. 8
    balancing in one mechanism, and degrades gracefully on dense defect
    clusters where the textbook instruction is inconsistent.
    """
    if is_data_coord(defect):
        if defect not in patch.code.data_qubits:
            patch.defective_data.add(defect)
            return None
        n_x = len(stabilizers_containing(patch.code, defect, "X"))
        n_z = len(stabilizers_containing(patch.code, defect, "Z"))
        candidates: list[tuple[str, SurfacePatch]] = []
        if n_x != 1 and n_z != 1:
            trial = patch.copy()
            try:
                data_q_rm(trial, defect)
                candidates.append(("DataQ_RM", trial))
            except (ValueError, RuntimeError):
                pass
        for basis in ("Z", "X"):
            trial = patch.copy()
            try:
                patch_q_rm(trial, defect, fix_basis=basis)
                candidates.append((f"PatchQ_RM[fix={basis}]", trial))
            except (ValueError, RuntimeError):
                pass
        return _score_and_adopt(patch, candidates, defect)

    if is_face_coord(defect):
        check = patch.check_at(defect)
        if check is None:
            patch.defective_ancillas.add(defect)
            return None
        return _remove_syndrome_validated(patch, defect)

    raise ValueError(f"{defect} is not a lattice coordinate")


def _remove_syndrome_validated(patch: SurfacePatch, defect: Coord) -> str:
    """Defective-ancilla removal with validation and fallbacks.

    Three candidate treatments run on copies and the one preserving the
    larger code distance (and passing the validity audit) is adopted:

    1. ``SyndromeQ_RM`` — the fig. 6(b) gauge-inference construction
       (preferred; exact for isolated interior syndrome defects).
    2. Plain boundary disable (``PatchQ_RM`` on the ancilla).
    3. Super-stabilizer fallback — remove the check's remaining data
       neighbours, then disable what is left (ASC-style; always
       available, even in dense defect clusters).
    """
    candidates: list[tuple[str, SurfacePatch]] = []

    trial = patch.copy()
    try:
        syndrome_q_rm(trial, defect)
        candidates.append(("SyndromeQ_RM", trial))
    except (ValueError, RuntimeError):
        pass

    disable = patch.copy()
    try:
        patch_q_rm(disable, defect)
        candidates.append(("PatchQ_RM[disable]", disable))
    except (ValueError, RuntimeError):
        pass

    fallback = patch.copy()
    try:
        check = fallback.check_at(defect)
        fallback.defective_ancillas.add(defect)
        for q in sorted(check.pauli.support):
            if q in fallback.code.data_qubits:
                _route_defect(fallback, q)
        if fallback.check_at(defect) is not None:
            patch_q_rm(fallback, defect)
        candidates.append(("SyndromeQ_RM[fallback]", fallback))
    except (ValueError, RuntimeError):
        pass

    return _score_and_adopt(patch, candidates, defect)


def _adopt(patch: SurfacePatch, trial: SurfacePatch) -> None:
    patch.code = trial.code
    patch.origin = trial.origin
    patch.footprint = trial.footprint
    patch.defective_data = trial.defective_data
    patch.defective_ancillas = trial.defective_ancillas
