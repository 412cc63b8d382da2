"""Pinned outputs of the Code Deformation Unit on seeded defect storms.

Each storm is a fresh rotated patch hit by a ``CosmicRayModel`` report,
deformed by ``CodeDeformationUnit``.  The fixture records, per storm,
the instruction list, the removal pass's before/after distances, the
final distance, whether the design distance was restored, and a SHA-256
of the canonical final code (data qubits, stabilizer supports, check
supports, logical representatives).  The unit's internals may be
rewritten freely; these outputs may not move.

The d = 5 storms are the defect reports of the ``defect_response_d5``
benchmark workload (report seeds 10000-10127, two defective qubits,
four layers per side).

Regenerate the fixture only when a change to the unit's *behaviour* is
intended::

    PYTHONPATH=src python tests/test_deform_pins.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.codes import SubsystemCode
from repro.defects import CosmicRayModel
from repro.deform import CodeDeformationUnit
from repro.surface import rotated_surface_code

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "deform_pins.json"

#: (distance, defective qubits, layers per side, report seeds)
STORMS = [
    (5, 2, 4, range(10_000, 10_128)),
    (7, 3, 4, range(20_000, 20_010)),
    (9, 4, 4, range(30_000, 30_010)),
]


def storm_ids() -> list[tuple[int, int, int, int]]:
    return [
        (d, defects, layers, seed)
        for d, defects, layers, seeds in STORMS
        for seed in seeds
    ]


def canonical_code(code: SubsystemCode) -> dict:
    """Label-free canonical form: names and dict order do not enter."""

    def ops(items) -> list:
        return sorted(
            [item.basis, sorted(list(q) for q in item.pauli.support)]
            for item in items
        )

    def logical(op) -> list:
        return sorted([list(q), op.letter(q)] for q in op.support)

    return {
        "data": sorted(list(q) for q in code.data_qubits),
        "stabilizers": ops(code.stabilizers.values()),
        "checks": ops(code.checks.values()),
        "logical_x": logical(code.logical_x),
        "logical_z": logical(code.logical_z),
    }


def code_digest(code: SubsystemCode) -> str:
    blob = json.dumps(canonical_code(code), separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def run_storm(d: int, defects: int, layers: int, seed: int) -> dict:
    patch = rotated_surface_code(d)
    report_qubits = CosmicRayModel(seed=seed).sample_defective_qubits(
        patch.all_qubit_coords(), defects
    )
    unit = CodeDeformationUnit(max_layers_per_side=layers)
    try:
        report = unit.deform(patch, report_qubits)
    except (ValueError, RuntimeError) as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {
        "instructions": report.instructions,
        "distance_before": list(report.removal.distance_before),
        "distance_after": list(report.removal.distance_after),
        "final_distance": list(report.final_distance),
        "restored": report.restored,
        "code_sha256": code_digest(patch.code),
    }


def storm_key(d: int, defects: int, layers: int, seed: int) -> str:
    return f"d{d}-q{defects}-l{layers}-s{seed}"


def _load() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def pins() -> dict:
    return _load()


def test_fixture_covers_every_storm(pins):
    assert sorted(pins) == sorted(storm_key(*s) for s in storm_ids())


@pytest.mark.parametrize(
    "storm", storm_ids(), ids=[storm_key(*s) for s in storm_ids()]
)
def test_storm_is_pinned(storm, pins):
    assert run_storm(*storm) == pins[storm_key(*storm)]


def test_canonical_form_ignores_names():
    """Renaming generators and checks leaves the digest unchanged."""
    code = rotated_surface_code(3).code
    renamed = code.copy()
    renamed.stabilizers = {
        f"r{i}": gen for i, gen in enumerate(reversed(code.stabilizers.values()))
    }
    assert code_digest(renamed) == code_digest(code)
    renamed.data_qubits.discard(min(renamed.data_qubits))
    assert code_digest(renamed) != code_digest(code)


if __name__ == "__main__":
    records = {storm_key(*s): run_storm(*s) for s in storm_ids()}
    FIXTURE.write_text(
        json.dumps(records, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(records)} storms to {FIXTURE}", file=sys.stderr)
