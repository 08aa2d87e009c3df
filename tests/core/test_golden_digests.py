"""Golden DAG digests: the engines reproduce the recorded study spaces.

``perfbench/goldens.json`` records, per node cap, every study
function's DAG digest (sha256 of its checkpoint form: node keys, edges,
dormant sets and levels), attempted-edge count and completion.  The
digest is the behaviour contract: a change that keeps it keeps every
Table 3-7 number derived from the space.  At cap 8 all 71 functions
must reproduce it on the flat and object engines, each also in exact
mode (which keeps every instance's text and checks each hash match
against it; on the flat engine it also checks every candidate's flat
fingerprint against the object one); at caps 15 and 30 on the flat
engine.

``full_space_goldens.json`` (next to this file) records the *full*
spaces of the study functions that complete within 300 nodes, each
recorded only where the flat and object engines agreed.  Re-record it
only when a change is meant to alter the enumerated spaces::

    PYTHONPATH=src python tests/core/test_golden_digests.py
"""

import json
from pathlib import Path

import pytest

from repro.core.checkpoint import dag_digest
from repro.core.enumeration import EnumerationConfig, enumerate_space
from repro.programs import PROGRAMS, all_study_functions, compile_benchmark

GOLDENS = Path(__file__).resolve().parents[2] / "perfbench" / "goldens.json"
FULL_GOLDENS = Path(__file__).resolve().with_name("full_space_goldens.json")
#: the cap under which every full-space golden completes
FULL_CAP = 300

MODES = {
    "flat": dict(engine="flat"),
    "object": dict(engine="object"),
    "flat-exact": dict(engine="flat", exact=True),
    "object-exact": dict(engine="object", exact=True),
}


def golden_row(result) -> dict:
    return {
        "digest": dag_digest(result.dag),
        "edges": result.attempted_phases,
        "instances": len(result.dag),
        "completed": result.completed,
    }


def study_labels_and_functions():
    """(label, function) for every study function; each program is
    compiled once."""
    programs = {name: compile_benchmark(name) for name in PROGRAMS}
    return [
        (f"{program.name}.{name}", programs[program.name].functions[name])
        for program, name in all_study_functions()
    ]


@pytest.fixture(scope="module")
def study():
    rows = study_labels_and_functions()
    assert len(rows) == 71
    return dict(rows)


def mismatches(study, goldens, **config):
    bad = []
    for label, golden in sorted(goldens.items()):
        got = golden_row(enumerate_space(study[label], EnumerationConfig(**config)))
        if got != golden:
            bad.append((label, got, golden))
    return bad


def perfbench_goldens(cap: int) -> dict:
    with open(GOLDENS, encoding="utf-8") as handle:
        goldens = json.load(handle)["caps"][str(cap)]
    assert len(goldens) == 71
    return goldens


@pytest.mark.parametrize("mode", sorted(MODES))
def test_study_spaces_match_goldens(study, mode):
    assert mismatches(study, perfbench_goldens(8), max_nodes=8, **MODES[mode]) == []


@pytest.mark.parametrize("cap", [15, 30])
def test_flat_study_spaces_match_deeper_goldens(study, cap):
    assert mismatches(study, perfbench_goldens(cap), max_nodes=cap) == []


def test_full_spaces_match_goldens(study):
    with open(FULL_GOLDENS, encoding="utf-8") as handle:
        goldens = json.load(handle)
    assert goldens["cap"] == FULL_CAP
    assert all(row["completed"] for row in goldens["functions"].values())
    # every cap-30 completion is a full space too, so it must be here
    complete_at_30 = {
        label for label, row in perfbench_goldens(30).items() if row["completed"]
    }
    assert complete_at_30 <= set(goldens["functions"])
    assert mismatches(study, goldens["functions"], max_nodes=FULL_CAP) == []


def record_full_goldens() -> None:
    """Write ``full_space_goldens.json``: every study function that
    completes within FULL_CAP nodes on both engines with one digest."""
    functions = {}
    for label, func in study_labels_and_functions():
        rows = [
            golden_row(
                enumerate_space(func, EnumerationConfig(max_nodes=FULL_CAP, engine=engine))
            )
            for engine in ("flat", "object")
        ]
        if rows[0] != rows[1]:
            raise SystemExit(f"{label}: flat {rows[0]} != object {rows[1]}")
        if rows[0]["completed"]:
            functions[label] = rows[0]
    with open(FULL_GOLDENS, "w", encoding="utf-8") as handle:
        json.dump({"cap": FULL_CAP, "functions": functions}, handle,
                  indent=1, sort_keys=True)
        handle.write("\n")
    print(f"{len(functions)} of 71 complete within {FULL_CAP} nodes; "
          f"wrote {FULL_GOLDENS}")


if __name__ == "__main__":
    record_full_goldens()
