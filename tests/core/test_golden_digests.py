"""Golden DAG digests: both engines reproduce the recorded study spaces.

``perfbench/goldens.json`` records, per node cap, every study
function's DAG digest (sha256 of its checkpoint form: node keys, edges,
dormant sets and levels), attempted-edge count and completion.  The
digest is the behaviour contract: a change that keeps it keeps every
Table 3-7 number derived from the space.  At cap 8 all 71 functions
must reproduce it on the flat engine, on the object engine, and on the
object engine in exact mode (which keeps every instance's text and
checks each hash match against it).
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.checkpoint import dag_to_dict
from repro.core.enumeration import EnumerationConfig, enumerate_space
from repro.programs import PROGRAMS, all_study_functions, compile_benchmark

GOLDENS = Path(__file__).resolve().parents[2] / "perfbench" / "goldens.json"
CAP = 8

MODES = {
    "flat": dict(engine="flat"),
    "object": dict(engine="object"),
    "object-exact": dict(engine="object", exact=True),
}


def dag_digest(dag) -> str:
    payload = json.dumps(dag_to_dict(dag), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.fixture(scope="module")
def study():
    """(label, function, golden row) for every study function; each
    program is compiled once."""
    with open(GOLDENS, encoding="utf-8") as handle:
        goldens = json.load(handle)["caps"][str(CAP)]
    programs = {name: compile_benchmark(name) for name in PROGRAMS}
    rows = [
        (
            f"{program.name}.{name}",
            programs[program.name].functions[name],
        )
        for program, name in all_study_functions()
    ]
    assert len(rows) == len(goldens) == 71
    return [(label, func, goldens[label]) for label, func in rows]


@pytest.mark.parametrize("mode", sorted(MODES))
def test_study_spaces_match_goldens(study, mode):
    mismatches = []
    for label, func, golden in study:
        result = enumerate_space(
            func, EnumerationConfig(max_nodes=CAP, **MODES[mode])
        )
        got = {
            "digest": dag_digest(result.dag),
            "edges": result.attempted_phases,
            "instances": len(result.dag),
            "completed": result.completed,
        }
        if got != golden:
            mismatches.append((label, got, golden))
    assert mismatches == []
