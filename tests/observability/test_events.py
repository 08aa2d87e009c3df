"""Event stream: closed vocabulary, validation, journal tolerance."""

from __future__ import annotations

import json

import pytest

from repro.observability import (
    EVENT_SCHEMA,
    EventSchemaError,
    EventStream,
    read_journal,
    validate_event,
    validate_journal,
    validate_record,
)


def test_unknown_event_rejected_at_producer(tmp_path):
    stream = EventStream(str(tmp_path / "events.jsonl"))
    with pytest.raises(EventSchemaError, match="unknown event"):
        stream.emit("not_a_thing", value=1)
    stream.close()


def test_missing_required_field_rejected():
    with pytest.raises(EventSchemaError, match="missing required"):
        validate_event("job_start", {"functions": 3})  # no "jobs"
    validate_event("job_start", {"functions": 3, "jobs": 2})
    # extra fields are always allowed
    validate_event("job_start", {"functions": 3, "jobs": 2, "note": "x"})


def test_emit_stamps_time_and_writes_sorted_json(tmp_path):
    path = tmp_path / "events.jsonl"
    with EventStream(str(path)) as stream:
        record = stream.emit("run_start", tool="test")
    assert record["event"] == "run_start"
    assert record["t"] >= 0
    line = path.read_text(encoding="utf-8").strip()
    assert json.loads(line) == record
    assert line == json.dumps(record, sort_keys=True)


def test_null_stream_validates_but_writes_nothing():
    stream = EventStream(None)
    stream.emit("run_start", tool="test")
    with pytest.raises(EventSchemaError):
        stream.emit("nope")
    stream.close()


def test_read_journal_tolerates_truncated_tail(tmp_path):
    path = tmp_path / "events.jsonl"
    with EventStream(str(path)) as stream:
        stream.emit("run_start", tool="test")
        stream.emit("run_end", wall=1.0)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"t": 2.0, "event": "fun')  # crash mid-write
    records, errors = read_journal(str(path))
    assert [r["event"] for r in records] == ["run_start", "run_end"]
    assert errors == ["line 3: malformed JSON"]


def test_validate_journal_flags_schema_violations(tmp_path):
    path = tmp_path / "events.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"t": 0.1, "event": "run_start", "tool": "x"}) + "\n")
        handle.write(json.dumps({"t": 0.2, "event": "job_start"}) + "\n")
        handle.write(json.dumps({"event": "run_end", "wall": 1.0}) + "\n")
    records, errors = validate_journal(str(path))
    assert len(records) == 3
    assert any("missing required" in error for error in errors)
    assert any("'t'" in error for error in errors)


def test_validate_record_shapes():
    assert validate_record({"t": 0.0, "event": "run_start", "tool": "x"}) == []
    assert validate_record([1, 2]) != []
    assert validate_record({"t": 0.0}) != []


def test_every_schema_entry_names_its_required_fields():
    for name, required in EVENT_SCHEMA.items():
        assert isinstance(name, str) and name
        assert all(isinstance(field, str) for field in required)


def test_jsonl_log_is_utf8(tmp_path):
    path = tmp_path / "events.jsonl"
    with EventStream(str(path)) as stream:
        stream.emit("function_done", function="smålänning", wall=0.1)
    record = json.loads(path.read_text(encoding="utf-8"))
    assert record["function"] == "smålänning"
