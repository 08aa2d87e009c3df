"""The wire format of one finished function, in both directions.

A worker runs one function's serial enumeration to its end and posts
:func:`function_payload` of the result; the coordinator folds that
payload back into an :class:`~repro.core.enumeration.EnumerationResult`
with :func:`merge_shard`, once per function.  Nothing is replayed or
re-derived: the DAG travels in its checkpoint form
(:func:`~repro.core.checkpoint.dag_to_dict`), and every counter —
attempts, quarantine records, per-phase outcomes, sanitizer and
collapse statistics — is the serial run's own.  The payload is plain
JSON-compatible data, so it crosses any start method's process
boundary.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, Optional, Tuple

from repro.core import checkpoint as ckpt
from repro.core.enumeration import EnumerationResult
from repro.core.memo import TransitionMemo
from repro.robustness.quarantine import QuarantineLog


def function_payload(
    result: EnumerationResult,
    wall: float,
    phase_stats: Optional[Dict[str, Dict[str, int]]],
    memo: Optional[TransitionMemo],
    mark: Optional[Tuple[int, int, int]],
) -> Dict:
    """A worker's finished function, ready to post.

    With a warm *memo*, what it learned since *mark* — its (entries,
    hits, misses) before the run — rides along: entries are only ever
    appended (``setdefault``), so the new ones are those past the mark.
    """
    payload = {
        "dag": ckpt.dag_to_dict(result.dag),
        "completed": result.completed,
        "attempted": result.attempted_phases,
        "applied": result.phases_applied,
        "elapsed": result.elapsed,
        "abort_reason": result.abort_reason,
        "levels": result.levels_completed,
        "resumed_from": result.resumed_from,
        "quarantine": result.quarantine.to_dicts(),
        "phase_stats": phase_stats or None,
        "sanitize_stats": result.sanitize_stats,
        "collapse_stats": result.collapse_stats,
        "wall": wall,
        "memo": None,
    }
    if memo is not None:
        entries, hits, misses = mark
        learned = TransitionMemo()
        learned.entries = dict(islice(memo.entries.items(), entries, None))
        payload["memo"] = dict(
            learned.to_dict(), hits=memo.hits - hits, misses=memo.misses - misses
        )
    return payload


def merge_shard(job, payload: Dict, memo: Optional[TransitionMemo] = None):
    """Fold one worker's finished-function *payload* into *job*.

    Sets and returns ``job.result``; learned memo transitions are
    merged into the run's warm *memo* (first recording wins, as in
    :meth:`TransitionMemo.record_active`).
    """
    learned = payload["memo"]
    if memo is not None and learned is not None:
        for key, entry in TransitionMemo.from_dict(learned).entries.items():
            memo.entries.setdefault(key, entry)
        memo.hits += learned["hits"]
        memo.misses += learned["misses"]
    job.result = EnumerationResult(
        ckpt.dag_from_dict(job.function_name, payload["dag"]),
        payload["completed"],
        payload["attempted"],
        payload["applied"],
        payload["elapsed"],
        payload["abort_reason"],
        quarantine=QuarantineLog.from_dicts(payload["quarantine"]),
        levels_completed=payload["levels"],
        resumed_from=payload["resumed_from"] if job.resume else None,
        sanitize_stats=payload["sanitize_stats"],
        collapse_stats=payload["collapse_stats"],
    )
    return job.result
