"""Multi-process exhaustive enumeration (``repro.parallel``).

The serial enumerator (:mod:`repro.core.enumeration`) is the reference
implementation; this package runs it for many functions at once, one
fresh worker process per function, so every space DAG is the serial
DAG — same node ids, edges, dormant sets and counters, and every Table
3–7 number is reproducible at any ``--jobs`` level.  See
``docs/PARALLEL.md``.

- :mod:`~repro.parallel.coordinator` — the per-function process pool:
  leases, heartbeats, retries, store and memo, the journal;
- :mod:`~repro.parallel.worker` — one function's serial enumeration in
  a worker process;
- :mod:`~repro.parallel.merge` — the finished-function payload, both
  directions;
- :mod:`~repro.parallel.store` — persistent completed-space cache;
- :mod:`~repro.parallel.telemetry` — JSONL event log + live status.
"""

from repro.parallel.coordinator import (
    EnumerationRequest,
    ParallelConfig,
    ParallelEnumerator,
    enumerate_space_parallel,
)
from repro.parallel.store import SpaceStore
from repro.parallel.telemetry import ProgressReporter

__all__ = [
    "EnumerationRequest",
    "ParallelConfig",
    "ParallelEnumerator",
    "ProgressReporter",
    "SpaceStore",
    "enumerate_space_parallel",
]
