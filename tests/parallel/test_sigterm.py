"""SIGTERM drains a live parallel run into serially-resumable state.

The coordinator installs a SIGTERM handler for the duration of the
pool drive: an orchestrator shutdown takes the exact KeyboardInterrupt
path — every in-flight worker is asked to stop and checkpoint, the
pool is torn down (hung workers included), and a later *serial* resume
of the function's checkpoint completes to a bit-identical DAG.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.core.enumeration import EnumerationConfig, enumerate_space
from tests.parallel.conftest import bench_function, dag_snapshot

#: exit code the driver script uses to say "KeyboardInterrupt reached
#: the top" — i.e. the SIGTERM was translated, not delivered raw
GRACEFUL_EXIT = 42

_DRIVER = """
import sys
from repro.core.enumeration import EnumerationConfig
from repro.frontend import compile_source
from repro.opt import implicit_cleanup
from repro.parallel.coordinator import (
    EnumerationRequest,
    ParallelConfig,
    ParallelEnumerator,
)
from repro.programs import PROGRAMS

run_dir = sys.argv[1]
func = compile_source(PROGRAMS["sha"].source).functions["rol"].clone()
implicit_cleanup(func)
enumerator = ParallelEnumerator(
    EnumerationConfig(),
    ParallelConfig(
        jobs=1,
        run_dir=run_dir,
        lease_timeout=300.0,
        # The lone worker checkpoints and wedges after 10 node
        # expansions, so the run is reliably in flight (never
        # finished) when SIGTERM lands.
        chaos={"worker": 0, "after_nodes": 10, "kind": "hang"},
    ),
)
try:
    enumerator.enumerate([EnumerationRequest("rol", func)])
except KeyboardInterrupt:
    sys.exit(42)
sys.exit(0)
"""


def _wait_for(path: str, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if os.path.exists(path):
            return
        time.sleep(0.05)
    raise AssertionError(f"{path} never appeared")


def test_sigterm_checkpoints_and_serial_resume_is_bit_identical(tmp_path):
    run_dir = str(tmp_path / "run")
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.Popen(
        [sys.executable, "-c", _DRIVER, run_dir],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    checkpoint = os.path.join(run_dir, "rol.ckpt.json")
    try:
        # The worker's checkpoint (written atomically, after 10 node
        # expansions) carries real partial state.
        _wait_for(checkpoint)
        proc.send_signal(signal.SIGTERM)
        stdout, stderr = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == GRACEFUL_EXIT, (
        proc.returncode,
        stdout.decode(),
        stderr.decode(),
    )

    assert os.path.exists(checkpoint), "drain lost the worker's checkpoint"

    func = bench_function("sha", "rol")
    reference = enumerate_space(func, EnumerationConfig())
    resumed = enumerate_space(
        func, EnumerationConfig(checkpoint_path=checkpoint, resume=True)
    )
    assert resumed.completed
    assert resumed.resumed_from == checkpoint
    assert dag_snapshot(resumed.dag) == dag_snapshot(reference.dag)
