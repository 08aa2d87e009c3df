"""Study-set benchmark: one command, every metric by name, every output checked.

    python3 perfbench/run.py --workload study_enum --seed 1 --seconds 30 --trace 0

Runs rounds of the workload (``workloads.py``), each in a fresh process
started by ``round.py``, until ``--seconds`` are used, and reports
medians over rounds.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` alternates untraced and traced rounds
and reports the per-layer metrics of ``layers.py``, with the tracing
overhead taken from the difference.

Every round is checked: each study function's DAG digest, edge count,
instance count and completion against ``goldens.json`` at the
workload's cap; sanitizer findings; each program's VM checksum under
both compilers against its unoptimized checksum; and the same digests
in every round, traced or not.  A check that fails counts as a failed
operation.  On ``study_jobs2`` a capped function whose DAG differs from
serial is the known node-cap overshoot of the parallel coordinator: it
is counted as failed and listed, but it does not make the run
incorrect.  Any other mismatch does.

Host drift.  The shared 2-vCPU host the benchmark was sized on
switches between speed states 20-40% apart for seconds to minutes, and
a median over one 30-second run cannot average that out.  Each round
therefore reports a host factor from a fixed pure-Python probe loop
timed between its units of work (``hostprobe.py``), and every
end-to-end time is divided by its round's factor: seconds at the
reference host speed.  ``study_jobs2`` cannot be probed (its workers
keep both vCPUs busy) and stays raw.  The raw times are printed in the
per-function rows and the metadata; per-layer times stay raw.

End-to-end metrics, each a median over the run's untraced rounds
(``setup_s`` over all rounds), times host-normalized:

- ``setup_s``: imports, compile and, for ``table7_compile``, training;
- ``wall_s``: one pass over the workload's inputs;
- ``edges_per_s``: phase attempts per second of ``wall_s`` (DAG edges
  attempted when enumerating; phases attempted by both compilers on
  ``table7_compile``);
- ``peak_rss_mb``: the larger of the round process and its children;
- ``functions_completed``: enumerations that finished under the cap
  (functions compiled by both compilers on ``table7_compile``);
- ``fn_p50_s``: per-function wall (its median over rounds) at the
  50th percentile of the 71 functions.  On ``study_jobs2`` a
  function's wall is its worker time (see ``workloads.py``), on
  ``table7_compile`` both compilers' time.

Printed with them but not in the JSON result, so not gated:
``fn_p85_s`` (the same at the 85th percentile, the highest with 10
functions beyond it), whose spread over ten seeds reached 16-27%
because the functions there sit 10% apart and each one's time depends
on the caches warmed by those run before it; ``failed_frac``; and, on
``table7_compile``, the Table 7 figures of ``TABLE7_UNITS``.

Before the JSON result (the last line) the command prints the run's
metadata, one row per function and each metric with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: a round that runs longer than this is killed and the run fails
ROUND_TIMEOUT_S = 150.0
#: the run must also end within this many seconds, rounds included
RUN_BUDGET_S = 165.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "edges_per_s": "1/s",
    "peak_rss_mb": "MB",
    "functions_completed": "count",
    "fn_p50_s": "s",
}

#: Table 7 figures printed with the end-to-end metrics of
#: ``table7_compile`` (medians over untraced rounds); not in the JSON
#: result, whose metrics every workload must share
TABLE7_UNITS = {
    "batch_compile_s": "s",
    "prob_compile_s": "s",
    "prob_attempted_ratio": "ratio",
    "prob_code_size_ratio": "ratio",
    "prob_dyn_insts_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as error:
        raise BenchError(f"cannot read {path}: {error}") from error


def run_round(workload: str, seed: int, traced: bool, timeout: float) -> dict:
    """Start ``round.py`` in its own process group and parse its result."""
    cmd = [sys.executable, os.path.join(HERE, "round.py"), "--workload",
           workload, "--seed", str(seed), "--trace", "1" if traced else "0"]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} round exceeded {timeout:.0f}s")
    finally:
        # jobs2 workers are daemonic children of the round; make sure
        # nothing of the group outlives it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise BenchError(f"{workload} round failed (exit {proc.returncode}):\n"
                         f"{stderr.strip()}")
    result = json.loads(stdout.strip().splitlines()[-1])
    result["traced"] = traced
    return result


def run_rounds(workload: str, seed: int, seconds: int, trace: bool) -> list:
    """Rounds until *seconds* are used (at least two; with *trace*,
    untraced and traced alternate, untraced first)."""
    start = time.monotonic()
    rounds, durations = [], []
    while True:
        elapsed = time.monotonic() - start
        traced = trace and len(rounds) % 2 == 1
        began = time.monotonic()
        rounds.append(run_round(workload, seed, traced,
                                min(ROUND_TIMEOUT_S, RUN_BUDGET_S - elapsed)))
        durations.append(time.monotonic() - began)
        elapsed = time.monotonic() - start
        if len(rounds) < 2:
            continue
        typical = statistics.median(durations)
        if elapsed + typical > seconds or elapsed + max(durations) > RUN_BUDGET_S:
            return rounds


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------


class Checks:
    """Failed operations, and whether any failure makes the run wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        #: failures that make ``correct`` false
        self.errors: list = []
        #: known node-cap divergences (study_jobs2 only)
        self.divergent: dict = {}

    def study(self, name: str, rounds: list, golden: dict) -> None:
        expected = set(golden)
        first = {row["name"]: row for row in rounds[0]["functions"]}
        for index, out in enumerate(rounds):
            rows = {row["name"]: row for row in out["functions"]}
            if set(rows) != expected:
                self.errors.append(f"round {index}: functions "
                                   f"{sorted(set(rows) ^ expected)} missing or extra")
            for label, row in rows.items():
                self.attempted += 1
                ok = self._study_row(name, label, row, golden.get(label))
                if row["digest"] != first.get(label, {}).get("digest"):
                    ok = False
                    kind = "traced" if out["traced"] else "untraced"
                    self.errors.append(f"{label}: {kind} round {index} digest "
                                       "differs from round 0")
                if not ok:
                    self.failed += 1

    def _study_row(self, name: str, label: str, row: dict, want) -> bool:
        if want is None:
            self.errors.append(f"{label}: no golden")
            return False
        got = {k: row[k] for k in ("digest", "edges", "instances", "completed")}
        bad = row.get("sanitize_failures", 0)
        if bad:
            self.errors.append(f"{label}: {bad} sanitizer finding(s) or "
                               "quarantined edge(s)")
        if got == want:
            return not bad
        if name == "study_jobs2" and not want["completed"] and not got["completed"]:
            self.divergent[label] = {
                "edges": got["edges"] - want["edges"],
                "instances": got["instances"] - want["instances"],
            }
        else:
            self.errors.append(f"{label}: got {got}, golden {want}")
        return False

    def table7(self, rounds: list, checksums: dict) -> None:
        for index, out in enumerate(rounds):
            if set(out["checksums"]) != set(checksums):
                self.errors.append(f"round {index}: programs missing")
            for program, values in out["checksums"].items():
                for compiler, value in values.items():
                    self.attempted += 1
                    if value != checksums.get(program):
                        self.failed += 1
                        self.errors.append(
                            f"{program}: {compiler} checksum {value} != "
                            f"unoptimized {checksums.get(program)}")


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def percentile_index(n: int, q: float) -> int:
    return max(0, math.ceil(q * n) - 1)


def function_walls(rounds: list, normalize: bool = True) -> dict:
    """Each function's median wall over *rounds*."""
    walls: dict = {}
    for out in rounds:
        factor = out["host_factor"] if normalize else 1.0
        for row in out["functions"]:
            walls.setdefault(row["name"], []).append(row["wall_s"] / factor)
    return {name: statistics.median(v) for name, v in walls.items()}


def normalized(out: dict, seconds: float) -> float:
    """*seconds* of round *out* at the reference host speed."""
    return seconds / out["host_factor"]


def fn_percentiles(rounds: list) -> tuple:
    """p50 and p85 of the functions' normalized walls over the untraced
    rounds.  p85 is the highest percentile with at least 10 functions
    beyond it (of 71: index 60, 10 above)."""
    walls = sorted(function_walls([r for r in rounds if not r["traced"]])
                   .values())
    p85 = percentile_index(len(walls), 0.85)
    if len(walls) - 1 - p85 < 10:
        raise BenchError(f"{len(walls)} functions are too few for p85")
    return statistics.median(walls), walls[p85]


def end_to_end(rounds: list) -> dict:
    untraced = [r for r in rounds if not r["traced"]]
    return {
        "setup_s": statistics.median(
            normalized(r, r["setup"]["total_s"]) for r in rounds),
        "wall_s": statistics.median(
            normalized(r, r["wall_s"]) for r in untraced),
        "edges_per_s": statistics.median(
            sum(row["edges"] for row in r["functions"])
            / normalized(r, r["wall_s"]) for r in untraced),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        "functions_completed": statistics.median(
            sum(row["completed"] for row in r["functions"]) for r in untraced),
        "fn_p50_s": fn_percentiles(rounds)[0],
    }


def per_layer(rounds: list, names: list, checks: Checks, golden) -> dict:
    traced = [r for r in rounds if r["traced"]]
    untraced = [r for r in rounds if not r["traced"]]
    metrics = {name: statistics.median(r["layers"][name] for r in traced)
               for name in names}
    metrics["trace.overhead_frac"] = (
        statistics.median(normalized(r, r["wall_s"]) for r in traced)
        / statistics.median(normalized(r, r["wall_s"]) for r in untraced)
        - 1.0)
    metrics["failed_frac"] = checks.failed / checks.attempted
    if golden is not None:
        metrics["parallel.node_overshoot"] = statistics.median(
            sum(max(0, row["instances"] - golden[row["name"]]["instances"])
                for row in r["functions"] if row["name"] in golden)
            for r in traced)
    return metrics


# ----------------------------------------------------------------------
# Metadata and report
# ----------------------------------------------------------------------


def git_rev() -> str | None:
    """HEAD's commit, read from ``.git`` without running git (the
    benchmark reads nothing outside its checkout); None elsewhere."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    """sha256 over every file of ``src/repro``: identifies the code
    measured when there is no git metadata."""
    digest = hashlib.sha256()
    base = os.path.join(ROOT, "src", "repro")
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                path = os.path.join(dirpath, filename)
                digest.update(os.path.relpath(path, base).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def print_rows(rounds: list, checks: Checks) -> None:
    """One row per function: its counts, median raw untraced wall and, from
    the first traced round, the flat intern pools after it finished."""
    untraced = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    walls = function_walls(untraced, normalize=False)
    pools = {row["name"]: row for row in traced[0]["functions"]} if traced else {}
    rows = sorted(untraced[0]["functions"], key=lambda row: row["name"])
    print(f"{'function':34s} {'edges':>7s} {'inst':>5s} {'done':>5s} "
          f"{'wall_s':>9s} {'pool_i':>7s} {'pool_b':>7s}  check")
    for row in rows:
        note = "ok"
        if row["name"] in checks.divergent:
            delta = checks.divergent[row["name"]]
            note = (f"diverges from serial: +{delta['instances']} instances, "
                    f"+{delta['edges']} edges")
        pool = pools.get(row["name"], {})
        print(f"{row['name']:34s} {row['edges']:7d} "
              f"{row.get('instances', 0):5d} {str(row['completed']):>5s} "
              f"{walls[row['name']]:9.4f} "
              f"{pool.get('pool_instructions', '-'):>7} "
              f"{pool.get('pool_blocks', '-'):>7}  {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so run_round's cleanup kills
    # the round in flight.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.path.insert(0, HERE)
    import layers

    try:
        if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
            raise BenchError(f"no repro sources under {ROOT}/src")
        bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
        goldens = load_json(os.path.join(HERE, "goldens.json"))
        names = {w["name"] for w in bench["workloads"]}
        if args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}")
        declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
        if declared != layers.PER_LAYER:
            raise BenchError("BENCHMARK.json per_layer != layers.PER_LAYER")
        declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        if declared != END_TO_END_UNITS:
            raise BenchError("BENCHMARK.json end_to_end != run.END_TO_END_UNITS")
        rounds = run_rounds(args.workload, args.seed, args.seconds,
                            bool(args.trace))
        first = rounds[0]
        checks = Checks()
        golden = None
        if first["cap"] is not None:
            golden = goldens["caps"][str(first["cap"])]
            checks.study(args.workload, rounds, golden)
        else:
            checks.table7(rounds, goldens["checksums"])
        if args.trace:
            metrics = per_layer(rounds, list(layers.PER_LAYER), checks, golden)
            units = layers.PER_LAYER
        else:
            metrics = end_to_end(rounds)
            units = END_TO_END_UNITS
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2

    meta = {
        "workload": args.workload,
        "why": first["why"],
        "loop": first["loop"],
        "concurrency": first["concurrency"],
        "cap": first["cap"],
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": len(rounds),
        "traced_rounds": sum(r["traced"] for r in rounds),
        "git_rev": git_rev(),
        "src_sha256": src_digest(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "round_wall_s": [r["wall_s"] for r in rounds],
        "host_factors": [r["host_factor"] for r in rounds],
        "setup": [r["setup"] for r in rounds],
        "table7": [r["table7"] for r in rounds if "table7" in r],
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    print_rows(rounds, checks)
    for message in checks.errors:
        print(f"FAILED {message}")
    if checks.divergent:
        print(f"{len(checks.divergent)} capped functions diverge from the "
              "serial DAG (parallel node-cap overshoot)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    if not args.trace:
        print(f"fn_p85_s {fn_percentiles(rounds)[1]:.6g} s")
        print(f"failed_frac {checks.failed / checks.attempted:.6g} ratio")
        table7 = [r["table7"] for r in rounds if "table7" in r]
        if table7:
            for name, unit in TABLE7_UNITS.items():
                value = statistics.median(t[name] for t in table7)
                print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": not checks.errors,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
