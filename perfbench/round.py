"""Run one round of a workload in this (fresh) process.

    python3 perfbench/round.py --workload study_enum --seed 1 --trace 0

Times set-up (imports, compile, training) and one pass over the
workload's inputs, and prints one JSON object: walls, per-function
rows with DAG digests, peak RSS and, with ``--trace 1``, the per-layer
metrics of ``layers.py``.  ``run.py`` starts one of these per round and
checks the rows; this process checks nothing itself.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"round: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    import_s = time.perf_counter() - START
    workload = workloads.WORKLOADS[args.workload]
    ctx = workloads.setup(workload, args.seed)
    setup = dict(ctx["timings"], import_s=import_s)
    setup["total_s"] = sum(setup.values())
    recorder = None
    if args.trace:
        import layers

        recorder = layers.Recorder()
    out = workloads.run_round(workload, ctx, recorder)
    out.update(workload=workload.name, why=workload.why, loop=workload.loop,
               concurrency=workload.concurrency, cap=workload.cap)
    out["setup"] = setup
    out["peak_rss_mb"] = workloads.peak_rss_mb()
    if recorder is not None:
        out["layers"] = recorder.metrics(out, setup, workload.concurrency)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
