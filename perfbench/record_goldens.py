"""Record ``goldens.json``: the expected outputs every run is checked against.

    python3 perfbench/record_goldens.py

For each enumeration cap in ``workloads.WORKLOADS``, every study
function is enumerated serially on the flat engine *and* on the object
engine; the two must agree on the DAG digest, edge count and
completion, or nothing is written.  For ``table7_compile``, each
program's reference checksum is its unoptimized code run in the VM, so
it never comes from the optimizer under test.

Re-record only when a change is meant to alter the enumerated spaces.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from repro.core.enumeration import EnumerationConfig, enumerate_space  # noqa: E402
from repro.programs import PROGRAMS, all_study_functions, compile_benchmark  # noqa: E402
from repro.vm import Interpreter  # noqa: E402


def record_cap(cap: int) -> dict:
    rows = {}
    for program, name in all_study_functions():
        func = compile_benchmark(program.name).functions[name]
        seen = []
        for engine in ("flat", "object"):
            result = enumerate_space(
                func, EnumerationConfig(max_nodes=cap, engine=engine))
            seen.append({
                "digest": workloads.dag_digest(result.dag),
                "edges": result.attempted_phases,
                "instances": len(result.dag),
                "completed": result.completed,
            })
        label = f"{program.name}.{name}"
        if seen[0] != seen[1]:
            raise SystemExit(f"{label} at cap {cap}: flat {seen[0]} != "
                             f"object {seen[1]}")
        rows[label] = seen[0]
    return rows


def main() -> int:
    caps = sorted({w.cap for w in workloads.WORKLOADS.values()
                   if w.cap is not None})
    goldens = {"caps": {}, "checksums": {}}
    for cap in caps:
        goldens["caps"][str(cap)] = record_cap(cap)
        done = sum(r["completed"] for r in goldens["caps"][str(cap)].values())
        print(f"cap {cap}: {done} of 71 complete; flat == object")
    for name, program in PROGRAMS.items():
        run = Interpreter(compile_benchmark(name),
                          fuel=workloads.VM_FUEL).run(program.entry)
        goldens["checksums"][name] = run.value
    with open(workloads.GOLDENS_PATH, "w", encoding="utf-8") as handle:
        json.dump(goldens, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {workloads.GOLDENS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
