"""Record the correctness references: stdout digest and exit code.

    python3 perfbench/record.py

Runs every workload once, untraced, at each documented program seed
(``run.BASE_SEED`` + 0..``run.N_SEEDS``-1) and writes
``perfbench/references.json``.  Run it only on a commit whose output is
known good: every later benchmark run must match these bytes exactly.
Exit codes are recorded rather than assumed 0, because some quick-size
figure shape checks print ``[FAIL]`` and exit 1 by design.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run


def main() -> int:
    run.BUILD.mkdir(parents=True, exist_ok=True)
    kernel = run.kernel_preflight()
    if not kernel["ok"]:
        print("record: the compiled kernel is unavailable; refusing to record",
              file=sys.stderr)
        return 1
    references: dict[str, dict] = {name: {} for name in run.WORKLOADS}
    for offset in range(run.N_SEEDS):  # workloads interleaved per seed
        for workload in run.WORKLOADS.values():
            result = run.run_once(workload, offset, "plain", "record")
            references[workload.name][str(run.program_seed(offset))] = {
                "sha256": result.sha256,
                "exit": result.exit_code,
            }
            print(f"{workload.name} seed {run.program_seed(offset)}: exit "
                  f"{result.exit_code} {result.sha256[:16]} {result.wall_s:.2f}s",
                  file=sys.stderr)
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=run.ROOT
    ).stdout.strip()
    payload = {"commit": commit, "seeds": [run.program_seed(i) for i in range(run.N_SEEDS)],
               "workloads": references}
    (run.HERE / "references.json").write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
