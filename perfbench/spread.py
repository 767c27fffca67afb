"""Check the benchmark is steady: quartile spread of each metric over seeds.

    python3 perfbench/spread.py

Runs ``run.py --trace 0`` once per seed 0..9 and per workload of
``BENCHMARK.json``, workloads interleaved within each seed so slow drift
on a shared machine spreads evenly over them, then prints for every
end-to-end metric the median and the quartile spread (Q3 - Q1, from
``statistics.quantiles(n=4)``) as a share of the median, beside a third
of the metric's bound.  Exits 1 if any run was incorrect or any spread
reaches its metric's bound.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

import run

SEEDS = 10


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = run.load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    ok = True
    for seed in range(SEEDS):
        for workload in workloads:
            result = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                capture_output=True, text=True, cwd=run.ROOT, check=True,
            )
            outcome = json.loads(result.stdout.strip().splitlines()[-1])
            ok &= outcome["correct"]
            for name, metric in outcome["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(f"seed {seed} {workload}: " + " ".join(
                f"{name}={metric['value']:.4g}" for name, metric in outcome["metrics"].items()
            ) + ("" if outcome["correct"] else " INCORRECT"), flush=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"\n{'workload':<20} {'metric':<12} {'median':>10} {'spread':>7} {'bound/3':>7}")
    for workload in workloads:
        for name, series in values[workload].items():
            share = spread(series)
            ok &= share < bounds[name]
            print(f"{workload:<20} {name:<12} {statistics.median(series):>10.4g} "
                  f"{share:>7.3f} {bounds[name] / 3:>7.3f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
