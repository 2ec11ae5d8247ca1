"""Run the benchmark over ten seeds and summarize the spread.

    python3 perfbench/collect.py [--workloads a,b] [--traced] [--out FILE]

For every workload it runs perfbench/run.py once per seed 0..9, each in a
fresh process for BENCHMARK.json's run_seconds, and reports, per end-to-end
metric, the median, the quartiles from statistics.quantiles(values, n=4) and
the spread (q3 - q1) / median, next to the metric's bound from
BENCHMARK.json.  With --traced it adds one traced run per workload at seed 0.
--out writes everything, with the machine description and the git revision,
as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
SEEDS = range(10)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True, timeout=600,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def git_revision() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                              stdout=subprocess.PIPE, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip()


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()

    sys.path.insert(0, str(HERE))
    from run import machine

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"git_revision": git_revision(), "machine": machine(),
               "seconds": seconds, "workloads": {}}
    for name in args.workloads.split(","):
        results = [run(name, seed, seconds, 0) for seed in SEEDS]
        entry = {"seeds": list(SEEDS),
                 "correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "end_to_end": {}}
        print(f"== {name}: {len(SEEDS)} runs, {entry['failed']} of "
              f"{entry['attempted']} operations failed")
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            entry["end_to_end"][metric] = {
                "unit": results[0]["metrics"][metric]["unit"], "median": med,
                "q1": q1, "q3": q3, "spread": spread, "values": values,
            }
            flag = "ok" if spread < bound / 3 else ("WIDE" if spread <= bound else "OVER")
            print(f"  {metric:<14} median {med:<12.6g} spread {spread:7.4f}"
                  f"  bound {bound:<5} {flag}")
        if args.traced:
            entry["traced"] = run(name, SEEDS[0], seconds, 1)
        summary["workloads"][name] = entry
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
