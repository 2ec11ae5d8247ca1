"""tmnet benchmark: three paper workflows, timed end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds T --trace 0

Run from the repository root.  The program under test is the `tmnet` package
in ``src/`` next to this directory; nothing is installed.  One process runs
one workload single-threaded (BLAS threads are pinned to 1).  It repeats the
whole workflow until the next repetition would end past T seconds (at least
once) and reports medians over repetitions.  Times are reference-speed
seconds (speedclock.py).

With --trace 0 it prints the end-to-end metrics; with --trace 1 it alternates
untraced and traced repetitions and prints the per-layer metrics of the
traced ones (see tracing.py).  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Details of each
repetition, with sha256 digests of the final weights and series and the raw
perf_counter times of each stage next to the reference-speed ones, go to
perfbench/out/.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_PROBES = 5

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
# correctness figures: gated or recorded, but too seed-dependent to bound
ACCURACY = {"fit_ratio": "ratio", "unseen_mse": "state_sq", "tune_err": "1/turn"}


def load_program():
    """Import tmnet from this checkout's src/ (never from anywhere else) and
    the benchmark modules built on it."""
    sys.path[:0] = [str(SRC), str(HERE)]
    import tmnet

    if Path(tmnet.__file__).resolve().parent != (SRC / "tmnet").resolve():
        raise ImportError(f"tmnet imported from {tmnet.__file__}, not from {SRC}")
    import speedclock
    import tracing
    import workloads

    return workloads, tracing, speedclock


def setup_seconds(workload: str, seed: int, clock) -> float:
    """Median time of fresh interpreters that import tmnet and the workload,
    then exit."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = clock()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            check=True, timeout=60,
        )
        times.append(clock() - t0)
    return statistics.median(times)


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine() -> dict:
    import numpy

    return {
        "arch": platform.machine(),
        "cpu": cpu_model(),
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def measure(workloads, tracing, name: str, seed: int, seconds: float, trace: bool,
            clock):
    """Repeat the workflow until the next repetition would end past `seconds`
    of wall time; with trace, repetitions alternate untraced / traced and each
    traced one is summarized from its spans."""
    work = OUT / f"work-{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer(clock) if trace else None
    reps, layer_rows, spans = [], [], None
    step = 2 if trace else 1
    began = time.perf_counter()
    try:
        while True:
            traced = trace and len(reps) % 2 == 1
            if traced:
                tracer.reset()
                tracer.install()
            t0, w0 = clock(), time.perf_counter()
            try:
                it = workloads.run_once(name, seed, work, clock)
            finally:
                total = clock() - t0
                if traced:
                    tracer.uninstall()
            it.iteration_wall_s = time.perf_counter() - w0
            reps.append((traced, total, it))
            if traced:
                row = tracer.summary(total)
                row["io.bytes"] = it.io_bytes
                layer_rows.append(row)
                spans = tracer.arrays()
            elapsed = time.perf_counter() - began
            if len(reps) % step == 0 and elapsed + step * elapsed / len(reps) > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return reps, layer_rows, spans


def run_workload(args) -> dict | None:
    workloads, tracing, speedclock = load_program()
    if args.setup_probe:
        return None
    clock = speedclock.SpeedClock()
    clock.start()
    try:
        setup_s = None if args.trace else setup_seconds(args.workload, args.seed, clock.now)
        reps, layer_rows, spans = measure(workloads, tracing, args.workload, args.seed,
                                          args.seconds, bool(args.trace), clock.now)
    finally:
        clock.stop()
    plain = [(total, it) for traced, total, it in reps if not traced]
    attempted = sum(len(it.expected) for _, _, it in reps)
    failed = sum(len(it.failures) for _, _, it in reps)
    accuracy = {k: statistics.median(it.accuracy[k] for _, it in plain)
                for k in ACCURACY if k in plain[0][1].accuracy}
    e2e = {
        "total_s": statistics.median(sum(it.stage_s.values()) for _, it in plain),
        "setup_s": setup_s,
        **{f"{s}_s": statistics.median(it.stage_s[s] for _, it in plain)
           for s in workloads.STAGES},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "derive_err": statistics.median(it.accuracy.get("derive_err", math.nan)
                                        for _, it in plain),
    }
    wanted = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    if args.trace:
        metrics = {k: statistics.median(row[k] for row in layer_rows) for k in layer_rows[0]}
        metrics["trace_overhead_s"] = metrics["traced_total_s"] - statistics.median(
            total for total, _ in plain)
        metrics["network.fit_ratio"] = accuracy.get("fit_ratio", math.nan)
        metrics["network.unseen_mse"] = accuracy.get("unseen_mse", math.nan)
        metrics["lattice.tune_err"] = accuracy.get("tune_err", 0.0)
    else:
        metrics = e2e
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                    for m in wanted},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "machine": machine(),
        "end_to_end": e2e,
        "error_rate": failed / attempted,
        "accuracy": accuracy,
        "repetitions": [
            {"traced": traced, "iteration_s": total, "stage_s": it.stage_s,
             "iteration_wall_s": it.iteration_wall_s, "stage_wall_s": it.wall_s,
             "failures": it.failures, "accuracy": it.accuracy, "sha256": it.digests}
            for traced, total, it in reps
        ],
        "result": result,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if spans is not None:
        import numpy

        numpy.savez_compressed(OUT / f"spans-{args.workload}.npz", **spans)
    print_table(args.workload, record, result["metrics"])
    return result


def print_table(workload: str, record: dict, metrics: dict) -> None:
    """Every reported metric by name and unit, then the correctness figures."""
    print(f"== {workload} (seed {record['seed']}, "
          f"{len(record['repetitions'])} repetitions)")
    rows = [(k, m["value"], m["unit"]) for k, m in metrics.items()]
    rows.append(("error_rate", record["error_rate"], "ratio"))
    rows += [(k, v, ACCURACY[k]) for k, v in record["accuracy"].items()]
    for name, value, unit in rows:
        print(f"  {name:<40} {value:>14.6g} {unit}")
    last = record["repetitions"][-1]
    for op, why in last["failures"].items():
        print(f"  FAILED {op}: {why}")
    for k, v in last["sha256"].items():
        print(f"  sha256 {k} {v}")


def run_all(args) -> dict:
    """Each workload in its own process; returns their results by name."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            check=True, stdout=subprocess.PIPE, text=True, timeout=600,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            result = run_all(args)
        else:
            result = run_workload(args)
    except (ImportError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if result is not None:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
