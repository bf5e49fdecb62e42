"""Alternating parent/change benchmark pairs, written to one BENCH_<PR>.json.

Usage:

    python3 tools/bench_pairs.py --parent ../parent --change . --pr <N> \
        [--pairs 10] [--seconds S] [--workloads reconstruct orbit-census]

Each checkout runs its own ``bench/run.py``, from its own root, in a fresh
process.  For every workload, pair ``i`` (seed ``i``, 1..N) runs
``--trace 0`` on both sides; odd seeds run the parent first and even seeds
the change first, so drift on a shared host hits both sides alike.  Runs
last ``--seconds``, by default the ``run_seconds`` of BENCHMARK.json.  Then
each side runs ``--trace 1`` ``TRACE_RUNS`` times per workload on seed 1,
alternating as the pairs do; one traced run is a single pass, so its
timings are as noisy as one op, and only their median is reported.  The
file holds every result line, a per-metric summary (median and quartiles of
each side, and in how many pairs the change was better), the median of each
per-layer value per side, and the machine info.  A count (unit ``count``)
depends only on the seed, so one that differs between the trace runs of a
side is reported, and the exit status is then 1.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

TRACE_RUNS = 5


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``bench/run.py`` run in ``checkout``; its JSON result line."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=False)
    if done.returncode != 0 or not done.stdout.strip():
        raise SystemExit(f"error: {' '.join(argv[1:])} in {checkout} exited "
                         f"{done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per workload and metric: both sides' quartiles and the change's wins."""
    summary: dict[str, dict] = {}
    by_key: dict[tuple[str, int], dict[str, dict]] = {}
    for run in pairs:
        by_key.setdefault((run["workload"], run["seed"]), {})[run["side"]] = run["result"]
    for (workload, _), sides in sorted(by_key.items()):
        for name, direction in better.items():
            parent = sides["parent"]["metrics"][name]["value"]
            change = sides["change"]["metrics"][name]["value"]
            entry = summary.setdefault(workload, {}).setdefault(
                name, {"better": direction, "parent": [], "change": [], "change_better": 0})
            entry["parent"].append(parent)
            entry["change"].append(change)
            entry["change_better"] += (change < parent) if direction == "lower" else (change > parent)
    for metrics in summary.values():
        for entry in metrics.values():
            entry["pairs"] = len(entry["parent"])
            entry["parent_q1_median_q3"] = quartiles(entry.pop("parent"))
            entry["change_q1_median_q3"] = quartiles(entry.pop("change"))
    return summary


def trace_medians(traces: list[dict]) -> tuple[dict, list[str]]:
    """Per workload and per-layer metric: each side's median over its trace
    runs; and a message for every count that differs between a side's runs."""
    runs: dict[tuple[str, str], list[dict]] = {}
    for run in traces:
        runs.setdefault((run["workload"], run["side"]), []).append(run["result"]["metrics"])
    medians: dict[str, dict] = {}
    mismatches = []
    for (workload, side), results in sorted(runs.items()):
        for name, first in results[0].items():
            values = [result[name]["value"] for result in results]
            if first["unit"] == "count" and len(set(values)) > 1:
                mismatches.append(f"{workload} {side} {name}: {values}")
            entry = medians.setdefault(workload, {}).setdefault(name, {"unit": first["unit"]})
            entry[side] = statistics.median(values)
    return medians, mismatches


def machine_info() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": cpu, "cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"), "os": f"{platform.system()} {platform.release()}",
            "blas_threads": 1}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="changed checkout")
    parser.add_argument("--pr", required=True, help="names the output BENCH_<PR>.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        help="default: run_seconds in the change's BENCHMARK.json")
    parser.add_argument("--workloads", nargs="+",
                        help="default: every workload in the change's BENCHMARK.json")
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    pairs = []
    for workload in workloads:
        for seed in range(1, args.pairs + 1):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                result = run_bench(sides[side], workload, seed, seconds, 0)
                pairs.append({"side": side, "workload": workload, "seed": seed,
                              "result": result})
                print(f"{workload} seed {seed} {side}: "
                      + json.dumps({k: round(v["value"], 4)
                                    for k, v in result["metrics"].items()}), file=sys.stderr)
    traces = [{"side": side, "workload": workload, "seed": 1, "run": run,
               "result": run_bench(sides[side], workload, 1, seconds, 1)}
              for workload in workloads for run in range(TRACE_RUNS)
              for side in (("parent", "change") if run % 2 == 0 else ("change", "parent"))]
    medians, mismatches = trace_medians(traces)
    for message in mismatches:
        print(f"warning: count differs between trace runs: {message}", file=sys.stderr)

    out = args.change / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps({
        "description": (
            f"{args.pairs} alternating parent/change pairs of bench/run.py --seconds "
            f"{seconds:g} --trace 0 per workload (seeds 1-{args.pairs}; odd seeds ran "
            f"the parent first, even seeds the change first), and {TRACE_RUNS} alternating "
            "--trace 1 runs per workload and side on seed 1, each side from its own "
            "checkout; trace1_medians holds the median of each per-layer value."),
        "machine": machine_info(),
        "summary": summarize(pairs, better),
        "trace1_medians": medians,
        "trace1_count_mismatches": mismatches,
        "trace0_pairs": pairs,
        "trace1": traces,
    }, indent=1) + "\n")
    print(out)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
