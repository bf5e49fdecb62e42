"""Self-test of the benchmark at a tiny size.

Usage, from the root of a checkout:

    python3 bench/selftest.py

For each workload it runs a few ops through the timed and the traced paths
and checks that every metric named in BENCHMARK.json appears with its unit,
that the same seed builds the same inputs, and that a corrupted reference
value is counted as a failed op.  Exits 1 if any of this fails.
"""

import json
import sys
import tempfile
from pathlib import Path

import checks
import run
import workloads


def _tiny(workload: str, ops):
    """A few cheap ops that still reach every check kind of the workload."""
    if workload == "orbit-census":
        return [ops[0], next(op for op in ops if op.expect == "zero"),
                next(op for op in ops if op.kind == "props")]
    return ops[:1]


def _corrupted(reference, ops):
    bad = {key: list(values) for key, values in reference.items()}
    for op in ops:
        if bad[op.key]:
            bad[op.key][0] += 1e-6
        else:
            bad[op.key].append(0.0)
    return bad


def _units(entries):
    return {entry["name"]: entry["unit"] for entry in entries}


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    seed = checks.REFERENCE_SEED
    src, cli = run.import_program(root)
    problems = []

    def expect(condition, message):
        if not condition:
            problems.append(message)
            print(f"FAIL {message}", file=sys.stderr)

    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json workloads differ from workloads.WORKLOADS")
    expect(run.END_TO_END_UNITS == _units(spec["end_to_end"]),
           "end-to-end metrics or units differ from BENCHMARK.json")
    expect(run.per_layer_units() == _units(spec["per_layer"]),
           "per-layer metrics or units differ from BENCHMARK.json")

    with tempfile.TemporaryDirectory(dir=root) as tmp:
        for workload in workloads.WORKLOADS:
            first, second = Path(tmp, workload, "a"), Path(tmp, workload, "b")
            first.mkdir(parents=True)
            second.mkdir(parents=True)
            ops = workloads.build(workload, seed, first)
            again = workloads.build(workload, seed, second)
            expect([op.key for op in ops] == [op.key for op in again]
                   and all(p.read_bytes() == (second / p.name).read_bytes()
                           for p in first.iterdir()),
                   f"{workload}: the same seed built different inputs")

            tiny = _tiny(workload, ops)
            reference = checks.load_reference(workload)
            attempted, failed, metrics = run.timed_run(cli, tiny, src, 0.0, reference,
                                                       setup_repeats=1, min_passes=1)
            expect(attempted == len(tiny) and failed == 0,
                   f"{workload}: timed run failed {failed} of {attempted} ops")
            expect(set(metrics) == set(run.END_TO_END_UNITS)
                   and all(value > 0 for value in metrics.values()),
                   f"{workload}: end-to-end metrics missing or zero: {metrics}")

            attempted, failed, metrics = run.traced_run(cli, tiny, src, reference,
                                                        import_repeats=1)
            expect(attempted == 2 * len(tiny) and failed == 0,
                   f"{workload}: traced run failed {failed} of {attempted} ops")
            expect(set(metrics) == set(run.per_layer_units()),
                   f"{workload}: per-layer metrics differ from per_layer_units()")
            expect(metrics["cli.main.calls"] == len(tiny),
                   f"{workload}: tracer saw {metrics['cli.main.calls']} CLI calls")

            records = [(op, *run.run_op(cli, op)[1:]) for op in tiny]
            expect(run.count_failures(records, _corrupted(reference, tiny)) == len(tiny),
                   f"{workload}: a corrupted reference value was not counted as a failure")
            print(f"{workload}: done", file=sys.stderr)
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
