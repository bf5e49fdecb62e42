"""matmeasure benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload dist-small --seed 1 --seconds 30 --trace 0

One closed-loop client runs the workload's ops one at a time through
``matmeasure.cli.main`` in this process, with BLAS threads pinned to 1.  The
pool of ops is run in whole passes that fit in ``--seconds``, at least three,
and each op's latency is its best pass.  Outputs are checked after the timed
loop.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one pass
untraced and one traced and reports the per-layer metrics; its counts depend
only on the seed.  The last stdout line is the JSON result.  See README.md.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import probe  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, metric_units  # noqa: E402

SETUP_REPEATS = 5
MIN_PASSES = 3
IMPORT_REPEATS = 3
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


def run_op(cli, op):
    """Run one op; return (seconds, exit status, stdout)."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(list(op.argv))
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a crashing op is a failed op, not a crashed benchmark
        rc = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, rc, out.getvalue()


def check_records(records, reference) -> list[bool]:
    """Check each (op, rc, stdout) record; identical outputs are checked once."""
    verdicts = {}
    for op, rc, stdout in records:
        key = (op.key, rc, stdout)
        if key not in verdicts:
            try:
                checks.check(op, rc, stdout, reference)
                verdicts[key] = True
            except checks.CheckFailed as exc:
                print(f"check failed: {op.key}: {exc}", file=sys.stderr)
                verdicts[key] = False
    return [verdicts[(op.key, rc, stdout)] for op, rc, stdout in records]


def count_failures(records, reference) -> int:
    return check_records(records, reference).count(False)


def timed_run(cli, ops, src, seconds, reference, setup_repeats=SETUP_REPEATS,
              min_passes=MIN_PASSES):
    """Run whole passes over ``ops`` within ``seconds`` (at least ``min_passes``).

    Each op's latency is its best pass.  The ops are deterministic, so extra
    time in a pass is load from elsewhere on the machine.
    """
    setup_s = probe.setup_seconds(src, workloads.input_files(ops), setup_repeats)
    latencies = {op.key: [] for op in ops}
    records = []
    start = time.perf_counter()
    passes = 0
    while True:
        for op in ops:
            elapsed, rc, stdout = run_op(cli, op)
            latencies[op.key].append(elapsed)
            records.append((op, rc, stdout))
        passes += 1
        spent = time.perf_counter() - start
        if passes >= min_passes and spent * (passes + 1) / passes > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    verdicts = check_records(records, reference)
    failed_keys = {op.key for (op, _, _), ok in zip(records, verdicts) if not ok}
    op_s = [min(latencies[op.key]) for op in ops]
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": (len(ops) - len(failed_keys)) / sum(op_s),
        "op_p50_ms": 1e3 * statistics.median(op_s),
        "peak_rss_mb": peak_rss_mb,
    }
    return len(records), verdicts.count(False), metrics


def traced_run(cli, ops, src, reference, import_repeats=IMPORT_REPEATS):
    run_op(cli, ops[0])  # warm-up, so first-call costs stay out of the overhead ratio
    records = []
    start = time.perf_counter()
    for op in ops:
        records.append((op, *run_op(cli, op)[1:]))
    untraced_s = time.perf_counter() - start
    with Tracer() as tracer:
        start = time.perf_counter()
        for op in ops:
            records.append((op, *run_op(cli, op)[1:]))
        traced_s = time.perf_counter() - start
    failed = count_failures(records, reference)
    metrics = tracer.metrics(dist_ops=sum(op.kind == "dist" for op in ops))
    metrics.update(probe.import_metrics(src, import_repeats))
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    metrics["src.lines"] = probe.source_lines(src)
    return len(records), failed, metrics


def per_layer_units():
    units = metric_units()
    units.update({"import.matmeasure_s": "s", "import.scipy_stats_s": "s",
                  "trace.overhead_ratio": "ratio", "src.lines": "lines"})
    return units


def import_program(root: Path):
    """Import matmeasure from the checkout's ``src/``, or exit with status 2."""
    src = root / "src"
    if not (src / "matmeasure" / "__init__.py").is_file():
        sys.exit(f"error: no matmeasure sources under {src}")
    sys.path.insert(0, str(src))
    import matmeasure
    from matmeasure import cli

    if not Path(matmeasure.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"error: matmeasure was imported from {matmeasure.__file__}, not {src}")
    return src, cli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src, cli = import_program(root)
    scratch = root / ".bench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch))
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        reference = checks.load_reference(args.workload)
        if args.trace:
            attempted, failed, metrics = traced_run(cli, ops, src, reference)
            units = per_layer_units()
        else:
            attempted, failed, metrics = timed_run(cli, ops, src, args.seconds, reference)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
