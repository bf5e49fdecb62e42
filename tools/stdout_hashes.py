"""The sha256 of every benchmark op's stdout, one line per op.

Usage:

    python3 tools/stdout_hashes.py [CHECKOUT] [--seeds 1 2 3 4 5]

For each workload of ``bench/workloads.py`` and each seed (1-5 by default),
the checkout's generator writes the op pool to a temporary directory, and
every op runs in this process through the checkout's ``matmeasure.cli.main``
with BLAS threads pinned to 1, as ``bench/run.py`` runs it.  Each line reads
``<workload> <seed> <op key> <exit status> <sha256 of stdout>``; the last line
is the sha256 of all the lines before it.  ``CHECKOUT`` defaults to the
current directory; its ``src/`` and ``bench/`` are imported and nothing is
written there.  Two checkouts print the same lines iff every op printed the
same bytes, so a change that must keep every output bit is checked by

    diff <(python3 tools/stdout_hashes.py ../parent) <(python3 tools/stdout_hashes.py .)

All three workloads on five seeds take about two minutes.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("checkout", nargs="?", type=Path, default=Path("."))
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3, 4, 5])
    args = parser.parse_args(argv)
    root = args.checkout.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import workloads
    from matmeasure import cli

    if not Path(cli.__file__).resolve().is_relative_to(root / "src"):
        sys.exit(f"error: matmeasure was imported from {cli.__file__}, not {root / 'src'}")
    total = hashlib.sha256()
    for workload in workloads.WORKLOADS:
        for seed in args.seeds:
            with tempfile.TemporaryDirectory() as tmp:
                for op in workloads.build(workload, seed, Path(tmp)):
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out), \
                            contextlib.redirect_stderr(io.StringIO()):
                        try:
                            rc = cli.main(list(op.argv))
                        except SystemExit as exc:
                            rc = exc.code
                    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
                    line = f"{workload} {seed} {op.key} {rc} {digest}"
                    total.update(line.encode() + b"\n")
                    print(line, flush=True)
    print(f"all {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
