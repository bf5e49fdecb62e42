"""The sha256 of acceptance criterion 03's reconstructions and oracle queries.

Usage:

    python3 tools/criterion03_hash.py [CHECKOUT]

Runs the loop of ``test_criterion_03_reconstruction_soundness`` unchanged:
``default_rng(103)``, orders 3, 4 and 5 in turn, a 0/1 hidden matrix on even
trials and a Gaussian one on odd trials, ``norm_bound=max(1, norm)`` and
``rng_seed=9000 + t``, over 100 trials.  For each trial in order, the hash
takes the recovered matrix's ``tobytes()`` and then every query-log entry's
``kind.encode()`` and ``x.tobytes()``.  It prints one line: the sha256 and
the number of query-log entries.  ``CHECKOUT`` defaults to the current
directory; its ``src/`` is imported and nothing is written there.  The
script refuses to run when ``matmeasure`` is imported from elsewhere.  A
change that must keep every reconstruction and every query is checked by

    diff <(python3 tools/criterion03_hash.py ../parent) <(python3 tools/criterion03_hash.py .)

One checkout takes about a second on a 2-core x86 host.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) > 1 or any(arg.startswith("-") for arg in args):
        sys.exit(f"usage: {Path(__file__).name} [CHECKOUT]")
    root = Path(args[0] if args else ".").resolve()
    sys.path.insert(0, str(root / "src"))
    import numpy as np
    import matmeasure as mm

    if not Path(mm.__file__).resolve().is_relative_to(root / "src"):
        sys.exit(f"error: matmeasure was imported from {mm.__file__}, not {root / 'src'}")
    rng = np.random.default_rng(103)
    digest, entries = hashlib.sha256(), 0
    for t in range(100):
        n = (3, 4, 5)[t % 3]
        if t % 2 == 0:
            hidden = rng.integers(0, 2, (n, n)).astype(float)
        else:
            hidden = rng.standard_normal((n, n))
        matrix = mm.MeasuredMatrix(hidden)
        bound = max(1.0, mm.norm_inf_to_1(matrix).value)
        oracle = mm.MeasureOracle(matrix)
        recovered = mm.reconstruct(oracle, norm_bound=bound, rng_seed=9000 + t)
        digest.update(recovered.tobytes())
        for kind, x in oracle.query_log:
            digest.update(kind.encode())
            digest.update(x.tobytes())
            entries += 1
    print(f"{digest.hexdigest()} {entries}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
