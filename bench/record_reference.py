"""Record reference.json: the checked output values of every op for one seed.

Usage, from the root of a checkout:

    python3 bench/record_reference.py

Run it on a commit whose outputs are trusted.  It builds the inputs of
``checks.REFERENCE_SEED``, and every op must pass its invariant checks first.
Afterwards, a benchmark run with any seed counts an op as failed when any of
its values moves by more than 1e-9.
"""

import json
import sys
import tempfile
from pathlib import Path

import checks
import run
import workloads


def main() -> int:
    _, cli = run.import_program(Path.cwd())
    recorded = {}
    for workload in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
            ops = workloads.build(workload, checks.REFERENCE_SEED, Path(tmp))
            values = {}
            for op in ops:
                _, rc, stdout = run.run_op(cli, op)
                values[op.key] = checks.check(op, rc, stdout, reference=None)
        recorded[workload] = values
        print(f"{workload}: {len(values)} ops recorded", file=sys.stderr)
    text = json.dumps(recorded, indent=1)
    checks.REFERENCE_FILE.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
