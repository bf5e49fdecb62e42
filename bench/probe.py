"""Set-up and import probes, each in a fresh interpreter.

``setup_seconds`` times what a user pays before the first answer: a new
Python process that imports matmeasure and loads the workload's input files.
Single imports vary by tens of percent on a shared machine, so each probe
is repeated and the median is kept.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

_SETUP_SCRIPT = """
import sys
from pathlib import Path
import matmeasure
from matmeasure.fileio import load_measured
if not Path(matmeasure.__file__).resolve().is_relative_to(Path(sys.argv[1]).resolve()):
    sys.exit("matmeasure was not imported from " + sys.argv[1])
for spec in sys.argv[2:]:
    path, rep, fmt = spec.split("|")
    load_measured(path, rep, "uniform", fmt)
"""


def _env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def setup_seconds(src: Path, inputs: list[tuple[str, str, str]], repeats: int) -> float:
    """Median wall time of a fresh import of matmeasure plus loading ``inputs``."""
    argv = [sys.executable, "-c", _SETUP_SCRIPT, str(src)] + ["|".join(spec) for spec in inputs]
    env = _env(src)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        # No timeout: with one, subprocess polls the child in sleeps of up
        # to 50 ms, which would quantize the measurement.
        subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _import_times(stderr: str) -> dict[str, float]:
    """Cumulative seconds per module from ``-X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        try:
            out[fields[2].strip()] = int(fields[1]) / 1e6
        except ValueError:
            continue  # the header line
    return out


def import_metrics(src: Path, repeats: int) -> dict[str, float]:
    """Median cumulative import time of matmeasure and of scipy.stats."""
    argv = [sys.executable, "-X", "importtime", "-c", "import matmeasure"]
    runs = []
    for _ in range(repeats):
        done = subprocess.run(argv, env=_env(src), check=True, timeout=120,
                              capture_output=True, text=True)
        runs.append(_import_times(done.stderr))
    return {
        "import.matmeasure_s": statistics.median(r.get("matmeasure", 0.0) for r in runs),
        "import.scipy_stats_s": statistics.median(r.get("scipy.stats", 0.0) for r in runs),
    }


def source_lines(src: Path) -> int:
    """Lines of Python under ``src/`` (information only)."""
    return sum(len(p.read_text().splitlines()) for p in sorted(src.rglob("*.py")))
