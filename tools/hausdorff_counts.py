"""Deterministic work counts of the pruned Hausdorff search, as one JSON line.

Usage, from the root of a checkout:

    python3 tools/hausdorff_counts.py

Runs the seed-1 ``dist`` ops of the ``dist-small`` and ``orbit-census``
benchmark workloads (``bench/workloads.py``), then two exact-orbit order-6
pairs with the seed-17 base family: C6 vs P6 and C6 vs a relabeled C6.  The
checkout's ``src/`` is imported, and the search is observed from outside it:
``measures._pair_lp`` is wrapped so that each call of the ``lp`` evaluator it
returns is counted with its pairs, and ``measures._lp_subsets`` so that each
subset-kernel call is counted with its pairs.  For each case the line holds
``lp_calls``, ``pairs``, ``kernel_calls``, ``kernel_pairs`` and every
Hausdorff value in call order as ``float.hex``.  The counts depend only on
the code, so two checkouts can be compared run against run.  The order-6
pairs take several seconds each.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

import matmeasure as mm  # noqa: E402
from matmeasure import cli, measures, profiles  # noqa: E402
import workloads  # noqa: E402

SEED = 1
ORBIT_SEED = 17
# A vertex permutation that is not an automorphism of C6.
RELABEL = (0, 2, 4, 1, 3, 5)


class Counter:
    """Wraps the pair evaluator, the subset kernel and the Hausdorff entry."""

    def __init__(self):
        self.reset()
        self._pair_lp = measures._pair_lp
        self._lp_subsets = measures._lp_subsets
        self._hausdorff = profiles.hausdorff_distance
        measures._pair_lp = self.pair_lp
        measures._lp_subsets = self.lp_subsets
        profiles.hausdorff_distance = self.hausdorff

    def reset(self) -> None:
        self.counts = {"lp_calls": 0, "pairs": 0, "kernel_calls": 0, "kernel_pairs": 0}
        self.values: list[str] = []

    def pair_lp(self, members, metric):
        lp = self._pair_lp(members, metric)

        def counted(i, j):
            self.counts["lp_calls"] += 1
            self.counts["pairs"] += np.broadcast(i, j).size
            return lp(i, j)

        return counted

    def lp_subsets(self, dist, *args, **kwargs):
        self.counts["kernel_calls"] += 1
        self.counts["kernel_pairs"] += len(dist)
        return self._lp_subsets(dist, *args, **kwargs)

    def hausdorff(self, x, y, metric="euclidean"):
        value = self._hausdorff(x, y, metric)
        self.values.append(float(value).hex())
        return value

    def result(self) -> dict:
        out = dict(self.counts, values=self.values)
        self.reset()
        return out


def workload_case(counter: Counter, name: str) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        for op in workloads.build(name, SEED, Path(tmp)):
            if op.kind != "dist":
                continue
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(list(op.argv))
            if rc not in (0, None):
                raise SystemExit(f"error: {name} op {op.key} exited {rc}")
    return counter.result()


def main() -> None:
    counter = Counter()
    out = {name: workload_case(counter, name) for name in ("dist-small", "orbit-census")}
    cfg = mm.SamplingConfig(mode="exact_orbit", seed=ORBIT_SEED)
    c6 = mm.adjacency(mm.cycle_graph(6))
    c6_relabeled = mm.MeasuredMatrix(mm.relabel_matrix(c6.entries, RELABEL))
    for key, other in (("c6~p6", mm.adjacency(mm.path_graph(6))), ("c6~c6-r", c6_relabeled)):
        mm.one_profile_distance(c6, other, cfg)
        out[key] = counter.result()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
