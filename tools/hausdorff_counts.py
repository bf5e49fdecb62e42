"""Deterministic work counts of the pair evaluator, as one JSON line.

Usage, from the root of a checkout:

    python3 tools/hausdorff_counts.py

Runs the seed-1 ``dist`` ops of the ``dist-small`` and ``orbit-census``
benchmark workloads (``bench/workloads.py``), two exact-orbit order-6 pairs
with the seed-17 base family (C6 vs P6 and C6 vs a relabeled C6), and the
seed-1 ``reconstruct`` ops.  The checkout's ``src/`` is imported, and the
work is observed from outside it: ``_pair_lp``, ``_lp_subsets``,
``lp_feasible`` and ``hausdorff_distance`` are wrapped and rebound in every
``matmeasure`` module that holds them, as ``bench/tracer.py`` does.  Each
call of the ``lp`` evaluator that ``_pair_lp`` returns is counted with its
pairs, and each subset-kernel call with its pairs.  A Hausdorff case holds
``lp_calls``, ``pairs``, ``kernel_calls``, ``kernel_pairs`` and every
Hausdorff value in call order as ``float.hex``; the ``reconstruct`` case
holds ``lp_calls``, ``pairs``, ``lp_feasible_calls`` and the sha256 of the
ops' stdout.  The counts depend only on the code, so two checkouts can be
compared run against run.  The order-6 pairs take several seconds each.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

import matmeasure as mm  # noqa: E402
from matmeasure import cli, measures  # noqa: E402
import workloads  # noqa: E402

SEED = 1
ORBIT_SEED = 17
# A vertex permutation that is not an automorphism of C6.
RELABEL = (0, 2, 4, 1, 3, 5)


class Counter:
    """Wraps the pair evaluator, the subset kernel, the feasibility decision
    and the Hausdorff entry."""

    def __init__(self):
        self.reset()
        self._pair_lp = measures._pair_lp
        self._lp_subsets = measures._lp_subsets
        self._lp_feasible = measures.lp_feasible
        self._hausdorff = measures.hausdorff_distance
        for original, wrapped in ((self._pair_lp, self.pair_lp),
                                  (self._lp_subsets, self.lp_subsets),
                                  (self._lp_feasible, self.lp_feasible),
                                  (self._hausdorff, self.hausdorff)):
            rebind(original, wrapped)

    def reset(self) -> None:
        self.counts = {"lp_calls": 0, "pairs": 0, "kernel_calls": 0, "kernel_pairs": 0}
        self.values: list[str] = []
        self.feasible_calls = 0

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

    def lp_feasible(self, *args, **kwargs):
        self.feasible_calls += 1
        return self._lp_feasible(*args, **kwargs)

    def hausdorff(self, x, y, metric="euclidean"):
        value = self._hausdorff(x, y, metric)
        self.values.append(float(value).hex())
        return value

    def result(self) -> dict:
        out = dict(self.counts, values=self.values)
        self.reset()
        return out


def rebind(original, wrapped) -> None:
    """Put ``wrapped`` wherever a ``matmeasure`` module holds ``original``."""
    for name, module in list(sys.modules.items()):
        if name == "matmeasure" or name.startswith("matmeasure."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)


def run_ops(name: str, kind: str) -> str:
    """Run the seed-1 ops of one kind in a workload; their joined stdout."""
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for op in workloads.build(name, SEED, Path(tmp)):
            if op.kind != kind:
                continue
            with contextlib.redirect_stdout(out):
                rc = cli.main(list(op.argv))
            if rc not in (0, None):
                raise SystemExit(f"error: {name} op {op.key} exited {rc}")
    return out.getvalue()


def workload_case(counter: Counter, name: str) -> dict:
    run_ops(name, "dist")
    return counter.result()


def reconstruct_case(counter: Counter) -> dict:
    stdout = run_ops("reconstruct", "reconstruct")
    out = {"lp_calls": counter.counts["lp_calls"], "pairs": counter.counts["pairs"],
           "lp_feasible_calls": counter.feasible_calls,
           "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest()}
    counter.reset()
    return out


def main() -> None:
    counter = Counter()
    out = {name: workload_case(counter, name) for name in ("dist-small", "orbit-census")}
    cfg = mm.SamplingConfig(mode="exact_orbit", seed=ORBIT_SEED)
    c6 = mm.adjacency(mm.cycle_graph(6))
    c6_relabeled = mm.MeasuredMatrix(mm.relabel_matrix(c6.entries, RELABEL))
    for key, other in (("c6~p6", mm.adjacency(mm.path_graph(6))), ("c6~c6-r", c6_relabeled)):
        mm.one_profile_distance(c6, other, cfg)
        out[key] = counter.result()
    out["reconstruct"] = reconstruct_case(counter)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
