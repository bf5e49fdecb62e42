"""Deterministic work counts of the pair evaluator, as one JSON line.

Usage:

    python3 tools/hausdorff_counts.py [CHECKOUT] [build | lp]

``CHECKOUT`` defaults to the current directory; its ``src/`` and ``bench/``
are imported and nothing is written there.  The script refuses to run when
``matmeasure`` is imported from elsewhere, so both sides of a change are
counted from one tree:

    diff <(python3 tools/hausdorff_counts.py ../parent) <(python3 tools/hausdorff_counts.py .)

Runs the seed-1 ``dist`` ops of the ``dist-small`` and ``orbit-census``
benchmark workloads (``bench/workloads.py``), two exact-orbit order-6 pairs
with the seed-17 base family (C6 vs P6 and C6 vs a relabeled C6), and the
seed-1 ``reconstruct`` ops.  The checkout's ``src/`` is imported, and the
work is observed from outside it: ``_pair_lp``, ``_lp_subsets``,
``lp_feasible``, ``min_pairwise_lp`` and ``hausdorff_distance`` are wrapped
and rebound in every ``matmeasure`` module that holds them, as
``bench/tracer.py`` does.  Each call of the ``lp`` evaluator that
``_pair_lp`` returns is counted with its pairs in ``lp_calls`` and
``pairs``.  Of these pairs, ``capped_pairs`` counts those sent with a
``cap`` and ``cap_skipped`` those the cap left unevaluated (NaN).  The
evaluator has no lower-bound mode, so there are no bound counts: every
pruned search, ``min_pairwise_lp`` included, skips pairs through ``cap``.
On an exact orbit ``min_pairwise_lp`` also drops pairs in one same-position
pass before they reach the evaluator; those pairs are in no count.
Each subset-kernel call is counted with its pairs;
``kernel_uniform_pairs`` counts the pairs of the
kernel calls whose second-side weights are equal within every pair, the
calls that sort their distances alone.  A Hausdorff case holds these
counts and every Hausdorff value in call order as ``float.hex``; the
``reconstruct`` case holds the evaluator counts twice, for the minimum
searches (``min_search``, inside ``min_pairwise_lp``) and for the isolation
checks (``isolation``, every other call), then ``lp_feasible_calls`` and
the sha256 of the ops' stdout.  The counts depend only on the code, so two
checkouts can be compared run against run.  C6 vs P6 takes about 2 s, C6 vs
a relabeled C6 a few milliseconds.

The ``build`` case counts the construction of measure sets, in the seed-1
passes over every op of ``orbit-census``, ``reconstruct`` and ``dist-small``
and in the seed-17 exact-orbit profiles of the adjacency matrices of C6, P6,
C7 and P7.  For each it gives the raw rows handed to the set constructors,
the stacks they came in (``from_arrays`` makes one ``_canonical_keys`` and
one ``_dedup`` call per stack), the bitwise-distinct canonical keys among
them, the kept members, the ``WeightedPointMeasure`` objects the program
constructed (counted at ``__new__``; a set may build its members on first
read), the rows whose atoms were merged, and the sha256 of the members' keys
and means.  The sets are hashed once the case has run, and the members that
the hashing itself builds are not counted.  ``MeasureSet.from_measures``, and
``MeasureSet.from_arrays`` where the checkout has it, are wrapped on their
class.  Run it alone with

    python3 tools/hausdorff_counts.py build

The P7 profile takes about 0.5 s.

The ``lp`` case evaluates ``lp_distance`` on single pairs of a fixed seeded
corpus: kernel-sized pairs (1-10 atoms), Dinic-sized pairs (11-16 atoms),
pairs equal within the dedup tolerance (1-14 atoms), mixed counts (1-10
against 11-20 atoms), uniform and random weights, both metrics.  It gives
each value as ``float.hex`` and their sha256.  No benchmark workload
reaches the Dinic path, so this case is what pins its bits.  Run it alone
with

    python3 tools/hausdorff_counts.py lp
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

SEED = 1
ORBIT_SEED = 17
LP_SEED = 15
LP_PAIRS = 400
# Atom-count ranges of the two sides: kernel-sized, Dinic-sized, (equal pairs), mixed.
LP_SIZES = {0: ((1, 11), (1, 11)), 1: ((11, 17), (11, 17)), 3: ((1, 11), (11, 21))}
# A vertex permutation that is not an automorphism of C6.
RELABEL = (0, 2, 4, 1, 3, 5)


class Counter:
    """Wraps the pair evaluator, the subset kernel, the feasibility decision,
    the minimum search and the Hausdorff entry."""

    COUNTS = ("lp_calls", "pairs", "capped_pairs", "cap_skipped", "kernel_calls",
              "kernel_pairs", "kernel_uniform_pairs")

    def __init__(self):
        self.scope = "other"
        self.reset()
        self._pair_lp = measures._pair_lp
        self._lp_subsets = measures._lp_subsets
        self._lp_feasible = measures.lp_feasible
        self._min_pairwise_lp = measures.min_pairwise_lp
        self._hausdorff = measures.hausdorff_distance
        for original, wrapped in ((self._pair_lp, self.pair_lp),
                                  (self._lp_subsets, self.lp_subsets),
                                  (self._lp_feasible, self.lp_feasible),
                                  (self._min_pairwise_lp, self.min_pairwise_lp),
                                  (self._hausdorff, self.hausdorff)):
            rebind(original, wrapped)

    def reset(self) -> None:
        self.counts = {scope: dict.fromkeys(self.COUNTS, 0)
                       for scope in ("min_search", "other")}
        self.values: list[str] = []
        self.feasible_calls = 0

    def pair_lp(self, *args):
        lp = self._pair_lp(*args)

        def counted(i, j, cap=None):
            counts = self.counts[self.scope]
            size = np.broadcast(i, j).size
            counts["lp_calls"] += 1
            counts["pairs"] += size
            if cap is None:
                return lp(i, j)
            out = lp(i, j, cap=cap)
            counts["capped_pairs"] += size
            counts["cap_skipped"] += int(np.isnan(out).sum())
            return out

        return counted

    def lp_subsets(self, dist, a, b, *args, **kwargs):
        counts = self.counts[self.scope]
        counts["kernel_calls"] += 1
        counts["kernel_pairs"] += len(dist)
        counts["kernel_uniform_pairs"] += len(dist) * bool((b == b[:, :1]).all())
        return self._lp_subsets(dist, a, b, *args, **kwargs)

    def lp_feasible(self, *args, **kwargs):
        self.feasible_calls += 1
        return self._lp_feasible(*args, **kwargs)

    def min_pairwise_lp(self, *args, **kwargs):
        self.scope = "min_search"
        try:
            return self._min_pairwise_lp(*args, **kwargs)
        finally:
            self.scope = "other"

    def hausdorff(self, x, y, metric="euclidean"):
        value = self._hausdorff(x, y, metric)
        self.values.append(float(value).hex())
        return value

    def result(self) -> dict:
        out = dict(self.counts["other"], values=self.values)
        self.reset()
        return out


def rebind(original, wrapped) -> None:
    """Put ``wrapped`` wherever a ``matmeasure`` module holds ``original``."""
    for name, module in list(sys.modules.items()):
        if name == "matmeasure" or name.startswith("matmeasure."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)


class BuildCounter:
    """Counts the rows, keys, members and objects of every measure set built."""

    COUNTS = ("raw_rows", "key_stacks", "distinct_rows", "kept_members", "objects",
              "merged_rows")

    def __init__(self):
        self.reset()
        self.quiet = False
        self.raw_atoms: dict[int, int] = {}
        cls, sets = measures.WeightedPointMeasure, measures.MeasureSet
        init = cls.__init__

        def new(klass, *args, **kwargs):
            self.counts["objects"] += not self.quiet
            return object.__new__(klass)

        def counted_init(mu, points, weights):
            init(mu, points, weights)
            self.raw_atoms[id(mu)] = np.asarray(weights).size

        cls.__new__, cls.__init__ = new, counted_init
        from_measures = sets.from_measures

        def counted_from_measures(klass, items, *args, **kwargs):
            items = list(items)
            self.record([mu._key for mu in items],
                        sum(self.raw_atoms.get(id(mu), 0) > mu.atom_count for mu in items))
            return self.members(from_measures(items, *args, **kwargs))

        sets.from_measures = classmethod(counted_from_measures)
        from_arrays = getattr(sets, "from_arrays", None)
        if from_arrays is not None:
            def counted_from_arrays(klass, stacks, weights):
                stacks = [np.asarray(points, dtype=float) for points in stacks]
                self.counts["key_stacks"] += len(stacks)
                self.quiet = True
                keys = [cls(p, weights)._key for points in stacks for p in points]
                self.quiet = False
                self.record(keys, sum(len(key) < len(weights) for key in keys))
                return self.members(from_arrays(stacks, weights))

            sets.from_arrays = classmethod(counted_from_arrays)

    def reset(self) -> None:
        self.counts = dict.fromkeys(self.COUNTS, 0)
        self.sets = []

    def record(self, keys, merged: int) -> None:
        self.counts["raw_rows"] += len(keys)
        self.counts["distinct_rows"] += len({(key.shape, key.tobytes()) for key in keys})
        self.counts["merged_rows"] += merged

    def members(self, result):
        self.counts["kept_members"] += len(result)
        self.sets.append(result)
        return result

    def result(self) -> dict:
        # The sets are hashed after the case has run, and the members that
        # reading them builds are not counted: ``objects`` counts what the
        # program built, as a set may build its members on first read.
        out = dict(self.counts)
        digest = hashlib.sha256()
        self.quiet = True
        for result in self.sets:
            for mu in result:
                digest.update(mu._key.tobytes())
                digest.update(mu.mean.tobytes())
        self.quiet = False
        out["members_sha256"] = digest.hexdigest()
        self.reset()
        return out


def build_case() -> dict:
    counter = BuildCounter()
    out = {}
    for name in ("orbit-census", "reconstruct", "dist-small"):
        run_ops(name)
        out[name] = counter.result()
    for key, graph in (("C6", mm.cycle_graph(6)), ("P6", mm.path_graph(6)),
                       ("C7", mm.cycle_graph(7)), ("P7", mm.path_graph(7))):
        mm.exact_orbit_profile(mm.adjacency(graph), mm.orbit_base_family(graph.n, ORBIT_SEED))
        out[key] = counter.result()
    return out


def lp_pair(rng: np.random.Generator, kind: int, dim: int):
    """One corpus pair of the ``lp`` case; ``kind`` picks its sizes."""
    def measure(m: int):
        points = rng.uniform(-1.0, 1.0, (m, dim)) * float(rng.choice([0.3, 1.0]))
        weights = np.full(m, 1.0 / m) if rng.random() < 0.5 else rng.random(m) + 0.1
        return mm.WeightedPointMeasure(points, weights / weights.sum())

    if kind == 2:
        mu = measure(int(rng.integers(1, 15)))
        near = mu.points + rng.uniform(-4e-10, 4e-10, mu.points.shape)
        return mu, mm.WeightedPointMeasure(near, mu.weights)
    return tuple(measure(int(rng.integers(*sizes))) for sizes in LP_SIZES[kind])


def lp_case() -> dict:
    rng = np.random.default_rng(LP_SEED)
    values = []
    for trial in range(LP_PAIRS):
        mu, nu = lp_pair(rng, trial % 4, 1 + trial % 3)
        values.append(float(mm.lp_distance(mu, nu, mm.measures.METRICS[trial // 4 % 2])).hex())
    return {"pairs": len(values), "values": values,
            "values_sha256": hashlib.sha256(" ".join(values).encode()).hexdigest()}


def run_ops(name: str, kind: str | None = None) -> str:
    """Run the seed-1 ops of a workload, or of one kind in it; their joined stdout."""
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for op in workloads.build(name, SEED, Path(tmp)):
            if kind is not None and op.kind != kind:
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
    out = {name: {key: value for key, value in counter.counts[scope].items()
                  if not key.startswith("kernel")}
           for name, scope in (("min_search", "min_search"), ("isolation", "other"))}
    out.update(lp_feasible_calls=counter.feasible_calls,
               stdout_sha256=hashlib.sha256(stdout.encode()).hexdigest())
    counter.reset()
    return out


def load(root: Path) -> None:
    """Import ``matmeasure`` and the workloads of checkout ``root`` as this
    module's ``mm``, ``cli``, ``measures`` and ``workloads``."""
    global mm, cli, measures, workloads
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import matmeasure as mm
    from matmeasure import cli, measures

    if not Path(mm.__file__).resolve().is_relative_to(root / "src"):
        sys.exit(f"error: matmeasure was imported from {mm.__file__}, not {root / 'src'}")
    import workloads


def main() -> None:
    args = sys.argv[1:]
    case = args.pop() if args and args[-1] in ("build", "lp") else None
    if len(args) > 1:
        sys.exit("usage: hausdorff_counts.py [CHECKOUT] [build | lp]")
    load(Path(args[0] if args else ".").resolve())
    if case == "build":
        print(json.dumps({"build": build_case()}))
        return
    if case == "lp":
        print(json.dumps({"lp": lp_case()}))
        return
    lp = lp_case()
    counter = Counter()
    out = {name: workload_case(counter, name) for name in ("dist-small", "orbit-census")}
    cfg = mm.SamplingConfig(mode="exact_orbit", seed=ORBIT_SEED)
    c6 = mm.adjacency(mm.cycle_graph(6))
    c6_relabeled = mm.MeasuredMatrix(mm.relabel_matrix(c6.entries, RELABEL))
    for key, other in (("c6~p6", mm.adjacency(mm.path_graph(6))), ("c6~c6-r", c6_relabeled)):
        mm.one_profile_distance(c6, other, cfg)
        out[key] = counter.result()
    out["reconstruct"] = reconstruct_case(counter)
    out["build"] = build_case()
    out["lp"] = lp
    print(json.dumps(out))


if __name__ == "__main__":
    main()
