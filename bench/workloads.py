"""Seeded inputs and operations for the three benchmark workloads.

A workload is a pool of ``matmeasure`` command lines over ``.graph`` and
``.mat`` files that the generator writes from one seed; the program sees only
those files and arguments.  The graphs and matrices of each pool, and the
``--seed`` of every call, come from a fixed corpus, because the cost of an op
depends on the draw: for the same orders a ``dist-small`` op took 0.25 to
0.6 s, a ``reconstruct`` op on a random 0/1 matrix 0.6 to 4.6 s, and pools of
3 or 4 ops would have measured the draw instead of the program.  The run's
seed then changes the inputs in ways that leave the work nearly the same:

- ``reconstruct`` and ``orbit-census`` relabel every matrix and graph (a
  random vertex permutation).  Orbits are unchanged as sets, so the program
  takes the same path, while the files, the order in which measures arise
  and the recovered matrices differ.  Exact-orbit distances must stay
  exactly 0 on relabeled pairs.
- ``dist-small`` uses sampled profiles, where a relabeling moves the test
  vectors against the vertices and changed the cost of one op by up to 2x.
  There the seed changes only the encoding: the order and orientation of
  the edges in each file.

Why each workload exists:

- ``dist-small``: sampled ``dist`` with kmax 3 and 100 samples on four
  small G(n, 1/2) pairs.  Thousands of flow solves on networks of at most 8+8
  nodes inside pruned Hausdorff searches: per-call flow overhead,
  Hausdorff pruning and the k = 1 term that ``dist`` computes twice.
- ``reconstruct``: ``reconstruct`` on order-5 hidden matrices, 0/1 and
  Gaussian.  Dominated by the unpruned all-pairs ``min_pairwise_lp``
  over a 120-measure orbit, plus oracle queries and ``lp_feasible``.
- ``orbit-census``: exact-orbit ``dist`` over all pairs of the eleven
  4-vertex graph classes, two 5-vertex classes, a relabeled copy of each
  graph (these pairs must be exactly 0), and ``props`` on every graph.
  The only workload where ``graph_props``, ``exact_orbit_profile``, the n!
  ``orbit_measures`` and ``MeasureSet`` dedup carry the time.  Order 6 is
  left out: one pair takes minutes.

A fourth workload, ``dist --kmax 1`` on dense-normalized A/n matrices with
n = 40..60 (large flow networks), was left out: on the shared 2-core host
its timings spread by 23 to 30 % between runs on identical inputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("dist-small", "reconstruct", "orbit-census")

SMALL_ORDERS = ((5, 5), (6, 7), (7, 8), (8, 6))
SMALL_SAMPLES = 100
SMALL_KMAX = 3
SMALL_CORPUS_SEED = 1808
SMALL_NORMALIZED = 0

RECONSTRUCT_ORDER = 5
RECONSTRUCT_COUNT = 3
RECONSTRUCT_CORPUS_SEED = 2024

CENSUS_ORBIT_SEED = "17"
FOUR_VERTEX_CLASSES = {
    "empty": [],
    "edge": [(0, 1)],
    "matching": [(0, 1), (2, 3)],
    "path3": [(0, 1), (1, 2)],
    "triangle": [(0, 1), (1, 2), (0, 2)],
    "path4": [(0, 1), (1, 2), (2, 3)],
    "star": [(0, 1), (0, 2), (0, 3)],
    "cycle4": [(0, 1), (1, 2), (2, 3), (0, 3)],
    "paw": [(0, 1), (1, 2), (0, 2), (2, 3)],
    "diamond": [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3)],
    "k4": [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
}
# The house and K(2,3) share a degree sequence; only the profiles tell
# them apart.  The run's seed relabels every graph; the orbit base family
# stays fixed, so that every seed does the same work.
FIVE_VERTEX_CLASSES = {
    "house": [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 4)],
    "k23": [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)],
}


@dataclass(frozen=True)
class Op:
    """One command line and what its output must satisfy.

    ``key`` names the op within its workload and seed (the reference file
    is keyed by it).  ``expect`` is ``"zero"`` or ``"positive"`` for
    exact-orbit pairs; ``source`` is the hidden matrix of a reconstruct op
    or the graph of a props op.
    """

    key: str
    argv: tuple[str, ...]
    kind: str
    expect: str | None = None
    source: str | None = None


def write_graph(path: Path, n: int, edges) -> None:
    path.write_text(f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges))


def write_matrix(path: Path, a: np.ndarray) -> None:
    rows = (" ".join(repr(float(x)) for x in row) for row in a)
    path.write_text(f"{a.shape[0]}\n" + "\n".join(rows) + "\n")


def read_matrix(path: str) -> np.ndarray:
    lines = Path(path).read_text().split("\n")
    n = int(lines[0])
    return np.array([[float(x) for x in line.split()] for line in lines[1:n + 1]])


def read_graph(path: str) -> tuple[int, list[tuple[int, int]]]:
    lines = Path(path).read_text().split("\n")
    edges = [tuple(int(t) for t in line.split()) for line in lines[1:] if line]
    return int(lines[0]), edges


def _gnp_edges(rng: np.random.Generator, n: int, min_degree: int = 0):
    pairs = list(itertools.combinations(range(n), 2))
    while True:
        edges = [pq for pq, keep in zip(pairs, rng.random(len(pairs)) < 0.5) if keep]
        degrees = np.bincount(np.array(edges, dtype=int).ravel(), minlength=n)
        if degrees.min() >= min_degree:
            return edges


def _cli_seed(rng: np.random.Generator) -> str:
    return str(int(rng.integers(1, 1_000_000)))


def _relabeled_edges(rng: np.random.Generator, n: int, edges):
    sigma = rng.permutation(n)
    return [(int(sigma[u]), int(sigma[v])) for u, v in edges]


def _shuffled_edges(rng: np.random.Generator, edges):
    """The same graph with its edges listed in a seeded order and orientation."""
    flips = rng.random(len(edges)) < 0.5
    listed = [(v, u) if flip else (u, v) for (u, v), flip in zip(edges, flips)]
    return [listed[k] for k in rng.permutation(len(listed))]


def _dist_small(rng: np.random.Generator, workdir: Path) -> list[Op]:
    corpus = np.random.default_rng(SMALL_CORPUS_SEED)
    ops = []
    for i, (na, nb) in enumerate(SMALL_ORDERS):
        # One pair uses the normalized Laplacian, which needs no isolated
        # vertex; its ops cost several times an adjacency op.
        rep = "normalized" if i == SMALL_NORMALIZED else "adjacency"
        min_degree = 1 if rep == "normalized" else 0
        a, b = workdir / f"s{i:02d}a.graph", workdir / f"s{i:02d}b.graph"
        write_graph(a, na, _shuffled_edges(rng, _gnp_edges(corpus, na, min_degree)))
        write_graph(b, nb, _shuffled_edges(rng, _gnp_edges(corpus, nb, min_degree)))
        argv = ("dist", str(a), str(b), "--format", "graph", "--rep", rep,
                "--samples", str(SMALL_SAMPLES), "--kmax", str(SMALL_KMAX),
                "--seed", _cli_seed(corpus))
        ops.append(Op(f"s{i:02d}", argv, "dist"))
    return ops


def _reconstruct(rng: np.random.Generator, workdir: Path) -> list[Op]:
    corpus = np.random.default_rng(RECONSTRUCT_CORPUS_SEED)
    ops = []
    n = RECONSTRUCT_ORDER
    for i in range(RECONSTRUCT_COUNT):
        if i % 2 == 0:
            hidden = corpus.integers(0, 2, (n, n)).astype(float)
        else:
            hidden = corpus.standard_normal((n, n))
        sigma = rng.permutation(n)
        path = workdir / f"r{i:02d}.mat"
        write_matrix(path, hidden[np.ix_(sigma, sigma)])
        argv = ("reconstruct", str(path), "--format", "matrix", "--seed", _cli_seed(corpus))
        ops.append(Op(f"r{i:02d}", argv, "reconstruct", source=str(path)))
    return ops


def _orbit_census(rng: np.random.Generator, workdir: Path) -> list[Op]:
    graphs: dict[str, Path] = {}
    copies: dict[str, Path] = {}
    for name, edges in itertools.chain(FOUR_VERTEX_CLASSES.items(),
                                       FIVE_VERTEX_CLASSES.items()):
        n = 4 if name in FOUR_VERTEX_CLASSES else 5
        for target, suffix in ((graphs, ""), (copies, "-r")):
            path = workdir / f"{name}{suffix}.graph"
            write_graph(path, n, _relabeled_edges(rng, n, edges))
            target[name] = path

    def dist(key: str, a: Path, b: Path, expect: str) -> Op:
        argv = ("dist", str(a), str(b), "--format", "graph", "--mode", "exact_orbit",
                "--seed", CENSUS_ORBIT_SEED)
        return Op(key, argv, "dist", expect=expect)

    ops = []
    for group in (FOUR_VERTEX_CLASSES, FIVE_VERTEX_CLASSES):
        for a, b in itertools.combinations(group, 2):
            ops.append(dist(f"{a}~{b}", graphs[a], graphs[b], "positive"))
    for name in graphs:
        ops.append(dist(f"{name}~{name}-r", graphs[name], copies[name], "zero"))
    for path in itertools.chain(graphs.values(), copies.values()):
        argv = ("props", str(path), "--format", "graph")
        ops.append(Op(f"props:{path.stem}", argv, "props", source=str(path)))
    return ops


_BUILDERS = {
    "dist-small": _dist_small,
    "reconstruct": _reconstruct,
    "orbit-census": _orbit_census,
}


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    """Write the workload's input files into ``workdir`` and return its ops."""
    index = WORKLOADS.index(workload)
    rng = np.random.default_rng([seed, index])
    return _BUILDERS[workload](rng, workdir)


def input_files(ops: list[Op]) -> list[tuple[str, str, str]]:
    """Distinct (path, rep, format) inputs of the ops, for the set-up probe."""
    seen = {}
    for op in ops:
        argv = list(op.argv)
        rep = argv[argv.index("--rep") + 1] if "--rep" in argv else "adjacency"
        fmt = argv[argv.index("--format") + 1]
        paths = argv[1:3] if op.kind == "dist" else argv[1:2]
        for path in paths:
            seen.setdefault((path, rep), (path, rep, fmt))
    return list(seen.values())
