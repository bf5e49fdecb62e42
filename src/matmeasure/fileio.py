"""Text formats for graphs, matrices, and weight vectors.

Graph files list one ``u v`` edge per line (0-indexed); ``#`` starts a
comment and an optional leading single-integer line declares the vertex
count (needed for trailing isolated vertices or edgeless graphs).  Matrix
files start with the order n followed by n rows of n decimals.  Weight
vectors are ``uniform``, ``stationary``, or a file of n decimals.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

import numpy as np

from .matrices import (Graph, MeasuredMatrix, adjacency, kirchhoff,
                       normalized_laplacian)

REPRESENTATIONS = ("adjacency", "kirchhoff", "normalized")


def fmt17(x: float) -> str:
    """17-significant-digit decimal, locale-independent."""
    return format(float(x), ".17g")


def _effective_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line))
    return out


def parse_graph(text: str, name: str = "<graph>") -> Graph:
    lines = _effective_lines(text)
    if not lines:
        raise ValueError(f"{name}: empty graph file")
    declared: Optional[int] = None
    edges: list[tuple[int, int]] = []
    start = 0
    first_tokens = lines[0][1].split()
    if len(first_tokens) == 1:
        lineno, line = lines[0]
        try:
            declared = int(first_tokens[0])
        except ValueError:
            raise ValueError(f"{name}:{lineno}: expected a vertex count, got {line!r}")
        if declared < 1:
            raise ValueError(f"{name}:{lineno}: vertex count must be positive")
        start = 1
    for lineno, line in lines[start:]:
        tokens = line.split()
        if len(tokens) != 2:
            raise ValueError(f"{name}:{lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ValueError(f"{name}:{lineno}: vertex ids must be integers")
        if u == v:
            raise ValueError(f"{name}:{lineno}: self-loop at vertex {u}")
        if u < 0 or v < 0:
            raise ValueError(f"{name}:{lineno}: vertex ids must be nonnegative")
        if declared is not None and (u >= declared or v >= declared):
            raise ValueError(f"{name}:{lineno}: vertex id beyond declared count "
                             f"{declared}")
        edges.append((u, v))
    if declared is None:
        if not edges:
            raise ValueError(f"{name}: no edges and no vertex count")
        declared = max(max(u, v) for u, v in edges) + 1
    return Graph(declared, edges)


def parse_matrix(text: str, name: str = "<matrix>") -> np.ndarray:
    lines = _effective_lines(text)
    if not lines:
        raise ValueError(f"{name}: empty matrix file")
    lineno, header = lines[0]
    tokens = header.split()
    if len(tokens) != 1:
        raise ValueError(f"{name}:{lineno}: expected the matrix order alone on "
                         f"the first line")
    try:
        n = int(tokens[0])
    except ValueError:
        raise ValueError(f"{name}:{lineno}: matrix order must be an integer")
    if n < 1:
        raise ValueError(f"{name}:{lineno}: matrix order must be positive")
    if len(lines) - 1 != n:
        raise ValueError(f"{name}: expected {n} matrix rows, found {len(lines) - 1}")
    rows = []
    for lineno, line in lines[1:]:
        values = line.split()
        if len(values) != n:
            raise ValueError(f"{name}:{lineno}: expected {n} entries, got "
                             f"{len(values)}")
        try:
            rows.append([float(v) for v in values])
        except ValueError:
            raise ValueError(f"{name}:{lineno}: non-numeric matrix entry")
    return np.array(rows)


def parse_weights_file(text: str, n: int, name: str = "<weights>") -> np.ndarray:
    values = []
    for lineno, line in _effective_lines(text):
        for token in line.split():
            try:
                values.append(float(token))
            except ValueError:
                raise ValueError(f"{name}:{lineno}: non-numeric weight")
    if len(values) != n:
        raise ValueError(f"{name}: expected {n} weights, found {len(values)}")
    return np.array(values)


def _represent(graph: Graph, rep: str, weights) -> MeasuredMatrix:
    if rep == "adjacency":
        return adjacency(graph, weights)
    if rep == "kirchhoff":
        return kirchhoff(graph, weights)
    if rep == "normalized":
        return normalized_laplacian(graph, weights)
    raise ValueError(f"unknown representation {rep!r}; expected one of "
                     f"{REPRESENTATIONS}")


def load_measured(path: str | Path, rep: str = "adjacency",
                  weights: str = "uniform", fmt: str = "auto") -> MeasuredMatrix:
    """Load a graph or matrix file as a ``MeasuredMatrix``.

    ``fmt`` is ``graph``, ``matrix``, or ``auto`` (try matrix, fall back to
    graph).  Graphs are converted through ``rep``; matrix files are used as
    they are and refuse any ``rep`` but ``adjacency``.  In ``auto`` mode a
    file that parses both ways is accepted only if the two readings give the
    same matrix under ``rep``; otherwise a ``ValueError`` asks for ``--format``.
    """
    path = Path(path)
    text = path.read_text()
    name = path.name

    graph: Optional[Graph] = None
    also_graph: Optional[Graph] = None
    entries: Optional[np.ndarray] = None
    if fmt == "matrix":
        entries = parse_matrix(text, name)
    elif fmt == "graph":
        graph = parse_graph(text, name)
    elif fmt == "auto":
        try:
            entries = parse_matrix(text, name)
        except ValueError:
            graph = parse_graph(text, name)
        else:
            try:
                also_graph = parse_graph(text, name)
            except ValueError:
                also_graph = None
            if also_graph is not None and not np.array_equal(
                    _represent(also_graph, rep, "uniform").entries, entries):
                raise ValueError(f"{name}: reads as a matrix and as a graph, and the "
                                 f"two differ under --rep {rep}; choose one with "
                                 f"--format matrix or --format graph")
    else:
        raise ValueError(f"unknown format {fmt!r}")

    if entries is not None:
        if rep != "adjacency" and also_graph is None:
            raise ValueError(f"{name}: --rep {rep} applies to graph inputs only, and "
                             f"this file is read as a matrix")
        if weights == "uniform":
            return MeasuredMatrix(entries)
        if weights == "stationary":
            raise ValueError("stationary weights are defined for graphs only")
        w = parse_weights_file(Path(weights).read_text(), entries.shape[0],
                               Path(weights).name)
        return MeasuredMatrix(entries, w)

    if weights in ("uniform", "stationary"):
        weight_choice = weights
    else:
        weight_choice = parse_weights_file(Path(weights).read_text(), graph.n,
                                           Path(weights).name)
    return _represent(graph, rep, weight_choice)


DIST_CSV_HEADER = "idA,idB,k,estimate,tail_bound,count,seed,mode,rep,metric"


def dist_csv_row(id_a: str, id_b: str, k: int, estimate: float, tail_bound: float,
                 count: int, seed: int, mode: str, rep: str, metric: str) -> str:
    return (f"{id_a},{id_b},{k},{fmt17(estimate)},{fmt17(tail_bound)},"
            f"{count},{seed},{mode},{rep},{metric}")
