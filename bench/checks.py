"""Output checks for benchmark ops.

Each check reads the stdout of one CLI call and returns the list of numbers
that the reference file pins, or raises ``CheckFailed``.  Checks run outside
the timed region.  The reference file is recorded on ``REFERENCE_SEED``, but
the pinned numbers do not depend on the seed: a seed only re-encodes the
edges of a ``dist-small`` graph and relabels the graphs of ``orbit-census``,
whose distances, row sums, spectra and homomorphism counts are invariant
under relabeling (``reconstruct`` pins no values).  So every seed is checked
against the reference within ``REFERENCE_TOL``, on top of the invariants.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

import numpy as np

from workloads import Op, read_graph, read_matrix

REFERENCE_FILE = Path(__file__).with_name("reference.json")
REFERENCE_SEED = 1
REFERENCE_TOL = 1e-9
DIST_HEADER = "idA,idB,k,estimate,tail_bound,count,seed,mode,rep,metric"
# Cross-class exact-orbit pairs must stay separated by more than this.
SEPARATION_TOL = 1e-9


class CheckFailed(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _check_dist(op: Op, stdout: str) -> list[float]:
    lines = stdout.splitlines()
    _require(bool(lines) and lines[0] == DIST_HEADER, "missing CSV header")
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    exact = "exact_orbit" in op.argv
    _require(len(rows) == (1 if exact else 2), f"expected {1 if exact else 2} rows")
    values = []
    for row in rows:
        _require(len(row) == 10, "CSV row does not have 10 fields")
        estimate, tail = float(row[3]), float(row[4])
        _require(0.0 <= estimate <= 1.0, f"estimate {estimate} outside [0, 1]")
        _require(0.0 <= tail <= 1.0, f"tail bound {tail} outside [0, 1]")
        values += [estimate, tail]
    if op.expect == "zero":
        _require(values[0] == 0.0, f"relabeled pair at distance {values[0]!r}, not 0.0")
    elif op.expect == "positive":
        _require(values[0] > SEPARATION_TOL, f"cross-class pair at distance {values[0]!r}")
    return values


def _check_reconstruct(op: Op, stdout: str) -> list[float]:
    from matmeasure.reconstruction import switching_witness

    hidden = read_matrix(op.source)
    n = hidden.shape[0]
    lines = stdout.splitlines()
    _require(len(lines) == n + 2, f"expected {n + 2} output lines")
    recovered = np.array([[float(x) for x in line.split()] for line in lines[:n]])
    _require(recovered.shape == (n, n), "recovered matrix has the wrong shape")
    _require(lines[n].startswith("witness: ") and lines[n + 1].startswith("queries: "),
             "missing witness or query lines")
    _require(switching_witness(recovered, hidden) is not None,
             "printed matrix is not switching-equivalent to the hidden one")
    return []


def _check_props(op: Op, stdout: str) -> list[float]:
    from matmeasure.graph_props import count_homomorphisms
    from matmeasure.matrices import Graph, cycle_graph, star_graph

    n, edges = read_graph(op.source)
    graph = Graph(n, edges)
    rows = list(csv.reader(io.StringIO(stdout)))
    _require(bool(rows) and rows[0] == ["property", "key", "value"], "missing CSV header")
    values = []
    degree_table: dict[float, float] = {}
    eigenvalues = []
    for prop, key, value in rows[1:]:
        if prop == "row_sum":
            degree_table[float(key)] = float(value)
            values += [float(key), float(value)]
        elif prop == "eigenvalue":
            eigenvalues.append(float(value))
            values.append(float(value))
        elif prop in ("hom_star", "hom_cycle"):
            k = int(key)
            pattern = star_graph(k) if prop == "hom_star" else cycle_graph(k)
            expected = count_homomorphisms(pattern, graph)
            _require(int(value) == expected,
                     f"{prop} {k}: printed {value}, brute force {expected}")
            values.append(float(value))
        else:
            raise CheckFailed(f"unknown property {prop!r}")
    degrees, counts = np.unique(graph.degrees(), return_counts=True)
    _require(sorted(degree_table) == [float(d) for d in degrees]
             and np.allclose([degree_table[float(d)] for d in degrees], counts / n,
                             atol=1e-12, rtol=0.0),
             "row sums differ from the degree distribution")
    spectrum = np.linalg.eigvalsh(graph.adjacency_matrix())
    _require(len(eigenvalues) == n and np.allclose(sorted(eigenvalues), spectrum,
                                                   atol=1e-8, rtol=0.0),
             "eigenvalues differ from numpy.linalg.eigvalsh")
    return values


_CHECKS = {"dist": _check_dist, "reconstruct": _check_reconstruct, "props": _check_props}


def load_reference(workload: str) -> dict[str, list[float]] | None:
    """Pinned values of every op of ``workload``, or None when none were recorded."""
    if not REFERENCE_FILE.is_file():
        return None
    return json.loads(REFERENCE_FILE.read_text())[workload]


def check(op: Op, rc, stdout: str, reference: dict[str, list[float]] | None) -> list[float]:
    """Validate one op's result; return its pinned values."""
    _require(rc == 0, f"exit status {rc!r}")
    try:
        values = _CHECKS[op.kind](op, stdout)
    except (ValueError, IndexError) as exc:
        raise CheckFailed(f"unparsable output: {exc}") from exc
    if reference is not None:
        _require(op.key in reference, "no reference entry")
        pinned = reference[op.key]
        _require(len(pinned) == len(values) and all(
            abs(a - b) <= REFERENCE_TOL for a, b in zip(values, pinned)),
            f"values {values} differ from reference {pinned}")
    return values
