"""Command-line interface.

Subcommands: ``dist`` (profile distances between two inputs), ``dist-matrix``
(pairwise distance matrix over a directory), ``reconstruct`` (recover a
matrix from its own measure oracle), ``props`` (degree/spectrum/homomorphism
table), ``norm`` (operator norm).  Exit codes: 0 success, 1 I/O errors,
2 domain errors and inputs too large for memory.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from .fileio import DIST_CSV_HEADER, dist_csv_row, fmt17, load_measured
from .graph_props import hom_cycle, hom_star, row_sums_from_measure
from .matrices import MeasuredMatrix, norm_inf_to_1
from .profiles import ActionDistance, SamplingConfig, hausdorff_terms, profile_sets
from .reconstruction import MeasureOracle, reconstruct, switching_witness


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--rep", default="adjacency",
                        choices=("adjacency", "kirchhoff", "normalized"),
                        help="matrix representation of graph inputs; a file read as "
                             "a matrix is used as it is and takes only adjacency")
    parser.add_argument("--p", default="uniform", dest="weights",
                        help="index weights: uniform, stationary, or a file")
    parser.add_argument("--format", default="auto",
                        choices=("auto", "graph", "matrix"),
                        help="input format (auto takes whichever of matrix and graph parses, "
                             "and refuses a file whose two readings differ)")


def _add_sampling_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--metric", default="euclidean",
                        choices=("euclidean", "chebyshev"))
    parser.add_argument("--samples", type=int, default=500,
                        help="test-vector tuples per profile")
    parser.add_argument("--kmax", type=int, default=3)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--mode", default="sampled",
                        choices=("sampled", "exact_orbit"))
    parser.add_argument("--out", default=None, help="write CSV here instead of stdout")


def _config(args: argparse.Namespace) -> SamplingConfig:
    return SamplingConfig(count=args.samples, seed=args.seed, metric=args.metric,
                          mode=args.mode, kmax=args.kmax)


def _emit(lines: list[str], out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _cmd_dist(args: argparse.Namespace) -> int:
    ma = load_measured(args.input_a, args.rep, args.weights, args.format)
    mb = load_measured(args.input_b, args.rep, args.weights, args.format)
    cfg = _config(args)
    id_a, id_b = Path(args.input_a).name, Path(args.input_b).name
    lines = [DIST_CSV_HEADER]
    terms = hausdorff_terms(profile_sets(ma, cfg), profile_sets(mb, cfg), cfg.metric)
    lines.append(dist_csv_row(id_a, id_b, 1, terms[0], 0.0, cfg.count, cfg.seed,
                              cfg.mode, args.rep, cfg.metric))
    if cfg.mode == "sampled":
        dm = ActionDistance.from_terms(terms)
        lines.append(dist_csv_row(id_a, id_b, cfg.kmax, dm.value, dm.tail_bound,
                                  cfg.count, cfg.seed, cfg.mode, args.rep,
                                  cfg.metric))
    _emit(lines, args.out)
    return 0


def _cmd_dist_matrix(args: argparse.Namespace) -> int:
    directory = Path(args.corpus)
    if not directory.is_dir():
        raise OSError(f"{directory} is not a directory")
    loaded = []
    skipped = []
    for path in sorted(p for p in directory.iterdir() if p.is_file()):
        try:
            loaded.append((path.name, load_measured(path, args.rep, args.weights,
                                                    args.format)))
        except (ValueError, OSError) as exc:
            skipped.append(f"skipped {path.name}: {exc}")
            print(f"warning: skipped {path.name}: {exc}", file=sys.stderr)
    if len(loaded) < 2:
        raise ValueError("need at least 2 parsable inputs for a distance matrix")
    cfg = _config(args)
    names = [name for name, _ in loaded]
    sets = [profile_sets(matrix, cfg) for _, matrix in loaded]
    size = len(loaded)
    table = np.zeros((size, size))
    for i in range(size):
        for j in range(i + 1, size):
            terms = hausdorff_terms(sets[i], sets[j], cfg.metric)
            table[i, j] = table[j, i] = (ActionDistance.from_terms(terms).value
                                         if cfg.mode == "sampled" else terms[0])
    lines = ["name," + ",".join(names)]
    for i, name in enumerate(names):
        cells = ["0" if i == j else fmt17(table[i, j]) for j in range(size)]
        lines.append(name + "," + ",".join(cells))
    _emit(lines, args.out)
    if args.out is not None and skipped:
        Path(args.out + ".log").write_text("\n".join(skipped) + "\n")
    return 0


def _cmd_reconstruct(args: argparse.Namespace) -> int:
    hidden = load_measured(args.input, args.rep, args.weights, args.format)
    oracle = MeasureOracle(hidden)
    norm_bound = args.norm_bound
    recovered = reconstruct(oracle, norm_bound=norm_bound, trials=args.trials,
                            rng_seed=args.seed)
    witness = switching_witness(recovered, hidden.entries)
    if witness is None:
        raise ValueError("recovered matrix is not switching-equivalent to the input")
    for row in recovered:
        print(" ".join(format(v, ".12g") for v in row))
    print("witness: " + " ".join(str(i) for i in witness))
    print(f"queries: {oracle.query_count}")
    return 0


def _cmd_props(args: argparse.Namespace) -> int:
    matrix = load_measured(args.input, args.rep, args.weights, args.format)
    degrees = row_sums_from_measure(matrix)
    spectrum, _ = np.linalg.eigh(matrix.entries) if _is_symmetric(matrix) else (None, None)

    lines = ["property,key,value"]
    for value, weight in degrees:
        lines.append(f"row_sum,{fmt17(value)},{fmt17(weight)}")
    if spectrum is not None:
        for lam in spectrum:
            lines.append(f"eigenvalue,,{fmt17(lam)}")
        uniform = row_sums_from_measure(MeasuredMatrix(matrix.entries))
        degree_multiset = [value for value, weight in uniform
                           for _ in range(round(weight * matrix.n))]
        counts = [("hom_star", k, hom_star(degree_multiset, k)) for k in (2, 3, 4)]
        counts += [("hom_cycle", k, hom_cycle(matrix, k)) for k in (3, 4, 5)]
        for name, k, count in counts:
            shown = count.rounded if count.rounded is not None else count.raw
            lines.append(f"{name},{k},{shown}")
    _emit(lines, args.out)
    return 0


def _is_symmetric(matrix) -> bool:
    return bool(np.allclose(matrix.entries, matrix.entries.T, atol=1e-12, rtol=0.0))


def _cmd_norm(args: argparse.Namespace) -> int:
    matrix = load_measured(args.input, args.rep, args.weights, args.format)
    result = norm_inf_to_1(matrix)
    tag = "exact" if result.exact else "upper bound"
    print(f"{fmt17(result.value)} ({tag})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matmeasure",
        description="Measure representations of matrices and graphs, profile "
                    "distances between them, and matrix reconstruction.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_dist = sub.add_parser("dist", help="profile distances between two inputs")
    p_dist.add_argument("input_a")
    p_dist.add_argument("input_b")
    _add_common_flags(p_dist)
    _add_sampling_flags(p_dist)
    p_dist.set_defaults(func=_cmd_dist)

    p_mat = sub.add_parser("dist-matrix",
                           help="pairwise distance matrix over a directory")
    p_mat.add_argument("corpus")
    _add_common_flags(p_mat)
    _add_sampling_flags(p_mat)
    p_mat.set_defaults(func=_cmd_dist_matrix)

    p_rec = sub.add_parser("reconstruct",
                           help="recover a matrix from its measure oracle")
    p_rec.add_argument("input")
    _add_common_flags(p_rec)
    p_rec.add_argument("--norm-bound", type=float, default=None)
    p_rec.add_argument("--trials", type=int, default=12)
    p_rec.add_argument("--seed", type=int, default=42)
    p_rec.set_defaults(func=_cmd_reconstruct)

    p_props = sub.add_parser("props", help="degree, spectrum, homomorphism table")
    p_props.add_argument("input")
    _add_common_flags(p_props)
    p_props.add_argument("--out", default=None)
    p_props.set_defaults(func=_cmd_props)

    p_norm = sub.add_parser("norm", help="(inf -> 1) operator norm")
    p_norm.add_argument("input")
    _add_common_flags(p_norm)
    p_norm.set_defaults(func=_cmd_norm)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process: parsing leaves it unchanged,
    and in-process callers that run many commands skip about 1 ms each."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: input too large: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
