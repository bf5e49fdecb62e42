import subprocess
import sys

import numpy as np
import pytest

import matmeasure as mm
from matmeasure.cli import main
from matmeasure.fileio import fmt17, load_measured


@pytest.fixture()
def inputs(tmp_path):
    files = {
        "ex24.mat": "2\n0 2\n3 1\n",
        "ex41.mat": "3\n0 1 1\n0 1 0\n1 1 0\n",
        "k3.graph": "0 1\n1 2\n0 2\n",
        "c4.graph": "0 1\n1 2\n2 3\n0 3\n",
        "c4_relabeled.graph": "2 3\n3 0\n0 1\n2 1\n",
        "p4.graph": "0 1\n1 2\n2 3\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return tmp_path


def test_norm_prints_worked_value(inputs, capsys):
    assert main(["norm", str(inputs / "ex24.mat")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("3 ")
    assert "exact" in out


def test_props_table(inputs, capsys):
    assert main(["props", str(inputs / "k3.graph")]) == 0
    out = capsys.readouterr().out
    assert "row_sum,2,1" in out
    assert "hom_star,3,12" in out
    assert "hom_cycle,3,6" in out


def test_props_star_counts_of_a_non_integral_matrix_are_raw(tmp_path, capsys):
    # Row sums 0.7 and 0.6: sum d^(k-1) is 1.3 at k = 2, not the 1 of rounding.
    path = tmp_path / "frac.mat"
    path.write_text("2\n0.3 0.4\n0.4 0.2\n")
    assert main(["props", str(path)]) == 0
    rows = [row.split(",") for row in capsys.readouterr().out.splitlines()]
    stars = {int(k): float(v) for name, k, v in rows if name == "hom_star"}
    assert stars == pytest.approx({2: 1.3, 3: 0.85, 4: 0.559}, abs=1e-12)


def test_reconstruct_round_trip(inputs, capsys):
    assert main(["reconstruct", str(inputs / "ex41.mat")]) == 0
    out = capsys.readouterr().out
    assert "witness:" in out
    assert "queries:" in out


def test_reconstruct_prints_nothing_when_the_witness_fails(inputs, capsys, monkeypatch):
    monkeypatch.setattr("matmeasure.cli.reconstruct", lambda oracle, **_: np.eye(4))
    assert main(["reconstruct", str(inputs / "p4.graph")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "recovered matrix is not switching-equivalent to the input" in captured.err


@pytest.mark.parametrize("bound", ["nan", "inf", "-3"])
def test_reconstruct_rejects_a_bad_norm_bound(inputs, capsys, bound):
    assert main(["reconstruct", str(inputs / "ex41.mat"), "--norm-bound", bound]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "norm_bound must be finite and nonnegative" in captured.err


def test_dist_identical_inputs_is_zero(inputs, capsys):
    code = main(["dist", str(inputs / "c4.graph"), str(inputs / "c4.graph"),
                 "--samples", "25", "--kmax", "2"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("idA,idB,k,estimate")
    for line in lines[1:]:
        assert line.split(",")[3] == "0"


def test_dist_exact_orbit_relabeled_cycle(inputs, capsys):
    code = main(["dist", str(inputs / "c4.graph"),
                 str(inputs / "c4_relabeled.graph"), "--mode", "exact_orbit"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2  # no sampled action row in exact-orbit mode
    assert lines[1].split(",")[3] == "0"


def test_dist_separates_cycle_from_path_and_is_deterministic(inputs, capsys):
    args = ["dist", str(inputs / "c4.graph"), str(inputs / "p4.graph"),
            "--samples", "30", "--kmax", "2", "--seed", "9"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    estimate = float(first.strip().splitlines()[1].split(",")[3])
    assert estimate > 0.0


def test_dist_rows_equal_the_library_distances(inputs, capsys):
    a, b = load_measured(inputs / "c4.graph"), load_measured(inputs / "k3.graph")
    sampled = mm.SamplingConfig(count=20, seed=9, kmax=2)
    exact = mm.SamplingConfig(mode="exact_orbit", seed=17)
    for cfg, flags in ((sampled, ["--samples", "20", "--seed", "9", "--kmax", "2"]),
                       (exact, ["--mode", "exact_orbit", "--seed", "17"])):
        assert main(["dist", str(inputs / "c4.graph"), str(inputs / "k3.graph")]
                    + flags) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert rows[0][2:4] == ["1", fmt17(mm.one_profile_distance(a, b, cfg))]
        if cfg.mode == "sampled":
            dm = mm.action_distance(a, b, 2, cfg)
            assert rows[1][2:5] == ["2", fmt17(dm.value), fmt17(dm.tail_bound)]
        assert len(rows) == (2 if cfg.mode == "sampled" else 1)


def test_dist_kmax_zero(inputs, capsys):
    pair = ["dist", str(inputs / "c4.graph"), str(inputs / "p4.graph"), "--kmax", "0"]
    assert main(pair + ["--samples", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "kmax" in captured.err
    # Exact-orbit mode has the 1-profile only and does not read --kmax.
    assert main(pair + ["--mode", "exact_orbit"]) == 0


def test_dist_matrix_cells_equal_pairwise_distances(inputs, tmp_path, capsys):
    corpus = tmp_path / "cells"
    corpus.mkdir()
    names = ("c4.graph", "k3.graph", "p4.graph")
    for name in names:
        (corpus / name).write_text((inputs / name).read_text())
    loaded = [load_measured(corpus / name) for name in names]
    sampled = mm.SamplingConfig(count=15, seed=5, kmax=2)
    exact = mm.SamplingConfig(mode="exact_orbit", seed=17)
    for cfg, flags in ((sampled, ["--samples", "15", "--seed", "5", "--kmax", "2"]),
                       (exact, ["--mode", "exact_orbit", "--seed", "17"])):
        assert main(["dist-matrix", str(corpus)] + flags) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "name," + ",".join(names)
        for i, line in enumerate(lines[1:]):
            for j, cell in enumerate(line.split(",")[1:]):
                if i == j:
                    expected = "0"
                elif cfg.mode == "sampled":
                    expected = fmt17(mm.action_distance(loaded[i], loaded[j], cfg=cfg).value)
                else:
                    expected = fmt17(mm.one_profile_distance(loaded[i], loaded[j], cfg))
                assert cell == expected


def test_rep_on_matrix_input_exit_code(inputs, capsys):
    for flags in (["--format", "matrix"], []):
        assert main(["norm", str(inputs / "ex24.mat"), "--rep", "kirchhoff"]
                    + flags) == 2
        assert "--rep" in capsys.readouterr().err
    assert main(["norm", str(inputs / "ex24.mat"), "--rep", "adjacency"]) == 0


def test_dist_matrix_symmetric_with_zero_diagonal(inputs, tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("k3.graph", "c4.graph", "p4.graph"):
        (corpus / name).write_text((inputs / name).read_text())
    (corpus / "broken.graph").write_text("not a graph\n")
    out_file = tmp_path / "matrix.csv"
    code = main(["dist-matrix", str(corpus), "--samples", "20", "--kmax", "1",
                 "--out", str(out_file)])
    assert code == 0
    err = capsys.readouterr().err
    assert "broken.graph" in err
    lines = out_file.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "name"
    names = header[1:]
    table = {}
    for line in lines[1:]:
        cells = line.split(",")
        table[cells[0]] = dict(zip(names, cells[1:]))
    for a in names:
        assert table[a][a] == "0"
        for b in names:
            assert table[a][b] == table[b][a]
    log = (tmp_path / "matrix.csv.log").read_text()
    assert "broken.graph" in log


def test_dist_matrix_duplicated_graph_is_all_zeros(inputs, tmp_path, capsys):
    corpus = tmp_path / "dup"
    corpus.mkdir()
    (corpus / "a.graph").write_text((inputs / "k3.graph").read_text())
    (corpus / "b.graph").write_text((inputs / "k3.graph").read_text())
    assert main(["dist-matrix", str(corpus), "--samples", "15"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    for line in lines[1:]:
        assert all(cell == "0" for cell in line.split(",")[1:])


def test_dist_matrix_needs_two_inputs(tmp_path, capsys):
    corpus = tmp_path / "one"
    corpus.mkdir()
    (corpus / "k3.graph").write_text("0 1\n1 2\n0 2\n")
    assert main(["dist-matrix", str(corpus)]) == 2
    assert "at least 2" in capsys.readouterr().err


def test_missing_file_is_io_error(tmp_path, capsys):
    assert main(["norm", str(tmp_path / "absent.mat")]) == 1


@pytest.mark.parametrize("command", ["norm", "dist"])
def test_oversized_graph_exit_code(tmp_path, capsys, command):
    # 10^8 vertices need a 71 PiB adjacency matrix: the allocation fails
    # before any memory is touched.
    big = tmp_path / "big.graph"
    big.write_text("100000000\n0 1\n")
    paths = [str(big)] * (2 if command == "dist" else 1)
    assert main([command, *paths, "--format", "graph"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_domain_error_exit_code(inputs, capsys):
    assert main(["norm", str(inputs / "ex24.mat"), "--p", "stationary"]) == 2


def test_ambiguous_auto_format_exit_code(inputs, capsys):
    (inputs / "k2_twice.txt").write_text("2\n1 0\n0 1\n")
    (inputs / "k2.graph").write_text("0 1\n")
    assert main(["dist", str(inputs / "k2_twice.txt"), str(inputs / "k2.graph"),
                 "--mode", "exact_orbit"]) == 2
    assert "--format" in capsys.readouterr().err
    assert main(["dist", str(inputs / "k2_twice.txt"), str(inputs / "k2.graph"),
                 "--mode", "exact_orbit", "--format", "graph"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert all(float(row.split(",")[3]) == 0.0 for row in rows)


@pytest.mark.parametrize("entries, weights", [
    ("0 1 1\n0 1 0\n1 1 0\n", "nan 0.5 0.5\n"),
    ("0 nan 1\n0 1 0\n1 1 0\n", None),
    ("0 inf 1\n0 1 0\n1 1 0\n", None),
], ids=["nan-weight", "nan-entry", "inf-entry"])
def test_non_finite_input_exit_code(tmp_path, capsys, entries, weights):
    (tmp_path / "a.mat").write_text("3\n" + entries)
    argv = ["norm", str(tmp_path / "a.mat")]
    if weights is not None:
        (tmp_path / "w.txt").write_text(weights)
        argv += ["--p", str(tmp_path / "w.txt")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be finite" in captured.err


def test_props_star_counts_ignore_the_weights(tmp_path, capsys):
    graphs = {"star": (mm.star_graph(4), "0.1 0.2 0.3 0.4"),
              "p5": (mm.path_graph(5), "0.1 0.1 0.2 0.2 0.4")}
    for name, (graph, weight_text) in graphs.items():
        path = tmp_path / f"{name}.graph"
        path.write_text(f"{graph.n}\n" + "".join(f"{u} {v}\n" for u, v in graph.edges))
        (tmp_path / "w.txt").write_text(weight_text)
        expected = [f"hom_star,{k},{mm.count_homomorphisms(mm.star_graph(k), graph)}"
                    for k in (2, 3, 4)]
        for weights in ("uniform", "stationary", str(tmp_path / "w.txt")):
            assert main(["props", str(path), "--format", "graph", "--p", weights]) == 0
            rows = capsys.readouterr().out.splitlines()
            assert [row for row in rows if row.startswith("hom_star")] == expected


def test_module_entry_point(inputs):
    proc = subprocess.run(
        [sys.executable, "-m", "matmeasure", "norm", str(inputs / "ex24.mat")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("3 ")
