import numpy as np
import pytest

import matmeasure as mm
from matmeasure import fileio


def test_parse_graph_with_comments_and_declared_count():
    text = "# a square\n4\n0 1\n1 2\n2 3\n0 3  # closing edge\n"
    g = fileio.parse_graph(text)
    assert g.n == 4
    assert len(g.edges) == 4


def test_parse_graph_infers_vertex_count():
    g = fileio.parse_graph("0 1\n1 2\n")
    assert g.n == 3


def test_parse_graph_error_carries_line_number():
    with pytest.raises(ValueError, match="3"):
        fileio.parse_graph("0 1\n1 2\n2 2\n", name="bad.graph")
    with pytest.raises(ValueError, match="bad.graph:2"):
        fileio.parse_graph("0 1\nx y\n", name="bad.graph")
    with pytest.raises(ValueError, match="beyond declared"):
        fileio.parse_graph("2\n0 5\n")
    with pytest.raises(ValueError, match="empty"):
        fileio.parse_graph("# nothing\n")


def test_parse_matrix():
    a = fileio.parse_matrix("2\n0 2\n3 1\n")
    assert a.tolist() == [[0.0, 2.0], [3.0, 1.0]]


def test_parse_matrix_errors():
    with pytest.raises(ValueError, match="2"):
        fileio.parse_matrix("2\n0 2 9\n3 1\n", name="m.mat")
    with pytest.raises(ValueError, match="rows"):
        fileio.parse_matrix("3\n0 1 0\n")
    with pytest.raises(ValueError, match="non-numeric"):
        fileio.parse_matrix("1\nq\n")


def test_load_measured_auto_detects(tmp_path):
    matrix_file = tmp_path / "a.mat"
    matrix_file.write_text("2\n0 2\n3 1\n")
    m = fileio.load_measured(matrix_file)
    assert m.entries.tolist() == [[0.0, 2.0], [3.0, 1.0]]

    graph_file = tmp_path / "g.graph"
    graph_file.write_text("0 1\n1 2\n0 2\n")
    g = fileio.load_measured(graph_file)
    assert np.array_equal(g.entries, mm.adjacency(mm.complete_graph(3)).entries)


def test_load_measured_representations(tmp_path):
    graph_file = tmp_path / "g.graph"
    graph_file.write_text("0 1\n")
    lap = fileio.load_measured(graph_file, rep="normalized")
    assert lap.entries.tolist() == [[1.0, -1.0], [-1.0, 1.0]]
    kir = fileio.load_measured(graph_file, rep="kirchhoff")
    assert kir.entries.tolist() == [[1.0, -1.0], [-1.0, 1.0]]
    with pytest.raises(ValueError):
        fileio.load_measured(graph_file, rep="bogus")


def test_load_measured_weight_choices(tmp_path):
    graph_file = tmp_path / "g.graph"
    graph_file.write_text("0 1\n0 2\n0 3\n")
    stationary = fileio.load_measured(graph_file, weights="stationary")
    assert np.allclose(stationary.p, [0.5, 1 / 6, 1 / 6, 1 / 6])

    weight_file = tmp_path / "w.txt"
    weight_file.write_text("0.4\n0.2\n0.2\n0.2\n")
    custom = fileio.load_measured(graph_file, weights=str(weight_file))
    assert np.allclose(custom.p, [0.4, 0.2, 0.2, 0.2])

    matrix_file = tmp_path / "a.mat"
    matrix_file.write_text("2\n0 1\n1 0\n")
    with pytest.raises(ValueError, match="stationary"):
        fileio.load_measured(matrix_file, weights="stationary")


def test_format_override(tmp_path):
    # A single-integer header with integer pair rows parses as a matrix in
    # auto mode; forcing graph mode reads the declared-count form instead.
    ambiguous = tmp_path / "two.txt"
    ambiguous.write_text("2\n0 1\n1 0\n")
    as_matrix = fileio.load_measured(ambiguous)
    assert as_matrix.entries.tolist() == [[0.0, 1.0], [1.0, 0.0]]
    as_graph = fileio.load_measured(ambiguous, fmt="graph")
    assert as_graph.entries.tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_auto_format_refuses_readings_that_differ(tmp_path):
    # K2 with its edge listed twice reads as the 2x2 identity matrix, which
    # is not K2's adjacency matrix.
    twice = tmp_path / "k2_twice.txt"
    twice.write_text("2\n1 0\n0 1\n")
    with pytest.raises(ValueError, match="--format"):
        fileio.load_measured(twice)
    assert fileio.load_measured(twice, fmt="matrix").entries.tolist() == [[1.0, 0.0],
                                                                         [0.0, 1.0]]
    assert fileio.load_measured(twice, fmt="graph").entries.tolist() == [[0.0, 1.0],
                                                                        [1.0, 0.0]]
    # The readings of test_format_override agree under adjacency, but not
    # under the Kirchhoff representation.
    agree = tmp_path / "two.txt"
    agree.write_text("2\n0 1\n1 0\n")
    with pytest.raises(ValueError, match="--format"):
        fileio.load_measured(agree, rep="kirchhoff")


def test_rep_is_refused_for_matrix_readings(tmp_path):
    matrix_only = tmp_path / "only.mat"
    matrix_only.write_text("2\n0 2.5\n3 1\n")
    for fmt in ("matrix", "auto"):
        for rep in ("kirchhoff", "normalized"):
            with pytest.raises(ValueError, match="--rep"):
                fileio.load_measured(matrix_only, rep=rep, fmt=fmt)
        assert fileio.load_measured(matrix_only, fmt=fmt).entries.tolist() == [[0.0, 2.5],
                                                                               [3.0, 1.0]]
    both = tmp_path / "both.txt"
    both.write_text("2\n0 1\n1 0\n")
    with pytest.raises(ValueError, match="--rep"):
        fileio.load_measured(both, rep="kirchhoff", fmt="matrix")
    assert fileio.load_measured(both, rep="kirchhoff", fmt="graph").entries.tolist() == [
        [1.0, -1.0], [-1.0, 1.0]]


def test_fmt17_is_precise():
    value = 1.0 / 3.0
    assert float(fileio.fmt17(value)) == value
    assert fileio.fmt17(0.125) == "0.125"


def test_dist_csv_row_layout():
    row = fileio.dist_csv_row("a", "b", 1, 0.125, 0.0, 10, 42, "sampled",
                              "adjacency", "euclidean")
    assert row == "a,b,1,0.125,0,10,42,sampled,adjacency,euclidean"
