import pytest

from oracles import prime_subfield

from matroidlab.field import make_field, subgroup_of_order
from matroidlab.linalg import Matrix, Subspace
from matroidlab.constructions import Graph, complete_graph
from matroidlab.templates import AdditiveSpan, FrameTemplate, SubfieldTemplate
from matroidlab.fileio import (
    ParseError,
    read_graph,
    read_matrix,
    read_template,
    write_graph,
    write_matrix,
    write_template,
)

GF2 = make_field(2, 1)
GF4 = make_field(2, 2)


def test_matrix_round_trip_prime_field():
    A = Matrix(GF2, ("r0", "r1"), (0, 1, 2), [[1, 0, 1], [0, 1, 1]])
    assert read_matrix(write_matrix(A)) == A


def test_matrix_round_trip_extension_field():
    A = Matrix(GF4, (0,), ("a", "b"), [[2, 3]])
    text = write_matrix(A)
    assert "poly 1 1 1" in text  # x^2 + x + 1, little-endian
    assert read_matrix(text) == A


def test_matrix_labels_parse_back_as_ints():
    A = Matrix(GF2, (0, 1), (10, 20), [[1, 0], [0, 1]])
    B = read_matrix(write_matrix(A))
    assert B.rows == (0, 1) and B.cols == (10, 20)


def test_matrix_bad_body_rejected():
    text = "gf 2 1\nrows a\ncols x y\n1\n"
    with pytest.raises(ParseError):
        read_matrix(text)


def test_graph_round_trip():
    G = Graph.from_edges(range(4), [(0, 1), (1, 2), (0, 3)])
    assert read_graph(write_graph(G)) == G
    assert read_graph(write_graph(complete_graph(4))) == complete_graph(4)


def test_subfield_template_round_trip():
    emb = prime_subfield(GF4)
    tmpl = SubfieldTemplate(
        emb, ("c",), ("d",), ("y",),
        Matrix(GF4, ("d",), ("c",), [[2]]),
        Matrix(GF4, ("d",), ("y",), [[1]]),
        Subspace(GF2, ("d",), [(1,)]),
        Subspace(GF2, ("c", "y"), [(1, 1)]),
    )
    assert read_template(write_template(tmpl)) == tmpl


def test_frame_template_round_trip():
    gamma = subgroup_of_order(GF4, 3)
    tmpl = FrameTemplate(
        gamma, (), ("d",), ("x",), ("y0",), (),
        Matrix(GF4, ("d", "x"), ("y0",), [[1], [2]]),
        AdditiveSpan(GF4, ("d",), [(1,), (2,)]),
        AdditiveSpan(GF4, ("y0",), []),
    )
    assert read_template(write_template(tmpl)) == tmpl


def test_trivial_frame_template_round_trip():
    tmpl = FrameTemplate.trivial(subgroup_of_order(GF2, 1))
    assert read_template(write_template(tmpl)) == tmpl


def test_template_requires_header():
    with pytest.raises(ParseError):
        read_template("gf 2 1\n")
