from pathlib import Path

import pytest

from oracles import prime_subfield

from matroidlab.cli import main
from matroidlab.errors import NotASubfield, ToolkitError
from matroidlab.field import FiniteField, make_field, subgroup_of_order
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


# ---------------------------------------------------------------------------
# malformed files exit 2 through the CLI, with a one-line message
# ---------------------------------------------------------------------------

FANO_TEXT = "gf 2 1\nrows 0 1 2\ncols 0 1 2 3 4 5 6\n" \
    "1 0 0 1 1 0 1\n0 1 0 1 0 1 1\n0 0 1 0 1 1 1\n"

BAD_TEMPLATES = {
    "subfield line without k": (
        "template subfield\ngf 2 1\nsubfield 2\nA1\nA2\nlambda\ndelta\n"),
    "template line without kind": (
        "template\ngf 2 1\nsubfield 2 1\nA1\nA2\nlambda\ndelta\n"),
    "A2 entry outside F0": (
        "template subfield\ngf 2 2\npoly 1 1 1\nsubfield 2 1\nC c\nD d\nY y\n"
        "A1\n1\nA2\n2\nlambda\ndelta\n"),
    "lambda code outside F0": (
        "template subfield\ngf 2 2\npoly 1 1 1\nsubfield 2 1\nC c\nD d\nY y\n"
        "A1\n1\nA2\n1\nlambda\n2\ndelta\n"),
    "delta code outside F0": (
        "template subfield\ngf 2 2\npoly 1 1 1\nsubfield 2 1\nC c\nD d\nY y\n"
        "A1\n1\nA2\n1\nlambda\ndelta\n1 3\n"),
    "frame generator code outside F": (
        "template frame\ngf 2 2\npoly 1 1 1\ngamma 1\nY0 y\nA1\nlambda\ndelta\n7\n"),
    "gamma code outside F": (
        "template frame\ngf 2 2\npoly 1 1 1\ngamma 1 7\nA1\nlambda\ndelta\n"),
    "F0 of another characteristic": (
        "template subfield\ngf 2 1\nsubfield 3 1\nA1\nA2\nlambda\ndelta\n"),
}


@pytest.mark.parametrize("name", sorted(BAD_TEMPLATES))
def test_malformed_template_exits_2(name, tmp_path, capsys):
    tmpl, mat = tmp_path / "t.tmpl", tmp_path / "m.mat"
    tmpl.write_text(BAD_TEMPLATES[name])
    mat.write_text(FANO_TEXT)
    assert main(["template", "check", str(tmpl), str(mat)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("name", sorted(BAD_TEMPLATES))
def test_malformed_template_rejected_by_reader(name):
    with pytest.raises(ToolkitError):
        read_template(BAD_TEMPLATES[name])


def test_frame_generator_code_outside_field_rejected():
    with pytest.raises(ParseError, match="expected 1 codes below 4, got '7'"):
        read_template(BAD_TEMPLATES["frame generator code outside F"])


def test_subfield_of_another_characteristic_rejected():
    with pytest.raises(NotASubfield):
        read_template(BAD_TEMPLATES["F0 of another characteristic"])


# ---------------------------------------------------------------------------
# round trips the line-by-line layout used to lose
# ---------------------------------------------------------------------------

def test_zero_width_subfield_blocks_round_trip():
    # D = (d,), C = (): A1 is one row of width 0, written as a blank line
    emb = prime_subfield(GF4)
    tmpl = SubfieldTemplate(
        emb, (), ("d",), ("y",),
        Matrix(GF4, ("d",), (), [[]]),
        Matrix(GF4, ("d",), ("y",), [[1]]),
        Subspace(GF2, ("d",), [(1,)]),
        Subspace(GF2, ("y",), []),
    )
    text = write_template(tmpl)
    assert "\nA1\n\nA2\n1\n" in text
    assert read_template(text) == tmpl


def test_zero_width_frame_blocks_round_trip():
    gamma = subgroup_of_order(GF4, 3)
    tmpl = FrameTemplate(
        gamma, (), ("d",), ("x",), (), (),
        Matrix(GF4, ("d", "x"), (), [[], []]),
        AdditiveSpan(GF4, ("d",), [(1,), (2,)]),
        AdditiveSpan(GF4, (), []),
    )
    text = write_template(tmpl)
    assert "\nA1\n\n\nlambda\n" in text
    assert read_template(text) == tmpl


def test_zero_width_matrix_round_trip():
    A = Matrix(GF2, ("r0", "r1"), (), [[], []])
    assert read_matrix(write_matrix(A)) == A


def test_subfield_template_with_non_default_modulus_round_trips():
    F = FiniteField(2, 3, modulus=(1, 0, 1, 1))
    tmpl = SubfieldTemplate.empty(F)
    text = write_template(tmpl)
    assert text == ("template subfield\ngf 2 3\npoly 1 0 1 1\nsubfield 2 3\n"
                    "poly 1 0 1 1\nA1\nA2\nlambda\ndelta\n")
    back = read_template(text)
    assert back == tmpl and back.emb.fwd == tuple(range(8))


def test_default_f0_modulus_writes_no_poly_line():
    text = write_template(SubfieldTemplate.empty(make_field(2, 3)))
    assert text == ("template subfield\ngf 2 3\npoly 1 1 0 1\nsubfield 2 3\n"
                    "A1\nA2\nlambda\ndelta\n")


def test_poly_line_under_prime_field_is_ignored():
    A = read_matrix("gf 3 1\npoly 1 1\nrows r\ncols c\n2\n")
    assert A == Matrix(make_field(3, 1), ("r",), ("c",), [[2]])


def test_set_lines_come_in_any_order():
    blocks = "A1\n1\nlambda\n1\ndelta\n1\n"
    a = read_template("template frame\ngf 2 1\nD d\ngamma 1\nY0 y\n" + blocks)
    b = read_template("template frame\ngf 2 1\nY0 y\nD d\ngamma 1\n" + blocks)
    assert a == b and a.D == ("d",) and a.Y0 == ("y",)


@pytest.mark.parametrize("text", [
    "gf 2 1\nrowsX a\ncols x\n1\n",             # keyword with a suffix
    "gf 2 1\nrows a\ncols x\n1\n1\n",           # a row too many
    "gf 2 1 0\nrows a\ncols x\n1\n",            # extra token on the field line
    "gf 2 2\npoly 1 1\nrows a\ncols x\n1\n",    # modulus of the wrong degree
    "gf 2 2\npoly 1 0 1\nrows a\ncols x\n1\n",  # reducible modulus
    "gf 2 2\npoly 1 3 1\nrows a\ncols x\n1\n",  # coefficient outside GF(2)
    "gf 2 2\npolyX 1 1 1\nrows a\ncols x\n1\n",
    "gf 2 1\nrows a\ncols x\n2\n",              # code outside the field
])
def test_malformed_matrix_rejected(text):
    with pytest.raises(ParseError):
        read_matrix(text)


@pytest.mark.parametrize("text", [
    "verticesX a b\nedge a b\n",
    "vertices a b\nedge a b c\n",
])
def test_malformed_graph_rejected(text):
    with pytest.raises(ParseError):
        read_graph(text)


@pytest.mark.parametrize("text", [
    "templateX frame\ngf 2 1\ngamma 1\nA1\nlambda\ndelta\n",
    "template subfield\ngf 2 1\nsubfield 2 1\nX x\nA1\nA2\nlambda\ndelta\n",
    "template frame extra\ngf 2 1\ngamma 1\nA1\nlambda\ndelta\n",
    "template frame\ngf 2 1\ngamma 0 1\nA1\nlambda\ndelta\n",
    "template frame\ngf 2 1\ngamma 1\nsubfield 2 1\nA1\nlambda\ndelta\n",
    "template subfield\ngf 2 1\nsubfield 2 1 1\nA1\nA2\nlambda\ndelta\n",
    "template subfield\ngf 2 1\nsubfield 2 1\nA1\nA2\nlambda\ndelta\nA1\n",
])
def test_malformed_template_rejected(text):
    with pytest.raises(ParseError):
        read_template(text)


def test_readme_matrix_example_parses():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    example = readme.split("Matrix files")[1].split("```")[1]
    A = read_matrix(example)
    assert A.field == GF4 and A.rows == ("r0", "r1") and A.cols == ("a", "b", "c")
    assert A.data == ((1, 0, 2), (0, 1, 3))
