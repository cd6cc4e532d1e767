"""Property tests of the file readers: every writer's text reads back
equal, and a mutated text is either read or rejected with a ToolkitError,
both by the reader and through the CLI (exit 0, 2 or 3)."""

import contextlib
import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_fileio import FANO_TEXT

from matroidlab.cli import main
from matroidlab.constructions import Graph
from matroidlab.errors import LabelMismatch, ToolkitError
from matroidlab.field import FiniteField, _embedding, make_field, mult_subgroups, subfield_lattice
from matroidlab.fileio import (
    read_graph,
    read_matrix,
    read_template,
    write_graph,
    write_matrix,
    write_template,
)
from matroidlab.linalg import Matrix, Subspace, sort_labels
from matroidlab.templates import AdditiveSpan, FrameTemplate, SubfieldTemplate

FIELDS = (make_field(2, 1), make_field(3, 1), make_field(2, 2),
          FiniteField(2, 3, modulus=(1, 0, 1, 1)), make_field(257, 1))
PROPS = settings(derandomize=True, max_examples=40, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])

fields = st.sampled_from(FIELDS)
labels = st.one_of(st.integers(-3, 20), st.text("abxyz_", min_size=1, max_size=3))


def codes(draw, q, n):
    return [draw(st.integers(0, q - 1)) for _ in range(n)]


def block(draw, q, n_rows, n_cols):
    return [codes(draw, q, n_cols) for _ in range(n_rows)]


def split(draw, names):
    """Disjoint label tuples, one per name, at most 6 labels in all."""
    pool = draw(st.lists(labels, unique=True, max_size=6))
    parts = {name: [] for name in names}
    for lbl in pool:
        parts[draw(st.sampled_from(names))].append(lbl)
    return [tuple(parts[name]) for name in names]


@st.composite
def matrices(draw):
    F = draw(fields)
    rows, cols = split(draw, ("rows", "cols"))
    return Matrix(F, rows, cols, block(draw, F.q, len(rows), len(cols)))


@st.composite
def graphs(draw):
    vertices = draw(st.lists(labels, unique=True, max_size=5))
    pairs = [(u, v) for i, u in enumerate(vertices) for v in vertices[i + 1:]]
    return Graph.from_edges(vertices, draw(st.lists(st.sampled_from(pairs), unique=True))
                            if pairs else [])


@st.composite
def subfield_templates(draw):
    F = draw(fields)
    emb = draw(st.sampled_from(subfield_lattice(F) + [_embedding(F, F)]))
    C, D, Y = split(draw, ("C", "D", "Y"))
    sub, rows = emb.sub, sort_labels(D)
    a2 = [[emb.embed(x) for x in r] for r in block(draw, sub.q, len(D), len(Y))]
    return SubfieldTemplate(
        emb, C, D, Y,
        Matrix(F, rows, sort_labels(C), block(draw, F.q, len(D), len(C))),
        Matrix(F, rows, sort_labels(Y), a2),
        Subspace(sub, rows, block(draw, sub.q, draw(st.integers(0, 2)), len(D))),
        Subspace(sub, sort_labels(C + Y),
                 block(draw, sub.q, draw(st.integers(0, 2)), len(C) + len(Y))))


def closed_span(draw, gamma, ambient):
    F = gamma.field
    gens = block(draw, F.q, draw(st.integers(0, 2)), len(ambient))
    return AdditiveSpan(F, ambient, [[F.mul(g, x) for x in v]
                                     for g in sorted(gamma.elements) for v in gens])


@st.composite
def frame_templates(draw):
    F = draw(fields.filter(lambda F: F.q < 257))
    gamma = draw(st.sampled_from(mult_subgroups(F)))
    C, D, X, Y0, Y1 = split(draw, ("C", "D", "X", "Y0", "Y1"))
    rows, cols = sort_labels(D + X), sort_labels(C + Y0 + Y1)
    return FrameTemplate(gamma, C, D, X, Y0, Y1,
                         Matrix(F, rows, cols, block(draw, F.q, len(rows), len(cols))),
                         closed_span(draw, gamma, sort_labels(D)),
                         closed_span(draw, gamma, cols))


templates = st.one_of(subfield_templates(), frame_templates())

TOKENS = st.one_of(st.integers(-1, 9).map(str), st.sampled_from(
    ["gf", "poly", "rows", "cols", "vertices", "edge", "template", "subfield",
     "frame", "gamma", "C", "D", "Y", "X", "Y0", "Y1", "A1", "A2", "lambda",
     "delta", "x", "1.5"]))


@st.composite
def mutated(draw, texts):
    """A text with one token deleted, replaced or appended, or one line
    dropped or inserted."""
    lines = [ln.split() for ln in draw(texts).splitlines()]
    i = draw(st.integers(0, len(lines) - 1))
    how = draw(st.sampled_from(["delete", "replace", "append", "drop", "insert"]))
    if how == "drop":
        del lines[i]
    elif how == "insert":
        lines.insert(i, draw(st.lists(TOKENS, max_size=4)))
    elif how == "append":
        lines[i].append(draw(TOKENS))
    elif lines[i]:
        j = draw(st.integers(0, len(lines[i]) - 1))
        lines[i][j:j + 1] = [] if how == "delete" else [draw(TOKENS)]
    return "\n".join(" ".join(ln) for ln in lines) + "\n"


def read_or_reject(reader, text):
    try:
        reader(text)
    except ToolkitError:
        pass


@PROPS
@given(matrices())
def test_matrix_round_trip(A):
    assert read_matrix(write_matrix(A)) == A


@PROPS
@given(graphs())
def test_graph_round_trip(G):
    assert read_graph(write_graph(G)) == G


@PROPS
@given(templates)
def test_template_round_trip(tmpl):
    assert read_template(write_template(tmpl)) == tmpl


@PROPS
@given(st.lists(st.one_of(st.integers(-30, 30), st.text("0123456789+-_a", min_size=1,
                                                            max_size=4)),
                unique=True, min_size=1, max_size=4))
def test_labels_round_trip_or_rejected(cols):
    """A label that would read back as another value (the string "7" as
    the int 7, "1_0" as 10) is refused; every other label round-trips."""
    A = Matrix(FIELDS[0], ("r",), cols, [[1] * len(cols)])
    try:
        text = write_matrix(A)
    except LabelMismatch:
        assert any(isinstance(c, str) and _is_int(c) for c in cols)
    else:
        assert read_matrix(text) == A


def _is_int(token):
    try:
        int(token)
    except ValueError:
        return False
    return True


@PROPS
@given(mutated(matrices().map(write_matrix)))
def test_mutated_matrix_read_or_rejected(text):
    read_or_reject(read_matrix, text)


@PROPS
@given(mutated(graphs().map(write_graph)))
def test_mutated_graph_read_or_rejected(text):
    read_or_reject(read_graph, text)


@PROPS
@given(mutated(templates.map(write_template)))
def test_mutated_template_read_or_rejected(text):
    read_or_reject(read_template, text)


def cli_exit(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


# {m} is the mutated matrix file, {fano} a valid one
MATRIX_COMMANDS = ("dual {m}", "girth {m}", "cogirth {m}", "vconn {m}",
                   "confine {m} --sub 2 1", "code params {m}", "minor {fano} {m}",
                   "minor {m} {m}")


@PROPS
@given(mutated(matrices().map(write_matrix)))
def test_mutated_matrix_through_cli(tmp_path_factory, text):
    work = tmp_path_factory.mktemp("cli")
    (work / "m.mat").write_text(text)
    (work / "fano.mat").write_text(FANO_TEXT)
    for command in MATRIX_COMMANDS:
        argv = [a.format(m=work / "m.mat", fano=work / "fano.mat") for a in command.split()]
        assert cli_exit(argv) in (0, 2, 3), command


@PROPS
@given(mutated(templates.map(write_template)))
def test_mutated_template_through_cli(tmp_path_factory, text):
    work = tmp_path_factory.mktemp("check")
    (work / "t.tmpl").write_text(text)
    (work / "m.mat").write_text(FANO_TEXT)
    assert cli_exit(["template", "check", str(work / "t.tmpl"), str(work / "m.mat")]) in (0, 2, 3)
