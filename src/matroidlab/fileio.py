"""Plain-text interchange formats.

Matrix file::

    gf <p> <k>
    poly <c_0> ... <c_k>     (only when k > 1; little-endian coefficients)
    rows <labels...>
    cols <labels...>
    <one line of integer codes per row>

Graph file::

    vertices <labels...>
    edge <u> <v>             (one line per edge)

Template file: a `template subfield|frame` header, the field, then the
template pieces in order; see read_template.  Label tokens that look like
integers are read back as integers, so files round-trip construction
labels exactly.
"""

from .errors import LabelMismatch, ToolkitError
from .field import FiniteField, MultSubgroup, _embedding, make_field
from .linalg import Matrix, Subspace, sort_labels
from .constructions import Graph
from .templates import AdditiveSpan, FrameTemplate, SubfieldTemplate


class ParseError(ToolkitError):
    pass


def _label(token: str):
    try:
        return int(token)
    except ValueError:
        return token


def _label_str(label) -> str:
    s = str(label)
    if not s or any(ch.isspace() for ch in s):
        raise LabelMismatch(f"label {label!r} cannot be serialized")
    return s


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

def field_header_lines(F: FiniteField):
    lines = [f"gf {F.p} {F.k}"]
    if F.k > 1:
        lines.append("poly " + " ".join(str(c) for c in F.modulus))
    return lines


def _parse_field(lines, idx):
    parts = lines[idx].split()
    if len(parts) != 3 or parts[0] != "gf":
        raise ParseError(f"expected 'gf <p> <k>', got {lines[idx]!r}")
    p, k = int(parts[1]), int(parts[2])
    idx += 1
    modulus = None
    if idx < len(lines) and lines[idx].startswith("poly"):
        modulus = tuple(int(t) for t in lines[idx].split()[1:])
        idx += 1
    if k > 1:
        F = FiniteField(p, k, modulus=modulus)
    else:
        F = make_field(p, k)
    return F, idx


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def write_matrix(A: Matrix) -> str:
    lines = field_header_lines(A.field)
    lines.append("rows " + " ".join(_label_str(r) for r in A.rows))
    lines.append("cols " + " ".join(_label_str(c) for c in A.cols))
    for row in A.data:
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def read_matrix(text: str) -> Matrix:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty matrix file")
    F, idx = _parse_field(lines, 0)
    if idx >= len(lines) or not lines[idx].startswith("rows"):
        raise ParseError("missing 'rows' line")
    rows = tuple(_label(t) for t in lines[idx].split()[1:])
    idx += 1
    if idx >= len(lines) or not lines[idx].startswith("cols"):
        raise ParseError("missing 'cols' line")
    cols = tuple(_label(t) for t in lines[idx].split()[1:])
    idx += 1
    data = []
    for r in rows:
        if idx >= len(lines):
            raise ParseError("matrix body ended early")
        entries = [int(t) for t in lines[idx].split()]
        if len(entries) != len(cols):
            raise ParseError(f"row {r!r} has {len(entries)} entries, want {len(cols)}")
        data.append(entries)
        idx += 1
    if idx != len(lines):
        raise ParseError("trailing content after matrix body")
    return Matrix(F, rows, cols, data)


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------

def write_graph(G: Graph) -> str:
    lines = ["vertices " + " ".join(_label_str(v) for v in G.vertices)]
    for u, v in G.edges:
        lines.append(f"edge {_label_str(u)} {_label_str(v)}")
    return "\n".join(lines) + "\n"


def read_graph(text: str) -> Graph:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("vertices"):
        raise ParseError("graph file must start with a 'vertices' line")
    vertices = [_label(t) for t in lines[0].split()[1:]]
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] != "edge" or len(parts) != 3:
            raise ParseError(f"bad edge line: {ln!r}")
        edges.append((_label(parts[1]), _label(parts[2])))
    return Graph.from_edges(vertices, edges)


# ---------------------------------------------------------------------------
# templates
# ---------------------------------------------------------------------------

def _read_block(lines, idx, n_rows, n_cols):
    data = []
    for _ in range(n_rows):
        if idx >= len(lines):
            raise ParseError("matrix block ended early")
        entries = [int(t) for t in lines[idx].split()]
        if len(entries) != n_cols:
            raise ParseError(f"block row has {len(entries)} entries, want {n_cols}")
        data.append(entries)
        idx += 1
    return data, idx


def _read_vectors(lines, idx, n_cols):
    out = []
    while idx < len(lines):
        parts = lines[idx].split()
        try:
            vec = [int(t) for t in parts]
        except ValueError:
            break
        if len(vec) != n_cols:
            raise ParseError(f"generator has {len(vec)} coordinates, want {n_cols}")
        out.append(vec)
        idx += 1
    return out, idx


def read_template(text: str):
    """Parse a subfield or frame template.

    Layout: `template <kind>`, field lines, then for the subfield kind a
    `subfield <p> <k>` line, for the frame kind a `gamma <codes...>` line;
    then optional set lines (C/D/Y or C/D/X/Y0/Y1); then blocks `A1`,
    (`A2`,) `lambda`, `delta`, each followed by rows of integer codes.
    Block rows follow sorted label order.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("template"):
        raise ParseError("template file must start with 'template <kind>'")
    kind = lines[0].split()[1]
    F, idx = _parse_field(lines, 1)
    sets = {name: () for name in ("C", "D", "Y", "X", "Y0", "Y1")}
    sub = None
    gamma = None
    while idx < len(lines):
        parts = lines[idx].split()
        head = parts[0]
        if head == "subfield":
            sub = make_field(int(parts[1]), int(parts[2]))
            idx += 1
        elif head == "gamma":
            gamma = MultSubgroup(F, frozenset(int(t) for t in parts[1:]))
            idx += 1
        elif head in sets:
            sets[head] = tuple(_label(t) for t in parts[1:])
            idx += 1
        else:
            break
    C, D, Y = sets["C"], sets["D"], sets["Y"]
    X, Y0, Y1 = sets["X"], sets["Y0"], sets["Y1"]

    def expect(keyword):
        nonlocal idx
        if idx >= len(lines) or lines[idx] != keyword:
            raise ParseError(f"expected {keyword!r} block")
        idx += 1

    if kind == "subfield":
        if sub is None:
            raise ParseError("subfield template needs a 'subfield <p> <k>' line")
        emb = _embedding(sub, F)
        expect("A1")
        a1, idx = _read_block(lines, idx, len(D), len(C))
        expect("A2")
        a2raw, idx = _read_block(lines, idx, len(D), len(Y))
        a2 = [[emb.embed(x) for x in row] for row in a2raw]
        expect("lambda")
        lam_vecs, idx = _read_vectors(lines, idx, len(D))
        expect("delta")
        delta_vecs, idx = _read_vectors(lines, idx, len(C) + len(Y))
        lam = Subspace(sub, sort_labels(D), lam_vecs)
        delta = Subspace(sub, sort_labels(tuple(C) + tuple(Y)), delta_vecs)
        A1 = Matrix(F, sort_labels(D), sort_labels(C), a1)
        A2 = Matrix(F, sort_labels(D), sort_labels(Y), a2)
        return SubfieldTemplate(emb, C, D, Y, A1, A2, lam, delta)

    if kind == "frame":
        if gamma is None:
            raise ParseError("frame template needs a 'gamma <codes...>' line")
        named_rows = sort_labels(tuple(D) + tuple(X))
        named_cols = sort_labels(tuple(C) + tuple(Y0) + tuple(Y1))
        expect("A1")
        a1, idx = _read_block(lines, idx, len(named_rows), len(named_cols))
        expect("lambda")
        lam_vecs, idx = _read_vectors(lines, idx, len(D))
        expect("delta")
        delta_vecs, idx = _read_vectors(lines, idx, len(named_cols))
        A1 = Matrix(F, named_rows, named_cols, a1)
        lam = AdditiveSpan(F, sort_labels(D), lam_vecs)
        delta = AdditiveSpan(F, named_cols, delta_vecs)
        return FrameTemplate(gamma, C, D, X, Y0, Y1, A1, lam, delta)

    raise ParseError(f"unknown template kind {kind!r}")


def write_template(tmpl) -> str:
    if isinstance(tmpl, SubfieldTemplate):
        lines = ["template subfield"]
        lines += field_header_lines(tmpl.field)
        lines.append(f"subfield {tmpl.emb.sub.p} {tmpl.emb.sub.k}")
        for name, labels in (("C", tmpl.C), ("D", tmpl.D), ("Y", tmpl.Y)):
            if labels:
                lines.append(name + " " + " ".join(_label_str(x) for x in labels))
        lines.append("A1")
        A1 = tmpl.A1.submatrix(sort_labels(tmpl.D), sort_labels(tmpl.C))
        lines += [" ".join(str(x) for x in row) for row in A1.data]
        lines.append("A2")
        back = {v: i for i, v in enumerate(tmpl.emb.fwd)}
        A2 = tmpl.A2.submatrix(sort_labels(tmpl.D), sort_labels(tmpl.Y))
        lines += [" ".join(str(back[x]) for x in row) for row in A2.data]
        lines.append("lambda")
        lines += [" ".join(str(x) for x in row) for row in tmpl.lam.basis]
        lines.append("delta")
        lines += [" ".join(str(x) for x in row) for row in tmpl.delta.basis]
        return "\n".join(lines) + "\n"
    lines = ["template frame"]
    lines += field_header_lines(tmpl.field)
    lines.append("gamma " + " ".join(str(x) for x in sorted(tmpl.gamma.elements)))
    for name, labels in (("C", tmpl.C), ("D", tmpl.D), ("X", tmpl.X),
                         ("Y0", tmpl.Y0), ("Y1", tmpl.Y1)):
        if labels:
            lines.append(name + " " + " ".join(_label_str(x) for x in labels))
    named_rows = sort_labels(tuple(tmpl.D) + tuple(tmpl.X))
    named_cols = sort_labels(tuple(tmpl.C) + tuple(tmpl.Y0) + tuple(tmpl.Y1))
    lines.append("A1")
    A1 = tmpl.A1.submatrix(named_rows, named_cols)
    lines += [" ".join(str(x) for x in row) for row in A1.data]
    lines.append("lambda")
    lines += [" ".join(str(x) for x in g) for g in tmpl.lam.generators()]
    lines.append("delta")
    lines += [" ".join(str(x) for x in g) for g in tmpl.delta.generators()]
    return "\n".join(lines) + "\n"
