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

Template file: a `template subfield|frame` line, the field, then the
template pieces in order; see read_template.

Blank lines are ignored everywhere, so a row of width 0 has no line.
Label tokens that look like integers are read back as integers, so files
round-trip construction labels exactly; the writers refuse a string label
that would read back as an integer, such as "7".  Every reader either
returns a value or raises a ToolkitError.
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
    """The token written for `label`; it must read back as the same label,
    so a string that _label would read as an int ("7", "+5", "1_0") is
    rejected."""
    s = str(label)
    if not s or any(ch.isspace() for ch in s):
        raise LabelMismatch(f"label {label!r} cannot be serialized")
    if _label(s) != label:
        raise LabelMismatch(f"label {label!r} would read back as {_label(s)!r}")
    return s


def _ints(tokens):
    try:
        return list(map(int, tokens))
    except ValueError:
        raise ParseError(f"expected integers, got {' '.join(tokens)!r}") from None


def _codes(tokens, n, q):
    """The tokens as n integer codes in range(q)."""
    codes = _ints(tokens)
    if len(codes) != n or codes and (min(codes) < 0 or max(codes) >= q):
        raise ParseError(f"expected {n} codes below {q}, got {' '.join(tokens)!r}")
    return codes


class _Cursor:
    """The tokens of a file's non-blank lines, taken in order."""

    def __init__(self, text):
        self.lines = [ln.split() for ln in text.splitlines() if ln.strip()]
        self.at = 0

    def peek(self):
        """The first token of the next line; None at the end."""
        return self.lines[self.at][0] if self.at < len(self.lines) else None

    def line(self, keyword, count=None):
        """Take the next line, which must be `keyword` followed by exactly
        count tokens when count is given; return the tokens after it."""
        tokens = self.lines[self.at] if self.at < len(self.lines) else [None]
        if tokens[0] != keyword or count not in (None, len(tokens) - 1):
            want = f"a {keyword!r} line" + (f" with {count} values" if count else "")
            raise ParseError(f"expected {want}, got {self._rest()}")
        self.at += 1
        return tokens[1:]

    def row(self, n, q):
        """Take one row of n codes in range(q); a row of width 0 has no line."""
        if not n:
            return []
        if self.at == len(self.lines):
            raise ParseError(f"expected a row of {n} codes, got the end of the file")
        self.at += 1
        return _codes(self.lines[self.at - 1], n, q)

    def end(self):
        if self.at < len(self.lines):
            raise ParseError(f"unexpected {self._rest()}")

    def _rest(self):
        if self.at == len(self.lines):
            return "the end of the file"
        return f"line {' '.join(self.lines[self.at])!r}"


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

def _field_lines(keyword, F, poly):
    lines = [f"{keyword} {F.p} {F.k}"]
    if poly:
        lines.append("poly " + " ".join(str(c) for c in F.modulus))
    return lines


def _read_field(cur, keyword):
    """`keyword <p> <k>`, then an optional `poly` line, which is ignored when
    k = 1; without one, or with make_field's modulus, the field is
    make_field's own object."""
    p, k = _ints(cur.line(keyword, 2))
    poly = cur.line("poly") if cur.peek() == "poly" else None
    if poly is None or k == 1:
        return make_field(p, k)
    modulus = tuple(_codes(poly, k + 1, p))
    default = make_field(p, k)
    if modulus == default.modulus:
        return default
    try:
        return FiniteField(p, k, modulus=modulus)
    except ValueError as exc:
        raise ParseError(f"bad 'poly' line: {exc}") from None


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def write_matrix(A: Matrix) -> str:
    lines = _field_lines("gf", A.field, A.field.k > 1)
    lines.append("rows " + " ".join(_label_str(r) for r in A.rows))
    lines.append("cols " + " ".join(_label_str(c) for c in A.cols))
    for row in A.data:
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def read_matrix(text: str) -> Matrix:
    cur = _Cursor(text)
    F = _read_field(cur, "gf")
    rows = [_label(t) for t in cur.line("rows")]
    cols = [_label(t) for t in cur.line("cols")]
    data = [cur.row(len(cols), F.q) for _ in rows]
    cur.end()
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
    cur = _Cursor(text)
    vertices = [_label(t) for t in cur.line("vertices")]
    edges = []
    while cur.peek() is not None:
        edges.append([_label(t) for t in cur.line("edge", 2)])
    return Graph.from_edges(vertices, edges)


# ---------------------------------------------------------------------------
# templates
# ---------------------------------------------------------------------------

def _block(cur, keyword, count, n, q):
    """The `keyword` line, then rows of n codes in range(q): count of them,
    or when count is None, every row up to the `delta` line or the end."""
    cur.line(keyword, 0)
    if count is not None:
        return [cur.row(n, q) for _ in range(count)]
    rows = []
    while n and cur.peek() not in ("delta", None):
        rows.append(cur.row(n, q))
    return rows


def read_template(text: str):
    """Parse a subfield or frame template.

    Layout: `template <kind>`, then the field F (`gf`, optional `poly`).
    For the subfield kind, a `subfield <p> <k>` line names F0, followed by
    a `poly` line when F0's modulus is not make_field's; for the frame
    kind, a `gamma <codes...>` line names Gamma.  That line and the
    optional set lines (C/D/Y or C/D/X/Y0/Y1) come in any order.  Then
    the blocks `A1`, (`A2`,) `lambda`, `delta`, each a keyword line
    followed by rows of integer codes in sorted label order: codes of F in
    A1 and in frame generators, codes of F0 in A2 and subfield generators.
    """
    cur = _Cursor(text)
    (kind,) = cur.line("template", 1)
    F = _read_field(cur, "gf")
    named = {"subfield": ("subfield", "C", "D", "Y"),
             "frame": ("gamma", "C", "D", "X", "Y0", "Y1")}.get(kind)
    if named is None:
        raise ParseError(f"unknown template kind {kind!r}")
    sets = dict.fromkeys(named, ())
    sub = gamma = None
    while (head := cur.peek()) in named:
        if head == "subfield":
            sub = _read_field(cur, "subfield")
        elif head == "gamma":
            tokens = cur.line("gamma")
            try:
                gamma = MultSubgroup(F, frozenset(_codes(tokens, len(tokens), F.q)))
            except ValueError as exc:
                raise ParseError(f"bad 'gamma' line: {exc}") from None
        else:
            sets[head] = tuple(_label(t) for t in cur.line(head))
    C, D = sets["C"], sets["D"]

    if kind == "subfield":
        if sub is None:
            raise ParseError("subfield template needs a 'subfield <p> <k>' line")
        emb = _embedding(sub, F)
        Y = sets["Y"]
        a1 = _block(cur, "A1", len(D), len(C), F.q)
        a2 = _block(cur, "A2", len(D), len(Y), sub.q)
        lam = _block(cur, "lambda", None, len(D), sub.q)
        delta = _block(cur, "delta", None, len(C) + len(Y), sub.q)
        cur.end()
        rows = sort_labels(D)
        return SubfieldTemplate(
            emb, C, D, Y,
            Matrix(F, rows, sort_labels(C), a1),
            Matrix(F, rows, sort_labels(Y), [[emb.embed(x) for x in r] for r in a2]),
            Subspace(sub, rows, lam),
            Subspace(sub, sort_labels(C + Y), delta))

    if gamma is None:
        raise ParseError("frame template needs a 'gamma <codes...>' line")
    X, Y0, Y1 = sets["X"], sets["Y0"], sets["Y1"]
    rows = sort_labels(D + X)
    cols = sort_labels(C + Y0 + Y1)
    a1 = _block(cur, "A1", len(rows), len(cols), F.q)
    lam = _block(cur, "lambda", None, len(D), F.q)
    delta = _block(cur, "delta", None, len(cols), F.q)
    cur.end()
    return FrameTemplate(gamma, C, D, X, Y0, Y1, Matrix(F, rows, cols, a1),
                         AdditiveSpan(F, sort_labels(D), lam),
                         AdditiveSpan(F, cols, delta))


def write_template(tmpl) -> str:
    F = tmpl.field
    if isinstance(tmpl, SubfieldTemplate):
        kind, sub = "subfield", tmpl.emb.sub
        named = _field_lines("subfield", sub, sub != make_field(sub.p, sub.k))
        sets = (("C", tmpl.C), ("D", tmpl.D), ("Y", tmpl.Y))
        rows = sort_labels(tmpl.D)
        back = tmpl.emb.back
        A2 = tmpl.A2.submatrix(rows, sort_labels(tmpl.Y))
        blocks = (("A1", tmpl.A1.submatrix(rows, sort_labels(tmpl.C)).data),
                  ("A2", [[back[x] for x in row] for row in A2.data]),
                  ("lambda", tmpl.lam.basis),
                  ("delta", tmpl.delta.basis))
    else:
        kind = "frame"
        named = ["gamma " + " ".join(str(x) for x in sorted(tmpl.gamma.elements))]
        sets = (("C", tmpl.C), ("D", tmpl.D), ("X", tmpl.X),
                ("Y0", tmpl.Y0), ("Y1", tmpl.Y1))
        rows = sort_labels(tuple(tmpl.D) + tuple(tmpl.X))
        cols = sort_labels(tuple(tmpl.C) + tuple(tmpl.Y0) + tuple(tmpl.Y1))
        blocks = (("A1", tmpl.A1.submatrix(rows, cols).data),
                  ("lambda", tmpl.lam.generators()),
                  ("delta", tmpl.delta.generators()))
    lines = [f"template {kind}", *_field_lines("gf", F, F.k > 1), *named]
    lines += [name + " " + " ".join(_label_str(x) for x in labels)
              for name, labels in sets if labels]
    for name, block in blocks:
        lines.append(name)
        lines += [" ".join(str(x) for x in row) for row in block]
    return "\n".join(lines) + "\n"
