"""Subfield and frame templates: block-structure predicates on matrices,
realization of the matroids they prescribe, bounded enumeration, and
membership testing.

A template constrains a matrix A in F^(B x (E-B)) block by block; the
matroid it realizes is M([I,A]) after the prescribed contraction and
deletion.  Both conformance predicates decompose per column, which the
checkers exploit: each free column is classified independently, and the
existential witness column set Z is recovered in closed form.  The
subfield checker maps entries back into F0 by the embedding's inverse
(SubfieldEmbedding.back); the frame checker owns the Gamma-frame column
predicate.  A conforming matrix is realized by matroid's minor kernel
(_realize).

Enumeration and membership draw their matrices from one layout per
template kind (_SubfieldLayout, _FrameLayout): the labels, the option
lists and the matrix assembly.  Membership must quantify over all
conforming matrices of the right size.  Rows outside the template's named
sets are interchangeable (permuting them only relabels the realized
matroid), so the search takes them canonically: row choices in
non-decreasing order for subfield templates, first-use order within
equal-choice groups for frame templates, with rank and simplicity pruning
against the target whenever no contraction is involved.  Two arguments
bound the anonymous row count b.  M([I,A]) / C \\ D has rank at most |B|,
so a target of rank r needs b >= r - |D| (subfield) or b >= r - |D| - |X|
(frame), and smaller b is never searched.  A frame row whose Delta vector
is zero and which no free column touches is a zero row of A with a
deleted unit column; dropping it realizes the same matroid with b - 1
rows, already searched or below that floor, so such candidates are cut.
With no contraction the realized matroid is the column matroid of [I,A]'s
kept columns, so a candidate is built, checked and realized only if the
loop count and parallel-class sizes of those columns match the target's.
Every candidate that membership realizes has its conformance checked
first.  Enumeration trusts the layouts, whose candidates conform by
construction (test_layout_candidates_conform checks them against the
checkers): it realizes subfield candidates unchecked, taking [I,A] as its
own RREF when nothing is contracted or deleted and the labels are
sorted, and keys frame candidates by an echelon walk (_echelon_walk)
before realizing the new ones.  The target's rank profile is built once
per query, within the budget of table entries, and a candidate reaches
the equivalence search only if its parallel invariants match the
target's (_Target): read from its kept columns when nothing is
contracted, from its realized matroid's columns otherwise.  The
membership budget cap counts the candidate matrices of each row count
searched (subfield) or the search nodes of all row counts together
(frame), and the entries of each rank table.
"""

from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations_with_replacement, product
from math import comb

from .errors import LabelClash, NotConforming, check_budget
from .field import (FiniteField, MultSubgroup, SubfieldEmbedding, _digits, _embedding,
                    _undigits, make_field)
from .linalg import (
    Matrix,
    Subspace,
    _layout_of,
    extend_echelon,
    normalizer,
    sort_labels,
    transpose,
    unit_vectors,
)
from .matroid import (
    ReprMatroid,
    _minor_of_rows,
    _profile,
    equivalent_up_to_relabel_scaling,
    is_simple,
)

DEFAULT_ENUM_CAP = 200000


# ---------------------------------------------------------------------------
# additive groups closed under a multiplicative subgroup
# ---------------------------------------------------------------------------

class AdditiveSpan:
    """All prime-subfield linear combinations of generator vectors in F^E.

    This is an additive group, not necessarily an F-subspace; frame
    templates need exactly that.  It is held as `space`, a GF(p)-subspace
    of the base-p digit vectors (k digits per coordinate of GF(p^k)).
    """

    def __init__(self, field: FiniteField, ambient, generators):
        self.field = field
        self.ambient, perm, _ = _layout_of(ambient)
        if perm is not None:  # generators follow `ambient`; permute as Subspace does
            generators = [[g[i] for i in perm] for g in generators]
        self.space = Subspace(make_field(field.p, 1), range(len(self.ambient) * field.k),
                              [self._flatten(g) for g in generators])

    def _flatten(self, vec):
        return [d for x in vec for d in _digits(x, self.field.p, self.field.k)]

    def _unflatten(self, flat):
        p, k = self.field.p, self.field.k
        return tuple(_undigits(flat[i:i + k], p) for i in range(0, len(flat), k))

    @property
    def dim(self):
        return self.space.dim

    @property
    def size(self):
        return self.field.p ** self.dim

    def generators(self):
        """The reduced basis, as vectors of F^E."""
        return [self._unflatten(row) for row in self.space.basis]

    def contains(self, vec):
        if not self.ambient:
            return not vec
        return len(vec) == len(self.ambient) and self.space.contains(self._flatten(vec))

    def elements(self):
        """All members, deterministic order (coefficient lex order)."""
        return [self._unflatten(v) for v in self.space.vectors()]

    def closed_under(self, gamma: MultSubgroup) -> bool:
        F = self.field
        return all(self.contains(F.scale(g, vec))
                   for g in gamma.elements for vec in self.generators())

    def __eq__(self, other):
        return (isinstance(other, AdditiveSpan)
                and (self.field, self.ambient, self.space)
                == (other.field, other.ambient, other.space))

    def __hash__(self):
        return hash((self.field, self.ambient, self.space))


# ---------------------------------------------------------------------------
# template types
# ---------------------------------------------------------------------------

def _require_disjoint(*named):
    seen = {}
    for name, labels in named:
        for lbl in labels:
            if lbl in seen:
                raise LabelClash(f"label {lbl!r} appears in both {seen[lbl]} and {name}")
            seen[lbl] = name


@dataclass(frozen=True)
class SubfieldTemplate:
    """(F0, C, D, Y, A1, A2, Delta, Lambda): prescribes matrices whose
    realized matroid is M([I,A]) / C \\ D."""

    emb: SubfieldEmbedding          # F0 -> F
    C: tuple
    D: tuple
    Y: tuple
    A1: Matrix                      # over F, rows D x cols C
    A2: Matrix                      # over F with entries in the image of F0
    lam: Subspace                   # over F0, ambient D
    delta: Subspace                 # over F0, ambient C + Y

    def __post_init__(self):
        _require_disjoint(("C", self.C), ("D", self.D), ("Y", self.Y))
        F = self.field
        if self.A1.field != F or self.A2.field != F:
            raise LabelClash("template blocks must live over the parent field")
        if set(self.A1.rows) != set(self.D) or set(self.A1.cols) != set(self.C):
            raise LabelClash("A1 must be indexed by D x C")
        if set(self.A2.rows) != set(self.D) or set(self.A2.cols) != set(self.Y):
            raise LabelClash("A2 must be indexed by D x Y")
        back = self.emb.back
        if any(x not in back for row in self.A2.data for x in row):
            raise LabelClash("A2 entries must lie in the subfield")
        if self.lam.field != self.emb.sub or self.lam.ambient != sort_labels(self.D):
            raise LabelClash("Lambda must be an F0-subspace of F0^D")
        want = sort_labels(tuple(self.C) + tuple(self.Y))
        if self.delta.field != self.emb.sub or self.delta.ambient != want:
            raise LabelClash("Delta must be an F0-subspace of F0^(C+Y)")

    @property
    def field(self):
        return self.emb.parent

    @classmethod
    def empty(cls, F: FiniteField):
        """All sets empty and F0 = F: everything conforms."""
        emb = _embedding(F, F)
        nil = Matrix(F, (), (), [])
        triv = Subspace(F, (), [])
        return cls(emb, (), (), (), nil, nil, triv, triv)


@dataclass(frozen=True)
class FrameTemplate:
    """(Gamma, C, D, X, Y0, Y1, A1, Delta, Lambda): prescribes matrices
    whose realized matroid is M([I,A]) / C \\ ((B-X) + Y1)."""

    gamma: MultSubgroup
    C: tuple
    D: tuple
    X: tuple
    Y0: tuple
    Y1: tuple
    A1: Matrix                      # rows D+X, cols C+Y0+Y1
    lam: AdditiveSpan               # subgroup of F^D, Gamma-closed
    delta: AdditiveSpan             # subgroup of F^(C+Y0+Y1), Gamma-closed

    def __post_init__(self):
        _require_disjoint(("C", self.C), ("D", self.D), ("X", self.X),
                          ("Y0", self.Y0), ("Y1", self.Y1))
        F = self.field
        if self.A1.field != F:
            raise LabelClash("A1 must live over the template field")
        if set(self.A1.rows) != set(self.D) | set(self.X):
            raise LabelClash("A1 rows must be D + X")
        if set(self.A1.cols) != set(self.C) | set(self.Y0) | set(self.Y1):
            raise LabelClash("A1 cols must be C + Y0 + Y1")
        if self.lam.field != F or self.lam.ambient != sort_labels(self.D):
            raise LabelClash("Lambda must sit inside F^D")
        want = sort_labels(tuple(self.C) + tuple(self.Y0) + tuple(self.Y1))
        if self.delta.field != F or self.delta.ambient != want:
            raise LabelClash("Delta must sit inside F^(C+Y0+Y1)")
        if not self.lam.closed_under(self.gamma):
            raise LabelClash("Lambda is not closed under Gamma-scaling")
        if not self.delta.closed_under(self.gamma):
            raise LabelClash("Delta is not closed under Gamma-scaling")

    @property
    def field(self):
        return self.gamma.field

    @classmethod
    def trivial(cls, gamma: MultSubgroup):
        """All label sets empty: conforming matrices are exactly the
        Gamma-frame matrices."""
        F = gamma.field
        nil = Matrix(F, (), (), [])
        return cls(gamma, (), (), (), (), (), nil,
                   AdditiveSpan(F, (), []), AdditiveSpan(F, (), []))


@dataclass(frozen=True)
class ConformanceReport:
    ok: bool
    violated: str | None = None
    Z: tuple | None = None


# ---------------------------------------------------------------------------
# subfield conformance
# ---------------------------------------------------------------------------

def check_subfield(A: Matrix, tmpl: SubfieldTemplate) -> ConformanceReport:
    """Clause-by-clause conformance of A (rows are B, columns are E-B)."""
    B = A.rows
    D, C = set(tmpl.D), set(tmpl.C)
    named = C | set(tmpl.Y)
    if not D <= set(B):
        raise LabelClash("template set D must be a subset of the row labels")
    if not named <= set(A.cols):
        raise LabelClash("template sets C and Y must be column labels")
    back = tmpl.emb.back
    free = [c for c in A.cols if c not in named]
    rest_rows = [r for r in B if r not in D]
    # clause ii: fixed blocks, and F0 entries everywhere outside A[D, C]
    for r in tmpl.D:
        for c in tmpl.C:
            if A.entry(r, c) != tmpl.A1.entry(r, c):
                return ConformanceReport(False, "clause-ii")
        for c in tmpl.Y:
            if A.entry(r, c) != tmpl.A2.entry(r, c):
                return ConformanceReport(False, "clause-ii")
    for r, row in zip(B, A.data):
        skip = C if r in D else ()
        if any(x not in back for c, x in zip(A.cols, row) if c not in skip):
            return ConformanceReport(False, "clause-ii")
    # clause iii: columns of A[D, free] lie in Lambda (ambient: sorted D);
    # clause ii put these entries, and clause iv's, in the image of F0
    for c in free:
        col = [back[A.entry(r, c)] for r in tmpl.lam.ambient]
        if not tmpl.lam.contains(col):
            return ConformanceReport(False, "clause-iii")
    # clause iv: rows of A[B-D, C+Y] lie in Delta (ambient: sorted C+Y)
    for r in rest_rows:
        row = [back[A.entry(r, c)] for c in tmpl.delta.ambient]
        if not tmpl.delta.contains(row):
            return ConformanceReport(False, "clause-iv")
    return ConformanceReport(True)


def subfield_matroid_of(A: Matrix, tmpl: SubfieldTemplate) -> ReprMatroid:
    """M([I,A]) / C \\ D for a conforming A."""
    report = check_subfield(A, tmpl)
    if not report.ok:
        raise NotConforming(f"matrix violates {report.violated}")
    return _realize(A, tmpl.C, tmpl.D)


def _realize(A: Matrix, contract_set, delete_set) -> ReprMatroid:
    """M([I,A]) / C \\ D, by the minor kernel's one row reduction."""
    if set(A.rows) & set(A.cols):
        raise LabelClash("row labels must be disjoint from column labels")
    rows = [unit + row for unit, row in zip(unit_vectors(len(A.rows)), A.data)]
    return _minor_of_rows(A.field, A.rows + A.cols, rows, set(contract_set),
                          set(delete_set))


# ---------------------------------------------------------------------------
# frame conformance
# ---------------------------------------------------------------------------

def _is_gamma_frame_column(F, gamma, col):
    """At most two nonzero entries: a lone one is 1, a pair is 1 and -g
    for some g in Gamma."""
    nz = [x for x in col if x]
    if len(nz) > 2:
        return False
    if len(nz) == 1:
        return nz[0] == 1
    if len(nz) == 2:
        v1, v2 = nz
        return (v1 == 1 and F.neg(v2) in gamma) or (v2 == 1 and F.neg(v1) in gamma)
    return True


def _is_unit_column(col):
    nz = [x for x in col if x]
    return len(nz) == 1 and nz[0] == 1


def _sorted_y1(tmpl):
    """Y1 in label order, read off Delta's ambient set (sorted C+Y0+Y1)."""
    y1 = set(tmpl.Y1)
    return tuple(c for c in tmpl.delta.ambient if c in y1)


def check_frame_conforms(A: Matrix, tmpl: FrameTemplate) -> ConformanceReport:
    """Conformance of A itself: does some A' respecting the template, with
    witness Z and a Y1-assignment, produce A?  A' can only differ from A
    on Z columns, where A' = A minus the assigned Y1 column, so the
    search is per column."""
    B = A.rows
    named_rows = set(tmpl.D) | set(tmpl.X)
    named_cols = set(tmpl.C) | set(tmpl.Y0) | set(tmpl.Y1)
    if not named_rows <= set(B):
        raise LabelClash("template sets D and X must be row labels")
    if not named_cols <= set(A.cols):
        raise LabelClash("template sets C, Y0, Y1 must be column labels")
    F = tmpl.field
    free = [c for c in A.cols if c not in named_cols]
    bottom_rows = [r for r in B if r not in named_rows]
    for r in tuple(tmpl.D) + tuple(tmpl.X):
        for c in named_cols:
            if A.entry(r, c) != tmpl.A1.entry(r, c):
                return ConformanceReport(False, "clause-ii")
    for r in bottom_rows:
        row = [A.entry(r, c) for c in tmpl.delta.ambient]
        if not tmpl.delta.contains(row):
            return ConformanceReport(False, "clause-v")
    # free and Y1 columns are read over sorted D, then X, then the bottom rows
    order = tmpl.lam.ambient + tuple(tmpl.X) + tuple(bottom_rows)
    nd = len(tmpl.D)
    top = nd + len(tmpl.X)
    y1_columns = [[A.entry(r, j) for r in order] for j in _sorted_y1(tmpl)]
    minus_one = F.neg(1)
    Z = []
    for c in free:
        col = [A.entry(r, c) for r in order]
        if (not any(col[nd:top]) and tmpl.lam.contains(col[:nd])
                and _is_gamma_frame_column(F, tmpl.gamma, col[top:])):
            continue  # usable as a non-Z column of A' directly
        for y1 in y1_columns:
            rest = F.axpy(minus_one, col, y1)
            if not any(rest[:top]) and _is_unit_column(rest[top:]):
                Z.append(c)
                break
        else:
            return ConformanceReport(False, "clause-iii")
    return ConformanceReport(True, Z=tuple(Z))


def frame_matroid_of(A: Matrix, tmpl: FrameTemplate) -> ReprMatroid:
    """M([I,A]) / C \\ ((B-X) + Y1) for a conforming A."""
    report = check_frame_conforms(A, tmpl)
    if not report.ok:
        raise NotConforming(f"matrix violates {report.violated}")
    X = set(tmpl.X)
    delete_set = [r for r in A.rows if r not in X] + list(tmpl.Y1)
    return _realize(A, tmpl.C, delete_set)


# ---------------------------------------------------------------------------
# conforming matrices: one layout per template kind
# ---------------------------------------------------------------------------

def _anon_labels(prefix, count):
    return tuple(f"{prefix}{i:02d}" for i in range(count))


class _SubfieldLayout:
    """The conforming matrices with b anonymous rows and f free columns.

    Rows are D, then b00, b01, ...; columns are C, Y, then e00, e01, ...
    A matrix is a Lambda pick (one embedded Lambda vector per free column)
    plus one row pick per anonymous row, taken from row_options(): an
    embedded Delta vector and f subfield entries.
    """

    def __init__(self, tmpl, b, f):
        emb = tmpl.emb
        self.field = tmpl.field
        self.f = f
        self.rows = tuple(tmpl.D) + _anon_labels("b", b)
        self.cols = tuple(tmpl.C) + tuple(tmpl.Y) + _anon_labels("e", f)
        self.lam_elems = [tuple(emb.embed(x) for x in v) for v in tmpl.lam.vectors()]
        self.delta_elems = [tuple(emb.embed(x) for x in v) for v in tmpl.delta.vectors()]
        self.img = sorted(emb.fwd)
        self.n_row_options = len(self.delta_elems) * len(self.img) ** f
        # per D row: its fixed A1/A2 entries and its position in Lambda vectors
        self._top = [([tmpl.A1.entry(r, c) for c in tmpl.C]
                      + [tmpl.A2.entry(r, c) for c in tmpl.Y], tmpl.lam.ambient.index(r))
                     for r in tmpl.D]
        self._cy = [tmpl.delta.ambient.index(c) for c in tuple(tmpl.C) + tuple(tmpl.Y)]
        self._units = unit_vectors(len(self.rows))[len(tmpl.D):]

    def row_options(self):
        return [(delta, entries) for delta in self.delta_elems
                for entries in product(self.img, repeat=self.f)]

    def entries(self, lam_pick, row_picks):
        """The rows of A for a Lambda pick and one row pick per anonymous row."""
        top = [fixed + [vec[pos] for vec in lam_pick] for fixed, pos in self._top]
        bottom = [[delta[i] for i in self._cy] + list(entries)
                  for delta, entries in row_picks]
        return top + bottom

    def matrix(self, data):
        return Matrix(self.field, self.rows, self.cols, data)

    def kept_columns(self, data):
        """The columns of [I,A] outside D, over every row: the unit columns
        of the anonymous rows, then every column of A.  When C is empty
        their column matroid is the realized matroid."""
        return self._units + transpose(data, len(self.cols))


class _FrameLayout:
    """The conforming matrices with b anonymous rows and f free columns.

    Rows are D, X, then b00, b01, ...; columns are C, Y0, Y1, then e00,
    e01, ...  One Delta vector per anonymous row fixes the named columns
    (named_columns); each free column then takes one of options(rows).
    """

    def __init__(self, tmpl, b, f):
        self.tmpl = tmpl
        self.field = F = tmpl.field
        self.rows = tuple(tmpl.D) + tuple(tmpl.X) + _anon_labels("b", b)
        self.named_cols = tuple(tmpl.C) + tuple(tmpl.Y0) + tuple(tmpl.Y1)
        self.cols = self.named_cols + _anon_labels("e", f)
        self.n_named = len(tmpl.D) + len(tmpl.X)
        self.lam_elems = tmpl.lam.elements()
        self.delta_elems = tmpl.delta.elements()
        self._pairs = [F.neg(g) for g in sorted(tmpl.gamma.elements)]
        self._y1 = _sorted_y1(tmpl)
        self._dpos = [tmpl.lam.ambient.index(d) for d in tmpl.D]
        self._x_units = unit_vectors(len(self.rows))[len(tmpl.D):self.n_named]
        # per named column: its fixed A1 entries and its position in Delta vectors
        top_rows = tuple(tmpl.D) + tuple(tmpl.X)
        self._named = [(c, [tmpl.A1.entry(r, c) for r in top_rows],
                        tmpl.delta.ambient.index(c)) for c in self.named_cols]

    def named_columns(self, delta_rows):
        """Named column label -> column, given each anonymous row's Delta vector."""
        return {c: tuple(top + [delta[pos] for delta in delta_rows])
                for c, top, pos in self._named}

    def options(self, rows):
        """Free-column options over the given anonymous rows (indices).

        An option is (Lambda vector or None, Y1 label or None, bottom
        entries as (row, value) pairs).  Per Lambda vector: the zero
        bottom, the unit at each row, then the pairs (i, j, g), with 1 at i
        and -g at j, for i, then j != i, then g in sorted Gamma; (i, j, g)
        with j < i and -g = 1 is (j, i, g) again and is skipped.  Then the
        Z options: the unit at i plus the Y1 column y, for i, then y in
        sorted Y1.
        """
        out = []
        for lam_vec in self.lam_elems:
            out.append((lam_vec, None, ()))
            out.extend((lam_vec, None, ((i, 1),)) for i in rows)
            out.extend((lam_vec, None, ((i, 1), (j, ng)))
                       for i in rows for j in rows if j != i
                       for ng in self._pairs if not (j < i and ng == 1))
        out.extend((None, y, ((i, 1),)) for i in rows for y in self._y1)
        return out

    def column(self, option, named):
        lam_vec, y, bottom = option
        if y is None:
            v = [lam_vec[pos] for pos in self._dpos]
            v += [0] * (len(self.rows) - len(v))
        else:
            v = list(named[y])
        add = self.field.add
        for i, x in bottom:
            v[self.n_named + i] = add(v[self.n_named + i], x)
        return tuple(v)

    def matrix(self, named, free_columns):
        colvecs = [named[c] for c in self.named_cols] + list(free_columns)
        return Matrix(self.field, self.rows, self.cols, transpose(colvecs, len(self.rows)))

    def kept_columns(self, named, free_columns):
        """The columns of [I,A] outside (B-X) + Y1, over every row: the unit
        columns of X, the Y0 columns, then the free columns.  When C is
        empty their column matroid is the realized matroid."""
        return self._x_units + [named[y] for y in self.tmpl.Y0] + list(free_columns)


# ---------------------------------------------------------------------------
# bounded enumeration of conforming matroids
# ---------------------------------------------------------------------------

def enumerate_conforming(tmpl, extra_rows, free_cols, cap=DEFAULT_ENUM_CAP):
    """All conforming matroids at the given size, duplicate-free (by
    structural equality) in enumeration order.

    extra_rows counts the rows of B beyond the template's named rows and
    free_cols the columns beyond its named columns.  The layouts build
    conforming matrices only, so a subfield candidate is realized without
    a conformance check: straight from [I,A] when that is already its
    RREF, by the minor kernel otherwise.  A frame candidate is realized
    only if the row space of its C and kept columns is new; with C empty
    that row space determines the matroid, so each distinct matroid is
    realized once, through frame_matroid_of.
    """
    if isinstance(tmpl, SubfieldTemplate):
        yield from _enumerate_subfield(tmpl, extra_rows, free_cols, cap)
    else:
        yield from _enumerate_frame(tmpl, extra_rows, free_cols, cap)


def _enumerate_subfield(tmpl, extra_rows, free_cols, cap):
    lay = _SubfieldLayout(tmpl, extra_rows, free_cols)
    total = len(lay.lam_elems) ** free_cols * lay.n_row_options ** extra_rows
    check_budget(total, "conforming matrices", cap)
    row_opts = lay.row_options()
    labels = lay.rows + lay.cols
    # with nothing contracted or deleted and the labels distinct and sorted,
    # [I,A] is its own RREF over the realized matroid's ground set
    reduced = (not tmpl.C and not tmpl.D and len(set(labels)) == len(labels)
               and labels == sort_labels(labels))
    seen = set()
    for lam_pick in product(lay.lam_elems, repeat=free_cols):
        for row_picks in product(row_opts, repeat=extra_rows):
            data = lay.entries(lam_pick, row_picks)
            if reduced:
                M = ReprMatroid(Subspace._of_reduced(
                    lay.field, labels, [u + tuple(row) for u, row in zip(lay._units, data)],
                    range(extra_rows)))
            else:
                M = _realize(lay.matrix(data), tmpl.C, tmpl.D)
            key = (M.ground, M.space.basis)
            if key not in seen:
                seen.add(key)
                yield M


def _echelon_walk(F, m, fixed, columns, depth):
    """(picks, key) for every picks in product(columns, repeat=depth), in
    that order.  key is the reduced echelon form T * [fixed | picks] of
    those m-row columns, as a tuple of columns with the zero rows kept, so
    two picks share a key iff their matrices have the same row space.

    The walk is depth first and carries T, an invertible m x m transform
    (as rows) that brings the columns picked so far, fixed ones included,
    to RREF of rank r.  A pick whose T * c is zero in rows r and below is
    its own reduced column.  Any other becomes the unit column e_r, and T
    takes one more elimination: swap the first nonzero row of T * c at or
    below r with row r, scale row r to 1, clear the rest of the column.
    The earlier columns are zero in rows r and below, so the elimination
    leaves them alone, and a leaf costs one product T * c and at most one
    elimination, where rref_rows would reduce the whole matrix."""
    add, mul, neg, inv = F.add, F.mul, F.neg, F.inv
    units = unit_vectors(m)

    def step(T, r, c):
        """(c's reduced column, T, r) once column c is appended."""
        v = [0] * m
        for k, row in enumerate(T):
            for x, y in zip(row, c):
                if x and y:
                    v[k] = add(v[k], mul(x, y))
        i = next((i for i in range(r, m) if v[i]), None)
        if i is None:
            return tuple(v), T, r
        T = list(T)
        T[i], T[r], v[i], v[r] = T[r], T[i], v[r], v[i]
        T[r] = F.scale(inv(v[r]), T[r])
        for k, x in enumerate(v):
            if x and k != r:
                T[k] = F.axpy(neg(x), T[k], T[r])
        return units[r], T, r + 1

    def walk(T, r, key, picks, left):
        if not left:
            yield picks, key
            return
        for c in columns:
            col, T2, r2 = step(T, r, c)
            yield from walk(T2, r2, key + (col,), picks + (c,), left - 1)

    T, r, key = units, 0, ()
    for c in fixed:
        col, T, r = step(T, r, c)
        key += (col,)
    yield from walk(T, r, key, (), depth)


def _enumerate_frame(tmpl, extra_rows, free_cols, cap):
    lay = _FrameLayout(tmpl, extra_rows, free_cols)
    options = lay.options(range(extra_rows))
    total = len(lay.delta_elems) ** extra_rows * len(options) ** free_cols
    check_budget(total, "conforming matrices", cap)
    seen, seen_rows = set(), set()
    for delta_rows in product(lay.delta_elems, repeat=extra_rows):
        named = lay.named_columns(delta_rows)
        columns = [lay.column(option, named) for option in options]
        # the row space of the C and kept columns, in the layout's fixed
        # column order, determines the realized matroid M / C \ D
        fixed = [named[c] for c in tmpl.C] + lay.kept_columns(named, ())
        for picks, rows_key in _echelon_walk(lay.field, len(lay.rows), fixed, columns,
                                             free_cols):
            if rows_key in seen_rows:
                continue
            seen_rows.add(rows_key)
            M = frame_matroid_of(lay.matrix(named, picks), tmpl)
            key = (M.ground, M.space.basis)
            if key not in seen:
                seen.add(key)
                yield M


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def member_of(tmpl, M: ReprMatroid, row_cap=None, cap=DEFAULT_ENUM_CAP) -> bool:
    """Does M, up to a label bijection and a projective transformation,
    arise from a matrix conforming to the template?

    The anonymous row count b runs from the rank floor r - |D| (subfield)
    or r - |D| - |X| (frame), since the realized matroid has rank at most
    |B|, up to row_cap (default r + |C| for subfield templates, 2f + |Delta|
    for frame templates with f free columns).  A frame matrix with an
    anonymous zero row realizes a matroid that one row fewer already
    gives, so the frame search skips it.  cap bounds the
    candidate matrices of each row count searched (subfield templates) or
    the search nodes over all row counts (frame templates), and the
    entries of each rank table the equivalence test builds: 2^|E|."""
    if M.field != tmpl.field:
        return False
    if isinstance(tmpl, SubfieldTemplate):
        return _member_subfield(tmpl, M, row_cap, cap)
    return _member_frame(tmpl, M, row_cap, cap)


class _Target:
    """The matroid a membership search compares its candidates with.

    Its parallel invariants (loop count and parallel-class sizes, which
    every label bijection and projective transformation keeps) are
    computed once, from its columns.  A candidate is compared with them
    once: on its kept columns before it is built when the template
    contracts nothing (prefilter), on its realized matroid's columns
    otherwise.  key(v) is v normalized (None for a zero column), computed
    once per distinct column over the whole query.  The rank profile is
    built once, on first use and within cap table entries, and handed to
    every equivalence test.
    """

    def __init__(self, M, cap, prefilter):
        self.M = M
        self.cap = cap
        self.prefilter = prefilter
        self.key = cache(normalizer(M.field))
        self.invariants = self._invariants(transpose(M.space.basis, M.size))

    def _invariants(self, cols):
        """The loop count and sorted parallel-class sizes of the column
        matroid of cols."""
        sizes = Counter(map(self.key, cols))
        return sizes.pop(None, 0), sorted(sizes.values())

    def columns_match(self, cols):
        """Do these columns, as a column matroid, have the target's loop
        count and parallel-class sizes?"""
        return self._invariants(cols) == self.invariants

    @cached_property
    def profile(self):
        n = self.M.size
        check_budget(1 << n, f"rank-table entries (2^{n})", self.cap)
        return _profile(self.M, n)

    def matches(self, N):
        M = self.M
        if N.size != M.size or N.rank != M.rank:
            return False
        if not self.prefilter and not self.columns_match(transpose(N.space.basis, N.size)):
            return False
        return equivalent_up_to_relabel_scaling(N, M, cap=M.size, profile2=self.profile)


def _member_subfield(tmpl, M, row_cap, cap):
    n, r = M.size, M.rank
    b_max = r + len(tmpl.C) if row_cap is None else row_cap
    target = _Target(M, cap, not tmpl.C)
    # the realized matroid has rank at most |B| = |D| + b
    for b in range(max(0, r - len(tmpl.D)), b_max + 1):
        f = n - b - len(tmpl.Y)
        if f < 0:
            continue
        lay = _SubfieldLayout(tmpl, b, f)
        combos = len(lay.lam_elems) ** f * comb(lay.n_row_options + b - 1, b)
        check_budget(combos, f"candidate matrices with {b} anonymous rows", cap)
        row_opts = lay.row_options()
        for lam_pick in product(lay.lam_elems, repeat=f):
            for row_picks in combinations_with_replacement(row_opts, b):
                data = lay.entries(lam_pick, row_picks)
                if target.prefilter and not target.columns_match(lay.kept_columns(data)):
                    continue
                if target.matches(subfield_matroid_of(lay.matrix(data), tmpl)):
                    return True
    return False


def _member_frame(tmpl, M, row_cap, cap):
    """Canonical column-by-column search over conforming matrices.

    Anonymous rows with equal Delta choices are interchangeable, so each
    is first touched in index order.  The row count b starts at the rank
    floor r - |D| - |X|: the realized matroid has rank at most |B|.  A
    zero-Delta row that no free column touches is a zero row of A whose
    unit column is deleted, so dropping it gives the same matroid at b - 1
    rows, which was searched before or lies below the floor.  Under
    first-use order each column touches at most one new zero-Delta row, so
    a Delta pick with more zero rows than the f free columns is skipped,
    and a node is cut when its untouched zero rows outnumber the columns
    still to pick.  When the template contracts nothing (C empty),
    surviving columns restrict the final matroid, which allows rank and
    simplicity pruning against the target, and a full candidate is built
    only if its kept columns match the target's parallel invariants.  The
    node budget cap counts the nodes of every row count together.
    """
    f = M.size - len(tmpl.X) - len(tmpl.Y0)
    if f < 0:
        return False
    target = _Target(M, cap, not tmpl.C)
    simple_target = target.prefilter and is_simple(M)
    b_max = 2 * f + tmpl.delta.size if row_cap is None else row_cap
    nodes = [0]
    # the realized matroid has rank at most |B| = |D| + |X| + b
    for b in range(max(0, M.rank - len(tmpl.D) - len(tmpl.X)), b_max + 1):
        if _member_frame_at_rows(tmpl, target, b, f, simple_target, nodes):
            return True
    return False


def _allowed_rows(delta_pick, used):
    """The used anonymous rows plus the first unused row of each
    Delta-group, ascending: the rows a canonical next column may touch."""
    out = [i for i in range(len(delta_pick)) if i in used]
    seen_groups = set()
    for i, g in enumerate(delta_pick):
        if i not in used and g not in seen_groups:
            seen_groups.add(g)
            out.append(i)
    return sorted(out)


def _member_frame_at_rows(tmpl, target, b, f, simple_target, nodes):
    lay = _FrameLayout(tmpl, b, f)
    F = tmpl.field
    prune_ok = target.prefilter
    r_target = target.M.rank
    key = target.key
    zero = next(k for k, delta in enumerate(lay.delta_elems) if not any(delta))

    for delta_pick in combinations_with_replacement(range(len(lay.delta_elems)), b):
        # each free column touches at most one new zero-Delta row
        zero_rows = frozenset(i for i, k in enumerate(delta_pick) if k == zero)
        if len(zero_rows) > f:
            continue
        named = lay.named_columns([lay.delta_elems[k] for k in delta_pick])
        # initial survivor columns: identity columns of X, then Y0 columns
        ech = ((), ())  # echelon (basis, pivots) of the survivor columns
        keys = set()
        ok = True
        for v in lay.kept_columns(named, ()):
            ech = extend_echelon(F, *ech, v)
            if simple_target:
                k = key(v)
                if k is None or k in keys:
                    ok = False
                    break
                keys.add(k)
        if not ok or (prune_ok and len(ech[1]) > r_target):
            continue

        columns = {}  # option -> (its column, its simplicity key or None, rows it touches)
        steps = {}  # used rows -> the columns a next free column may take

        def step(used):
            if used not in steps:
                out = steps[used] = []
                for option in lay.options(_allowed_rows(delta_pick, used)):
                    if option not in columns:
                        vec = lay.column(option, named)
                        columns[option] = (vec, key(vec) if simple_target else None,
                                           frozenset(i for i, _ in option[2]))
                    out.append(columns[option])
            return steps[used]

        def rec(col_idx, ech, keys, used, chosen):
            nodes[0] += 1
            check_budget(nodes[0], "frame search nodes", target.cap)
            if len(zero_rows - used) > f - col_idx:
                return False
            if col_idx == f:
                if prune_ok and len(ech[1]) != r_target:
                    return False
                return finish(chosen)
            for vec, k, touched in step(used):
                new_keys = keys
                if simple_target:
                    if k is None or k in keys:
                        continue
                    new_keys = keys | {k}
                new_ech = extend_echelon(F, *ech, vec)
                if prune_ok and len(new_ech[1]) > r_target:
                    continue
                if rec(col_idx + 1, new_ech, new_keys, used | touched, chosen + [vec]):
                    return True
            return False

        def finish(chosen):
            if prune_ok and not target.columns_match(lay.kept_columns(named, chosen)):
                return False
            return target.matches(frame_matroid_of(lay.matrix(named, chosen), tmpl))

        if rec(0, ech, keys, frozenset(), []):
            return True
    return False
