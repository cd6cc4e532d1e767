"""Represented matroids (E, U) over finite fields.

A represented matroid is a ground set plus a subspace of F^E, held in
canonical RREF so that equality of represented matroids is structural
equality.  Girth is computed as the minimum weight of the orthogonal
complement (circuits are the minimal supports of the kernel of any
generator matrix); cogirth is the minimum weight of the row space
itself.  The tests compare both with a circuit enumeration in
tests/oracles.py.

Isomorphism, minor search and vertical connectivity read a matroid only
through its rank table (all_subset_ranks).  From _CODEWORD_FLOOR = 7
elements on, over fields of order at most 256, the table comes from
Greene's identity (Greene, "Weight enumeration and the geometry of linear
codes", Stud. Appl. Math. 1976): the codewords of C = rowspace(M) that
vanish on S number q^(r - r(S)).  It counts the words of C or of C-perp,
whichever has fewer, by zero set in numpy.  Smaller tables, and fields
without tables, use a depth-first walk over the subsets.
"""

from collections import Counter
from functools import cached_property, lru_cache
from itertools import combinations

import numpy as np

from .errors import CapExceeded, LabelMismatch, NotASubfield, NotSubset
from .field import FiniteField
from .linalg import (
    DEFAULT_WEIGHT_CAP,
    Matrix,
    Subspace,
    min_weight,
    normalizer,
    orth_complement,
    rref_rows,
)

DEFAULT_SUBSET_CAP = 16      # max |E| for subset enumerations
DEFAULT_ISO_CAP = 12
DEFAULT_MINOR_CAP = 14
DEFAULT_VCONN_CAP = 16

# all_subset_ranks counts codewords from this many elements on, while there
# are at most 2^(n + _CODEWORD_SLACK) of them; the codewords are built in
# numpy blocks of at most _CODEWORD_BLOCK words
_CODEWORD_FLOOR = 7
_CODEWORD_SLACK = 3
_CODEWORD_BLOCK = 1 << 13


class _Unbounded:
    """Marker for matroids admitting no vertical separation at all."""

    def __repr__(self):
        return "Unbounded"


UNBOUNDED = _Unbounded()


class ReprMatroid:
    """Pair (E, U) given by a subspace U of F^E: the ground set E is U's
    sorted ambient label set."""

    __slots__ = ("ground", "space")

    def __init__(self, space: Subspace):
        self.ground = space.ambient
        self.space = space

    @property
    def field(self):
        return self.space.field

    @property
    def rank(self):
        return self.space.dim

    @property
    def size(self):
        return len(self.ground)

    def generator_matrix(self) -> Matrix:
        """The canonical RREF generator, rows labelled 0..rank-1."""
        return Matrix(self.field, tuple(range(self.rank)), self.ground,
                      self.space.basis)

    def column(self, e):
        j = self.space.index(e)
        return tuple(row[j] for row in self.space.basis)

    def __eq__(self, other):
        return isinstance(other, ReprMatroid) and self.space == other.space

    def __hash__(self):
        return hash(self.space)

    def __repr__(self):
        return f"ReprMatroid(|E|={self.size}, rank={self.rank}, {self.field!r})"


# ---------------------------------------------------------------------------
# construction / minors / duality
# ---------------------------------------------------------------------------

def from_generator(A: Matrix) -> ReprMatroid:
    """M(A): the represented matroid on A's columns with U = rowspace(A)."""
    return ReprMatroid(Subspace(A.field, A.cols, A.data))


def _check_subset(M, X):
    X = set(X)
    if not X <= set(M.ground):
        raise NotSubset(f"{X - set(M.ground)} not in ground set")
    return X


def delete(M, X):
    """M \\ X."""
    return minor(M, (), X)


def contract(M, X):
    """M / X."""
    return minor(M, X, ())


def minor(M, contract_set, delete_set):
    """M / C \\ D."""
    C, D = set(contract_set), set(delete_set)
    if C & D:
        raise NotSubset("contract and delete sets must be disjoint")
    _check_subset(M, C)
    _check_subset(M, D)
    return _minor_of_rows(M.field, M.ground, M.space.basis, C, D)


def _minor_of_rows(F, labels, rows, C, D):
    """M / C \\ D for the matroid on `labels` whose space is spanned by
    `rows`, in one row reduction: with the columns of C first, the rows
    that pivot outside C vanish on C and span every vector that does."""
    first = [i for i, e in enumerate(labels) if e in C]
    kept = [i for i, e in enumerate(labels) if e not in C and e not in D]
    order = first + kept
    rows = [[row[i] for i in order] for row in rows]
    if first:
        red, piv = rref_rows(F, rows)
        rows = [row[len(first):] for row, p in zip(red, piv) if p >= len(first)]
    return ReprMatroid(Subspace(F, [labels[i] for i in kept], rows))


def dual(M):
    """M* = (E, U-perp)."""
    return ReprMatroid(orth_complement(M.space))


def rank_of(M, S):
    S = _check_subset(M, S)
    idx = [M.space.index(e) for e in M.ground if e in S]
    rows = [[row[i] for i in idx] for row in M.space.basis]
    _, piv = rref_rows(M.field, rows)
    return len(piv)


def relabel(M, mapping):
    """Rename ground elements through a bijective mapping dict."""
    new_ground = [mapping[e] for e in M.ground]
    if len(set(new_ground)) != len(new_ground):
        raise LabelMismatch("relabelling is not injective")
    return ReprMatroid(Subspace(M.field, new_ground, M.space.basis))


# ---------------------------------------------------------------------------
# girth and cogirth
# ---------------------------------------------------------------------------

def _min_support(M, U, cap):
    """(weight, support labels) of a minimum-weight vector of U, a
    subspace on M's ground set, or None if U is zero."""
    w, witness = min_weight(U, cap=cap)
    if w is None:
        return None
    return w, tuple(e for e, x in zip(M.ground, witness) if x)


def smallest_circuit(M, workers=1, cap=DEFAULT_WEIGHT_CAP):
    """(size, sorted labels) of a smallest circuit, or None if M is free:
    the support of a minimum-weight vector of U-perp, searched within
    min_weight's `cap`.  `workers` is accepted for callers that pass it
    and changes nothing: the search runs in one thread."""
    return _min_support(M, orth_complement(M.space), cap)


def girth(M, workers=1, cap=DEFAULT_WEIGHT_CAP):
    hit = smallest_circuit(M, workers=workers, cap=cap)
    return None if hit is None else hit[0]


def smallest_cocircuit(M, workers=1, cap=DEFAULT_WEIGHT_CAP):
    """(size, sorted labels) of a smallest cocircuit, or None if M has
    rank 0: the support of a minimum-weight vector of U.  `workers` and
    `cap` act as in smallest_circuit."""
    return _min_support(M, M.space, cap)


def cogirth(M, workers=1, cap=DEFAULT_WEIGHT_CAP):
    hit = smallest_cocircuit(M, workers=workers, cap=cap)
    return None if hit is None else hit[0]


# ---------------------------------------------------------------------------
# simplicity
# ---------------------------------------------------------------------------

def _parallel_classes_repr(M):
    """Map normalized-column key -> list of labels; None key for loops."""
    normalize = normalizer(M.field)
    basis = M.space.basis
    classes = {}
    for e, col in zip(M.ground, zip(*basis) if basis else [()] * M.size):
        classes.setdefault(normalize(col), []).append(e)
    return classes


def is_simple(M) -> bool:
    classes = _parallel_classes_repr(M)
    return None not in classes and all(len(v) == 1 for v in classes.values())


def simplify(M):
    """Delete loops and all but the least-labelled element per parallel class."""
    classes = _parallel_classes_repr(M)
    drop = list(classes.pop(None, []))
    for members in classes.values():
        drop.extend(members[1:])  # ground is sorted, so members[0] is least
    return delete(M, drop)


# ---------------------------------------------------------------------------
# projective equivalence and subfield confinement
# ---------------------------------------------------------------------------

def _solve_ratios(n, constraints, op, inverse, one):
    """Labels val[c] in a group with val[c] = op(w, val[p]) for every
    constraint (p, c, w), or None if no labelling satisfies them all.

    Each component of the column graph is labelled by propagation from
    its least column, set to `one`; every constraint is then re-checked.
    """
    adj = {}
    for p, c, w in constraints:
        adj.setdefault(p, []).append((c, w))
        adj.setdefault(c, []).append((p, inverse(w)))
    val = {}
    for start in range(n):
        if start in val or start not in adj:
            continue
        val[start] = one
        stack = [start]
        while stack:
            u = stack.pop()
            for v, w in adj[u]:
                if v not in val:
                    val[v] = op(w, val[u])
                    stack.append(v)
    if all(val[c] == op(w, val[p]) for p, c, w in constraints):
        return val
    return None


def projectively_equivalent(M1: ReprMatroid, M2: ReprMatroid) -> bool:
    """True iff U2 = {x D : x in U1} for some nonsingular diagonal D.

    Because both spaces are in RREF, a scaling D works iff the pivot sets
    match and the per-entry ratio constraints d_c / d_pivot(i) =
    B2[i,c] / B1[i,c] admit a solution in F^x, which _solve_ratios
    decides, so no scaling search is needed.
    """
    if M1.ground != M2.ground:
        raise LabelMismatch("projective equivalence needs equal ground sets")
    if M1.field != M2.field:
        raise LabelMismatch("projective equivalence needs a common field")
    B1, B2 = M1.space, M2.space
    if B1.dim != B2.dim or B1.pivots != B2.pivots:
        return False
    F = M1.field
    n = len(M1.ground)
    constraints = []
    for i, p in enumerate(B1.pivots):
        row1, row2 = B1.basis[i], B2.basis[i]
        for c in range(n):
            if c == p:
                continue
            if (row1[c] == 0) != (row2[c] == 0):
                return False
            if row1[c]:
                constraints.append((p, c, F.div(row2[c], row1[c])))
    return _solve_ratios(n, constraints, F.mul, F.inv, 1) is not None


def confined_to(M: ReprMatroid, F0) -> bool:
    """True iff M is projectively equivalent to a matroid generated over F0."""
    return confinement_witness(M, F0) is not None


def confinement_witness(M: ReprMatroid, F0):
    """Column scalings sending the RREF generator into the embedded
    subfield, as a label -> code dict, or None if M is not confined.

    Each nonzero RREF entry constrains the scalings of its column and its
    pivot column inside the quotient group F^x / F0^x, cyclic of order
    m = (q-1)/(q0-1) and written additively through discrete logs mod m;
    _solve_ratios solves the constraints, and the resulting scaling is
    re-verified before being returned.
    """
    F = M.field
    if isinstance(F0, FiniteField):
        sub = F0
    else:
        sub = F0.sub  # SubfieldEmbedding
    if sub.p != F.p or F.k % sub.k != 0:
        raise NotASubfield(f"{sub!r} is not a subfield of {F!r}")
    n = len(M.ground)
    if sub.q == F.q or M.rank == 0:
        return {e: 1 for e in M.ground}
    m = (F.q - 1) // (sub.q - 1)
    B = M.space
    constraints = [(p, c, -F.dlog(row[c]) % m)
                   for row, p in zip(B.basis, B.pivots)
                   for c in range(n) if c != p and row[c]]
    val = _solve_ratios(n, constraints, lambda w, x: (w + x) % m,
                        lambda w: -w % m, 0)
    if val is None:
        return None
    g = F.generator()
    scales = [F.pow(g, val.get(c, 0)) for c in range(n)]
    sub_codes = F.subfield_codes(sub.k)
    scaled = [[F.mul(x, s) for x, s in zip(row, scales)] for row in B.basis]
    red, _ = rref_rows(F, scaled)
    assert all(x in sub_codes for row in red for x in row)
    return {e: scales[i] for i, e in enumerate(M.ground)}


# ---------------------------------------------------------------------------
# subset ranks, isomorphism, minors, connectivity
# ---------------------------------------------------------------------------

def _column_reducer(M):
    """(columns, reduce_by) for the subset-rank walk.

    Over GF(2) a column is a Python int (bit i is row i) and eliminating
    v from w is an XOR when w has v's lowest set bit.  Over other fields a
    column is a sequence of codes, () when zero, and w loses the multiple
    of v that clears w at v's first nonzero entry, through F.axpy.
    reduce_by(v, rest) returns rest with v eliminated from each column.
    """
    F = M.field
    cols = [M.column(e) for e in M.ground]
    if F.q == 2:
        def reduce_by(v, rest):
            low = v & -v
            return [w ^ v if w & low else w for w in rest]

        return [sum(x << i for i, x in enumerate(col)) for col in cols], reduce_by
    axpy, mul, neg, inv = F.axpy, F.mul, F.neg, F.inv

    def reduce_by(v, rest):
        p = next(i for i, x in enumerate(v) if x)
        f0 = neg(inv(v[p]))
        out = []
        for w in rest:
            if w and w[p]:
                w = axpy(mul(w[p], f0), w, v)
                if not any(w):
                    w = ()
            out.append(w)
        return out

    return [col if any(col) else () for col in cols], reduce_by


def _walk_ranks(M):
    """The rank table by a depth-first walk that adds elements in
    increasing order.  Each node hands its children the columns after it
    already reduced modulo the span of its own columns, so a column is in
    that span iff it reduced to zero, and a child does one elimination per
    remaining column."""
    n = M.size
    cols, reduce_by = _column_reducer(M)
    ranks = [0] * (1 << n)

    def rec(start, mask, r, rest):
        # rest[i] is column start + i reduced modulo the span of mask
        for i, v in enumerate(rest):
            child, tail = mask | 1 << (start + i), rest[i + 1:]
            rc = ranks[child] = r + 1 if v else r
            if tail:
                rec(start + i + 1, child, rc, reduce_by(v, tail) if v else tail)

    rec(0, 0, 0, cols)
    return ranks


@lru_cache(maxsize=None)
def _np_tables(F):
    """F's addition and multiplication tables as read-only uint8 arrays,
    built once per field (F must have tables, so q <= 256)."""
    tables = tuple(np.array(t, dtype=np.uint8) for t in (F.add_t, F.mul_t))
    for t in tables:
        t.flags.writeable = False
    return tables


def _span_words(rows, add, mul, n):
    """Every linear combination of `rows` (uint8 arrays of length n), one
    per row of the result: q^len(rows) words."""
    words = np.zeros((1, n), np.uint8)
    for g in rows:
        # mul[:, g][a] is a * g; each old word meets each multiple
        words = add[words[None, :, :], mul[:, g][:, None, :]].reshape(-1, n)
    return words


def _zero_set_counts(G, F, n):
    """counts[m] = the number of words of rowspace(G) whose zero set is the
    mask m.  The words are built in blocks of at most _CODEWORD_BLOCK: one
    block spans G's last rows and is shifted by each combination of the
    others.  Zero masks gather in a buffer of 2^n entries or one block,
    counted whenever it fills, so memory stays proportional to the table."""
    add, mul = _np_tables(F)
    size = 1 << n
    t = len(G)
    while t and F.q ** t > _CODEWORD_BLOCK:
        t -= 1
    block = _span_words(G[len(G) - t:], add, mul, n)
    heads = _span_words(G[:len(G) - t], add, mul, n)
    weights = np.left_shift(1, np.arange(n, dtype=np.int64))
    counts = np.zeros(size, np.int64)
    buf = np.empty(max(size, len(block)), np.int64)
    fill = 0
    for head in heads:
        if fill + len(block) > len(buf):
            counts += np.bincount(buf[:fill], minlength=size)
            fill = 0
        np.matmul(add[block, head] == 0, weights, out=buf[fill:fill + len(block)])
        fill += len(block)
    return counts + np.bincount(buf[:fill], minlength=size)


def _codeword_ranks(M):
    """The rank table by Greene's identity: the words of C = rowspace(M)
    that vanish on S are a subspace of dimension r - r(S), so
    N(S) = #{c in C : c_S = 0} = q^(r - r(S)).

    The words are counted by zero set, and one superset-sum transform (n
    vectorized passes) turns the counts into N(S) for every S.  When
    C-perp is smaller (n - r < r) its words are counted instead; there
    N*(X) = q^(n - r - r*(X)), and r(S) = r*(E - S) - |E - S| + r
    = |S| - log_q N*(E - S): the dual array reversed.  Needs F's tables.
    """
    F, n, r = M.field, M.size, M.rank
    B = np.array(M.space.basis, dtype=np.uint8).reshape(r, n)
    dual = n - r < r
    if dual:
        # with B = [I | A] up to column order, [A^T | I] spans C-perp with
        # its pivot columns negated, and a column scaling moves no zero set
        free = np.ones(n, dtype=bool)
        free[list(M.space.pivots)] = False
        G = np.zeros((n - r, n), np.uint8)
        G[:, free] = np.eye(n - r, dtype=np.uint8)
        G[:, ~free] = B[:, free].T
    else:
        G = B
    N = _zero_set_counts(G, F, n)
    for i in range(n):
        pairs = N.reshape(-1, 2, 1 << i)
        pairs[:, 0] += pairs[:, 1]
    # N(S) is exactly q^d(S); find d(S) among the powers of q
    d = np.searchsorted(F.q ** np.arange(len(G) + 1, dtype=np.int64), N)
    if dual:
        return (np.bitwise_count(np.arange(1 << n)) - d[::-1]).tolist()
    return (len(G) - d).tolist()


def check_subset_cap(n, cap, flag="--cap"):
    """Raise CapExceeded when a table over all subsets of n elements
    exceeds the element cap; the message names `flag`, the option that
    raises the cap, unless it is None (a fixed limit)."""
    if n > cap:
        hint = f"; raise it with {flag}" if flag else ""
        raise CapExceeded(f"|E|={n} exceeds subset enumeration cap {cap}{hint}")


def all_subset_ranks(M, cap=DEFAULT_SUBSET_CAP):
    """ranks[mask] over the sorted ground set, a list of ints; bit i is
    ground[i].

    From _CODEWORD_FLOOR = 7 elements on, over fields with tables
    (q <= 256), the table comes from the zero sets of the codewords of
    rowspace(M) or of its orthogonal complement, whichever has fewer
    words, q^r or q^(n - r) (_codeword_ranks), while that count is at most
    2^(n + _CODEWORD_SLACK) = 8 * 2^n.  Below the floor, numpy's fixed
    cost per call is larger than the whole walk; above the slack, or
    without tables, the depth-first walk (_walk_ranks) is faster or the
    only option.
    """
    n = M.size
    check_subset_cap(n, cap)
    F = M.field
    if (n >= _CODEWORD_FLOOR and F.add_t is not None
            and F.q ** min(M.rank, n - M.rank) <= 1 << (n + _CODEWORD_SLACK)):
        return _codeword_ranks(M)
    return _walk_ranks(M)


class _IsoProfile:
    """A rank table with the invariants the isomorphism search prunes on.
    The element signatures are built on first use, after the rank
    histograms have matched: an element's rank and the sorted ranks of the
    pairs and of the triples through it.  In a simple matroid every pair
    has rank 2, so only the triples (the lines through an element) tell
    its elements apart."""

    def __init__(self, ranks):
        self.n = len(ranks).bit_length() - 1
        self.ranks = ranks
        self.hist = Counter(zip(map(int.bit_count, range(len(ranks))), ranks))

    @cached_property
    def sigs(self):
        ranks, n = self.ranks, self.n

        def through(size):
            out = [[] for _ in range(n)]
            for S in combinations(range(n), size):
                r = ranks[sum(1 << i for i in S)]
                for i in S:
                    out[i].append(r)
            return [tuple(sorted(rs)) for rs in out]

        return list(zip([ranks[1 << i] for i in range(n)], through(2), through(3)))


def _profile(M, cap):
    return _IsoProfile(all_subset_ranks(M, cap=cap))


def _minor_profile(ranks, kept, cmask=0):
    """The _IsoProfile of M/C\\D read from M's rank table, where cmask
    holds C and kept lists the indices of E - C - D in increasing order:
    r(X) = r(X + C) - r(C)."""
    masks = [cmask]
    for i in kept:
        masks += [m | 1 << i for m in masks]
    c = ranks[cmask]
    return _IsoProfile([ranks[m] - c for m in masks])


def _iso_search(P1, P2, accept):
    """Backtracking bijection search preserving all subset ranks.

    `accept(mapping)` is called on every rank-preserving bijection
    (mapping: index in P1 -> index in P2); return True to stop.
    """
    n = P1.n
    if n != P2.n or P1.hist != P2.hist or sorted(P1.sigs) != sorted(P2.sigs):
        return False
    cand = [[j for j in range(n) if P2.sigs[j] == P1.sigs[i]] for i in range(n)]
    order = sorted(range(n), key=lambda i: (len(cand[i]), i))
    img_of = {0: 0}  # mask in P1 -> mask in P2
    mapping = [None] * n
    used = [False] * n

    def rec(depth):
        if depth == n:
            return accept(mapping)
        i = order[depth]
        bit_i = 1 << i
        for j in cand[i]:
            if used[j]:
                continue
            bit_j = 1 << j
            added = []
            ok = True
            for m, im in list(img_of.items()):
                m2, im2 = m | bit_i, im | bit_j
                if P1.ranks[m2] != P2.ranks[im2]:
                    ok = False
                    break
                img_of[m2] = im2
                added.append(m2)
            if ok:
                mapping[i] = j
                used[j] = True
                if rec(depth + 1):
                    return True
                mapping[i] = None
                used[j] = False
            for m2 in added:
                del img_of[m2]
        return False

    return rec(0)


def isomorphic(M1, M2, cap=DEFAULT_ISO_CAP) -> bool:
    """Ground-set bijection preserving the rank of every subset."""
    if M1.size != M2.size:
        return False
    P1 = _profile(M1, cap)
    P2 = _profile(M2, cap)
    return _iso_search(P1, P2, lambda mapping: True)


def equivalent_up_to_relabel_scaling(M1: ReprMatroid, M2: ReprMatroid,
                                     cap=DEFAULT_ISO_CAP, profile2=None) -> bool:
    """Some label bijection followed by a projective transformation maps
    M1 onto M2.  This is the equivalence used for template membership.
    profile2, when given, is M2's rank profile (_profile(M2, cap)), built
    once by a caller that compares many matroids with the same M2."""
    if M1.field != M2.field or M1.size != M2.size:
        return False
    P1 = _profile(M1, cap)
    P2 = _profile(M2, cap) if profile2 is None else profile2

    def accept(mapping):
        phi = {M1.ground[i]: M2.ground[j] for i, j in enumerate(mapping)}
        return projectively_equivalent(relabel(M1, phi), M2)

    return _iso_search(P1, P2, accept)


def has_minor(M, N, cap=DEFAULT_MINOR_CAP):
    """Search for disjoint (C, D) with M/C\\D isomorphic to N, in M's rank
    table (_minor_search).  Returns (found, (C, D) or None)."""
    if N.size > M.size or N.rank > M.rank or M.size - M.rank < N.size - N.rank:
        return False, None
    hit = _minor_search(all_subset_ranks(M, cap=cap), _profile(N, cap))
    if hit is None:
        return False, None
    return True, tuple(tuple(M.ground[i] for i in X) for X in hit)


def _loops_and_parallel_pairs(ranks, elements, cmask=0):
    """(mask of the loops, masks of the parallel pairs of non-loops) of M/C
    among `elements`, read from M's rank table; cmask holds C."""
    c = ranks[cmask]
    loops = sum(1 << i for i in elements if ranks[cmask | 1 << i] == c)
    live = [1 << i for i in elements if not loops >> i & 1]
    return loops, [a | b for a, b in combinations(live, 2) if ranks[cmask | a | b] == c + 1]


def _minor_search(ranks, PN):
    """The first (C, D), as index tuples, with M/C\\D isomorphic to N,
    given M's rank table and N's profile; None if there is none.

    C runs over independent sets of the right size only (contracting any
    set equals contracting a basis of it and deleting the rest), in
    combinations order, so the witness is deterministic.  A candidate's
    table is read from M's, r(X) = r(X + C) - r(C), and is built only
    after its rank, its number of loops and its number of parallel pairs
    match N's.  Those two counts decide the sorted singleton and pair
    ranks: singletons have rank 0 or 1 and pairs rank 0, 1 or 2, and L
    loops among k elements make C(L, 2) pairs of rank 0 and L(k - L) of
    rank 1, besides the parallel pairs of non-loops.  So each C gives one
    loop mask and a list of parallel-pair masks of M/C, and each D costs
    a popcount and a test per parallel pair.
    """
    n = len(ranks).bit_length() - 1
    rank = PN.ranks[-1]
    c = ranks[-1] - rank
    d = n - PN.n - c
    if c < 0 or d < 0:
        return None
    loops, pairs = _loops_and_parallel_pairs(PN.ranks, range(PN.n))
    n_loops, n_pairs = loops.bit_count(), len(pairs)
    everything = (1 << n) - 1
    for C in combinations(range(n), c):
        cmask = sum(1 << i for i in C)
        if ranks[cmask] < c:
            continue
        rest = [i for i in range(n) if not cmask >> i & 1]
        lmask, pmasks = _loops_and_parallel_pairs(ranks, rest, cmask)
        bits = [1 << i for i in rest]
        for D, dbits in zip(combinations(rest, d), combinations(bits, d)):
            kmask = everything ^ cmask ^ sum(dbits)
            if (ranks[cmask | kmask] - c != rank
                    or (lmask & kmask).bit_count() != n_loops
                    or sum(pm & kmask == pm for pm in pmasks) != n_pairs):
                continue
            kept = [i for i in rest if kmask >> i & 1]
            if _iso_search(_minor_profile(ranks, kept, cmask), PN,
                           lambda mapping: True):
                return C, D
    return None


def vertical_connectivity(M, cap=DEFAULT_VCONN_CAP, with_witness=False):
    """Largest k such that every partition (X, Y) with
    r(X)+r(Y)-r(M) < k-1 has a spanning side; UNBOUNDED if no partition
    has two non-spanning sides.  With with_witness=True, also returns the
    first minimizing partition (X, Y), or None when unbounded."""
    n = M.size
    ranks = all_subset_ranks(M, cap=cap)
    full = (1 << n) - 1
    r = ranks[full]
    best = None
    best_mask = None
    for mask in range(1 << max(n - 1, 0)):
        rx, ry = ranks[mask], ranks[full ^ mask]
        if rx < r and ry < r:
            gap = rx + ry - r
            if best is None or gap < best:
                best, best_mask = gap, mask
    value = UNBOUNDED if best is None else best + 1
    if not with_witness:
        return value
    if best_mask is None:
        return value, None
    X = tuple(M.ground[i] for i in range(n) if best_mask >> i & 1)
    Y = tuple(M.ground[i] for i in range(n) if not best_mask >> i & 1)
    return value, (X, Y)
