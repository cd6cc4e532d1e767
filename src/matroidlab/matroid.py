"""Represented matroids (E, U) and rank-oracle matroids.

A represented matroid is a ground set plus a subspace of F^E, held in
canonical RREF so that equality of represented matroids is structural
equality.  Girth is computed as the minimum weight of the orthogonal
complement (circuits are the minimal supports of the kernel of any
generator matrix); cogirth is the minimum weight of the row space
itself.  The tests compare both with a circuit enumeration in
tests/oracles.py.

Rank-oracle matroids host the abstract matroids (graphic, bicircular,
uniform) that have no preferred representation.
"""

from collections import Counter
from functools import cached_property
from itertools import combinations

from .errors import CapExceeded, LabelMismatch, NotASubfield, NotSubset
from .field import FiniteField
from .linalg import (
    Matrix,
    Subspace,
    min_weight,
    normalizer,
    orth_complement,
    rref_rows,
    sort_labels,
)

DEFAULT_SUBSET_CAP = 16      # max |E| for subset enumerations
DEFAULT_ISO_CAP = 12
DEFAULT_MINOR_CAP = 14
DEFAULT_VCONN_CAP = 16


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


class OracleMatroid:
    """Ground set plus a rank oracle, for matroids used abstractly."""

    __slots__ = ("ground", "_rank_fn", "_memo")

    def __init__(self, ground, rank_fn, validate=None):
        self.ground = sort_labels(ground)
        self._rank_fn = rank_fn
        self._memo = {}
        if validate is None:
            validate = len(self.ground) <= 12
        if validate:
            self._validate()

    @property
    def rank(self):
        return self.rank_of(self.ground)

    @property
    def size(self):
        return len(self.ground)

    def rank_of(self, S):
        key = frozenset(S)
        if not key <= set(self.ground):
            raise NotSubset(f"{set(S) - set(self.ground)} not in ground set")
        if key not in self._memo:
            self._memo[key] = int(self._rank_fn(key))
        return self._memo[key]

    def _validate(self):
        """Rank axioms, checked exhaustively.

        Unit increase plus the local exchange inequality
        r(S+a) + r(S+b) >= r(S+a+b) + r(S) is equivalent to full
        submodularity, so the check is complete at this scale.
        """
        if self.rank_of(()) != 0:
            raise ValueError("rank of empty set must be 0")
        n = len(self.ground)
        g = self.ground
        for mask in range(1 << n):
            S = [g[i] for i in range(n) if mask >> i & 1]
            rS = self.rank_of(S)
            rest = [i for i in range(n) if not mask >> i & 1]
            for a in rest:
                rSa = self.rank_of(S + [g[a]])
                if rSa - rS not in (0, 1):
                    raise ValueError("unit-increase axiom fails")
                for b in rest:
                    if b <= a:
                        continue
                    rSb = self.rank_of(S + [g[b]])
                    rSab = self.rank_of(S + [g[a], g[b]])
                    if rSa + rSb < rSab + rS:
                        raise ValueError("submodularity fails")

    def __repr__(self):
        return f"OracleMatroid(|E|={self.size}, rank={self.rank})"


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
    """M \\ X: restrict U to the coordinates E - X."""
    X = _check_subset(M, X)
    keep = [e for e in M.ground if e not in X]
    if isinstance(M, OracleMatroid):
        return OracleMatroid(keep, M.rank_of, validate=False)
    idx = [M.space.index(e) for e in keep]
    vecs = [[row[i] for i in idx] for row in M.space.basis]
    return ReprMatroid(Subspace(M.field, keep, vecs))


def contract(M, X):
    """M / X: vectors of U vanishing on X, restricted to E - X.

    In an RREF of U with the X columns first, the rows pivoting outside X
    vanish on X and span every vector of U that does.
    """
    X = _check_subset(M, X)
    keep = [e for e in M.ground if e not in X]
    if isinstance(M, OracleMatroid):
        base = M.rank_of(X)
        fn = lambda S: M.rank_of(set(S) | X) - base
        return OracleMatroid(keep, fn, validate=False)
    order = ([i for i, e in enumerate(M.ground) if e in X]
             + [i for i, e in enumerate(M.ground) if e not in X])
    red, piv = rref_rows(M.field, [[row[i] for i in order] for row in M.space.basis])
    vecs = [row[len(X):] for row, p in zip(red, piv) if p >= len(X)]
    return ReprMatroid(Subspace(M.field, keep, vecs))


def minor(M, contract_set, delete_set):
    C, D = set(contract_set), set(delete_set)
    if C & D:
        raise NotSubset("contract and delete sets must be disjoint")
    if not C:  # contracting nothing leaves M as it is
        return delete(M, D)
    return delete(contract(M, C), D)


def dual(M):
    """M* = (E, U-perp); for oracle matroids, r*(S) = |S| + r(E-S) - r(M)."""
    if isinstance(M, OracleMatroid):
        full = M.rank
        g = set(M.ground)
        fn = lambda S: len(S) + M.rank_of(g - set(S)) - full
        return OracleMatroid(M.ground, fn, validate=False)
    return ReprMatroid(orth_complement(M.space))


def rank_of(M, S):
    if isinstance(M, OracleMatroid):
        return M.rank_of(S)
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
    if isinstance(M, OracleMatroid):
        inv = {v: k for k, v in mapping.items()}
        return OracleMatroid(new_ground, lambda S: M.rank_of({inv[x] for x in S}),
                             validate=False)
    return ReprMatroid(Subspace(M.field, new_ground, M.space.basis))


# ---------------------------------------------------------------------------
# girth and cogirth
# ---------------------------------------------------------------------------

def smallest_circuit(M, cap=DEFAULT_SUBSET_CAP, workers=1):
    """(size, sorted labels) of a smallest circuit, or None if M is free.

    For represented matroids this is the minimum-weight kernel vector;
    its support is a circuit.  Oracle matroids fall back to subset
    enumeration by increasing size.  `workers` is accepted for callers
    that pass it and changes nothing: the search runs in one thread.
    """
    if isinstance(M, ReprMatroid):
        w, witness = min_weight(orth_complement(M.space))
        if w is None:
            return None
        support = tuple(e for e, x in zip(M.ground, witness) if x)
        return w, support
    if M.size > cap:
        raise CapExceeded(f"|E|={M.size} exceeds circuit enumeration cap {cap}")
    for s in range(1, M.size + 1):
        for S in combinations(M.ground, s):
            if M.rank_of(S) < s:
                return s, S
    return None


def girth(M, cap=DEFAULT_SUBSET_CAP, workers=1):
    hit = smallest_circuit(M, cap=cap, workers=workers)
    return None if hit is None else hit[0]


def smallest_cocircuit(M, cap=DEFAULT_SUBSET_CAP, workers=1):
    """(size, sorted labels) of a smallest cocircuit, or None if M has
    rank 0; the minimum-weight row-space vector for represented matroids.
    `workers` changes nothing, as in smallest_circuit."""
    if isinstance(M, ReprMatroid):
        w, witness = min_weight(M.space)
        if w is None:
            return None
        support = tuple(e for e, x in zip(M.ground, witness) if x)
        return w, support
    return smallest_circuit(dual(M), cap=cap, workers=workers)


def cogirth(M, cap=DEFAULT_SUBSET_CAP, workers=1):
    hit = smallest_cocircuit(M, cap=cap, workers=workers)
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
    if isinstance(M, ReprMatroid):
        classes = _parallel_classes_repr(M)
        if None in classes:
            return False
        return all(len(v) == 1 for v in classes.values())
    nonloops = [e for e in M.ground if M.rank_of({e}) == 1]
    if len(nonloops) != M.size:
        return False
    for e, f in combinations(nonloops, 2):
        if M.rank_of({e, f}) == 1:
            return False
    return True


def simplify(M):
    """Delete loops and all but the least-labelled element per parallel class."""
    if isinstance(M, ReprMatroid):
        classes = _parallel_classes_repr(M)
        drop = list(classes.pop(None, []))
        for members in classes.values():
            drop.extend(members[1:])  # ground is sorted, so members[0] is least
        return delete(M, drop)
    drop = [e for e in M.ground if M.rank_of({e}) == 0]
    kept = []
    for e in M.ground:
        if M.rank_of({e}) == 0:
            continue
        if any(M.rank_of({e, f}) == 1 for f in kept):
            drop.append(e)
        else:
            kept.append(e)
    return delete(M, drop)


def loops(M):
    if isinstance(M, ReprMatroid):
        return tuple(e for e in M.ground if not any(M.column(e)))
    return tuple(e for e in M.ground if M.rank_of({e}) == 0)


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
    column is a tuple of codes, () when zero, and w loses the multiple of
    v that clears w at v's first nonzero entry.  reduce_by(v, rest)
    returns rest with v eliminated from each column.
    """
    F = M.field
    cols = [M.column(e) for e in M.ground]
    if F.q == 2:
        def reduce_by(v, rest):
            low = v & -v
            return [w ^ v if w & low else w for w in rest]

        return [sum(x << i for i, x in enumerate(col)) for col in cols], reduce_by
    add, mul, neg, inv = F.add, F.mul, F.neg, F.inv

    def reduce_by(v, rest):
        p = next(i for i, x in enumerate(v) if x)
        f0 = neg(inv(v[p]))
        out = []
        for w in rest:
            if w and w[p]:
                f = mul(w[p], f0)
                w = tuple(add(x, mul(f, y)) for x, y in zip(w, v))
                if not any(w):
                    w = ()
            out.append(w)
        return out

    return [col if any(col) else () for col in cols], reduce_by


def all_subset_ranks(M, cap=DEFAULT_SUBSET_CAP):
    """ranks[mask] over the sorted ground set; bit i is ground[i].

    A depth-first walk adds elements in increasing order.  Each node hands
    its children the columns after it already reduced modulo the span of
    its own columns, so a column is in that span iff it reduced to zero,
    and a child does one elimination per remaining column.
    """
    n = M.size
    if n > cap:
        raise CapExceeded(f"|E|={n} exceeds subset enumeration cap {cap}")
    if isinstance(M, OracleMatroid):
        g = M.ground
        return [M.rank_of([g[i] for i in range(n) if mask >> i & 1])
                for mask in range(1 << n)]
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


class _IsoProfile:
    """A rank table with the invariants the isomorphism search prunes on.
    The element signatures are built on first use, after the rank
    histograms have matched: an element's rank and the sorted ranks of the
    pairs and of the triples through it.  In a simple matroid every pair
    has rank 2, so only the triples (the lines through an element) tell
    its elements apart."""

    def __init__(self, ground, ranks):
        self.n = len(ground)
        self.ground = ground
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
    return _IsoProfile(M.ground, all_subset_ranks(M, cap=cap))


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
        phi = {P1.ground[i]: P2.ground[j] for i, j in enumerate(mapping)}
        return projectively_equivalent(relabel(M1, phi), M2)

    return _iso_search(P1, P2, accept)


def has_minor(M, N, cap=DEFAULT_MINOR_CAP):
    """Search for disjoint (C, D) with M/C\\D isomorphic to N.

    C runs over independent sets of the right size only (contracting any
    set equals contracting a basis of it and deleting the rest), in
    sorted label order, so the witness is deterministic.  M's rank table
    is built once; each candidate's table is read from it, since
    r(M/C\\D)(X) = r(X + C) - r(C).  A candidate must first match N's
    rank and its sorted singleton and pair ranks, read from that table,
    before its own table and profile are built.
    Returns (found, (C, D) or None).
    """
    if M.size > cap:
        raise CapExceeded(f"|E|={M.size} exceeds minor search cap {cap}")
    if N.size > M.size or N.rank > M.rank:
        return False, None
    if (M.size - M.rank) < (N.size - N.rank):
        return False, None
    c = M.rank - N.rank
    d = M.size - N.size - c
    if d < 0:
        return False, None
    PN = _profile(N, cap=max(cap, N.size))
    nbits = [1 << i for i in range(N.size)]
    singles = sorted([PN.ranks[b] for b in nbits])
    pairs = sorted([PN.ranks[a | b] for a, b in combinations(nbits, 2)])
    ranks = all_subset_ranks(M, cap=cap)
    bit = {e: 1 << i for i, e in enumerate(M.ground)}
    for C in combinations(M.ground, c):
        cmask = sum(bit[e] for e in C)
        if ranks[cmask] < c:
            continue
        rest = [e for e in M.ground if e not in C]
        for D in combinations(rest, d):
            kept = [e for e in rest if e not in D]
            bits = [bit[e] for e in kept]
            if (ranks[cmask | sum(bits)] - c != N.rank
                    or sorted([ranks[cmask | b] - c for b in bits]) != singles
                    or sorted([ranks[cmask | a | b] - c
                               for a, b in combinations(bits, 2)]) != pairs):
                continue
            masks = [cmask]
            for b in bits:
                masks += [m | b for m in masks]
            PC = _IsoProfile(kept, [ranks[m] - c for m in masks])
            if _iso_search(PC, PN, lambda mapping: True):
                return True, (tuple(C), tuple(D))
    return False, None


def vertical_connectivity(M, cap=DEFAULT_VCONN_CAP, with_witness=False):
    """Largest k such that every partition (X, Y) with
    r(X)+r(Y)-r(M) < k-1 has a spanning side; UNBOUNDED if no partition
    has two non-spanning sides.  With with_witness=True, also returns the
    first minimizing partition (X, Y), or None when unbounded."""
    n = M.size
    if n > cap:
        raise CapExceeded(f"|E|={n} exceeds partition enumeration cap {cap}")
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
