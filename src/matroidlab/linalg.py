"""Exact linear algebra over finite fields.

Matrices carry label sets for rows and columns rather than positions,
because every downstream object (matroids, templates) indexes by ground
set labels.  A canonical label order (sorted, ints before strings) is
fixed so that reduced row echelon forms, and hence all serialized
output, are deterministic.

The row space of a matrix is held canonically as a Subspace: an RREF
basis over the sorted ambient label set.  rref_rows, reduce_vector,
extend_echelon and combine are the one echelon kernel: the rest of the
library reduces vectors and combines rows through them, except
all_subset_ranks and min_weight's packed scoring.  all_subset_ranks
counts codewords by zero set through the field's numpy tables
(Greene's identity), or below its size floor walks the subsets with XOR
over GF(2) and F.axpy elsewhere.  Each row update in the four kernel
functions is one call of the field's row kernel, F.axpy(f, xs, ys)
(f != 0) or F.scale(f, xs), on row lists of equal length.
Minimum-weight search is an honest enumeration, organized by coefficient
support so that it prunes to the candidates that can still win.
"""

from functools import lru_cache
from itertools import combinations, product

import numpy as np

from .errors import CapExceeded, LabelMismatch, check_budget
from .field import _digits, _undigits

DEFAULT_WEIGHT_CAP = 1 << 24


def label_key(label):
    """Total order over labels; ints sort first, everything else by str."""
    if isinstance(label, bool) or not isinstance(label, int):
        return (1, str(label))
    return (0, label)


def sort_labels(labels):
    return tuple(sorted(labels, key=label_key))


# ---------------------------------------------------------------------------
# low-level routines on plain lists of rows
# ---------------------------------------------------------------------------

def rref_rows(field, rows):
    """Reduced row echelon form.  Returns (nonzero rows, pivot col indices)."""
    axpy, scale, neg, inv = field.axpy, field.scale, field.neg, field.inv
    work = [list(r) for r in rows]
    m = len(work)
    n = len(work[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        pr = None
        for i in range(r, m):
            if work[i][c]:
                pr = i
                break
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        a = work[r][c]
        if a != 1:
            work[r] = scale(inv(a), work[r])
        rr = work[r]
        for i in range(m):
            if i != r and work[i][c]:
                work[i] = axpy(neg(work[i][c]), work[i], rr)
        pivots.append(c)
        r += 1
        if r == m:
            break
    return [tuple(row) for row in work[:r]], pivots


def null_space_rows(field, basis, pivots, n):
    """Basis of {x in F^n : M x = 0} for the matrix M whose rows are an
    RREF basis with the given pivot columns, as rref_rows returns them:
    one vector per free column c, 1 at c and -M[i][c] at pivot i."""
    pivset = set(pivots)
    neg = field.neg
    out = []
    for c in range(n):
        if c in pivset:
            continue
        v = [0] * n
        v[c] = 1
        for row, p in zip(basis, pivots):
            v[p] = neg(row[c])
        out.append(tuple(v))
    return out


def reduce_vector(field, basis, pivots, v):
    """The remainder of v modulo an echelon basis, as a list.

    Row i of `basis` is 1 at pivots[i] and 0 at every earlier pivot (an
    RREF basis is one such), so clearing v at each pivot in turn leaves
    zero exactly when v lies in the span.
    """
    v = list(v)
    for row, p in zip(basis, pivots):
        if v[p]:
            v = field.axpy(field.neg(v[p]), v, row)
    return v


def extend_echelon(field, basis, pivots, v):
    """(basis, pivots), as tuples, grown by v's remainder scaled to 1 at
    its first nonzero entry; unchanged when v lies in the span."""
    rest = reduce_vector(field, basis, pivots, v)
    for p, x in enumerate(rest):
        if x:
            if x != 1:
                rest = field.scale(field.inv(x), rest)
            return basis + (tuple(rest),), pivots + (p,)
    return basis, pivots


def combine(field, coeffs, rows):
    """The linear combination sum coeffs[i] * rows[i] of non-empty rows."""
    out = [0] * len(rows[0])
    for c, row in zip(coeffs, rows):
        if c:
            out = field.axpy(c, out, row)
    return tuple(out)


def normalizer(field):
    """normalize(v): v scaled to 1 at its first nonzero entry, None if zero.
    Two nonzero vectors are parallel iff they normalize alike."""
    scale, inv = field.scale, field.inv

    def normalize(v):
        lead = next((x for x in v if x), None)
        if lead is None:
            return None
        return tuple(scale(inv(lead), v))

    return normalize


def transpose(vectors, n):
    """The n columns of a list of rows, or the n rows of a list of
    columns, as tuples: n empty ones when the list is empty."""
    return list(zip(*vectors)) if vectors else [()] * n


def unit_vectors(n):
    """The n unit vectors of F^n, as tuples: the rows, and the columns, of
    the n x n identity."""
    return [tuple(int(i == j) for i in range(n)) for j in range(n)]


# ---------------------------------------------------------------------------
# labelled matrices
# ---------------------------------------------------------------------------

class Matrix:
    """Dense matrix over a finite field with row/column label sets.

    Construction order of labels is preserved; `data[i][j]` is the entry
    at (rows[i], cols[j]).  Entries are integer field codes.
    """

    __slots__ = ("field", "rows", "cols", "data", "_rindex", "_cindex")

    def __init__(self, field, rows, cols, data):
        rows = tuple(rows)
        cols = tuple(cols)
        if len(set(rows)) != len(rows):
            raise LabelMismatch("duplicate row labels")
        if len(set(cols)) != len(cols):
            raise LabelMismatch("duplicate column labels")
        data = tuple(tuple(int(x) for x in row) for row in data)
        if len(data) != len(rows) or any(len(r) != len(cols) for r in data):
            raise LabelMismatch("data shape does not match label sets")
        q = field.q
        for row in data:
            for x in row:
                if not 0 <= x < q:
                    raise ValueError(f"entry {x} is not a code in {field!r}")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = data
        self._rindex = {r: i for i, r in enumerate(rows)}
        self._cindex = {c: j for j, c in enumerate(cols)}

    @classmethod
    def identity(cls, field, labels):
        labels = tuple(labels)
        return cls(field, labels, labels, unit_vectors(len(labels)))

    def entry(self, r, c):
        return self.data[self._rindex[r]][self._cindex[c]]

    def submatrix(self, rows, cols):
        rows, cols = tuple(rows), tuple(cols)
        ri = [self._rindex[r] for r in rows]
        cj = [self._cindex[c] for c in cols]
        return Matrix(self.field, rows, cols,
                      [[self.data[i][j] for j in cj] for i in ri])

    def __eq__(self, other):
        return (isinstance(other, Matrix)
                and (self.field, self.rows, self.cols, self.data)
                == (other.field, other.rows, other.cols, other.data))

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.data))

    def __repr__(self):
        return f"Matrix({self.field!r}, {len(self.rows)}x{len(self.cols)})"


def rref(A: Matrix):
    """RREF in A's own column order.  Returns (R, rank, pivot labels)."""
    red, piv = rref_rows(A.field, A.data)
    R = Matrix(A.field, tuple(range(len(red))), A.cols, red)
    return R, len(red), tuple(A.cols[j] for j in piv)


# ---------------------------------------------------------------------------
# subspaces of F^E
# ---------------------------------------------------------------------------

def _ambient_layout(ambient):
    """(sorted order, positions of the sorted labels in `ambient` or None
    when it is already sorted, label -> index in the order)."""
    if len(set(ambient)) != len(ambient):
        raise LabelMismatch("duplicate ambient labels")
    order = sort_labels(ambient)
    perm = None if ambient == order else tuple(map(ambient.index, order))
    return order, perm, {lbl: i for i, lbl in enumerate(order)}


# Labels of exactly these types are equal only when label_key agrees, so an
# ambient of them can key a cache: equal labels such as 1 and True, or 0.0
# and -0.0, would merge under a cache key and sort apart under label_key.
_PLAIN_LABEL_TYPES = frozenset((int, str))
# lru_cache keeps no exceptions, so a duplicate ambient raises on every call
_cached_ambient_layout = lru_cache(maxsize=1024)(_ambient_layout)


def _layout_of(ambient):
    """_ambient_layout(ambient), cached when every label is a plain int or str."""
    ambient = tuple(ambient)
    if _PLAIN_LABEL_TYPES.issuperset(map(type, ambient)):
        return _cached_ambient_layout(ambient)
    return _ambient_layout(ambient)


class Subspace:
    """A subspace of F^E held as an RREF basis over the sorted ambient set.

    The ambient set is sorted once per distinct tuple of int and str
    labels (_cached_ambient_layout); other labels are sorted per call.
    A caller that already holds the RREF builds it with _of_reduced,
    which shares that layout and skips the row reduction."""

    __slots__ = ("field", "ambient", "basis", "pivots", "_index")

    def __init__(self, field, ambient, vectors):
        order, perm, index = _layout_of(ambient)
        if perm is not None:
            vectors = [[v[i] for i in perm] for v in vectors]
        basis, piv = rref_rows(field, vectors)
        self.field = field
        self.ambient = order
        self.basis = tuple(basis)
        self.pivots = tuple(piv)
        self._index = index  # shared with every Subspace on this ambient

    @classmethod
    def _of_reduced(cls, field, ambient, basis, pivots, index=None):
        """The subspace whose RREF basis over `ambient`, which must already
        be sorted, is `basis` with `pivots`: taken as given, not reduced.
        A caller holding a Subspace on the same ambient passes its
        `ambient` and `_index`, and the layout is shared unchecked."""
        if index is None:
            ambient, perm, index = _layout_of(ambient)
            if perm is not None:
                raise LabelMismatch("reduced rows need a sorted ambient")
        self = object.__new__(cls)
        self.field, self.ambient, self._index = field, ambient, index
        self.basis, self.pivots = tuple(basis), tuple(pivots)
        return self

    @property
    def dim(self):
        return len(self.basis)

    def index(self, label):
        return self._index[label]

    def contains(self, vec):
        """Membership test; vec is aligned with the sorted ambient labels."""
        return not any(reduce_vector(self.field, self.basis, self.pivots, vec))

    def vectors(self):
        """All q^dim vectors, in deterministic order.  Small spaces only."""
        F = self.field
        out = [tuple([0] * len(self.ambient))]
        for row in self.basis:
            new = []
            for v in out:
                new.append(v)
                new.extend(tuple(F.axpy(s, v, row)) for s in F.nonzero())
            out = new
        return out

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and (self.field, self.ambient, self.basis)
                == (other.field, other.ambient, other.basis))

    def __hash__(self):
        return hash((self.field, self.ambient, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, |E|={len(self.ambient)}, {self.field!r})"


def orth_complement(U: Subspace) -> Subspace:
    """All vectors orthogonal (standard bilinear form) to every vector of U."""
    comp = null_space_rows(U.field, U.basis, U.pivots, len(U.ambient))
    return Subspace(U.field, U.ambient, comp)


def _check_common(U: Subspace, V: Subspace):
    if U.field != V.field or U.ambient != V.ambient:
        raise LabelMismatch("sum needs identical field and ambient set")


def intersect_spaces(U: Subspace, V: Subspace) -> Subspace:
    """The intersection of U and V by Zassenhaus' method: one RREF of the
    rows (u | u) and (v | 0).  A row with zero left half is (u + v | u)
    with u = -v, so the right halves of the rows that pivot in the right
    half span the intersection.  Those right halves are already an RREF
    basis, with the pivots shifted by n."""
    _check_common(U, V)
    n = len(U.ambient)
    rows = [u + u for u in U.basis] + [v + (0,) * n for v in V.basis]
    red, piv = rref_rows(U.field, rows)
    k = sum(p < n for p in piv)  # pivots ascend: the right-half rows come last
    return Subspace._of_reduced(U.field, U.ambient, [row[n:] for row in red[k:]],
                                [p - n for p in piv[k:]], U._index)


# ---------------------------------------------------------------------------
# minimum Hamming weight of a subspace
# ---------------------------------------------------------------------------

MW_CHUNK_WORDS = 1 << 18  # packed words per batch of combinations; bounds its memory


def _pack_words(bits):
    """Rows of 0/1 entries as little-endian uint64 words ('<u8'), at least
    one per row: bit j of a row is bit j % 64 of word j // 64, whatever the
    host's byte order.

    Rows are padded with zero bits only to whole bytes (a copy only when
    n % 8 != 0), one flat packbits packs them all, and the packed bytes are
    copied into zeroed rows of whole words; rows of length 0 still get a
    word to sort and XOR."""
    bits = np.asarray(bits, dtype=bool)
    rows, n = bits.shape
    nbytes = -(-n // 8)
    if n % 8:
        padded = np.zeros((rows, 8 * nbytes), dtype=bool)
        padded[:, :n] = bits
        bits = padded
    packed = np.packbits(bits, bitorder="little")
    out = np.zeros((rows, 8 * max(1, -(-n // 64))), dtype=np.uint8)
    out[:, :nbytes] = packed.reshape(rows, nbytes)
    return out.view("<u8")


@lru_cache(maxsize=256)
def _word_layout(F, n):
    """(pack, unpack, add, weight) for vectors of F^n packed into rows of
    uint64 words.

    Each base-p digit of an element code gets a lane of w bits; coordinate
    j owns e lanes, and a word holds 64 // (e*w) whole coordinates.  Over
    characteristic 2 a lane is one bit and addition is XOR, since element
    codes are digit vectors; over GF(2) itself a word is 64 coordinates,
    and _pack_words packs them.  For odd p a lane has p.bit_length()+1 bits:
    lanes are added as integers, then p is subtracted from every lane that
    reached p, found by adding H-p to each lane and reading its high bit H.
    The weight is the popcount of one nonzero flag per coordinate (the OR
    of its e lane flags).  Unused lanes stay zero, so every word shares one
    set of constants.
    """
    p, e = F.p, F.k
    w = 1 if p == 2 else p.bit_length() + 1
    coord_bits = e * w
    per_word = 64 // coord_bits
    words = -(-n // per_word)
    ones = sum(1 << (i * w) for i in range(per_word * e))
    high = np.uint64(ones << (w - 1))
    if p > 2:
        carry_adj = np.uint64(((1 << (w - 1)) - p) * ones)
        nonzero_adj = np.uint64(((1 << (w - 1)) - 1) * ones)
    flags = np.uint64(sum(1 << (j * coord_bits) for j in range(per_word)) << (w - 1))
    shifts = np.arange(per_word, dtype=np.uint64) * np.uint64(coord_bits)
    # over GF(2^e) and GF(p) an element code is already its lane pattern
    plain = p == 2 or e == 1

    def pack(codes):
        codes = np.asarray(codes, dtype=np.uint64)
        lanes = np.zeros((len(codes), words * per_word), dtype=np.uint64)
        for i in range(1 if plain else e):
            digit = codes if plain else codes // np.uint64(p ** i) % np.uint64(p)
            lanes[:, :n] |= digit << np.uint64(i * w)
        return np.bitwise_or.reduce(lanes.reshape(-1, words, per_word) << shifts, axis=2)

    def unpack(x):
        x, mask = x.tolist(), (1 << coord_bits) - 1
        out = []
        for j in range(n):
            c = (x[j // per_word] >> (j % per_word * coord_bits)) & mask
            out.append(c if plain else _undigits(_digits(c, 1 << w, e), p))
        return tuple(out)

    def add(a, b):
        """a + b, written into a."""
        if p == 2:
            return np.bitwise_xor(a, b, out=a)
        a += b
        a -= (((a + carry_adj) & high) >> np.uint64(w - 1)) * np.uint64(p)
        return a

    def weight(x):
        f = x if p == 2 else (x + nonzero_adj) & high
        g = f
        for t in range(1, e):
            g = g | (f >> np.uint64(t * w))
        if e > 1:
            g &= flags
        counts = np.bitwise_count(g)
        return counts[:, 0] if words == 1 else counts.sum(axis=1)

    return (_pack_words if p == 2 and e == 1 else pack), unpack, add, weight


def min_weight(U: Subspace, *, cap=DEFAULT_WEIGHT_CAP):
    """Minimum Hamming weight over nonzero vectors of U, with a witness.

    Returns (None, None) for the zero space.  Combinations of basis rows
    are enumerated by level (the number s of rows with a nonzero
    coefficient), and within a level in lexicographic order of their
    (row, scalar) pairs with rows increasing.  A combination of s rows has
    weight at least s at the pivot columns, so the search stops once the
    best weight is at most the current level.  The witness is the first
    vector of least weight in that order.

    Vectors are packed into uint64 words (see _word_layout).  A level is
    built from the combinations of the level below it, each extended by
    every later (row, scalar), and scored in numpy batches of at most
    MW_CHUNK_WORDS words.  A level that fits in one batch is kept to build
    the next; a larger one is rebuilt batch by batch when needed, so memory
    stays within a few batches per level, whatever `cap` allows.

    `cap` limits the combinations actually scored.  The extensions of one
    prefix are charged together, before any of them is scored;
    CapExceeded says how many were done.
    """
    F = U.field
    k = U.dim
    n = len(U.ambient)
    if k == 0:
        return None, None
    nz = F.nonzero()
    per_row = len(nz)

    def over_cap(done, more):
        return CapExceeded(f"minimum-weight search enumerated {done} combinations; "
                           f"the next {more} would pass the cap {cap}; raise it with --cap")

    # level 1 is the table of scaled rows itself: check it before building
    if k * per_row > cap:
        raise over_cap(0, k * per_row)
    pack, unpack, add, weight = _word_layout(F, n)
    table = pack([row if s == 1 else F.scale(s, row) for row in U.basis for s in nz])
    batch = max(1, MW_CHUNK_WORDS // table.shape[1])

    def extend(acc, last, counts):
        """(vectors, table rows) of the prefixes acc, whose last basis rows
        are `last`, each plus the next counts[i] scaled rows after row
        last[i], in order: prefix, then row, then scalar."""
        ends = counts.cumsum()
        starts = ends - counts
        shift = (last + 1) * per_row - starts  # table row of leaf t is t + shift
        total = int(ends[-1]) if len(ends) else 0
        for a in range(0, total, batch):
            b = a + batch
            reps = np.minimum(ends, b) - np.maximum(starts, a)
            np.maximum(reps, 0, out=reps)
            idx = np.arange(a, min(b, total)) + shift.repeat(reps)
            yield add(table[idx], acc.repeat(reps, axis=0)), idx

    # each level scored in one batch, as (vectors, last rows); combos
    # rebuilds the others from the largest kept level below them
    kept = {0: (np.zeros((1, table.shape[1]), dtype=np.uint64), np.array([-1]))}

    def combos(size, room):
        """(vectors, last rows) of the combinations of `size` basis rows
        that leave at least `room` rows after their last, in order."""
        if size in kept:
            vecs, last = kept[size]
            fits = last < k - room
            yield vecs[fits], last[fits]
            return
        for acc, last in combos(size - 1, room + 1):
            for vecs, idx in extend(acc, last, (k - room - 1 - last) * per_row):
                yield vecs, idx // per_row

    done, best_w, best = 0, n + 1, None
    for level in range(1, k + 1):
        if best_w <= level:
            break
        batches = 0
        for acc, last in combos(level - 1, 1):
            counts = (k - 1 - last) * per_row
            ends = done + counts.cumsum()
            fit = int(ends.searchsorted(cap, side="right"))
            for vecs, idx in extend(acc[:fit], last[:fit], counts[:fit]):
                wts = weight(vecs)
                i = wts.argmin()
                if wts[i] < best_w:
                    best_w, best = int(wts[i]), vecs[i]
                    if best_w == level:
                        return best_w, unpack(best)
                batches += 1
            if fit < len(last):
                raise over_cap(int(ends[fit - 1]) if fit else done, int(counts[fit]))
            done = int(ends[-1])
        if batches == 1:
            kept[level] = vecs, idx // per_row
    return best_w, unpack(best)


# ---------------------------------------------------------------------------
# enumeration of all subspaces of F^n (desk scale)
# ---------------------------------------------------------------------------

def enumerate_subspaces(field, n, cap=100000, start=0):
    """Generate the subspaces of F^n of dimension start or more as RREF
    basis tuples, in a fixed order.

    Order: by dimension, then pivot-set lexicographic, then free-entry
    assignment, so start=k yields the suffix of the full order from
    dimension k on.  The budget counts all G_n(q) subspaces, whatever
    `start` skips; it is checked against `cap` before the first subspace is
    built, and a caller that stops early builds no more.
    """
    check_budget(subspace_count(field.q, n), "subspaces", cap)
    for d in range(start, n + 1):
        for piv in combinations(range(n), d):
            free = [(i, c) for i in range(d)
                    for c in range(piv[i] + 1, n) if c not in piv]
            for assign in product(field.elements(), repeat=len(free)):
                rows = [[0] * n for _ in range(d)]
                for i in range(d):
                    rows[i][piv[i]] = 1
                for (i, c), v in zip(free, assign):
                    rows[i][c] = v
                yield tuple(tuple(r) for r in rows)


def gaussian_binomial(n, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


@lru_cache(maxsize=256)
def subspace_count(q, n):
    """G_n(q), the number of subspaces of F^n over a field of q elements,
    cached for the last 256 (q, n) asked for, since enumerate_subspaces
    checks its budget against it on every call."""
    return sum(gaussian_binomial(n, k, q) for k in range(n + 1))
