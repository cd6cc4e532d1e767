"""Slow, independent reference implementations used only by the tests."""

from fractions import Fraction
from heapq import heappop, heappush
from itertools import combinations, count, permutations, product
import random

import numpy as np

from matroidlab.codes import _codeword_table
from matroidlab.constructions import pg
from matroidlab.errors import (
    CapExceeded,
    LabelClash,
    LabelMismatch,
    ToolkitError,
    check_budget,
)
from matroidlab.field import subfield_lattice
from matroidlab.linalg import (
    Matrix,
    Subspace,
    _check_common,
    combine,
    label_key,
    null_space_rows,
    orth_complement,
    rref_rows,
    sort_labels,
)
from matroidlab.matroid import (
    ReprMatroid,
    _parallel_classes_repr,
    contract,
    delete,
    dual,
    from_generator,
    isomorphic,
    minor,
    rank_of,
)
from matroidlab.perturb import elementary_lifts, elementary_projections
from matroidlab.templates import (
    ConformanceReport,
    SubfieldTemplate,
    _FrameLayout,
    _is_gamma_frame_column,
    _is_unit_column,
    check_frame_conforms,
    check_subfield,
    frame_matroid_of,
)


def random_matrix(field, m, n, rng):
    return Matrix(field, tuple(range(m)), tuple(range(n)),
                  [[rng.randrange(field.q) for _ in range(n)] for _ in range(m)])


def axpy_reference(F, f, xs, ys):
    """x + f*y entry by entry, through F.add and F.mul only."""
    return [F.add(x, F.mul(f, y)) for x, y in zip(xs, ys)]


def scale_reference(F, f, xs):
    return [F.mul(f, x) for x in xs]


class PolyField:
    """GF(p^k) by its definition, independent of FiniteField's tables: a
    code's little-endian base-p digits are a polynomial over GF(p), a sum
    adds digits mod p, and a product is the polynomial product reduced by
    the modulus of F.  Every operation takes codes or numpy arrays of codes
    and works entry by entry, with broadcasting."""

    def __init__(self, F):
        self.p, self.k, self.q = F.p, F.k, F.q
        # x^k = sum of low[i] x^i modulo the modulus
        self.low = [-c % F.p for c in F.modulus[:-1]] if F.k > 1 else []
        self.weights = F.p ** np.arange(F.k)
        self.divisors = [d for d in range(1, F.q) if (F.q - 1) % d == 0]

    def digits(self, a):
        return np.asarray(a, dtype=np.int64)[..., None] // self.weights % self.p

    def code(self, digits):
        return digits % self.p @ self.weights

    def add(self, a, b):
        return self.code(self.digits(a) + self.digits(b))

    def neg(self, a):
        return self.code(-self.digits(a))

    def sub(self, a, b):
        return self.code(self.digits(a) - self.digits(b))

    def mul(self, a, b):
        da, db = np.broadcast_arrays(self.digits(a), self.digits(b))
        k = self.k
        prod = np.zeros(da.shape[:-1] + (2 * k - 1,), dtype=np.int64)
        for i in range(k):
            prod[..., i:i + k] += da[..., i:i + 1] * db
        for d in range(2 * k - 2, k - 1, -1):
            for i, c in enumerate(self.low):
                prod[..., d - k + i] += prod[..., d] % self.p * c
        return self.code(prod[..., :k])

    def pow(self, a, e):
        """a^e; a negative e inverts a first."""
        a, e = np.broadcast_arrays(np.asarray(a, dtype=np.int64), np.asarray(e, dtype=np.int64))
        if (e < 0).any():
            a, e = np.where(e < 0, self.inv(a), a), abs(e)
        out = np.ones_like(a)
        while e.any():
            out = np.where(e & 1, self.mul(out, a), out)
            a, e = self.mul(a, a), e >> 1
        return out

    def inv(self, a):
        return self.pow(a, self.q - 2)  # for a != 0

    def element_order(self, a):
        """The least divisor d of q-1 with a^d = 1 (a != 0)."""
        order = np.zeros_like(np.asarray(a))
        for d in reversed(self.divisors):
            order[self.pow(a, d) == 1] = d
        return order

    def axpy(self, f, xs, ys):
        return self.add(xs, self.mul(f, ys))

    def scale(self, f, xs):
        return self.mul(f, xs)


def rref_reference(F, rows):
    """(nonzero RREF rows, pivot columns) by scalar elimination, through
    F.add, F.mul, F.neg and F.inv only; the RREF is unique, so this must
    agree with any correct elimination."""
    work = [list(r) for r in rows]
    n = len(work[0]) if work else 0
    pivots = []
    for c in range(n):
        r = len(pivots)
        pr = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        work[r] = scale_reference(F, F.inv(work[r][c]), work[r])
        for i in range(len(work)):
            if i != r and work[i][c]:
                work[i] = axpy_reference(F, F.neg(work[i][c]), work[i], work[r])
        pivots.append(c)
    return [tuple(row) for row in work[:len(pivots)]], pivots


def combine_reference(F, coeffs, rows):
    """sum coeffs[i] * rows[i] of non-empty rows, by scalar operations."""
    out = [0] * len(rows[0])
    for c, row in zip(coeffs, rows):
        out = axpy_reference(F, c, out, row)
    return tuple(out)


def reduce_reference(F, basis, pivots, v):
    """v minus v[p]*row for each echelon row in turn, by scalar operations."""
    v = list(v)
    for row, p in zip(basis, pivots):
        if v[p]:
            v = axpy_reference(F, F.neg(v[p]), v, row)
    return v


def random_matroid(field, max_n, rng, min_n=1):
    n = rng.randint(min_n, max_n)
    m = rng.randint(0, n)
    return from_generator(random_matrix(field, m, n, rng))


def proj_equiv_bruteforce(M1: ReprMatroid, M2: ReprMatroid) -> bool:
    """Try every nonsingular diagonal scaling."""
    F = M1.field
    n = M1.size
    if M1.ground != M2.ground or F != M2.field:
        raise ValueError("ground sets and field must match")
    basis = M1.space.basis
    for scales in product(F.nonzero(), repeat=n):
        scaled = [[F.mul(x, s) for x, s in zip(row, scales)] for row in basis]
        if Subspace(F, M1.ground, scaled) == M2.space:
            return True
    return False


def confined_bruteforce(M: ReprMatroid, sub_codes) -> bool:
    """Try every column scaling; confined iff some scaled RREF lands in F0."""
    F = M.field
    n = M.size
    basis = M.space.basis
    if not basis:
        return True
    for scales in product(F.nonzero(), repeat=n):
        scaled = [[F.mul(x, s) for x, s in zip(row, scales)] for row in basis]
        red, _ = rref_rows(F, scaled)
        if all(x in sub_codes for row in red for x in row):
            return True
    return False


def min_weight_reference(U: Subspace):
    """Tuple-based minimum-weight enumeration with the library's witness order.

    Combinations of basis rows are enumerated by level (number of rows
    used), then in tasks keyed by (first row, first scalar), then depth
    first over (row, scalar) pairs; the result is the least key
    (weight, level, task, counter).  Levels past the best weight are
    skipped, since s rows give weight at least s at the pivot columns.
    """
    F = U.field
    k = U.dim
    if k == 0:
        return None, None
    nz = list(F.nonzero())
    scaled = [{s: tuple(F.mul(s, x) for x in row) for s in nz} for row in U.basis]
    best = None  # (w, level, task, counter, witness)

    for level in range(1, k + 1):
        if best is not None and level > best[0]:
            break
        tasks = ((f, s) for f in range(k - level + 1) for s in nz)
        for task_idx, (first, s0) in enumerate(tasks):
            counter = 0

            def rec(start, remaining, acc):
                nonlocal best, counter
                if remaining == 0:
                    key = (len(acc) - acc.count(0), level, task_idx, counter, acc)
                    counter += 1
                    if best is None or key < best:
                        best = key
                    return
                for i in range(start, k - remaining + 1):
                    for s in nz:
                        rec(i + 1, remaining - 1,
                            tuple(F.add(x, y) for x, y in zip(acc, scaled[i][s])))

            rec(first + 1, level - 1, scaled[first][s0])
    return best[0], best[4]


def min_weight_bruteforce(U: Subspace, cap=1 << 24):
    """Scan all q^dim vectors; (weight, first vector of least weight)."""
    if U.dim == 0:
        return None, None
    if U.field.q ** U.dim > cap:
        raise CapExceeded("brute force cap")
    best = None
    for v in U.vectors():
        if any(v):
            w = len(v) - v.count(0)
            if best is None or w < best[0]:
                best = (w, v)
    return best


def row_space_equal(A: Matrix, B: Matrix) -> bool:
    """True iff A and B generate the same row space (same field and columns)."""
    if A.field != B.field:
        raise LabelMismatch("different fields")
    if set(A.cols) != set(B.cols):
        raise LabelMismatch("different column label sets")
    order = sort_labels(A.cols)
    ra, _ = rref_rows(A.field, A.submatrix(A.rows, order).data)
    rb, _ = rref_rows(B.field, B.submatrix(B.rows, order).data)
    return ra == rb


def smallest_circuit_bruteforce(M, cap=16):
    """First dependent subset in size order, via ranks."""
    if M.size > cap:
        raise CapExceeded("brute-force circuit cap")
    for s in range(1, M.size + 1):
        for S in combinations(M.ground, s):
            if rank_of(M, S) < s:
                return s, S
    return None


def rank_table(n, rank):
    """table[mask] = rank(S) for every subset S of range(n), as a list of
    indices in increasing order; bit i of mask is i."""
    return [rank([i for i in range(n) if mask >> i & 1]) for mask in range(1 << n)]


def subset_ranks_bruteforce(M):
    """ranks[mask] over the sorted ground set (bit i is ground[i]), one
    `rank_of` (an RREF of its columns) per subset."""
    g = M.ground
    return rank_table(M.size, lambda S: rank_of(M, [g[i] for i in S]))


def check_rank_axioms(n, rank):
    """Raise ValueError unless `rank`, a function on subsets of range(n),
    is the rank function of a matroid.

    Unit increase plus the local exchange inequality
    r(S+a) + r(S+b) >= r(S+a+b) + r(S) is equivalent to full
    submodularity, so the check is complete.
    """
    table = rank_table(n, rank)
    if table[0] != 0:
        raise ValueError("rank of empty set must be 0")
    for mask, rS in enumerate(table):
        rest = [1 << i for i in range(n) if not mask >> i & 1]
        for a in rest:
            rSa = table[mask | a]
            if rSa - rS not in (0, 1):
                raise ValueError("unit-increase axiom fails")
            for b in rest:
                if b > a and rSa + table[mask | b] < table[mask | a | b] + rS:
                    raise ValueError("submodularity fails")


def _at_most_one_cycle_each(edges):
    """True iff every component of the graph these edges span has at most
    as many edges as vertices."""
    adj = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    seen = set()
    for start in adj:
        if start in seen:
            continue
        comp, stack = set(), [start]
        while stack:
            x = stack.pop()
            if x not in comp:
                comp.add(x)
                stack.extend(adj[x])
        seen |= comp
        if sum(1 for u, _ in edges if u in comp) > len(comp):
            return False
    return True


def bicircular_rank_bruteforce(G, S):
    """The rank of the edge indices S in BM(G), by definition: the size of
    the largest subset of S in which no component of the spanned subgraph
    has more edges than vertices."""
    for size in range(len(S), -1, -1):
        for T in combinations(sorted(S), size):
            if _at_most_one_cycle_each([G.edges[i] for i in T]):
                return size


def isomorphic_bruteforce(M1, M2, cap=7):
    """Try every bijection of the ground sets (as index permutations)
    against the subset_ranks_bruteforce tables of both matroids."""
    n = M1.size
    if n > cap:
        raise CapExceeded("brute-force isomorphism cap")
    if M2.size != n:
        return False
    r1, r2 = subset_ranks_bruteforce(M1), subset_ranks_bruteforce(M2)
    for perm in permutations(range(n)):
        image = [0] * (1 << n)
        for mask in range(1, 1 << n):
            low = mask & -mask
            image[mask] = image[mask ^ low] | 1 << perm[low.bit_length() - 1]
            if r1[mask] != r2[image[mask]]:
                break
        else:
            return True
    return False


def has_minor_reference(M, N):
    """The per-candidate minor search: every independent C of size
    r(M) - r(N) and every D of the remaining size, in combinations order,
    each M/C\\D built by contract and delete and tested for isomorphism.
    Returns (found, (C, D) or None) in the library's witness order."""
    if N.size > M.size or N.rank > M.rank:
        return False, None
    c = M.rank - N.rank
    d = M.size - N.size - c
    if d < 0:
        return False, None
    for C in combinations(M.ground, c):
        if rank_of(M, C) < c:
            continue
        MC = contract(M, C)
        for D in combinations(MC.ground, d):
            if isomorphic(delete(MC, D), N, cap=N.size):
                return True, (tuple(C), tuple(D))
    return False, None


def h_exhaustive_reference(F, r, forbidden):
    """The first spanning point subset of PG(r-1, q), by decreasing size
    and in combinations order, whose restriction has no `forbidden` minor:
    one rank_of and one has_minor_reference per subset, no bucketing.
    Returns (value, witness labels)."""
    geometry = pg(r, F)
    points = geometry.ground
    for size in range(len(points), r - 1, -1):
        for S in combinations(points, size):
            if rank_of(geometry, S) != r:
                continue
            if not has_minor_reference(delete(geometry, set(points) - set(S)),
                                       forbidden)[0]:
                return size, S
    raise ValueError("every spanning restriction carries the forbidden minor")


def is_alpha_t_frame_reference(M, alpha, t, exact=False):
    """The (alpha, t)-frame search over label sets, every rank read from
    the subset_ranks_bruteforce table: the first basis split (V, T) in
    combinations order meeting both clauses of growth.is_alpha_t_frame."""
    n = M.size
    g = M.ground
    pos = {e: i for i, e in enumerate(g)}
    ranks = subset_ranks_bruteforce(M)
    r = ranks[(1 << n) - 1]
    if t > r:
        return False, None

    def rk(labels):
        mask = 0
        for e in labels:
            mask |= 1 << pos[e]
        return ranks[mask]

    for B in combinations(g, r):
        if rk(B) != r:
            continue
        outside = [e for e in g if e not in set(B)]
        fundamental = {}
        for e in outside:
            circ = [b for b in B if rk(tuple(set(B) - {b}) + (e,)) == r]
            fundamental[e] = set(circ)
        for T in combinations(B, t):
            V = [b for b in B if b not in set(T)]
            if any(len(fundamental[e] & set(V)) > 2 for e in outside):
                continue
            ok = True
            for u, v in combinations(V, 2):
                base = set(T)
                span_uv = rk(tuple(base | {u, v}))
                count = 0
                for w in g:
                    if w in base | {u, v}:
                        continue
                    if rk(tuple(base | {u, v, w})) != span_uv:
                        continue
                    if rk(tuple(base | {u, w})) == rk(tuple(base | {u})):
                        continue
                    if rk(tuple(base | {v, w})) == rk(tuple(base | {v})):
                        continue
                    count += 1
                if (count != alpha) if exact else (count < alpha):
                    ok = False
                    break
            if ok:
                return True, (tuple(V), tuple(T))
    return False, None


def has_minor_bruteforce(M, N, cap=8):
    """Try every disjoint (C, D) pair with the right sizes."""
    if M.size > cap:
        raise CapExceeded("brute-force minor cap")
    gone = M.size - N.size
    if gone < 0:
        return False
    ground = M.ground
    for csize in range(gone + 1):
        for C in combinations(ground, csize):
            rest = [e for e in ground if e not in C]
            for D in combinations(rest, gone - csize):
                if isomorphic(minor(M, C, D), N):
                    return True
    return False


def exact_ml_error(code, p, cap=1 << 20) -> float:
    """Sum the exact error contribution of every error pattern, each
    decoded against every codeword, with the same tie accounting as
    ml_error_mc."""
    codewords = _codeword_table(code, cap)
    n = codewords.shape[1]
    if 2 ** n > cap:
        raise CapExceeded("error pattern enumeration exceeds cap")
    patterns = np.arange(2 ** n, dtype=np.uint32)
    bits = ((patterns[:, None] >> np.arange(n)[None, :]) & 1).astype(np.uint8)
    dists = (bits[:, None, :] != codewords[None, :, :]).sum(axis=2)
    dmin = dists.min(axis=1)
    dzero = dists[:, 0]
    weights = bits.sum(axis=1)
    total = 0.0
    for i in range(2 ** n):
        prob = p ** int(weights[i]) * (1 - p) ** (n - int(weights[i]))
        if dzero[i] > dmin[i]:
            total += prob
        else:
            t = int((dists[i] == dmin[i]).sum())
            if t > 1:
                total += prob * (t - 1) / t
    return total


def pack_words_per_row(bits):
    """linalg._pack_words row by row: each row packed on its own, then padded
    with zero bytes to whole uint64 words, at least one."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    nbytes = packed.shape[1]
    return np.pad(packed, ((0, 0), (0, -nbytes % 8 if nbytes else 8))).view(np.uint64)


def mc_block_per_trial(words, n, true_idx, p, seed, block_idx, count):
    """codes._mc_block by the definition: the block's flips drawn in one
    piece as floats compared with p, every trial decoded against every
    codeword at once, and one tie fraction per distinct tie count."""
    rng = np.random.Generator(np.random.Philox(key=[seed, block_idx]))
    flips = pack_words_per_row(rng.random((count, n)) < p)
    dists = np.bitwise_count((words[true_idx] ^ flips)[:, None, :] ^ words[None, :, :])
    dists = dists.sum(axis=2)
    dmin = dists.min(axis=1)
    ties = (dists == dmin[:, None]).sum(axis=1)
    dtrue = dists[:, true_idx]
    hard = int((dtrue > dmin).sum())
    tied = ties[(dtrue == dmin) & (ties > 1)]
    frac = Fraction(0)
    for t, times in zip(*np.unique(tied, return_counts=True)):
        frac += Fraction(int(times) * (int(t) - 1), int(t))
    return hard, frac


def pert_exact_tiny(pair, cap=1 << 20) -> int:
    """Literal enumeration over generator pairs (T1 B1, T2 B2) at row count
    dim U1 + dim U2, minimizing rank(A1 - A2): the definition of pert_exact."""
    F = pair.field
    U1, U2 = pair.m1.space, pair.m2.space
    d1, d2 = U1.dim, U2.dim
    m = d1 + d2
    if d1 == 0 or d2 == 0:
        return max(d1, d2)  # zero rows force the other space wholesale

    def full_rank_count(d):
        return _count_full_rank(F.q, m, d)

    if full_rank_count(d1) * full_rank_count(d2) > cap:
        raise CapExceeded("coefficient enumeration exceeds cap")

    def generators(basis, d):
        out = []
        for entries in product(F.elements(), repeat=m * d):
            T = [entries[i * d:(i + 1) * d] for i in range(m)]
            _, piv = rref_rows(F, T)
            if len(piv) != d:
                continue
            rows = []
            for trow in T:
                v = [0] * len(pair.ground)
                for c, brow in zip(trow, basis):
                    if c:
                        v = [F.add(x, F.mul(c, y)) for x, y in zip(v, brow)]
                rows.append(v)
            out.append(rows)
        return out

    best = None
    gens2 = generators(U2.basis, d2)
    for A1 in generators(U1.basis, d1):
        for A2 in gens2:
            diff = [[F.sub(x, y) for x, y in zip(r1, r2)]
                    for r1, r2 in zip(A1, A2)]
            _, piv = rref_rows(F, diff)
            if best is None or len(piv) < best:
                best = len(piv)
                if best == 0:
                    return 0
    return best


def elementary_lifts_reference(M: ReprMatroid):
    """M first, then U + <v> for every vector v of F^E outside U, in
    product order, kept when its RREF basis is new."""
    F = M.field
    out = [M]
    seen = {M.space.basis}
    for code in product(F.elements(), repeat=len(M.ground)):
        if M.space.contains(code):
            continue
        sp = Subspace(F, M.ground, list(M.space.basis) + [code])
        if sp.basis not in seen:
            seen.add(sp.basis)
            out.append(ReprMatroid(sp))
    return out


def elementary_projections_reference(M: ReprMatroid):
    """M first, then the kernel of each normalized functional on U's
    coordinates, in product order: the functional's null space combined
    with U's basis, and the result row-reduced by Subspace."""
    F, U = M.field, M.space
    out = [M]
    for code in product(F.elements(), repeat=U.dim):
        if next((x for x in code if x), None) != 1:
            continue
        kernel = null_space_rows(F, [code], [code.index(1)], U.dim)
        vecs = [combine(F, coeff, U.basis) for coeff in kernel]
        out.append(ReprMatroid(Subspace(F, M.ground, vecs)))
    return out


def elementary_lifts_by_reduction(M: ReprMatroid):
    """M first, then U + <v> row-reduced by Subspace, for each normalized v
    of F^E supported off U's pivot columns, in product order."""
    F, U = M.field, M.space
    out = [M]
    for v in product(F.elements(), repeat=M.size):
        if next((x for x in v if x), None) != 1 or any(v[p] for p in U.pivots):
            continue
        out.append(ReprMatroid(Subspace(F, M.ground, list(U.basis) + [v])))
    return out


def sum_spaces(U: Subspace, V: Subspace) -> Subspace:
    """U + V, row-reduced by Subspace from both bases."""
    _check_common(U, V)
    return Subspace(U.field, U.ambient, list(U.basis) + list(V.basis))


def subspace_distance(U: Subspace, W: Subspace) -> int:
    """2 dim(U + W) - dim U - dim W, with U + W built by sum_spaces."""
    return 2 * sum_spaces(U, W).dim - U.dim - W.dim


def dist_astar(pair, cap=100000) -> int:
    """A* search of the subspace lattice from M1 to M2 under the heuristic
    subspace_distance, deepest first among equal estimates, then first
    pushed; cap bounds the subspaces visited, counted as each is first
    seen.  The start is pushed with estimate 0, since it is popped first
    whatever its estimate."""
    U2 = pair.m2.space
    goal = U2.basis
    if pair.m1.space.basis == goal:
        return 0
    best = {pair.m1.space.basis: 0}
    order = count()
    queue = [(0, 0, next(order), pair.m1)]  # (estimate, -steps, tie, M)
    while queue:
        _, neg_g, _, M = heappop(queue)
        g = -neg_g
        if g > best[M.space.basis]:
            continue  # stale: M was pushed again with a shorter path
        # a goal next to M means M's estimate is g + 1, the least in the
        # queue, so no path to the goal is shorter
        for N in elementary_projections(M, cap)[1:] + elementary_lifts(M, cap)[1:]:
            nb = N.space.basis
            if nb == goal:
                return g + 1
            if nb in best:
                if best[nb] <= g + 1:
                    continue
            else:
                check_budget(len(best) + 1, "visited subspaces", cap)
            best[nb] = g + 1
            heappush(queue, (g + 1 + subspace_distance(N.space, U2), -(g + 1),
                             next(order), N))
    raise AssertionError("subspace lattice is connected")


def dist_bfs(pair, cap=100000) -> int:
    """Breadth-first search of the subspace lattice from M1 to M2, level by
    level; cap bounds the subspaces visited, counted as each is first seen."""
    goal = pair.m2.space.basis
    if pair.m1.space.basis == goal:
        return 0
    seen = {pair.m1.space.basis}
    frontier = [pair.m1]
    steps = 0
    while frontier:
        steps += 1
        nxt = []
        for M in frontier:
            for N in elementary_projections(M, cap) + elementary_lifts(M, cap):
                nb = N.space.basis
                if nb == goal:
                    return steps
                if nb not in seen:
                    seen.add(nb)
                    check_budget(len(seen), "visited subspaces", cap)
                    nxt.append(N)
        frontier = nxt
    raise AssertionError("subspace lattice is connected")


def intersect_spaces_reference(U: Subspace, V: Subspace) -> Subspace:
    """The intersection of U and V as the orthogonal complement of
    U^perp + V^perp."""
    return orth_complement(sum_spaces(orth_complement(U), orth_complement(V)))


def _count_full_rank(q, m, d):
    out = 1
    for i in range(d):
        out *= q ** m - q ** i
    return out


def seeded(seed):
    return random.Random(seed)


def realize_reference(A, C, D):
    """M([I,A]) / C \\ D by duality, (M\\D)/C = ((M\\D)*\\C)*: the
    contraction comes from orthogonal complements, not from the pivot rule
    that _realize and matroid.minor share."""
    identity = Matrix.identity(A.field, A.rows).data
    full = Matrix(A.field, A.rows, A.rows + A.cols,
                  [unit + row for unit, row in zip(identity, A.data)])
    return dual(delete(dual(delete(from_generator(full), D)), C))


def conforming_matroids_bruteforce(tmpl, rows, cols):
    """Every matrix over the template's field with the given labels, kept
    when the conformance check passes, realized by realize_reference and
    deduplicated."""
    subfield = isinstance(tmpl, SubfieldTemplate)
    check = check_subfield if subfield else check_frame_conforms
    gone = tmpl.D if subfield else [r for r in rows if r not in tmpl.X] + list(tmpl.Y1)
    F = tmpl.field
    width = len(cols)
    out = set()
    for entries in product(range(F.q), repeat=len(rows) * width):
        A = Matrix(F, rows, cols,
                   [entries[i * width:(i + 1) * width] for i in range(len(rows))])
        if check(A, tmpl).ok:
            out.add(realize_reference(A, tmpl.C, gone))
    return out


def enumerate_frame_realizing_all(tmpl, extra_rows, free_cols):
    """enumerate_conforming for a frame template by realizing every layout
    candidate and keeping the first occurrence of each realized
    (ground, basis) key."""
    lay = _FrameLayout(tmpl, extra_rows, free_cols)
    options = lay.options(range(extra_rows))
    seen = set()
    for delta_rows in product(lay.delta_elems, repeat=extra_rows):
        named = lay.named_columns(delta_rows)
        columns = [lay.column(option, named) for option in options]
        for picks in product(columns, repeat=free_cols):
            M = frame_matroid_of(lay.matrix(named, picks), tmpl)
            key = (M.ground, M.space.basis)
            if key not in seen:
                seen.add(key)
                yield M


# ---------------------------------------------------------------------------
# frame templates: the respects predicate and the conform step
# ---------------------------------------------------------------------------

def _frame_column_classes(A, tmpl, free, bottom_rows, Dsorted):
    """Classify each free column of A' as usable in Z, outside Z, or neither."""
    F = tmpl.field
    z_ok, f_ok = {}, {}
    for c in free:
        dpart = [A.entry(r, c) for r in Dsorted]
        bottom = [A.entry(r, c) for r in bottom_rows]
        z_ok[c] = not any(dpart) and _is_unit_column(bottom)
        f_ok[c] = tmpl.lam.contains(dpart) and _is_gamma_frame_column(F, tmpl.gamma, bottom)
    return z_ok, f_ok


def _lex_least_Z(forced, optional):
    """Least valid Z in sorted-tuple order: all forced columns plus every
    optional column below the largest forced one."""
    if not forced:
        return ()
    top = max(label_key(x) for x in forced)
    z = list(forced) + [o for o in optional if label_key(o) < top]
    return sort_labels(z)


def check_frame_respects(A: Matrix, tmpl) -> ConformanceReport:
    """Does A respect the frame template, as an A' before the conform step?
    Each free column is classified on its own, and the least witness Z is
    recovered in closed form."""
    B = A.rows
    named_rows = set(tmpl.D) | set(tmpl.X)
    named_cols = set(tmpl.C) | set(tmpl.Y0) | set(tmpl.Y1)
    if not named_rows <= set(B):
        raise LabelClash("template sets D and X must be row labels")
    if not named_cols <= set(A.cols):
        raise LabelClash("template sets C, Y0, Y1 must be column labels")
    free = [c for c in A.cols if c not in named_cols]
    bottom_rows = [r for r in B if r not in named_rows]
    Dsorted = sort_labels(tmpl.D)
    # clause ii: the A1 block, and zero X-rows outside it
    for r in tuple(tmpl.D) + tuple(tmpl.X):
        for c in named_cols:
            if A.entry(r, c) != tmpl.A1.entry(r, c):
                return ConformanceReport(False, "clause-ii")
    for r in tmpl.X:
        for c in free:
            if A.entry(r, c):
                return ConformanceReport(False, "clause-ii")
    # clauses iii and iv, column by column
    z_ok, f_ok = _frame_column_classes(A, tmpl, free, bottom_rows, Dsorted)
    forced, optional = [], []
    for c in free:
        if z_ok[c] and f_ok[c]:
            optional.append(c)
        elif z_ok[c]:
            forced.append(c)
        elif not f_ok[c]:
            bottom = [A.entry(r, c) for r in bottom_rows]
            good_bottom = _is_gamma_frame_column(tmpl.field, tmpl.gamma, bottom)
            return ConformanceReport(False, "clause-iv" if good_bottom else "clause-iii")
    # clause v: rows of A'[B-(D+X), C+Y0+Y1] lie in Delta
    CY = sort_labels(tuple(tmpl.C) + tuple(tmpl.Y0) + tuple(tmpl.Y1))
    for r in bottom_rows:
        row = [A.entry(r, c) for c in CY]
        if not tmpl.delta.contains(row):
            return ConformanceReport(False, "clause-v")
    return ConformanceReport(True, Z=_lex_least_Z(forced, optional))


def _parallel_invariants(M):
    """The loop count and the sorted parallel-class sizes, which every
    label bijection and projective transformation keeps: the oracle for
    the column invariants that membership compares."""
    classes = _parallel_classes_repr(M)
    loops = len(classes.pop(None, ()))
    return loops, sorted(map(len, classes.values()))


class BadAssignment(ToolkitError):
    """A Y1-assignment that does not cover exactly the Z columns."""


def conform_frame(A_prime: Matrix, Z, assignment: dict) -> Matrix:
    """Add the assigned Y1 column onto each Z column of A'."""
    F = A_prime.field
    Z = tuple(Z)
    if set(assignment) != set(Z):
        raise BadAssignment("assignment must cover exactly the Z columns")
    for j in assignment.values():
        if j not in A_prime.cols:
            raise BadAssignment(f"assigned column {j!r} does not exist")
    data = []
    zset = set(Z)
    for ri, r in enumerate(A_prime.rows):
        row = []
        for c in A_prime.cols:
            x = A_prime.entry(r, c)
            if c in zset:
                x = F.add(x, A_prime.entry(r, assignment[c]))
            row.append(x)
        data.append(row)
    return Matrix(F, A_prime.rows, A_prime.cols, data)


def prime_subfield(F):
    """The embedding of GF(p) in F: the first entry of subfield_lattice."""
    return subfield_lattice(F)[0]


def _columns(A: Matrix):
    return [tuple(row[j] for row in A.data) for j in range(len(A.cols))]


def is_frame_matrix(A: Matrix) -> bool:
    """Every column has at most two nonzero entries."""
    return all(sum(1 for x in col if x) <= 2 for col in _columns(A))


def is_gamma_frame_matrix(A: Matrix, gamma) -> bool:
    """Frame matrix whose single-nonzero columns contain a 1 and whose
    two-nonzero columns contain a 1 and, elsewhere, -g for some g in Gamma."""
    return all(_is_gamma_frame_column(A.field, gamma, col) for col in _columns(A))


def is_frame_presentation(M_prime, B) -> bool:
    """Check a witness for the abstract frame property: B is a basis of
    M_prime and every other element is spanned by at most two elements
    of B.  (The extension itself must be supplied; only the witness is
    verified, the existential search is out of reach in general.)"""
    B = tuple(B)
    if rank_of(M_prime, B) != len(B) or len(B) != M_prime.rank:
        return False
    rest = [e for e in M_prime.ground if e not in set(B)]
    for e in rest:
        spanned = rank_of(M_prime, {e}) == 0  # loops are spanned by nothing
        if not spanned:
            for k in (1, 2):
                for S in combinations(B, k):
                    if rank_of(M_prime, set(S) | {e}) == rank_of(M_prime, S):
                        spanned = True
                        break
                if spanned:
                    break
        if not spanned:
            return False
    return True
