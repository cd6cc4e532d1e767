"""Slow, independent reference implementations used only by the tests."""

from itertools import combinations, permutations, product
import random

import numpy as np

from matroidlab.codes import _codeword_table
from matroidlab.constructions import _is_gamma_frame_column
from matroidlab.errors import CapExceeded, LabelClash, LabelMismatch, ToolkitError
from matroidlab.field import subfield_lattice
from matroidlab.linalg import Matrix, Subspace, label_key, rref_rows, sort_labels
from matroidlab.matroid import (
    ReprMatroid,
    _parallel_classes_repr,
    contract,
    delete,
    from_generator,
    isomorphic,
    minor,
    rank_of,
)
from matroidlab.templates import (
    ConformanceReport,
    SubfieldTemplate,
    _is_unit_column,
    check_frame_conforms,
    check_subfield,
)


def random_matrix(field, m, n, rng):
    return Matrix(field, tuple(range(m)), tuple(range(n)),
                  [[rng.randrange(field.q) for _ in range(n)] for _ in range(m)])


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


def subset_ranks_bruteforce(M):
    """ranks[mask] over the sorted ground set (bit i is ground[i]), one
    `rank_of` call per subset: an RREF of its columns, or the rank oracle."""
    g, n = M.ground, M.size
    return [rank_of(M, [g[i] for i in range(n) if mask >> i & 1])
            for mask in range(1 << n)]


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
    """Sum the exact error contribution of every error pattern (the
    syndrome table route), with the same tie accounting as ml_error_mc."""
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


def _count_full_rank(q, m, d):
    out = 1
    for i in range(d):
        out *= q ** m - q ** i
    return out


def seeded(seed):
    return random.Random(seed)


def realize_reference(A, C, D):
    """M([I,A]) / C \\ D by the generic chain: [I,A] built as a matrix,
    its row space reduced, then matroid.minor's contraction and deletion."""
    identity = Matrix.identity(A.field, A.rows).data
    full = Matrix(A.field, A.rows, A.rows + A.cols,
                  [unit + row for unit, row in zip(identity, A.data)])
    return minor(from_generator(full), C, D)


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
