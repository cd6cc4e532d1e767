"""Elementary projections and lifts, the lattice distance between
represented matroids on a common ground set, and rank perturbations.

Projections of M = (E, U) are exactly the (E, U') with U' a subspace of
U of codimension at most one, and lifts are the superspaces of dimension
at most one more; the tests check this lattice characterization against
the definitional add-an-element-then-contract enumeration.  Each lift is
built once, from one vector per point of F^E/U (the normalized vectors
that vanish on U's pivot columns), and the lift budget counts those
(q^(n-d) - 1)/(q - 1) lifts, as the projection budget counts hyperplanes.
Both are built in RREF directly from U's RREF basis, by one rank-one
update each, not by row reduction: a lift clears one column of U's rows
with its new vector, and a hyperplane subtracts multiples of one row of
U from the others.  The tests compare both with row-reduced references.
Both share U's ambient layout instead of looking it up again, and both
read what does not depend on U's entries from a cached plan: each
hyperplane's row index and coefficients per field and dim U
(_projection_plan), each lift's vector and pivots per field, |E| and
U's pivots (_lift_plan), built after the budget check that covers it.
Distance is the subspace distance 2 dim(U + U2) - dim U - dim U2 of
Koetter and Kschischang, which every step changes by exactly 1 and some
step from every U != U2 lowers, so dist walks straight down it: the walk
visits what an A* search under that heuristic would, in the same order,
with the same budget.  The tests compare it with that A* search and with
the breadth-first search in tests/oracles.py.  Each step from U does one
elimination of U2 modulo U, n + dim U wide, which gives both S = U + U2
(as its part off U's pivots) and W = U n U2 (as coordinates in U's
basis) without building either.  It scores each lift U + <v> by one
containment test, v in S, and each hyperplane ker(code) by one
functional test, code vanishing on W's coordinates, and stops at the
first neighbour that is closer.

pert_exact reduces the minimum of rank(A1 - A2) over aligned generator
matrices to a search over difference row spaces: a subspace V of U1+U2
works iff U1 <= U2 + V and U2 <= U1 + V (any valid pair of matrices has
such a V of dimension rank(A1 - A2); conversely pairing bases through V
achieves dim V at row count dim U1 + dim U2).  It draws the candidate
spaces lazily, from its lower bound up, and stops at the first that
works; it tests each by a rank count: U2 + V and U1 + V lie in U1 + U2,
so each covers the other space exactly when it has the dimension of
U1 + U2, whose echelon basis comes from one row reduction of both bases.
The tests compare it with the literal enumeration over coefficient
matrices in tests/oracles.py.  pert_bounds pairs complements through the
intersection; the difference of that pair has rank max(dim U1, dim U2) -
dim(U1 n U2) by a theorem, so it is not reduced, and both bounds are
that number.
"""

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .errors import LabelMismatch, ShapeMismatch, check_budget
from .linalg import (
    Matrix,
    Subspace,
    combine,
    enumerate_subspaces,
    extend_echelon,
    intersect_spaces,
    reduce_vector,
    rref_rows,
)
from .matroid import ReprMatroid

DEFAULT_LATTICE_CAP = 5000


@dataclass(frozen=True)
class PerturbPair:
    """Two represented matroids on the same ground set and field."""

    m1: ReprMatroid
    m2: ReprMatroid

    def __post_init__(self):
        if self.m1.ground != self.m2.ground:
            raise LabelMismatch("perturbation pair needs equal ground sets")
        if self.m1.field != self.m2.field:
            raise LabelMismatch("perturbation pair needs a common field")

    @property
    def field(self):
        return self.m1.field

    @property
    def ground(self):
        return self.m1.ground


# ---------------------------------------------------------------------------
# elementary projections and lifts
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _points(F, k):
    """The normalized nonzero vectors of F^k (first nonzero entry 1), in
    product order: one per 1-dimensional subspace, (q^k - 1)/(q - 1) in all,
    as a tuple built once per field and length.

    In product order the vectors with leading 1 at position i come after
    those with it at i + 1, and each block runs through its tail in
    product order, so they are built directly instead of filtered."""
    elements = F.elements()
    return tuple(head + tail
                 for i in range(k - 1, -1, -1) for head in [(0,) * i + (1,)]
                 for tail in product(elements, repeat=k - 1 - i))


@lru_cache(maxsize=64)
def _projection_plan(F, d):
    """One (m, coeffs) per normalized functional `code` on F^d, in _points
    order: m is the last nonzero index of `code` and coeffs[k] =
    -code_k / code_m for k < m.

    A plan depends only on the field and d, so it is built once for every
    subspace of that dimension.  The cache keeps at most 64 plans, each of
    (q^d - 1)/(q - 1) entries, as many as the hyperplanes that
    elementary_projections builds from it after checking its budget."""
    neg, inv, mul = F.neg, F.inv, F.mul
    plan = []
    for code in _points(F, d):
        m = max(k for k, c in enumerate(code) if c)
        f = neg(inv(code[m]))
        plan.append((m, tuple(mul(c, f) for c in code[:m])))
    return tuple(plan)


def elementary_projections(M: ReprMatroid, cap=DEFAULT_LATTICE_CAP):
    """M itself plus every (E, U') with U' a codimension-1 subspace of U:
    one per normalized functional `code` on U's coordinates, the kernel
    of each, in _points order.

    The kernel is built in RREF directly.  Let m be the last nonzero
    entry of `code`.  The rows B_k - (code_k / code_m) B_m for k != m span
    it; each is 1 at U's pivot k and 0 at U's other pivots (B_m vanishes
    there, and code_k = 0 for k > m), so they are its RREF basis, with U's
    pivots minus pivots[m].  m and the coefficients come from
    _projection_plan, so each kernel costs only its row updates."""
    F = M.field
    d = M.rank
    check_budget((F.q ** d - 1) // (F.q - 1), "hyperplanes", cap)
    out = [M]
    U = M.space
    B, pivots, axpy = U.basis, U.pivots, F.axpy
    for m, coeffs in _projection_plan(F, d):
        Bm = B[m]
        rows = [tuple(axpy(a, b, Bm)) if a else b for a, b in zip(coeffs, B)]
        rows += B[m + 1:]
        out.append(ReprMatroid(Subspace._of_reduced(
            F, U.ambient, rows, pivots[:m] + pivots[m + 1:], U._index)))
    return out


@lru_cache(maxsize=256)
def _lift_plan(F, n, pivots):
    """One (v, p, at, grown) per point of F^n/U, for every U <= F^n whose
    RREF basis has these pivots, in _points order: v is the normalized
    vector supported off the pivot columns, p its first nonzero column
    (where v is 1), `at` the place of p among the pivots, and grown the
    pivots with p inserted there.

    U's basis is in RREF, so every coset of U holds exactly one vector
    that is zero on U's pivot columns; which vectors those are depends
    only on the pivots.  The cache keeps at most 256 plans, each of
    (q^(n-d) - 1)/(q - 1) entries, as many as the lifts that
    elementary_lifts builds from it after checking its budget."""
    free = [j for j in range(n) if j not in pivots]
    # entry j of a vector is entry gather[j] of (0,) + code
    gather = [0] * n
    for i, j in enumerate(free, 1):
        gather[j] = i
    plan = []
    for code in _points(F, len(free)):
        p = free[code.index(1)]
        at = bisect_left(pivots, p)
        plan.append((tuple(map(((0,) + code).__getitem__, gather)), p, at,
                     pivots[:at] + (p,) + pivots[at:]))
    return tuple(plan)


def elementary_lifts(M: ReprMatroid, cap=DEFAULT_LATTICE_CAP):
    """M itself plus every (E, U') with U <= U' of dimension dim U + 1:
    U + <v> for each v of _lift_plan, (q^(n-d) - 1)/(q - 1) in all.

    Each lift is built in RREF directly.  v is zero on U's pivots and 1 at
    its first nonzero column p, so U + <v> has U's rows with column p
    cleared by v (one axpy for each row nonzero there), and v inserted at
    its pivot's place."""
    F = M.field
    U = M.space
    check_budget((F.q ** (M.size - U.dim) - 1) // (F.q - 1), "lifts", cap)
    out = [M]
    axpy, neg = F.axpy, F.neg
    for v, p, at, grown in _lift_plan(F, M.size, U.pivots):
        rows = [tuple(axpy(neg(b[p]), b, v)) if b[p] else b for b in U.basis]
        rows.insert(at, v)
        out.append(ReprMatroid(Subspace._of_reduced(F, U.ambient, rows, grown, U._index)))
    return out


# ---------------------------------------------------------------------------
# lattice distance
# ---------------------------------------------------------------------------

def _modulo(U: Subspace, U2: Subspace):
    """(Q, Q's pivots, tails) from one elimination of U2 modulo U.

    For U's RREF basis B with pivots P, each row u of U2 is reduced to
    q = u - sum_k u[P_k] B_k, which is zero on P, and the rows (q | u|P)
    are put in RREF.  The rows that pivot in the q-part give Q, an RREF
    basis of (U + U2) n {v : v|P = 0}, so dim(U + U2) = dim U + len(Q) and
    a vector v zero on P lies in U + U2 exactly when it reduces to zero
    modulo Q.  The other rows have zero q-part: each is (0 | w|P) for some
    w of U2 that equals sum_k w[P_k] B_k, so it lies in U, and their tails
    are a basis of the coordinates w|P of W = U n U2."""
    F, n = U.field, len(U.ambient)
    B, P = U.basis, U.pivots
    red, piv = rref_rows(F, [reduce_vector(F, B, P, u) + [u[p] for p in P]
                             for u in U2.basis])
    k = bisect_left(piv, n)
    return [r[:n] for r in red[:k]], piv[:k], [r[n:] for r in red[k:]]


def _scored_steps(M: ReprMatroid, U2: Subspace, projections, lifts):
    """(h, steps): h = h(M), the subspace distance 2 dim(U + U2) - dim U -
    dim U2 of Koetter and Kschischang for U = M.space, and an iterator of
    (N, h(N)) over M's elementary projections and lifts other than M, in
    the order elementary_projections and elementary_lifts list them, which
    scores each N only as it is read.  For S = U + U2 and W = U n U2, h =
    2 dim S - dim U - dim U2, and h(N) is read off it by one test against
    S or W:

    - a lift N > U has dim(N + U2) = dim S if N <= S, else dim S + 1, so
      h(N) = h - 1 exactly when N <= S;
    - a projection N < U has N n U2 = N n W, so dim(N + U2) = dim N +
      dim U2 - dim W when W <= N and one more otherwise: h(N) = h - 1
      exactly when W <= N.

    h and both tests read one elimination of U2 modulo U (_modulo), which
    gives dim S = dim U + len(Q).  A lift U + <v> lies in S exactly when v
    does, and v is zero on U's pivots, so exactly when v reduces to zero
    modulo Q; v is read from the _lift_plan that elementary_lifts built.
    The projection to ker(code) holds W exactly when code vanishes on the
    coordinates w|pivots of every row w of W, the tails: one combination
    of their columns.  No neighbour is summed with U2, and neither S nor
    W is built as a subspace."""
    F, U = M.field, M.space
    Q, qpiv, tails = _modulo(U, U2)
    h = U.dim + 2 * len(qpiv) - U2.dim

    def steps():
        if tails:
            cols = list(zip(*tails))
            for code, N in zip(_points(F, U.dim), projections):
                yield N, h + 1 if any(combine(F, code, cols)) else h - 1
        else:  # W = 0 lies in every projection
            for N in projections:
                yield N, h - 1
        for (v, *_), N in zip(_lift_plan(F, len(U.ambient), U.pivots), lifts):
            yield N, h + 1 if any(reduce_vector(F, Q, qpiv, v)) else h - 1

    return h, steps()


def dist(pair: PerturbPair, cap=100000) -> int:
    """Minimum number of elementary projections and lifts from M1 to M2:
    a shortest path in the subspace lattice of F^E, walked straight down
    the subspace distance h(U) = 2 dim(U + U2) - dim U - dim U2 (cap
    bounds the subspaces visited, counted as each is first seen).

    From U after g steps, the walk visits every neighbour (elementary
    projections, then lifts), returns g + 1 at the goal, and otherwise
    steps to the first neighbour that _scored_steps scores h(U) - 1; the
    neighbours after it are not scored.

    h is the lattice distance.  Every step changes it by exactly 1, so no
    path is shorter than h.  And from U != U2 some step lowers it: if
    W = U n U2 != U, a hyperplane of U that holds W meets U2 in W too, one
    dimension lower; if W = U < U2, a lift of U by a vector of U2 lies in
    U2.  So the walk takes h(M1) steps.

    It also visits what A* under h, deepest first among equal estimates,
    visits, in the same order and with the same budget (tests/oracles.py's
    dist_astar).  With an exact heuristic every entry on a shortest path
    has estimate h(M1) and the others more; A* pops the deepest of those,
    the first closer neighbour of the node it just expanded.  No closer
    neighbour was seen before: a subspace seen from a node at depth g' < g
    is within one step of it, so its distance to U2 is at least
    h(M1) - g' - 1 >= h(M1) - g, one more than a closer neighbour's.  So
    each first sight is a budget charge in both, and A*'s stale check and
    shorter-path updates never fire."""
    U2 = pair.m2.space
    goal = U2.basis
    M = pair.m1
    if M.space.basis == goal:
        return 0
    seen = {M.space.basis}
    g = 0
    while True:
        projections = elementary_projections(M, cap)[1:]
        lifts = elementary_lifts(M, cap)[1:]
        for N in projections + lifts:
            nb = N.space.basis
            if nb == goal:
                return g + 1
            if nb not in seen:
                check_budget(len(seen) + 1, "visited subspaces", cap)
                seen.add(nb)
        h, steps = _scored_steps(M, U2, projections, lifts)
        M = next((N for N, estimate in steps if estimate < h), None)
        if M is None:
            raise AssertionError("some step lowers the subspace distance")  # unreachable
        g += 1


# ---------------------------------------------------------------------------
# rank perturbations
# ---------------------------------------------------------------------------

def _complement_rows(field, W: Subspace, rows):
    """The rows, in order, outside the span of W and of the rows kept
    before them: they extend W's basis to a basis of W + span(rows)."""
    ech = W.basis, W.pivots
    out = []
    for row in rows:
        grown = extend_echelon(field, *ech, row)
        if len(grown[1]) > len(ech[1]):
            out.append(row)
            ech = grown
    return out


def pert_bounds(pair: PerturbPair, with_witness=False):
    """(lo, hi): lo = max(dim U1, dim U2) - dim(U1 n U2) from row-space
    containment (U1 <= U2 + V needs dim V >= dim U1 - dim(U1 n U2), and
    symmetrically), hi = len(A1) - dim W, the rank of A1 - A2 for the
    aligned generators of _aligned_generators.  With with_witness=True,
    also returns that difference matrix (rows of A1 - A2).

    hi is that rank by a theorem, so the difference is not reduced.  Let W
    = U1 n U2 with basis w, and x and y the rows that extend w to bases
    of U1 and U2.  Then w, x and y together are independent: in a
    relation, the part on x lies in U1 and in U2, so in W, and x is
    independent modulo W, so that part is zero; then w and y, a basis of
    U2, carry the rest.  The rows of A1 - A2 are 0 on w's rows and then
    x_i - y_i, x_i or -y_i, each with its own x_i or y_i, so the nonzero
    ones are independent: max(len x, len y) = len(A1) - dim W of them.
    That is max(dim U1, dim U2) - dim W, so hi = lo."""
    A1, A2, w = _aligned_generators(pair)
    lo = max(pair.m1.rank, pair.m2.rank) - w
    hi = len(A1) - w
    if with_witness:
        F = pair.field
        return lo, hi, [F.axpy(F.neg(1), r1, r2) for r1, r2 in zip(A1, A2)]
    return lo, hi


def _aligned_generators(pair: PerturbPair):
    """(A1, A2, dim(U1 n U2)): generator row lists for (m1, m2) with a
    common row count, pairing a shared basis of the intersection first and
    complements afterwards."""
    F = pair.field
    n = len(pair.ground)
    U1, U2 = pair.m1.space, pair.m2.space
    W = intersect_spaces(U1, U2)
    shared = [list(r) for r in W.basis]
    x_rows = _complement_rows(F, W, U1.basis)
    y_rows = _complement_rows(F, W, U2.basis)
    height = max(len(x_rows), len(y_rows))
    zero = [0] * n
    A1 = shared + [list(r) for r in x_rows] + [zero] * (height - len(x_rows))
    A2 = shared + [list(r) for r in y_rows] + [zero] * (height - len(y_rows))
    return A1, A2, W.dim


def _is_difference_space(F, U1: Subspace, U2: Subspace, s, rows):
    """Whether V = span(rows), a subspace of S = U1 + U2 with s = dim S,
    has U1 <= U2 + V and U2 <= U1 + V.  U2 + V lies in S, so U1 <= U2 + V
    exactly when U2 + V = S, that is when U2's echelon grown by the rows
    (extend_echelon) has s rows; and symmetrically."""
    for U in (U2, U1):
        basis, pivots = U.basis, U.pivots
        for row in rows:
            basis, pivots = extend_echelon(F, basis, pivots, row)
        if len(pivots) < s:
            return False
    return True


def pert_exact(pair: PerturbPair, cap=DEFAULT_LATTICE_CAP) -> int:
    """Exact minimum rank(A1 - A2) via the difference-space reduction.
    The candidate spaces V of S = U1 + U2 are drawn from dimension lo =
    s - min(dim U1, dim U2) up (no smaller V works: U1 <= U2 + V needs
    dim V >= s - dim U2), though the budget counts all G_s(q) of them.
    S's RREF basis comes from one rref_rows over both bases, with no
    Subspace built, and each V is tested by a rank count
    (_is_difference_space), without building U2 + V or U1 + V."""
    F = pair.field
    U1, U2 = pair.m1.space, pair.m2.space
    if U1 == U2:
        return 0
    S, piv = rref_rows(F, U1.basis + U2.basis)
    s = len(piv)
    lo = s - min(U1.dim, U2.dim)
    for vb in enumerate_subspaces(F, s, cap=cap, start=lo):  # ascending dimension
        if _is_difference_space(F, U1, U2, s, [combine(F, c, S) for c in vb]):
            return len(vb)
    raise AssertionError("V = U1 + U2 is always feasible")  # unreachable


def apply_perturbation(M: ReprMatroid, P: Matrix):
    """M(A + P) for the canonical RREF generator A of M.

    Returns (matroid, rank of P): the perturbation budget consumed.
    """
    if P.field != M.field:
        raise ShapeMismatch("perturbation must live over the matroid's field")
    if set(P.cols) != set(M.ground) or len(P.rows) != M.rank:
        raise ShapeMismatch(
            f"perturbation must be {M.rank} x |E| on the same column labels")
    F = M.field
    order = M.ground
    Psorted = P.submatrix(P.rows, order)
    rows = [F.axpy(1, brow, prow) for brow, prow in zip(M.space.basis, Psorted.data)]
    _, piv = rref_rows(F, Psorted.data)
    return ReprMatroid(Subspace(F, order, rows)), len(piv)
