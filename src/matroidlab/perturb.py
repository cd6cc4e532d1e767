"""Elementary projections and lifts, the lattice distance between
represented matroids on a common ground set, and rank perturbations.

Projections of M = (E, U) are exactly the (E, U') with U' a subspace of
U of codimension at most one, and lifts are the superspaces of dimension
at most one more; the tests check this lattice characterization against
the definitional add-an-element-then-contract enumeration.  Each lift is
built once, from one vector per point of F^E/U (the normalized vectors
that vanish on U's pivot columns), and the lift budget counts those
(q^(n-d) - 1)/(q - 1) lifts, as the projection budget counts hyperplanes.
Distance is an A* search in the subspace lattice, guided by the
subspace distance 2 dim(U + U2) - dim U - dim U2 of Koetter and
Kschischang, which every step changes by exactly 1; the tests compare it
with the breadth-first search in tests/oracles.py.  Each expansion of U
does one sum U + U2 and one intersection U n U2, and scores each
neighbour by a containment test against one of them.

pert_exact reduces the minimum of rank(A1 - A2) over aligned generator
matrices to a search over difference row spaces: a subspace V of U1+U2
works iff U1 <= U2 + V and U2 <= U1 + V (any valid pair of matrices has
such a V of dimension rank(A1 - A2); conversely pairing bases through V
achieves dim V at row count dim U1 + dim U2).  It draws the candidate
spaces lazily and stops at the first that works.  The tests compare it
with the literal enumeration over coefficient matrices in tests/oracles.py.
"""

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count, product

from .errors import LabelMismatch, ShapeMismatch, check_budget
from .linalg import (
    Matrix,
    Subspace,
    combine,
    enumerate_subspaces,
    extend_echelon,
    intersect_spaces,
    null_space_rows,
    rref_rows,
    sum_spaces,
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

def _points(F, k):
    """The normalized nonzero vectors of F^k (first nonzero entry 1), in
    product order: one per 1-dimensional subspace, (q^k - 1)/(q - 1) in all.

    In product order the vectors with leading 1 at position i come after
    those with it at i + 1, and each block runs through its tail in
    product order, so they are built directly instead of filtered."""
    elements = F.elements()
    for i in range(k - 1, -1, -1):
        head = (0,) * i + (1,)
        for tail in product(elements, repeat=k - 1 - i):
            yield head + tail


def elementary_projections(M: ReprMatroid, cap=DEFAULT_LATTICE_CAP):
    """M itself plus every (E, U') with U' a codimension-1 subspace of U:
    one per normalized functional on U, the kernel of each."""
    F = M.field
    d = M.rank
    check_budget((F.q ** d - 1) // (F.q - 1), "hyperplanes", cap)
    out = [M]
    B = M.space.basis
    for code in _points(F, d):
        # a normalized functional is a one-row RREF, pivot at its leading 1
        kernel = null_space_rows(F, [code], [code.index(1)], d)
        vecs = [combine(F, coeff, B) for coeff in kernel]
        out.append(ReprMatroid(Subspace(F, M.ground, vecs)))
    return out


def elementary_lifts(M: ReprMatroid, cap=DEFAULT_LATTICE_CAP):
    """M itself plus every (E, U') with U <= U' of dimension dim U + 1.

    U's basis is in RREF, so every coset of U holds exactly one vector
    that is zero on U's pivot columns.  The lifts are therefore U + <v>
    for the normalized v supported off the pivots, one per point of
    F^E/U: each is built once, (q^(n-d) - 1)/(q - 1) in all."""
    F = M.field
    U = M.space
    pivots = set(U.pivots)
    free = [j for j in range(len(M.ground)) if j not in pivots]
    check_budget((F.q ** len(free) - 1) // (F.q - 1), "lifts", cap)
    out = [M]
    for code in _points(F, len(free)):
        v = [0] * len(M.ground)
        for j, x in zip(free, code):
            v[j] = x
        out.append(ReprMatroid(Subspace(F, M.ground, list(U.basis) + [v])))
    return out


# ---------------------------------------------------------------------------
# lattice distance
# ---------------------------------------------------------------------------

def _subspace_distance(U: Subspace, W: Subspace) -> int:
    """2 dim(U + W) - dim U - dim W: zero iff U = W, and changed by exactly
    1 by every elementary projection or lift of U, which changes dim U by
    1 and dim(U + W) by 0 or 1 in the same direction."""
    return 2 * sum_spaces(U, W).dim - U.dim - W.dim


def _scored_steps(M: ReprMatroid, h: int, U2: Subspace, cap):
    """Each elementary projection and lift N of M other than M itself,
    with h(N) = _subspace_distance(N.space, U2) read off h = h(M) by one
    containment test against S = U + U2 or W = U n U2, for U = M.space:

    - a lift N > U has dim(N + U2) = dim S if N <= S, else dim S + 1, so
      h(N) = h - 1 exactly when N <= S;
    - a projection N < U has N n U2 = N n W, so dim(N + U2) = dim N +
      dim U2 - dim W when W <= N and one more otherwise: h(N) = h - 1
      exactly when W <= N.

    Both budgets are checked before any neighbour is scored, and S and W
    are built once per call; no neighbour is summed with U2."""
    projections = elementary_projections(M, cap)[1:]
    lifts = elementary_lifts(M, cap)[1:]
    U = M.space
    S, W = sum_spaces(U, U2), intersect_spaces(U, U2)
    for N in projections:
        yield N, h - 1 if all(map(N.space.contains, W.basis)) else h + 1
    for N in lifts:
        yield N, h - 1 if all(map(S.contains, N.space.basis)) else h + 1


def dist(pair: PerturbPair, cap=100000) -> int:
    """Minimum number of elementary projections and lifts from M1 to M2:
    a shortest path in the subspace lattice of F^E, found by A* search
    under the consistent heuristic _subspace_distance to U2, deepest
    first among equal estimates (cap bounds the subspaces visited).  Only
    the start is scored with a sum of spaces; each expansion scores its
    neighbours by containment (_scored_steps)."""
    U2 = pair.m2.space
    goal = U2.basis
    if pair.m1.space.basis == goal:
        return 0
    best = {pair.m1.space.basis: 0}
    order = count()
    queue = [(_subspace_distance(pair.m1.space, U2), 0, next(order), pair.m1)]
    while queue:
        f, neg_g, _, M = heappop(queue)
        g = -neg_g
        if g > best[M.space.basis]:
            continue  # stale: M was pushed again with a shorter path
        # a goal next to M means M's estimate is g + 1, the least in the
        # queue, so no path to the goal is shorter
        for N, h in _scored_steps(M, f - g, U2, cap):
            nb = N.space.basis
            if nb == goal:
                return g + 1
            if nb in best:
                if best[nb] <= g + 1:
                    continue
            else:
                check_budget(len(best) + 1, "visited subspaces", cap)
            best[nb] = g + 1
            heappush(queue, (g + 1 + h, -(g + 1), next(order), N))
    raise AssertionError("subspace lattice is connected")  # unreachable


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
    """(lo, hi): lo from row-space containment, hi from an explicit aligned
    generator construction pairing complements through the intersection.
    With with_witness=True, also returns the achieved difference matrix
    (rows of A1 - A2), whose rank is hi."""
    U1, U2 = pair.m1.space, pair.m2.space
    S = sum_spaces(U1, U2)
    lo = max(S.dim - U2.dim, S.dim - U1.dim)
    A1, A2 = _aligned_generators(pair)
    F = pair.field
    diff = [F.axpy(F.neg(1), r1, r2) for r1, r2 in zip(A1, A2)]
    _, piv = rref_rows(F, diff)
    if with_witness:
        return lo, len(piv), diff
    return lo, len(piv)


def _aligned_generators(pair: PerturbPair):
    """Generator row lists for (m1, m2) with a common row count, pairing a
    shared basis of the intersection first and complements afterwards."""
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
    return A1, A2


def pert_exact(pair: PerturbPair, cap=DEFAULT_LATTICE_CAP) -> int:
    """Exact minimum rank(A1 - A2) via the difference-space reduction."""
    F = pair.field
    U1, U2 = pair.m1.space, pair.m2.space
    if U1 == U2:
        return 0
    S = sum_spaces(U1, U2)
    lo = S.dim - min(U1.dim, U2.dim)  # U1 <= U2 + V needs dim V >= s - dim U2
    for vb in enumerate_subspaces(F, S.dim, cap=cap):  # ascending dimension
        if len(vb) < lo:
            continue
        V_rows = [combine(F, c, S.basis) for c in vb]
        up2 = Subspace(F, pair.ground, list(U2.basis) + V_rows)
        if not all(up2.contains(r) for r in U1.basis):
            continue
        up1 = Subspace(F, pair.ground, list(U1.basis) + V_rows)
        if all(up1.contains(r) for r in U2.basis):
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
