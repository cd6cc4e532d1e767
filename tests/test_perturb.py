import random
from functools import cache
from itertools import product

import pytest

from oracles import (
    dist_astar,
    dist_bfs,
    elementary_lifts_by_reduction,
    elementary_lifts_reference,
    elementary_projections_reference,
    pert_exact_tiny,
    subspace_distance,
    sum_spaces,
)

from matroidlab import perturb
from matroidlab.errors import CapExceeded, ShapeMismatch
from matroidlab.field import FiniteField, make_field
from matroidlab.linalg import (
    Matrix,
    Subspace,
    combine,
    enumerate_subspaces,
    rref_rows,
    subspace_count,
)
from matroidlab.matroid import ReprMatroid, contract, delete, from_generator
from matroidlab.perturb import (
    PerturbPair,
    _aligned_generators,
    _is_difference_space,
    _lift_plan,
    _points,
    _projection_plan,
    _scored_steps,
    apply_perturbation,
    dist,
    elementary_lifts,
    elementary_projections,
    pert_bounds,
    pert_exact,
)

GF2 = make_field(2, 1)
GF3 = make_field(3, 1)
GF4 = make_field(2, 2)


def mk(field, data, n=None):
    m = len(data)
    n = n if n is not None else len(data[0])
    return from_generator(Matrix(field, tuple(range(m)), tuple(range(n)), data))


def space_matroid(field, n, basis_rows):
    ground = tuple(range(n))
    return ReprMatroid(Subspace(field, ground, list(basis_rows)))


def all_matroids(field, n):
    return [space_matroid(field, n, b) for b in enumerate_subspaces(field, n)]


# ---------------------------------------------------------------------------
# projections and lifts
# ---------------------------------------------------------------------------

def test_projections_include_self():
    M = mk(GF2, [[1, 0, 1], [0, 1, 1]])
    assert M in elementary_projections(M)


def test_projections_of_rank_one():
    M = mk(GF2, [[1, 1]])
    projs = elementary_projections(M)
    assert len(projs) == 2
    assert {P.rank for P in projs} == {0, 1}


def test_projection_count_dim2_gf2():
    M = mk(GF2, [[1, 0, 1], [0, 1, 1]])
    # 1 (self) + number of codim-1 subspaces of a 2-dim GF(2) space = 3
    assert len(elementary_projections(M)) == 4


def test_lifts_of_full_rank():
    M = mk(GF2, [[1, 0], [0, 1]])
    assert elementary_lifts(M) == [M]


def test_lifts_of_rank_zero():
    M = space_matroid(GF2, 3, [])
    lifts = elementary_lifts(M)
    assert len(lifts) == 1 + 7  # self plus the 1-dim subspaces of GF(2)^3


def test_lift_then_project_round_trip():
    M = mk(GF2, [[1, 1, 0]])
    for L in elementary_lifts(M):
        assert M in elementary_projections(L)


def test_projections_lifts_match_extension_definition():
    """Definition check on GF(2), |E| <= 3, and GF(3), |E| <= 2: enumerate
    every represented matroid W on E + {x} with W \\ x = M and collect W / x."""
    for field, n in [(GF2, 1), (GF2, 2), (GF2, 3), (GF3, 1), (GF3, 2)]:
        ext_labels = tuple(range(n)) + ("x",)
        for rows in enumerate_subspaces(field, n):
            M = space_matroid(field, n, rows)
            got_proj = {P.space.basis for P in elementary_projections(M)}
            got_lift = {L.space.basis for L in elementary_lifts(M)}
            want_proj, want_lift = set(), set()
            for wrows in enumerate_subspaces(field, n + 1):
                W = ReprMatroid(Subspace(field, ext_labels, list(wrows)))
                if delete(W, {"x"}) == M:
                    want_proj.add(contract(W, {"x"}).space.basis)
                if contract(W, {"x"}) == M:
                    want_lift.add(delete(W, {"x"}).space.basis)
            assert got_proj == want_proj
            assert got_lift == want_lift


def _lift_cases():
    for field, max_n in ((GF2, 5), (GF3, 4), (GF4, 3)):
        for n in range(1, max_n + 1):
            for rows in enumerate_subspaces(field, n):
                yield space_matroid(field, n, rows)
    # labels given unsorted, strings and mixed: the pivots are positions
    # in the sorted ground set, not in the given order
    for labels in (("d", "b", "c", "a"), ("b", 2, "a", 0)):
        for rows in enumerate_subspaces(GF3, len(labels)):
            yield ReprMatroid(Subspace(GF3, labels, list(rows)))


def test_lifts_match_reference_enumeration():
    cases = 0
    for M in _lift_cases():
        q, n, d = M.field.q, M.size, M.rank
        got = [L.space.basis for L in elementary_lifts(M)]
        want = {L.space.basis for L in elementary_lifts_reference(M)}
        assert got[0] == M.space.basis
        assert len(got) == len(set(got)) == 1 + (q ** (n - d) - 1) // (q - 1)
        assert set(got) == want
        cases += 1
    # every subspace of GF(2)^1..5, GF(3)^1..4 and GF(4)^1..3, plus two
    # relabelled copies of GF(3)^4's
    assert cases == (464 + 248 + 53) + 2 * 212


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
def test_points_are_the_normalized_vectors_in_product_order(p, k):
    F = make_field(p, k)
    for n in range(5):
        filtered = [v for v in product(F.elements(), repeat=n)
                    if next((x for x in v if x), None) == 1]
        assert list(_points(F, n)) == filtered
        assert len(filtered) == (F.q ** n - 1) // (F.q - 1)


def _count_subspaces_built(monkeypatch):
    """A list that records every Subspace built, by either constructor:
    __init__ (row reduction) or _of_reduced (RREF given)."""
    built = []
    init, of_reduced = Subspace.__init__, Subspace._of_reduced.__func__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    def counting_of_reduced(cls, *args):
        built.append(args)
        return of_reduced(cls, *args)

    monkeypatch.setattr(Subspace, "__init__", counting_init)
    monkeypatch.setattr(Subspace, "_of_reduced", classmethod(counting_of_reduced))
    return built


def test_lifts_build_one_subspace_per_lift(monkeypatch):
    """A 1-dimensional U in GF(3)^4 has (3^3 - 1)/2 = 13 lifts; building a
    subspace per vector outside U would take 3^4 - 3 = 78."""
    M = space_matroid(GF3, 4, [(1, 2, 0, 1)])
    built = _count_subspaces_built(monkeypatch)
    lifts = elementary_lifts(M)
    assert len(built) == 13 == len(lifts) - 1


def test_projections_build_one_subspace_per_hyperplane(monkeypatch):
    """A 2-dimensional U in GF(3)^4 has (3^2 - 1)/2 = 4 hyperplanes."""
    M = space_matroid(GF3, 4, [(1, 0, 2, 1), (0, 1, 1, 2)])
    built = _count_subspaces_built(monkeypatch)
    projections = elementary_projections(M)
    assert len(built) == 4 == len(projections) - 1


def test_neighbours_match_row_reduced_reference():
    """The directly built RREF bases equal those that row reduction gives,
    in the same order, on every subspace of GF(2)^5, GF(3)^4 and GF(4)^3
    and on two relabelled copies of GF(3)^4's."""
    for M in _lift_cases():
        assert ([N.space.basis for N in elementary_projections(M)]
                == [N.space.basis for N in elementary_projections_reference(M)])
        assert ([N.space.basis for N in elementary_lifts(M)]
                == [N.space.basis for N in elementary_lifts_by_reduction(M)])


def test_lattice_budgets_count_subspaces_built():
    # 2^7 vectors but only one lift of a rank-6 space in GF(2)^7, and
    # 63 hyperplanes of it: both within a budget of 100
    M1 = space_matroid(GF2, 7, [tuple(int(i == j) for j in range(7)) for i in range(6)])
    M2 = space_matroid(GF2, 7, [tuple(int(i == j) for j in range(7)) for i in range(7)])
    assert dist(PerturbPair(M1, M2), cap=100) == 1
    with pytest.raises(CapExceeded, match=r"^127 lifts exceed the budget 100; raise it with --cap$"):
        elementary_lifts(space_matroid(GF2, 7, []), cap=100)
    with pytest.raises(CapExceeded, match=r"^127 hyperplanes exceed the budget 100; raise it with --cap$"):
        elementary_projections(M2, cap=100)


def test_neighbour_plans_are_keyed_by_the_field():
    """Two fields of 8 elements with different moduli share q, and so the
    shape of every plan, but not their arithmetic: calls on the two,
    interleaved over every subspace of GF(8)^2, on sorted and on
    relabelled ground sets, each build their own field's neighbours."""
    A = make_field(2, 3)
    B = FiniteField(2, 3, modulus=(1, 0, 1, 1))
    assert A.modulus == (1, 1, 0, 1) and A.q == B.q and A != B
    cases = 0
    for ground in ((0, 1), ("b", "a")):
        for rows in enumerate_subspaces(A, 2):
            for F in (A, B, A, B):
                M = ReprMatroid(Subspace(F, ground, list(rows)))
                assert ([N.space.basis for N in elementary_projections(M)]
                        == [N.space.basis for N in elementary_projections_reference(M)])
                assert ([N.space.basis for N in elementary_lifts(M)]
                        == [N.space.basis for N in elementary_lifts_by_reduction(M)])
                cases += 1
    assert cases == 2 * 11 * 4


@pytest.mark.parametrize("plan", [_projection_plan, _lift_plan, _points],
                         ids=lambda plan: plan.__name__)
def test_plan_caches_are_bounded(plan):
    """Each cache keeps a fixed number of entries, which the plans'
    docstrings state."""
    maxsize = plan.cache_info().maxsize
    assert maxsize is not None
    if plan is not _points:
        assert f"at most {maxsize} plans" in " ".join(plan.__doc__.split())


def test_refused_neighbours_build_no_plan():
    """The budget is checked before the plan, whose size it covers, is
    built: a refused call leaves the plan caches as they were."""
    empty = space_matroid(GF2, 7, [])
    full = space_matroid(GF2, 7, [tuple(int(i == j) for j in range(7)) for i in range(7)])
    for plan, call, M in ((_lift_plan, elementary_lifts, empty),
                          (_projection_plan, elementary_projections, full)):
        plan.cache_clear()
        with pytest.raises(CapExceeded, match=r"^127 .* exceed the budget 100; "):
            call(M, cap=100)
        assert plan.cache_info().currsize == 0
        assert len(call(M, cap=127)) == 128
        assert plan.cache_info().currsize == 1


def _six_steps_apart():
    # span(e0, e1, e2) to span(e3, e4, e5) in GF(2)^6 is 6 steps apart
    e = [tuple(int(i == j) for j in range(6)) for i in range(6)]
    return PerturbPair(space_matroid(GF2, 6, e[:3]), space_matroid(GF2, 6, e[3:]))


def test_dist_budget_counts_visited_subspaces():
    # the budget is checked as each subspace is first visited; the walk
    # visits 151 subspaces on this pair, as A* does, so 151 is its least
    # sufficient budget
    pair = _six_steps_apart()
    for cap in (60, 150):
        with pytest.raises(CapExceeded, match=rf"^{cap + 1} visited subspaces exceed "
                                              rf"the budget {cap}; raise it with --cap$"):
            dist(pair, cap=cap)
    assert dist(pair, cap=151) == 6


def test_dist_bfs_budget_counts_visited_subspaces():
    # the breadth-first oracle checks its budget per visit, not per level
    pair = _six_steps_apart()
    for cap in (60, 1000):
        with pytest.raises(CapExceeded, match=rf"^{cap + 1} visited subspaces exceed "
                                              rf"the budget {cap}; raise it with --cap$"):
            dist_bfs(pair, cap=cap)


@pytest.mark.parametrize("field,ground", [
    (GF2, (0, 1, 2, 3)), (GF3, (0, 1, 2)), (GF4, (0, 1)),
    (GF3, ("c", "a", "b")),  # given unsorted: pivots are sorted positions
], ids=["2-1-4", "3-1-3", "2-2-2", "3-1-3-relabelled"])
def test_subspace_distance_is_a_consistent_heuristic(field, ground):
    """The subspace distance is 0 exactly at the target, every elementary
    projection or lift changes it by exactly 1, and for every ordered pair
    (U, U2) of subspaces the estimates that _scored_steps reads off U and
    off each step are that distance, as computed from sum_spaces."""
    spaces = [ReprMatroid(Subspace(field, ground, list(rows)))
              for rows in enumerate_subspaces(field, len(ground))]
    table = {(a.space.basis, b.space.basis): subspace_distance(a.space, b.space)
             for a in spaces for b in spaces}
    kinds = set()
    for M in spaces:
        U = M.space
        projections, lifts = elementary_projections(M)[1:], elementary_lifts(M)[1:]
        steps = projections + lifts
        for T in spaces:
            U2 = T.space
            h = table[U.basis, U2.basis]
            assert (h == 0) == (M == T)
            h_read, scored = _scored_steps(M, U2, projections, lifts)
            assert h_read == h
            scored = list(scored)
            assert [N for N, _ in scored] == steps
            for N, estimate in scored:
                assert estimate == table[N.space.basis, U2.basis]
                assert abs(estimate - h) == 1
            meet = U.dim + U2.dim - sum_spaces(U, U2).dim
            kinds.update(kind for kind, holds in (
                ("dim U = 0", U.dim == 0), ("dim U2 = 0", U2.dim == 0),
                ("U = U2", U == U2), ("U < U2", U.dim == meet < U2.dim),
                ("U2 < U", U2.dim == meet < U.dim),
                ("W = 0 < U, U2", meet == 0 < min(U.dim, U2.dim)))
                if holds)
    assert len(kinds) == 6


@pytest.mark.parametrize("p,k,n,seed", [(2, 1, 5, 0), (3, 1, 4, 1), (2, 2, 3, 2)])
def test_dist_matches_bfs_on_seeded_pairs(p, k, n, seed):
    spaces = all_matroids(make_field(p, k), n)
    rng = random.Random(seed)
    for _ in range(12):
        pair = PerturbPair(rng.choice(spaces), rng.choice(spaces))
        d = dist(pair)
        assert d == dist_bfs(pair)
        assert d == subspace_distance(pair.m1.space, pair.m2.space)


def _outcome(search, pair, cap):
    """search's value under the budget cap, or its CapExceeded message."""
    try:
        return search(pair, cap=cap)
    except CapExceeded as exc:
        return str(exc)


@pytest.mark.parametrize("p,k,n,seed", [(2, 1, 5, 0), (3, 1, 4, 1), (2, 2, 3, 2), (None,) * 4],
                         ids=["2-1-5", "3-1-4", "2-2-3", "six-steps-apart"])
def test_dist_walk_matches_astar_under_every_budget(p, k, n, seed):
    """Under every budget from 1 to the least sufficient one, the walk
    returns what A* under the subspace distance returns, or raises the same
    CapExceeded message: both visit the same subspaces in the same order."""
    if p is None:
        pairs = [_six_steps_apart()]
    else:
        spaces = all_matroids(make_field(p, k), n)
        rng = random.Random(seed)
        pairs = [PerturbPair(rng.choice(spaces), rng.choice(spaces)) for _ in range(12)]
    refusals = set()
    for pair in pairs:
        cap = 0
        while True:
            cap += 1
            want = _outcome(dist_astar, pair, cap)
            assert _outcome(dist, pair, cap) == want
            if isinstance(want, int):
                break
            refusals.update(kind for kind in ("hyperplanes", "lifts", "visited subspaces")
                            if f" {kind} exceed " in want)
    assert len(refusals) == 3


# ---------------------------------------------------------------------------
# dist
# ---------------------------------------------------------------------------

def test_dist_self_is_zero():
    M = mk(GF2, [[1, 0, 1], [0, 1, 1]])
    assert dist(PerturbPair(M, M)) == 0


def test_dist_one_projection():
    M1 = mk(GF2, [[1, 0, 1], [0, 1, 1]])
    M2 = space_matroid(GF2, 3, [(1, 0, 1)])  # codim-1 subspace of U1
    assert dist(PerturbPair(M1, M2)) == 1


def test_dist_two_planes_meeting_in_line():
    M1 = space_matroid(GF2, 3, [(1, 0, 0), (0, 1, 0)])
    M2 = space_matroid(GF2, 3, [(1, 0, 0), (0, 0, 1)])
    assert dist(PerturbPair(M1, M2)) == 2


def test_dist_is_a_metric_on_gf2_3():
    ms = all_matroids(GF2, 3)
    n = len(ms)
    assert n == 16
    d = [[dist(PerturbPair(a, b)) for b in ms] for a in ms]
    for i in range(n):
        assert d[i][i] == 0
        for j in range(n):
            assert d[i][j] == d[j][i]
            assert (d[i][j] == 0) == (i == j)
            for k in range(n):
                assert d[i][k] <= d[i][j] + d[j][k]


# ---------------------------------------------------------------------------
# pert
# ---------------------------------------------------------------------------

def test_identical_matroids_pert_zero():
    M = mk(GF3, [[1, 2, 0], [0, 1, 1]])
    pair = PerturbPair(M, M)
    assert pert_bounds(pair) == (0, 0)
    assert pert_exact(pair) == 0


def test_rank_one_update_is_pert_at_most_one():
    M1 = mk(GF2, [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]])
    P = [[0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 1]]  # rank 1
    rows = [[GF2.add(x, y) for x, y in zip(r, p)] for r, p in zip(M1.space.basis, P)]
    M2 = mk(GF2, rows)
    pair = PerturbPair(M1, M2)
    lo, hi = pert_bounds(pair)
    assert lo <= 1 and hi <= 1
    assert pert_exact(pair) <= 1


def test_lemma_pert_dist_sandwich_gf2_3_exhaustive():
    ms = all_matroids(GF2, 3)
    for a in ms:
        for b in ms:
            pair = PerturbPair(a, b)
            p = pert_exact(pair)
            d = dist(pair)
            lo, hi = pert_bounds(pair)
            assert lo <= p <= hi
            assert p <= d <= 2 * p


def test_pert_exact_matches_literal_enumeration():
    ms = all_matroids(GF2, 3)
    pairs = [(a, b) for a in ms for b in ms if a.rank + b.rank <= 3]
    for a, b in pairs:
        pair = PerturbPair(a, b)
        assert pert_exact(pair) == pert_exact_tiny(pair)
    # a couple of the heavier 2+2 cases
    dim2 = [m for m in ms if m.rank == 2]
    for a, b in [(dim2[0], dim2[1]), (dim2[2], dim2[5]), (dim2[3], dim2[3])]:
        pair = PerturbPair(a, b)
        assert pert_exact(pair) == pert_exact_tiny(pair)


def test_pert_exact_matches_literal_enumeration_gf3():
    ms = all_matroids(GF3, 2)
    for a in ms:
        for b in ms:
            if a.rank + b.rank <= 2:
                pair = PerturbPair(a, b)
                assert pert_exact(pair) == pert_exact_tiny(pair)


def test_pert_exact_stops_enumerating_at_its_answer(monkeypatch):
    """pert_exact draws difference spaces from its lower bound
    lo = s - min(dim U1, dim U2) up to the first feasible one, which has
    dimension lo, so when lo < s it never reaches the last of the G_s(q)
    subspaces of U1 + U2."""
    drawn = []

    def counted(field, n, cap, start):
        for rows in enumerate_subspaces(field, n, cap=cap, start=start):
            drawn.append(rows)
            yield rows

    monkeypatch.setattr(perturb, "enumerate_subspaces", counted)
    for field in (GF2, GF3):
        checked = 0
        ms = all_matroids(field, 3)
        for a, b in product(ms, repeat=2):
            s = sum_spaces(a.space, b.space).dim
            if a == b or min(a.rank, b.rank) == 0:
                continue  # no search, or lo = s
            drawn.clear()
            value = pert_exact(PerturbPair(a, b))
            lo = s - min(a.rank, b.rank)
            assert value == lo == len(drawn[-1])
            assert all(len(rows) >= lo for rows in drawn)  # none below lo
            assert len(drawn) < subspace_count(field.q, s)
            checked += 1
        assert checked > 100


@pytest.mark.parametrize("field,n", [(GF2, 4), (GF3, 3)], ids=["2-1-4", "3-1-3"])
def test_difference_space_is_tested_by_a_rank_count(field, n):
    """For every ordered pair (U1, U2) of subspaces and every V <= U1 + U2
    that pert_exact could draw, the rank count agrees with U1 <= U2 + V
    and U2 <= U1 + V checked through sum_spaces."""
    ground = tuple(range(n))
    spaces = [Subspace(field, ground, list(rows)) for rows in enumerate_subspaces(field, n)]
    plus = cache(sum_spaces)  # subspaces repeat across the pairs

    @cache
    def drawn(S):
        """(rows, V) for each V of S, as pert_exact draws it."""
        return [(rows, Subspace(field, ground, rows))
                for rows in ([combine(field, c, S.basis) for c in vb]
                             for vb in enumerate_subspaces(field, S.dim))]

    seen = set()
    for U1, U2 in product(spaces, repeat=2):
        S = plus(U1, U2)
        meet = U1.dim + U2.dim - S.dim
        for rows, V in drawn(S):
            A, B = plus(U2, V), plus(U1, V)
            want = plus(A, U1) == A and plus(B, U2) == B
            assert _is_difference_space(field, U1, U2, S.dim, rows) == want
            seen.add((want, meet > 0))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


@pytest.mark.parametrize("field,n", [(GF2, 4), (GF3, 3), (GF4, 2)],
                         ids=["2-1-4", "3-1-3", "2-2-2"])
def test_pert_hi_is_the_witness_rank(field, n):
    """pert_bounds reads hi off the row count, not off the witness: for
    every ordered pair of subspaces, the witness difference, row-reduced,
    has rank hi, and hi = lo = pert_exact."""
    spaces = all_matroids(field, n)
    kinds = set()
    for a, b in product(spaces, repeat=2):
        pair = PerturbPair(a, b)
        lo, hi, diff = pert_bounds(pair, with_witness=True)
        assert len(rref_rows(field, diff)[1]) == hi == lo == pert_exact(pair)
        _, _, w = _aligned_generators(pair)
        kinds.update(kind for kind, holds in (
            ("dim W = 0", w == 0), ("d1 < d2", a.rank < b.rank),
            ("d1 = d2", a.rank == b.rank), ("d1 > d2", a.rank > b.rank)) if holds)
    assert len(kinds) == 4


def test_pert_lower_bound_is_intersection_defect():
    # lo = max(dim) - dim(intersection) on two GF(2)^4 planes meeting in a line
    M1 = space_matroid(GF2, 4, [(1, 0, 0, 0), (0, 1, 0, 0)])
    M2 = space_matroid(GF2, 4, [(1, 0, 0, 0), (0, 0, 1, 0)])
    lo, hi = pert_bounds(PerturbPair(M1, M2))
    assert lo == 1 and pert_exact(PerturbPair(M1, M2)) == 1 and hi == 1


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (3, 2), (257, 1)])
def test_aligned_generators_span_both_spaces(p, k):
    F = make_field(p, k)
    rng = random.Random(p * 10 + k)
    for _ in range(40):
        n = rng.randint(1, 5)
        pair = PerturbPair(*(
            mk(F, [[rng.randrange(F.q) for _ in range(n)] for _ in range(rng.randint(0, n))], n)
            for _ in range(2)))
        A1, A2, _ = _aligned_generators(pair)
        assert len(A1) == len(A2)
        assert Subspace(F, pair.ground, A1) == pair.m1.space
        assert Subspace(F, pair.ground, A2) == pair.m2.space
        lo, hi, diff = pert_bounds(pair, with_witness=True)
        assert diff == [[F.sub(x, y) for x, y in zip(r1, r2)] for r1, r2 in zip(A1, A2)]
        # W, the complements in U1 and those in U2 together are independent,
        # so the difference has rank max(d1, d2) - dim W = lo
        assert Subspace(F, pair.ground, diff).dim == hi == lo


# ---------------------------------------------------------------------------
# apply_perturbation
# ---------------------------------------------------------------------------

def test_apply_zero_perturbation():
    M = mk(GF2, [[1, 0, 1], [0, 1, 1]])
    P = Matrix(GF2, (0, 1), (0, 1, 2), [[0, 0, 0], [0, 0, 0]])
    out, t = apply_perturbation(M, P)
    assert out == M and t == 0


def test_apply_rank_one_to_fano():
    M = mk(GF2, [[1, 0, 0, 1, 1, 0, 1],
                 [0, 1, 0, 1, 0, 1, 1],
                 [0, 0, 1, 0, 1, 1, 1]])
    P = Matrix(GF2, (0, 1, 2), tuple(range(7)),
               [[0, 0, 0, 1, 0, 0, 1]] * 3)
    out, t = apply_perturbation(M, P)
    assert t == 1 and out.size == 7
    assert pert_exact(PerturbPair(M, out), cap=50000) <= 1


def test_apply_then_undo_on_nonpivot_support():
    # P touches only non-pivot columns, so the perturbed generator is still
    # in RREF and applying -P walks straight back.
    M = mk(GF2, [[1, 0, 0, 1, 1, 0, 1],
                 [0, 1, 0, 1, 0, 1, 1],
                 [0, 0, 1, 0, 1, 1, 1]])
    P = Matrix(GF2, (0, 1, 2), tuple(range(7)),
               [[0, 0, 0, 1, 1, 0, 0]] * 3)
    out, _ = apply_perturbation(M, P)
    back, _ = apply_perturbation(out, P)  # -P = P over GF(2)
    assert back == M


def test_apply_shape_mismatch():
    M = mk(GF2, [[1, 0, 1], [0, 1, 1]])
    with pytest.raises(ShapeMismatch):
        apply_perturbation(M, Matrix(GF2, (0,), (0, 1, 2), [[0, 0, 0]]))
