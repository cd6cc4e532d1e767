import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    check_rank_axioms,
    confined_bruteforce,
    has_minor_bruteforce,
    has_minor_reference,
    isomorphic_bruteforce,
    proj_equiv_bruteforce,
    random_matrix,
    random_matroid,
    seeded,
    smallest_circuit_bruteforce,
    subset_ranks_bruteforce,
)

from matroidlab.constructions import complete_graph, graphic, pg, uniform_represented
from matroidlab.errors import CapExceeded, NotASubfield, NotSubset
from matroidlab.field import make_field, subgroup_of_order
from matroidlab.linalg import Matrix, Subspace
from matroidlab import matroid as matroid_module
from matroidlab.matroid import (
    DEFAULT_SUBSET_CAP,
    UNBOUNDED,
    ReprMatroid,
    _profile,
    all_subset_ranks,
    cogirth,
    confined_to,
    contract,
    delete,
    dual,
    equivalent_up_to_relabel_scaling,
    from_generator,
    girth,
    has_minor,
    is_simple,
    isomorphic,
    minor,
    projectively_equivalent,
    rank_of,
    relabel,
    simplify,
    smallest_circuit,
    vertical_connectivity,
)
from matroidlab.perturb import apply_perturbation, elementary_lifts, elementary_projections
from matroidlab.templates import (
    FrameTemplate,
    SubfieldTemplate,
    frame_matroid_of,
    subfield_matroid_of,
)

GF2 = make_field(2, 1)
GF3 = make_field(3, 1)
GF4 = make_field(2, 2)


def mk(field, data, cols=None):
    m = len(data)
    n = len(data[0]) if m else 0
    cols = cols if cols is not None else tuple(range(n))
    return from_generator(Matrix(field, tuple(range(m)), cols, data))


def u23():
    return mk(GF2, [[1, 0, 1], [0, 1, 1]])


def fano():
    return mk(GF2, [[1, 0, 0, 1, 1, 0, 1],
                    [0, 1, 0, 1, 0, 1, 1],
                    [0, 0, 1, 0, 1, 1, 1]])


def k4():
    # vertex-edge incidence of K4, edges 01,02,03,12,13,23
    return mk(GF2, [[1, 1, 1, 0, 0, 0],
                    [1, 0, 0, 1, 1, 0],
                    [0, 1, 0, 1, 0, 1],
                    [0, 0, 1, 0, 1, 1]])


def k3():
    return mk(GF2, [[1, 1, 0], [1, 0, 1], [0, 1, 1]])


# ---------------------------------------------------------------------------
# construction, minors, duality
# ---------------------------------------------------------------------------

def test_equality_is_equality_of_spaces():
    """Matroids on one ground set with different spaces differ, also as
    set members, and a matroid never equals its own subspace."""
    M, N = u23(), mk(GF2, [[1, 0, 0], [0, 1, 1]])
    assert M.ground == N.ground and M.space != N.space
    assert M != N and not M == N
    assert len({M, N}) == 2 and N not in {M}
    assert M == u23() and len({M, u23()}) == 1
    assert M != M.space and not M == M.space and M.space not in {M}


def test_from_generator_u23():
    M = u23()
    assert M.rank == 2 and M.size == 3


def test_zero_column_is_loop():
    M = mk(GF2, [[1, 0], [0, 0]])
    assert M.column(1) == (0,) and rank_of(M, {1}) == 0
    assert not is_simple(M)


def test_identity_gives_free_matroid():
    M = mk(GF3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert girth(M) is None
    for S in [(0,), (0, 1), (0, 1, 2)]:
        assert rank_of(M, S) == len(S)


def test_delete_one_of_u23():
    M = delete(u23(), {2})
    assert M.rank == 2 and M.size == 2 and girth(M) is None


def test_delete_empty_and_all():
    M = u23()
    assert delete(M, set()) == M
    empty = delete(M, set(M.ground))
    assert empty.size == 0 and empty.rank == 0


def test_delete_rejects_foreign_labels():
    with pytest.raises(NotSubset):
        delete(u23(), {99})


@pytest.mark.parametrize("C,D,message", [
    ({0, 1}, {1}, "contract and delete sets must be disjoint"),
    ({0, 99}, {98}, "{99} not in ground set"),
    ({0}, {98, 2}, "{98} not in ground set"),
    ((), {97}, "{97} not in ground set"),
])
@pytest.mark.parametrize("kind", ["repr"])
def test_minor_subset_errors_keep_their_messages(kind, C, D, message):
    with pytest.raises(NotSubset) as err:
        minor(u23(), C, D)
    assert str(err.value) == message


def test_contract_one_of_u23():
    M = contract(u23(), {0})
    assert M.rank == 1 and M.size == 2
    assert not is_simple(M)  # the two survivors are parallel


def test_contract_loop_equals_delete():
    M = mk(GF2, [[1, 0, 1], [0, 0, 1]])
    assert contract(M, {1}) == delete(M, {1})


def test_deletion_contraction_duality_random():
    rng = seeded(42)
    for _ in range(200):
        F = [GF2, GF3, GF4][rng.randrange(3)]
        M = random_matroid(F, 7, rng)
        X = {e for e in M.ground if rng.random() < 0.4}
        assert dual(delete(M, X)) == contract(dual(M), X)


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (3, 2), (257, 1)])
def test_contract_is_dual_of_deletion_in_dual(p, k):
    F = make_field(p, k)
    rng, rng_d = seeded(p * 10 + k), seeded(p * 10 + k + 1)
    for _ in range(60):
        M = random_matroid(F, 7, rng)
        X = {e for e in M.ground if rng.random() < 0.4}
        assert contract(M, X) == dual(delete(dual(M), X))
        # M/X\D = (M\D)/X = ((M\D)*\X)*, with no row reduction on X first
        D = {e for e in M.ground if e not in X and rng_d.random() < 0.4}
        assert minor(M, X, D) == dual(delete(dual(delete(M, D)), X))


def test_dual_of_free_matroid():
    M = mk(GF3, [[1, 0], [0, 1]])
    assert dual(M).rank == 0


def test_dual_u23_is_u13():
    D = dual(u23())
    assert D.rank == 1
    U13 = mk(GF2, [[1, 1, 1]])
    assert isomorphic(D, U13)


def test_dual_involution_random():
    rng = seeded(1)
    for _ in range(50):
        M = random_matroid(GF3, 6, rng)
        assert dual(dual(M)) == M


def test_derived_ground_is_the_subspace_ambient():
    # a represented matroid's label order is held by its subspace alone
    M = mk(GF3, [[1, 0, 2, 1], [0, 1, 1, 2]], cols=("d", "b", "c", "a"))
    assert M.ground == ("a", "b", "c", "d")
    P = Matrix(GF3, (0, 1), M.ground, [[0, 1, 0, 0], [0, 0, 0, 0]])
    A = Matrix(GF2, ("r1", "r0"), ("c1", "c0"), [[1, 1], [0, 1]])
    derived = [M, delete(M, {"b"}), contract(M, {"c"}), minor(M, {"a"}, {"d"}), dual(M),
               relabel(M, {"a": 3, "b": 1, "c": 0, "d": 2}), apply_perturbation(M, P)[0],
               *elementary_projections(M), *elementary_lifts(M),
               subfield_matroid_of(A, SubfieldTemplate.empty(GF2)),
               frame_matroid_of(A, FrameTemplate.trivial(subgroup_of_order(GF2, 1)))]
    for N in derived:
        assert N.ground is N.space.ambient
    assert ReprMatroid(Subspace(GF3, "abcd", M.space.basis)) == M


def test_rank_of_basics():
    M = u23()
    assert rank_of(M, set()) == 0
    assert rank_of(M, M.ground) == M.rank
    for e in M.ground:
        assert rank_of(M, {e}) == 1


def test_rank_axioms_exhaustive():
    rng = seeded(5)
    for _ in range(10):
        M = random_matroid(GF3, 6, rng)
        g = M.ground
        n = len(g)
        ranks = all_subset_ranks(M)
        for mask in range(1 << n):
            r = ranks[mask]
            for a in range(n):
                if mask >> a & 1:
                    continue
                ra = ranks[mask | 1 << a]
                assert ra - r in (0, 1)  # unit increase (monotone too)
                for b in range(a + 1, n):
                    if mask >> b & 1:
                        continue
                    rb = ranks[mask | 1 << b]
                    rab = ranks[mask | 1 << a | 1 << b]
                    assert ra + rb >= rab + r  # local submodularity


def _ranks_instances(field, rng):
    """Seeded matrices over `field` with a loop and a parallel pair planted,
    plus rank 0, |E| = 0 and a spanning 12-element case."""
    yield Matrix(field, (), (), [])
    yield Matrix(field, (0, 1), tuple(range(4)), [[0] * 4, [0] * 4])
    for m, n in ((1, 3), (2, 5), (3, 7), (4, 9), (5, 12)):
        A = random_matrix(field, m, n, rng)
        data = [list(row) for row in A.data]
        s = rng.randrange(1, field.q)
        for row in data:
            row[0] = 0                          # column 0 is a loop
            row[2] = field.mul(s, row[1])       # columns 1 and 2 are parallel
        yield Matrix(field, A.rows, A.cols, data)
    yield random_matrix(field, 6, 12, rng)


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (257, 1)])
def test_all_subset_ranks_match_bruteforce(p, k):
    F = make_field(p, k)
    rng = seeded(p * 10 + k)
    sizes = set()
    for A in _ranks_instances(F, rng):
        M = from_generator(A)
        sizes.add((M.size, M.rank))
        assert all_subset_ranks(M) == subset_ranks_bruteforce(M)
    assert (0, 0) in sizes and (4, 0) in sizes and (12, 6) in sizes


def _matroid_of_rank(F, n, r, rng):
    """A seeded matroid on range(n) of rank exactly r.  Below full rank
    column 0 is a loop, and from rank 1 on with room to spare columns 1
    and 2 are parallel."""
    while True:
        data = [[rng.randrange(F.q) for _ in range(n)] for _ in range(r)]
        for row in data:
            if r < n:
                row[0] = 0
            if 1 <= r <= n - 2 and n >= 3:
                row[2] = F.mul(rng.randrange(1, F.q), row[1])
        M = from_generator(Matrix(F, tuple(range(r)), tuple(range(n)), data))
        if M.rank == r:
            return M


def _rank_cases(F, max_n):
    """(n, r) for n = 0..max_n: rank 0 and full rank, ranks on both sides
    of the primal/dual switch (r < n - r, r = n - r, r > n - r) and sizes
    on both sides of the codeword floor, with at most 2^20 words to count."""
    for n in range(max_n + 1):
        ranks = {0, n} | ({1, n // 2, n - n // 2, n - 1} if n <= 12 else {2, n - 2})
        for r in sorted(ranks):
            if 0 <= r <= n and F.q ** min(r, n - r) <= 1 << 20:
                yield n, r


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (257, 1)])
def test_codeword_ranks_match_walk(p, k, monkeypatch):
    F = make_field(p, k)
    rng = seeded(31 * p + k)
    if F.add_t is None:
        # without tables every size takes the walk: there is no count to
        # compare, so the sizes stop where the bruteforce test's do
        monkeypatch.setattr(matroid_module, "_codeword_ranks", None)
    seen = set()
    for n, r in _rank_cases(F, 16 if F.add_t is not None else 12):
        M = _matroid_of_rank(F, n, r, rng)
        walk = matroid_module._walk_ranks(M)
        if F.add_t is not None:
            assert matroid_module._codeword_ranks(M) == walk, (n, r)
        assert all_subset_ranks(M) == walk
        seen.add((n >= matroid_module._CODEWORD_FLOOR, 2 * r > n))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


@pytest.mark.parametrize("p,k,n,r", [
    (2, 3, 15, 6),   # 8^6 words: 64 shifted blocks and a full mask buffer
    (2, 2, 16, 8),   # 4^8 words, the primal count at the switch
    (3, 1, 16, 9),   # the dual count
])
def test_codeword_ranks_in_blocks_match_walk(p, k, n, r):
    F = make_field(p, k)
    M = _matroid_of_rank(F, n, r, seeded(n + r))
    tracemalloc.start()
    try:
        ranks = matroid_module._codeword_ranks(M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ranks == matroid_module._walk_ranks(M)
    # memory follows the 2^n table, not the q^r words (40 MB in one block)
    assert peak < 64 << n


@pytest.mark.parametrize("n,codeword", [(6, False), (7, True)])
def test_all_subset_ranks_switches_at_the_floor(monkeypatch, n, codeword):
    calls = []
    for name in ("_walk_ranks", "_codeword_ranks"):
        path = getattr(matroid_module, name)
        monkeypatch.setattr(matroid_module, name,
                            lambda M, path=path, name=name: calls.append(name) or path(M))
    M = _matroid_of_rank(GF2, n, 3, seeded(n))
    assert all_subset_ranks(M) == subset_ranks_bruteforce(M)
    assert calls == ["_codeword_ranks" if codeword else "_walk_ranks"]
    # past 2^(n + 3) words the walk serves, here over GF(16) at rank 3
    calls.clear()
    M = _matroid_of_rank(make_field(2, 4), 7, 3, seeded(n))
    assert all_subset_ranks(M) == subset_ranks_bruteforce(M)
    assert calls == ["_walk_ranks"]


# metamorphic relations of the rank table at sizes up to the subset cap
METAMORPHIC = settings(derandomize=True, max_examples=40, deadline=None)
METAMORPHIC_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)]


@st.composite
def matroids_up_to_cap(draw):
    F = make_field(*draw(st.sampled_from(METAMORPHIC_FIELDS)))
    # half the cases within four elements of the cap
    n = draw(st.integers(0, DEFAULT_SUBSET_CAP)
             | st.integers(DEFAULT_SUBSET_CAP - 4, DEFAULT_SUBSET_CAP))
    # keep the smaller side's q^r within what the codeword path counts,
    # so that a case costs milliseconds
    r = draw(st.integers(0, n).filter(lambda r: F.q ** min(r, n - r) <= 1 << (n + 3)))
    return _matroid_of_rank(F, n, r, seeded(draw(st.integers(0, 2 ** 32))))


def _mask_images(perm):
    """images[mask] = the mask with bit i moved to bit perm[i]."""
    masks = np.arange(1 << len(perm))
    images = np.zeros_like(masks)
    for i, j in enumerate(perm):
        images |= (masks >> i & 1) << j
    return images


@METAMORPHIC
@given(M=matroids_up_to_cap(), data=st.data())
def test_rank_table_survives_row_operation_scaling_and_relabelling(M, data):
    F, n, r = M.field, M.size, M.rank
    rng = seeded(data.draw(st.integers(0, 2 ** 32)))
    # an invertible row operation: a random unit lower-triangular transform
    rows = [list(row) for row in M.space.basis]
    for i in range(r):
        for j in range(i):
            c = rng.randrange(F.q)
            if c:
                rows[i] = F.axpy(c, rows[i], rows[j])
    scales = [rng.randrange(1, F.q) for _ in range(n)]
    rows = [[F.mul(x, s) for x, s in zip(row, scales)] for row in rows]
    perm = data.draw(st.permutations(range(n)))
    N = from_generator(Matrix(F, tuple(range(r)), tuple(perm), rows))
    before, after = np.array(all_subset_ranks(M)), np.array(all_subset_ranks(N))
    assert (after[_mask_images(perm)] == before).all()


@METAMORPHIC
@given(M=matroids_up_to_cap())
def test_dual_rank_table_is_the_dual_rank_function(M):
    # r*(X) = |X| + r(E - X) - r(E), against the dual's own table
    ranks, dual_ranks = np.array(all_subset_ranks(M)), np.array(all_subset_ranks(dual(M)))
    sizes = np.bitwise_count(np.arange(len(ranks)))
    assert (dual_ranks == sizes + ranks[::-1] - M.rank).all()


# ---------------------------------------------------------------------------
# girth / cogirth
# ---------------------------------------------------------------------------

def test_girth_u23():
    assert girth(u23()) == 3


def test_girth_fano_by_circuit_search():
    M = fano()
    assert girth(M) == 3
    assert smallest_circuit_bruteforce(M)[0] == 3


def test_cogirth_examples():
    assert cogirth(u23()) == 2
    assert cogirth(fano()) == 4
    rank0 = mk(GF2, [[0, 0]])
    assert cogirth(rank0) is None


def test_girth_kernel_equals_circuit_enumeration_random():
    rng = seeded(7)
    for i in range(60):
        M = random_matroid(GF2, 12 if i < 12 else 8, rng)
        kern = smallest_circuit(M)
        brute = smallest_circuit_bruteforce(M)
        assert (kern is None) == (brute is None)
        if kern is not None:
            assert kern[0] == brute[0]


def test_girth_equals_cogirth_of_dual_random():
    rng = seeded(8)
    for _ in range(40):
        M = random_matroid(GF3, 12, rng)
        assert girth(M) == cogirth(dual(M))


# ---------------------------------------------------------------------------
# simplicity
# ---------------------------------------------------------------------------

def test_fano_is_simple():
    assert is_simple(fano())


def test_simplify_duplicate_column():
    M = mk(GF2, [[1, 1, 0], [0, 0, 1]])
    S = simplify(M)
    assert S.size == 2 and 0 in S.ground and 2 in S.ground


def test_simplify_removes_zero_column():
    M = mk(GF2, [[1, 0, 1], [0, 0, 1]])
    assert 1 not in simplify(M).ground


def test_simplify_preserves_girth_at_least_three():
    rng = seeded(11)
    for _ in range(40):
        M = random_matroid(GF3, 7, rng)
        g = girth(M)
        if g is not None and g >= 3:
            assert girth(simplify(M)) == g


# ---------------------------------------------------------------------------
# projective equivalence
# ---------------------------------------------------------------------------

def test_proj_equiv_column_scaling():
    A = mk(GF3, [[1, 2, 0], [0, 1, 1]])
    B = mk(GF3, [[1, 1, 0], [0, 2, 1]])  # column 1 scaled by 2
    assert projectively_equivalent(A, B)


def test_proj_equiv_row_permutation():
    A = mk(GF3, [[1, 2, 0], [0, 1, 1]])
    B = from_generator(Matrix(GF3, (0, 1), (0, 1, 2), [[0, 1, 1], [1, 2, 0]]))
    assert projectively_equivalent(A, B)


def test_proj_equiv_distinguishes_loops():
    A = u23()
    B = mk(GF2, [[1, 0, 0], [0, 1, 0]])  # U22 plus a loop
    assert not projectively_equivalent(A, B)


def test_proj_equiv_matches_bruteforce():
    rng = seeded(13)
    for _ in range(60):
        F = [GF3, GF4][rng.randrange(2)]
        M1 = random_matroid(F, 4, rng)
        M2 = random_matroid(F, 4, rng)
        if M1.size != M2.size:
            continue
        M2 = ReprMatroid(Subspace(F, M1.ground, M2.space.basis))
        assert projectively_equivalent(M1, M2) == proj_equiv_bruteforce(M1, M2)


def test_proj_equiv_is_equivalence_relation_on_samples():
    rng = seeded(17)
    ms = []
    for _ in range(12):
        M = random_matroid(GF3, 4, rng, min_n=4)
        ms.append(M)
    for a in ms:
        assert projectively_equivalent(a, a)
        for b in ms:
            if a.ground != b.ground:
                continue
            ab = projectively_equivalent(a, b)
            assert ab == projectively_equivalent(b, a)
            for c in ms:
                if b.ground != c.ground:
                    continue
                if ab and projectively_equivalent(b, c):
                    assert projectively_equivalent(a, c)


# ---------------------------------------------------------------------------
# isomorphism
# ---------------------------------------------------------------------------

def test_k3_isomorphic_to_u23():
    assert isomorphic(k3(), u23())


def test_fano_not_isomorphic_to_k4_plus_coloop():
    plus = mk(GF2, [[1, 1, 1, 0, 0, 0, 0],
                    [1, 0, 0, 1, 1, 0, 0],
                    [0, 1, 0, 1, 0, 1, 0],
                    [0, 0, 1, 0, 1, 1, 0],
                    [0, 0, 0, 0, 0, 0, 1]])
    assert not isomorphic(fano(), plus)


def test_self_isomorphic():
    rng = seeded(19)
    for _ in range(20):
        M = random_matroid(GF4, 6, rng)
        assert isomorphic(M, M)
        shuffled = list(M.ground)
        rng.shuffle(shuffled)
        assert isomorphic(M, relabel(M, dict(zip(M.ground, shuffled))))


def _transformed_copy(M, rng):
    """M with its columns scaled by random nonzero scalars and its labels
    permuted: a projectively transformed, relabelled copy."""
    F = M.field
    scales = [rng.randrange(1, F.q) for _ in M.ground]
    rows = [[F.mul(x, s) for x, s in zip(row, scales)] for row in M.space.basis]
    shuffled = list(M.ground)
    rng.shuffle(shuffled)
    return relabel(from_generator(Matrix(F, range(len(rows)), M.ground, rows)),
                   dict(zip(M.ground, shuffled)))


@pytest.mark.parametrize("field", [GF2, GF3, GF4])
def test_isomorphic_matches_bruteforce(field):
    """Against transformed copies, copies with one entry changed and random
    matroids of the same size; sorted element signatures agree on every
    isomorphic pair."""
    rng = seeded(59)
    verdicts = set()
    for _ in range(30):
        n = rng.randint(3, 7)
        A = random_matrix(field, rng.randint(1, n - 1), n, rng)
        M = from_generator(A)
        B = [list(row) for row in A.data]
        B[rng.randrange(len(B))][rng.randrange(n)] = rng.randrange(field.q)
        others = [_transformed_copy(M, rng), from_generator(Matrix(field, A.rows, A.cols, B)),
                  from_generator(random_matrix(field, len(A.rows), n, rng))]
        for M2 in others:
            want = isomorphic_bruteforce(M, M2)
            assert isomorphic(M, M2) == want
            if want:
                assert sorted(_profile(M, 7).sigs) == sorted(_profile(M2, 7).sigs)
            verdicts.add(want)
    assert verdicts == {False, True}


# Non-isomorphic pairs with equal rank histograms and equal sorted element
# signatures, found by a seeded search over random GF(3) and GF(4)
# matroids: only the backtracking tells them apart.
EQUAL_INVARIANT_PAIRS = [
    (GF4, [(1, 0, 0, 0, 0, 2, 3), (0, 1, 0, 0, 2, 3, 0), (0, 0, 1, 0, 1, 2, 0),
           (0, 0, 0, 1, 3, 0, 3)],
          [(1, 0, 0, 0, 0, 2, 3), (0, 1, 0, 0, 1, 2, 2), (0, 0, 1, 0, 0, 1, 3),
           (0, 0, 0, 1, 3, 1, 1)]),
    (GF3, [(1, 0, 0, 0, 2, 2, 1, 0), (0, 1, 0, 0, 0, 1, 0, 2), (0, 0, 1, 0, 1, 2, 1, 1),
           (0, 0, 0, 1, 1, 1, 0, 1)],
          [(1, 0, 0, 1, 0, 1, 0, 1), (0, 1, 0, 2, 0, 1, 0, 0), (0, 0, 1, 1, 0, 2, 2, 1),
           (0, 0, 0, 0, 1, 2, 1, 1)]),
]


@pytest.mark.parametrize("field,A,B", EQUAL_INVARIANT_PAIRS)
def test_isomorphic_backtracks_past_equal_invariants(field, A, B):
    M1, M2 = mk(field, A), mk(field, B)
    P1, P2 = _profile(M1, 8), _profile(M2, 8)
    assert P1.hist == P2.hist and sorted(P1.sigs) == sorted(P2.sigs)
    assert isomorphic(M1, M2) is isomorphic_bruteforce(M1, M2, cap=8) is False
    copy = _transformed_copy(M1, seeded(71))
    assert isomorphic(copy, M1) and not isomorphic(copy, M2)


def test_element_signatures_follow_relabelling():
    rng = seeded(61)
    for field in (GF2, GF3, GF4):
        for _ in range(10):
            M = random_matroid(field, 8, rng, min_n=2)
            shuffled = list(M.ground)
            rng.shuffle(shuffled)
            phi = dict(zip(M.ground, shuffled))
            N = relabel(M, phi)
            P, Q = _profile(M, 8), _profile(N, 8)
            assert sorted(P.sigs) == sorted(Q.sigs)
            where = {e: i for i, e in enumerate(N.ground)}
            assert all(P.sigs[i] == Q.sigs[where[phi[e]]] for i, e in enumerate(M.ground))


def test_equivalent_up_to_relabel_scaling():
    A = mk(GF3, [[1, 2, 0], [0, 1, 1]])
    perm = relabel(A, {0: 2, 1: 0, 2: 1})
    assert equivalent_up_to_relabel_scaling(A, perm)


# ---------------------------------------------------------------------------
# minors
# ---------------------------------------------------------------------------

def test_k4_has_u23_minor():
    found, wit = has_minor(k4(), u23())
    assert found
    C, D = wit
    assert isomorphic(minor(k4(), C, D), u23())


def test_fano_has_k4_minor():
    found, wit = has_minor(fano(), k4())
    assert found
    C, D = wit
    assert C == () and len(D) == 1


def test_u23_has_no_k4_minor():
    assert has_minor(u23(), k4()) == (False, None)


def test_has_minor_cap_bounds_only_tables_it_builds():
    # a minor larger than M is refuted before M's table is asked for
    assert has_minor(pg(3, GF2), pg(4, GF2), cap=2) == (False, None)
    with pytest.raises(CapExceeded, match=r"^\|E\|=7 exceeds subset enumeration cap 2; "
                                          r"raise it with --cap$"):
        has_minor(pg(3, GF2), u23(), cap=2)


def test_has_minor_matches_bruteforce():
    for field in (GF2, GF3):
        rng = seeded(23)
        for _ in range(25):
            M = random_matroid(field, 6, rng)
            N = random_matroid(field, 4, rng)
            got, _ = has_minor(M, N)
            assert got == has_minor_bruteforce(M, N)


@pytest.mark.parametrize("field", [GF2, GF3])
def test_has_minor_refutations_match_bruteforce(field):
    """U24 is never a minor of a binary matroid, so over GF(2) has_minor
    must refute every candidate for it."""
    rng = seeded(67)
    targets = (uniform_represented(2, 4, GF3), u23(), graphic(complete_graph(4), GF2))
    verdicts = set()
    for _ in range(8):
        n = rng.randint(5, 8)
        M = from_generator(random_matrix(field, rng.randint(2, n - 2), n, rng))
        for N in targets:
            got, _ = has_minor(M, N)
            assert got == has_minor_bruteforce(M, N)
            verdicts.add(got)
    assert verdicts == {False, True}


@pytest.mark.parametrize("field", [GF2, GF3])
def test_has_minor_witness_matches_reference(field):
    rng = seeded(41)
    f7 = pg(3, GF2)
    targets = {"U24": uniform_represented(2, 4, GF3), "U23": u23(),
               "K4": graphic(complete_graph(4), GF2), "F7": f7, "F7*": dual(f7)}
    found = 0
    for n in range(6, 10):
        for _ in range(4):
            M = from_generator(random_matrix(field, rng.randint(3, n - 2), n, rng))
            for name, N in targets.items():
                got = has_minor(M, N)
                assert got == has_minor_reference(M, N), (n, name)
                found += got[0]
    assert 10 <= found < 16 * len(targets)  # both verdicts occur


@pytest.mark.parametrize("field", [GF2, GF3])
def test_has_minor_witness_matches_reference_with_loops_and_parallels(field):
    """Targets with a loop, with a parallel pair and with both, so that a
    miscounted loop or parallel pair in the minor search's filters would
    change a verdict or a witness."""
    rng = seeded(53)
    targets = {
        "U23+loop": mk(field, [[1, 0, 1, 0], [0, 1, 1, 0]]),
        "U23+parallel": mk(field, [[1, 0, 1, 1], [0, 1, 1, 1]]),
        "pair+coloop+loop": mk(field, [[1, 1, 0, 0], [0, 0, 1, 0]]),
        "two pairs": mk(field, [[1, 1, 0, 0], [0, 0, 1, 1]]),
    }
    verdicts = set()
    for n in range(6, 10):
        for _ in range(3):
            M = from_generator(random_matrix(field, rng.randint(2, n - 3), n, rng))
            for name, N in targets.items():
                got = has_minor(M, N)
                assert got == has_minor_reference(M, N), (n, name)
                verdicts.add(got[0])
    assert verdicts == {False, True}


def test_minor_with_empty_contraction_is_a_deletion():
    rng = seeded(7)
    for field in (GF2, GF3, GF4):
        for _ in range(5):
            M = random_matroid(field, 7, rng, min_n=3)
            assert contract(M, ()) == M
            for D in ((), M.ground[:1], M.ground[1:3]):
                assert minor(M, (), D) == delete(M, D)


# ---------------------------------------------------------------------------
# vertical connectivity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field", [GF2, GF3])
def test_vertical_connectivity_witness_is_the_first_minimizing_partition(field):
    """The witness (X, Y) partitions E into two non-spanning sides whose
    connectivity r(X) + r(Y) - r(M) + 1 is the value, and X is the first
    minimizing subset of a scan of all subsets by mask, ranked by rank_of."""
    rng = seeded(29)
    checked = 0
    for _ in range(16):
        n = rng.randint(4, 8)
        M = from_generator(random_matrix(field, rng.randint(2, n - 1), n, rng))
        value, witness = vertical_connectivity(M, with_witness=True)
        r = M.rank
        best = None
        for mask in range(1 << n):
            X = tuple(e for i, e in enumerate(M.ground) if mask >> i & 1)
            Y = tuple(e for e in M.ground if e not in X)
            rx, ry = rank_of(M, X), rank_of(M, Y)
            if rx < r and ry < r and (best is None or rx + ry - r < best[0]):
                best = rx + ry - r, (X, Y)
        if best is None:
            assert value is UNBOUNDED and witness is None
            continue
        X, Y = witness
        assert sorted(X + Y) == sorted(M.ground) and not set(X) & set(Y)
        assert rank_of(M, X) < r and rank_of(M, Y) < r
        assert value == rank_of(M, X) + rank_of(M, Y) - r + 1 == best[0] + 1
        assert witness == best[1]
        checked += 1
    assert checked >= 8


def test_two_coloops_not_vertically_2_connected():
    M = mk(GF2, [[1, 0], [0, 1]])
    assert vertical_connectivity(M) == 1


def test_k4_vertical_connectivity_unbounded():
    assert vertical_connectivity(k4()) is UNBOUNDED


def test_u23_vertical_connectivity_unbounded():
    assert vertical_connectivity(u23()) is UNBOUNDED


# ---------------------------------------------------------------------------
# subfield confinement
# ---------------------------------------------------------------------------

def test_gf2_entries_confined_in_gf4():
    M = mk(GF4, [[1, 0, 1, 1], [0, 1, 1, 0]])
    assert confined_to(M, GF2)


def test_u24_over_gf4_not_confined_to_gf2():
    M = mk(GF4, [[1, 0, 1, 1], [0, 1, 1, 2]])
    # four pairwise independent columns: a rank-2 binary space has only 3
    assert girth(M) == 3 and is_simple(M)
    assert not confined_to(M, GF2)


def test_confined_to_whole_field():
    M = mk(GF4, [[1, 2, 3], [0, 1, 2]])
    assert confined_to(M, GF4)


def test_confined_rejects_non_subfield():
    with pytest.raises(NotASubfield):
        confined_to(mk(GF4, [[1, 0]]), GF3)


def test_confined_matches_bruteforce():
    rng = seeded(29)
    codes = GF4.subfield_codes(1)
    for _ in range(40):
        M = random_matroid(GF4, 4, rng)
        assert confined_to(M, GF2) == confined_bruteforce(M, codes)


# ---------------------------------------------------------------------------
# the rank-axiom oracle
# ---------------------------------------------------------------------------

def test_oracle_validation_rejects_nonmatroid():
    with pytest.raises(ValueError, match="unit-increase"):
        check_rank_axioms(3, lambda S: len(S) % 2)
    # two loops whose union has rank 1
    with pytest.raises(ValueError, match="submodularity"):
        check_rank_axioms(2, lambda S: int(len(S) == 2))

