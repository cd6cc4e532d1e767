import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
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

from matroidlab.constructions import complete_graph, graphic, pg, uniform
from matroidlab.errors import NotASubfield, NotSubset
from matroidlab.field import make_field, subgroup_of_order
from matroidlab.linalg import Matrix, Subspace
from matroidlab.matroid import (
    UNBOUNDED,
    ReprMatroid,
    OracleMatroid,
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
    loops,
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

def test_from_generator_u23():
    M = u23()
    assert M.rank == 2 and M.size == 3


def test_zero_column_is_loop():
    M = mk(GF2, [[1, 0], [0, 0]])
    assert loops(M) == (1,)
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
    rng = seeded(p * 10 + k)
    for _ in range(60):
        M = random_matroid(F, 7, rng)
        X = {e for e in M.ground if rng.random() < 0.4}
        assert contract(M, X) == dual(delete(dual(M), X))


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


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (257, 1)])
def test_all_subset_ranks_match_bruteforce(p, k):
    F = make_field(p, k)
    rng = seeded(p * 10 + k)
    sizes = set()
    for A in _ranks_instances(F, rng):
        M = from_generator(A)
        sizes.add((M.size, M.rank))
        assert all_subset_ranks(M) == subset_ranks_bruteforce(M)
    assert (0, 0) in sizes and (4, 0) in sizes and (12, 6) in sizes


def test_all_subset_ranks_oracle_matroid():
    M = uniform(3, 6)
    assert isinstance(M, OracleMatroid)
    assert all_subset_ranks(M) == subset_ranks_bruteforce(M)


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
            P, Q = _profile(M, 8), _profile(relabel(M, phi), 8)
            assert sorted(P.sigs) == sorted(Q.sigs)
            where = {e: i for i, e in enumerate(Q.ground)}
            assert all(P.sigs[i] == Q.sigs[where[phi[e]]] for i, e in enumerate(P.ground))


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
    targets = (uniform(2, 4), u23(), graphic(complete_graph(4), GF2))
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
    targets = {"U24": uniform(2, 4), "U23": u23(),
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
# oracle matroids
# ---------------------------------------------------------------------------

def test_oracle_matroid_basics():
    M = OracleMatroid(range(4), lambda S: min(len(S), 2))
    assert M.rank == 2
    assert girth(M) == 3
    assert cogirth(M) == 3  # dual of U_{2,4} is U_{2,4}
    assert is_simple(M)


def test_oracle_validation_rejects_nonmatroid():
    with pytest.raises(ValueError):
        OracleMatroid(range(3), lambda S: len(S) % 2)


def test_oracle_minors_and_duality():
    M = OracleMatroid(range(4), lambda S: min(len(S), 2))
    D = dual(M)
    assert D.rank == 2
    N = contract(M, {0})
    assert N.rank == 1 and N.size == 3
    assert rank_of(delete(M, {3}), {0, 1}) == 2
