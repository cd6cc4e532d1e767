import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    axpy_reference,
    combine_reference,
    intersect_spaces_reference,
    min_weight_bruteforce,
    min_weight_reference,
    reduce_reference,
    row_space_equal,
    rref_reference,
    scale_reference,
    seeded,
    sum_spaces,
)

from matroidlab import linalg
from matroidlab.errors import CapExceeded, LabelMismatch
from matroidlab.field import make_field
from matroidlab.linalg import (
    Matrix,
    Subspace,
    combine,
    enumerate_subspaces,
    extend_echelon,
    gaussian_binomial,
    intersect_spaces,
    min_weight,
    orth_complement,
    reduce_vector,
    rref,
    rref_rows,
    sort_labels,
    subspace_count,
)

GF2 = make_field(2, 1)
GF3 = make_field(3, 1)
GF4 = make_field(2, 2)


def mat(field, data, rows=None, cols=None):
    m = len(data)
    n = len(data[0]) if m else 0
    rows = rows if rows is not None else tuple(range(m))
    cols = cols if cols is not None else tuple(range(n))
    return Matrix(field, rows, cols, data)


# a strategy for small random matrices over small fields
small_matrix = st.builds(
    lambda fld, m, n, seed: _random_matrix(fld, m, n, seed),
    st.sampled_from([GF2, GF3, GF4]),
    st.integers(0, 5),
    st.integers(1, 6),
    st.integers(0, 10 ** 9),
)


def _random_matrix(field, m, n, seed):
    import random

    rng = random.Random(seed)
    return mat(field, [[rng.randrange(field.q) for _ in range(n)] for _ in range(m)])


def test_rref_identity():
    A = Matrix.identity(GF2, (0, 1, 2))
    R, rank, piv = rref(A)
    assert rank == 3 and piv == (0, 1, 2)
    assert R.data == A.data


def test_rref_zero():
    A = Matrix(GF2, (0, 1), ("a", "b", "c"), [[0, 0, 0], [0, 0, 0]])
    _, rank, piv = rref(A)
    assert rank == 0 and piv == ()


def test_rref_hand_example():
    # row-reduce [[1,1,0],[1,1,1]] by hand: r2 <- r2 - r1 gives [[1,1,0],[0,0,1]]
    A = mat(GF2, [[1, 1, 0], [1, 1, 1]])
    R, rank, piv = rref(A)
    assert rank == 2
    assert piv == (0, 2)
    assert R.data == ((1, 1, 0), (0, 0, 1))


@given(small_matrix)
@settings(max_examples=60, deadline=None)
def test_rref_idempotent_and_rank_transpose(A):
    R, rank, _ = rref(A)
    R2, rank2, _ = rref(R)
    assert rank2 == rank and R2.data == R.data
    columns = [[row[j] for row in A.data] for j in range(len(A.cols))]
    _, rank_t, _ = rref(Matrix(A.field, A.cols, A.rows, columns))
    assert rank_t == rank


def test_orth_complement_full_space():
    U = Subspace(GF2, (0, 1, 2), [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    W = orth_complement(U)
    assert W.dim == 0


def test_orth_complement_parity_example():
    U = Subspace(GF2, (0, 1, 2), [(1, 1, 1)])
    W = orth_complement(U)
    assert W.dim == 2
    assert W.contains((1, 1, 0))


def test_orth_complement_exhaustive_gf2_4():
    # dim law and double complement over all 67 subspaces of GF(2)^4
    bases = list(enumerate_subspaces(GF2, 4))
    assert len(bases) == 67 == subspace_count(2, 4)
    amb = (0, 1, 2, 3)
    for rows in bases:
        U = Subspace(GF2, amb, list(rows))
        W = orth_complement(U)
        assert U.dim + W.dim == 4
        assert orth_complement(W) == U


def test_enumerate_subspaces_gf2_3_count():
    assert len(list(enumerate_subspaces(GF2, 3))) == 16


def test_enumerate_subspaces_is_lazy_and_checks_its_budget_first():
    subspaces = enumerate_subspaces(GF2, 3)
    assert next(subspaces) == ()
    assert next(subspaces) == ((1, 0, 0),)
    with pytest.raises(CapExceeded, match=r"^16 subspaces exceed the budget 15; "):
        next(enumerate_subspaces(GF2, 3, cap=15))


@pytest.mark.parametrize("field,n", [(GF2, 4), (GF3, 3)])
def test_enumerate_subspaces_from_a_start_dimension(field, n):
    """start=k yields the suffix of the full order from dimension k on, and
    its budget still counts every subspace."""
    full = list(enumerate_subspaces(field, n))
    total = subspace_count(field.q, n)
    for k in range(n + 2):
        got = list(enumerate_subspaces(field, n, start=k))
        assert got == [rows for rows in full if len(rows) >= k]
        assert got == full[len(full) - len(got):]
        with pytest.raises(CapExceeded, match=rf"^{total} subspaces exceed the budget {total - 1}; "):
            next(enumerate_subspaces(field, n, cap=total - 1, start=k))
        assert list(enumerate_subspaces(field, n, cap=total, start=k)) == got


def test_gaussian_binomial_values():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(3, 1, 3) == 13


def test_min_weight_parity():
    U = Subspace(GF2, (0, 1, 2), [(1, 1, 1)])
    assert min_weight(U)[0] == 3


def test_min_weight_zero_space():
    U = Subspace(GF2, (0, 1, 2), [])
    assert min_weight(U) == (None, None)


def test_min_weight_simplex_code():
    # 3x7 matrix of all nonzero GF(2) columns; all 7 nonzero codewords have weight 4
    cols = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1) if a or b or c]
    rows = [tuple(col[i] for col in cols) for i in range(3)]
    U = Subspace(GF2, tuple(range(7)), rows)
    w, witness = min_weight(U)
    assert w == 4
    assert witness.count(0) == 3
    for v in U.vectors():
        if any(v):
            assert 7 - v.count(0) == 4


@given(small_matrix)
@settings(max_examples=40, deadline=None)
def test_min_weight_matches_bruteforce(A):
    U = Subspace(A.field, A.cols, A.data)
    got = min_weight(U)[0]
    want = min_weight_bruteforce(U)
    assert got == (want[0] if want else None)


# (p, k, longest ambient set, spaces); both U and its complement stay
# small enough for the tuple-based reference to enumerate
REFERENCE_FIELDS = ((2, 1, 14, 16), (3, 1, 10, 16), (2, 2, 8, 16), (5, 1, 7, 16),
                    (2, 3, 6, 16), (3, 2, 6, 16), (257, 1, 4, 6))


@pytest.mark.parametrize("p,k,max_n,spaces", REFERENCE_FIELDS)
def test_min_weight_matches_reference_witness(p, k, max_n, spaces):
    F = make_field(p, k)
    rng = seeded(1000 * p + k)
    checked = 0
    while checked < spaces:
        n = rng.randint(2, max_n)
        A = mat(F, [[rng.randrange(F.q) for _ in range(n)]
                    for _ in range(rng.randint(1, n - 1))])
        U = Subspace(F, A.cols, A.data)
        if F.q ** max(U.dim, n - U.dim) > 1 << 17:
            continue
        for V in (U, orth_complement(U)):
            assert min_weight(V) == min_weight_reference(V)
        checked += 1


def test_min_weight_budget_counts_work_done():
    # cycle code of K_9: dimension 28 (2^28 combinations in all), distance 3
    edges = [(a, b) for a in range(9) for b in range(a + 1, 9)]
    cut = Subspace(GF2, range(len(edges)),
                   [[int(v in e) for e in edges] for v in range(8)])
    cycles = orth_complement(cut)
    assert cycles.dim == 28
    # levels 1 and 2 (28 + 378 combinations) find a triangle; level 3
    # cannot beat it, so the search stops there
    w, witness = min_weight(cycles, cap=406)
    assert w == 3 and cycles.contains(witness)
    with pytest.raises(CapExceeded, match="enumerated 400 combinations; "
                                          "the next 3 would pass the cap 400"):
        min_weight(cycles, cap=400)


# (p, k, ambient lengths, largest dimension): a word holds 64, 21, 16, 8
# and 6 coordinates of these fields, so every vector spans two or more
# words.  Dimensions stay small enough for the tuple-based reference.
MULTI_WORD_FIELDS = ((2, 1, (65, 70), 3), (3, 1, (22, 26), 3), (5, 1, (17, 20), 3),
                     (2, 8, (9, 11), 2), (257, 1, (7, 9), 2))


@pytest.mark.parametrize("p,k,lengths,max_dim", MULTI_WORD_FIELDS)
def test_min_weight_matches_reference_across_words(p, k, lengths, max_dim):
    F = make_field(p, k)
    rng = seeded(2000 * p + k)
    for _ in range(6 if F.q < 256 else 2):
        n = rng.randint(*lengths)
        # sparse rows move the least weight between words
        density = [rng.uniform(0.1, 1) for _ in range(rng.randint(1, max_dim))]
        U = Subspace(F, range(n), [[rng.randrange(1, F.q) if rng.random() < d else 0
                                    for _ in range(n)] for d in density])
        assert min_weight(U) == min_weight_reference(U)


def k9_cycles():
    """The cycle space of K_9 over GF(2): dimension 28, distance 3."""
    edges = list(itertools.combinations(range(9), 2))
    cut = Subspace(GF2, range(len(edges)),
                   [[int(v in e) for e in edges] for v in range(8)])
    return orth_complement(cut)


# Levels 1 and 2 of this GF(3) space charge 10 and 40 combinations.  Level
# 3's second prefix, row 0 + 2 * row 1, holds the least weight 3 at the
# fifth of its six extensions (+ row 4), so the hit is partway through the
# last level and partway through its batch.
MID_LEVEL_ROWS = ((1, 0, 0, 0, 0, 1, 0, 2, 2), (0, 1, 0, 0, 0, 0, 2, 1, 2),
                  (0, 0, 1, 0, 0, 1, 2, 2, 1), (0, 0, 0, 1, 0, 1, 1, 0, 2),
                  (0, 0, 0, 0, 1, 2, 2, 2, 0))


def test_min_weight_budget_charges_through_a_mid_level_hit():
    U = Subspace(GF3, range(9), MID_LEVEL_ROWS)
    # 10 + 40 + 6 + 6: the hit's batch is charged in full
    assert min_weight(U, cap=62) == (3, (1, 2, 0, 0, 1, 0, 0, 0, 0))
    with pytest.raises(CapExceeded, match=r"^minimum-weight search enumerated 56 "
                       r"combinations; the next 6 would pass the cap 61; "
                       r"raise it with --cap$"):
        min_weight(U, cap=61)
    # level 1 is checked before its table is built
    with pytest.raises(CapExceeded, match=r"^minimum-weight search enumerated 0 "
                       r"combinations; the next 10 would pass the cap 9; "):
        min_weight(U, cap=9)


def weight_outcome(U, cap):
    try:
        return min_weight(U, cap=cap)
    except CapExceeded as exc:
        return str(exc)


@pytest.mark.parametrize("words", (1, 7))
def test_min_weight_batches_leave_answers_alone(monkeypatch, words):
    rng = seeded(77)
    cases = [(k9_cycles(), cap) for cap in (400, 405, 406)]
    cases += [(Subspace(GF3, range(9), MID_LEVEL_ROWS), cap) for cap in (9, 61, 62)]
    for F, n, dim in ((GF2, 12, 5), (GF3, 8, 3), (GF4, 7, 3), (GF2, 66, 3),
                      (GF3, 23, 2), (make_field(257, 1), 7, 1)):
        U = Subspace(F, range(n), [[rng.randrange(F.q) for _ in range(n)]
                                   for _ in range(dim)])
        cases += [(U, 1 << 24), (orth_complement(U), 300)]
    default = [weight_outcome(U, cap) for U, cap in cases]
    monkeypatch.setattr(linalg, "MW_CHUNK_WORDS", words)
    assert [weight_outcome(U, cap) for U, cap in cases] == default


def test_row_space_equal_swapped_rows():
    A = mat(GF2, [[1, 0, 1], [0, 1, 1]])
    B = mat(GF2, [[0, 1, 1], [1, 0, 1]])
    assert row_space_equal(A, B)


def test_row_space_equal_scaled():
    A = mat(GF3, [[1, 2, 0], [0, 1, 1]])
    B = mat(GF3, [[2, 1, 0], [0, 2, 2]])  # 2*A
    assert row_space_equal(A, B)


def test_row_space_equal_rank_mismatch():
    A = mat(GF2, [[1, 0], [0, 1]])
    B = mat(GF2, [[1, 0]], rows=(0,))
    assert not row_space_equal(A, B)


def test_row_space_equal_label_mismatch():
    A = mat(GF2, [[1, 0]], cols=("a", "b"))
    B = mat(GF2, [[1, 0]], cols=("a", "c"))
    with pytest.raises(LabelMismatch):
        row_space_equal(A, B)


@given(small_matrix, small_matrix)
@settings(max_examples=30, deadline=None)
def test_sum_intersection_dimension_formula(A, B):
    if A.field != B.field or len(A.cols) != len(B.cols):
        return
    U = Subspace(A.field, A.cols, A.data)
    V = Subspace(B.field, B.cols, B.data)
    S = sum_spaces(U, V)
    I = intersect_spaces(U, V)
    assert S.dim + I.dim == U.dim + V.dim
    for v in I.basis:
        assert U.contains(v) and V.contains(v)


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
def test_intersect_spaces_matches_reference(p, k):
    F = make_field(p, k)
    rng = seeded(100 * p + k)

    def random_space(ambient):
        n = len(ambient)
        return Subspace(F, ambient, [tuple(rng.randrange(F.q) for _ in range(n))
                                     for _ in range(rng.randint(0, n + 1))])

    for n in range(6):
        ambient = tuple(f"x{i}" for i in reversed(range(n)))  # not in sorted order
        zero = Subspace(F, ambient, [])
        full = Subspace(F, ambient, [tuple(int(i == j) for j in range(n)) for i in range(n)])
        for _ in range(6):
            U, V = random_space(ambient), random_space(ambient)
            for A, B in ((U, V), (U, U), (U, zero), (zero, V), (U, full), (full, V)):
                I = intersect_spaces(A, B)
                assert I == intersect_spaces_reference(A, B)
                assert I.dim == A.dim + B.dim - sum_spaces(A, B).dim


def test_intersect_spaces_label_mismatch():
    U = Subspace(GF2, (0, 1), [(1, 0)])
    for V in (Subspace(GF3, (0, 1), [(1, 0)]), Subspace(GF2, (0, 2), [(1, 0)])):
        with pytest.raises(LabelMismatch, match=r"^sum needs identical field and ambient set$"):
            intersect_spaces(U, V)


# (p, k, n, largest dim): every q^dim enumeration stays at most 257^2
KERNEL_FIELDS = [(2, 1, 5, 5), (3, 1, 4, 4), (2, 2, 4, 4), (3, 2, 3, 3), (257, 1, 3, 2)]


@pytest.mark.parametrize("p,k,n,max_dim", KERNEL_FIELDS)
def test_subspace_contains_matches_enumeration(p, k, n, max_dim):
    F = make_field(p, k)
    rng = seeded(p * 10 + k)
    ambient = tuple(f"x{i}" for i in reversed(range(n)))  # not in sorted order
    for dim in range(max_dim + 1):
        vecs = [[rng.randrange(F.q) for _ in range(n)] for _ in range(dim)]
        U = Subspace(F, ambient, vecs)
        members = set(U.vectors())
        assert len(members) == F.q ** U.dim
        probes = [tuple(rng.randrange(F.q) for _ in range(n)) for _ in range(200)]
        probes += rng.sample(sorted(members), min(50, len(members)))
        for v in probes:
            assert U.contains(v) == (v in members)


@pytest.mark.parametrize("p,k,n,max_dim", KERNEL_FIELDS)
def test_extend_echelon_tracks_rank_and_span(p, k, n, max_dim):
    F = make_field(p, k)
    rng = seeded(p * 10 + k)
    for _ in range(30):
        vecs, ech = [], ((), ())
        for _ in range(n + 2):
            if vecs and rng.random() < 0.4:  # a vector already in the span
                v = combine(F, [rng.randrange(F.q) for _ in vecs], vecs)
            else:
                v = tuple(rng.randrange(F.q) for _ in range(n))
            vecs.append(v)
            ech = extend_echelon(F, *ech, v)
            assert len(ech[1]) == len(rref_rows(F, vecs)[1])
        basis, pivots = ech
        assert all(row[q] == 1 for row, q in zip(basis, pivots))
        assert all(not any(reduce_vector(F, basis, pivots, v)) for v in vecs)


# each row-kernel implementation: XOR (GF(2)), mod p (GF(3), and GF(257)
# above the table limit), add/mul tables (GF(4) and GF(9), one per
# characteristic) and scalar digit arithmetic (GF(2^9))
ROW_KERNEL_FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2), (257, 1), (2, 9)]


@pytest.mark.parametrize("p,k", ROW_KERNEL_FIELDS)
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_row_kernel_matches_scalar_reference(p, k, data):
    F = make_field(p, k)
    code, unit = st.integers(0, F.q - 1), st.integers(1, F.q - 1)
    n = data.draw(st.integers(1, 6))
    row = st.lists(code, min_size=n, max_size=n)
    rows = data.draw(st.lists(row, max_size=4))
    # combinations of the rows drawn so far, for rank deficiency and zero rows
    for coeffs in data.draw(st.lists(st.lists(code, min_size=len(rows), max_size=len(rows)),
                                     max_size=2 if rows else 0)):
        combo = combine(F, coeffs, rows)
        assert combo == combine_reference(F, coeffs, rows)
        rows.append(list(combo))
    f, g, xs, ys = data.draw(unit), data.draw(code), data.draw(row), data.draw(row)
    assert F.axpy(f, xs, ys) == axpy_reference(F, f, xs, ys)
    assert F.scale(g, xs) == scale_reference(F, g, xs)

    basis, pivots = rref_reference(F, rows)
    assert rref_rows(F, rows) == (basis, pivots)
    rest = reduce_reference(F, basis, pivots, xs)
    assert reduce_vector(F, basis, pivots, xs) == rest
    lead = next((i for i, x in enumerate(rest) if x), None)
    grown = extend_echelon(F, tuple(basis), tuple(pivots), xs)
    if lead is None:
        assert grown == (tuple(basis), tuple(pivots))
    else:
        top = tuple(scale_reference(F, F.inv(rest[lead]), rest))
        assert grown == (tuple(basis) + (top,), tuple(pivots) + (lead,))


def test_subspace_canonicalizes_ambient_order():
    U1 = Subspace(GF2, ("b", "a"), [(1, 0)])  # vector: b=1, a=0
    U2 = Subspace(GF2, ("a", "b"), [(0, 1)])
    assert U1 == U2


def test_subspace_ambient_order_keeps_each_ambients_labels():
    """Labels that are equal but sort apart (1 and True, 1 and 1.0, 0.0
    and -0.0) each keep their own order and their own objects, whichever
    ambient is built first."""
    for first, second in [((5, 1), (5, True)), ((5, 1), (5, 1.0)),
                          ((0.0, "-1"), (-0.0, "-1"))]:
        for a, b in [(first, second), (second, first)] * 2:
            for amb in (a, b):
                U = Subspace(GF2, amb, [(1, 0)])  # 1 at amb[0]
                want = sorted(amb, key=linalg.label_key)
                assert list(map(repr, U.ambient)) == list(map(repr, want))
                assert U.basis == (tuple(int(lbl is amb[0]) for lbl in want),)
                assert [U.index(lbl) for lbl in want] == [0, 1]


def test_subspace_duplicate_ambient_raises_every_time():
    for amb in [(0, 1, 0), ("a", "b", "a"), (1, True)]:
        for _ in range(2):
            with pytest.raises(LabelMismatch, match="duplicate ambient labels"):
                Subspace(GF2, amb, [])


def test_subspace_permuted_ambient_matches_sorted():
    labels = (0, 3, 10, "a", "b")
    vecs = [(1, 0, 2, 1, 0), (0, 1, 1, 0, 2)]
    want = Subspace(GF3, labels, vecs)
    for perm in itertools.permutations(range(5)):
        for _ in range(2):  # the second build reuses the cached order
            U = Subspace(GF3, [labels[i] for i in perm], [[v[i] for i in perm] for v in vecs])
            assert U == want
            assert U.ambient == labels


def test_subspace_sorts_each_plain_ambient_once(monkeypatch):
    sorts = []
    monkeypatch.setattr(linalg, "sort_labels",
                        lambda labels: sorts.append(labels) or sort_labels(labels))
    for _ in range(3):
        Subspace(GF2, ("sorted-once", 7, "probe"), [(1, 1, 0)])
    assert len(sorts) == 1
    for _ in range(3):  # a bool label is not cached: it sorts apart from 1
        Subspace(GF2, ("sorted-per-call", True, "probe"), [(1, 1, 0)])
    assert len(sorts) == 4


def subspace_parts(U):
    """Everything a Subspace holds, pivots and label index included."""
    return U.field, U.ambient, U.basis, U.pivots, U._index


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_intersect_spaces_builds_the_reduced_subspace(p, k):
    # the Zassenhaus rows that pivot in the right half are taken as the
    # intersection's RREF basis, unreduced; reducing them again changes nothing
    F = make_field(p, k)
    rng = seeded(1000 * p + k)
    for labels in [(4, 0, 3, 1, 2), ("x3", "x1", "x4", "x0", "x2"), (3, "a", 0, "b", 1)]:
        for n in range(len(labels) + 1):
            ambient = labels[:n]
            for _ in range(8):
                U, V = (Subspace(F, ambient, [tuple(rng.randrange(F.q) for _ in range(n))
                                              for _ in range(rng.randint(0, n + 1))])
                        for _ in range(2))
                got = intersect_spaces(U, V)
                assert subspace_parts(got) == subspace_parts(Subspace(F, got.ambient, got.basis))
                assert got == intersect_spaces_reference(U, V)


def test_reduced_rows_constructor_needs_a_sorted_ambient():
    rows, pivots = [(1, 0, 2), (0, 1, 1)], [0, 1]
    got = Subspace._of_reduced(GF3, ("a", "b", "c"), rows, pivots)
    assert subspace_parts(got) == subspace_parts(Subspace(GF3, ("a", "b", "c"), rows))
    with pytest.raises(LabelMismatch, match="^reduced rows need a sorted ambient$"):
        Subspace._of_reduced(GF3, ("b", "a", "c"), rows, pivots)
    with pytest.raises(LabelMismatch, match="duplicate ambient labels"):
        Subspace._of_reduced(GF3, ("a", "a", "c"), rows, pivots)


@pytest.mark.parametrize("field", [GF2, GF3, GF4], ids=lambda F: f"GF{F.q}")
def test_matrix_rejects_entries_outside_the_field(field):
    for bad in (-1, field.q):
        with pytest.raises(ValueError, match=rf"^entry {bad} is not a code in "):
            Matrix(field, ("r",), ("a", "b"), [[0, bad]])
    assert Matrix(field, ("r",), ("a", "b"), [[0, field.q - 1]]).data == ((0, field.q - 1),)


def test_matrix_label_access():
    A = mat(GF3, [[1, 2], [0, 1]], rows=("r", "s"), cols=("x", "y"))
    assert A.entry("r", "y") == 2
    assert tuple(A.entry(r, "x") for r in A.rows) == (1, 0)
    assert A.submatrix(("s",), ("y",)).data == ((1,),)
