import hashlib
import json
import random
from itertools import combinations, combinations_with_replacement, product

import pytest
from oracles import (
    BadAssignment,
    _parallel_invariants,
    check_frame_respects,
    conform_frame,
    conforming_matroids_bruteforce,
    enumerate_frame_realizing_all,
    prime_subfield,
    realize_reference,
)

from matroidlab import templates
from matroidlab.errors import CapExceeded, LabelClash, NotConforming
from matroidlab.field import make_field, subgroup_of_order
from matroidlab.linalg import (
    Matrix,
    Subspace,
    combine,
    label_key,
    normalizer,
    rref_rows,
    sort_labels,
)
from matroidlab.constructions import Graph, complete_graph, graphic, pg, uniform_represented
from matroidlab.matroid import (
    _profile,
    confined_to,
    equivalent_up_to_relabel_scaling,
    from_generator,
    isomorphic,
    relabel,
)
from matroidlab.templates import (
    AdditiveSpan,
    FrameTemplate,
    SubfieldTemplate,
    _allowed_rows,
    _echelon_walk,
    _FrameLayout,
    _realize,
    _SubfieldLayout,
    _Target,
    check_frame_conforms,
    check_subfield,
    enumerate_conforming,
    frame_matroid_of,
    member_of,
    subfield_matroid_of,
)

GF2 = make_field(2, 1)
GF3 = make_field(3, 1)
GF4 = make_field(2, 2)
ONE2 = subgroup_of_order(GF2, 1)
ONE3 = subgroup_of_order(GF3, 1)


def gf4_subfield_template(C=(), D=(), Y=(), lam_vectors=None, delta_vectors=None,
                          A1=None, A2=None):
    emb = prime_subfield(GF4)
    A1 = A1 if A1 is not None else Matrix(GF4, tuple(D), tuple(C),
                                          [[0] * len(C) for _ in D])
    A2 = A2 if A2 is not None else Matrix(GF4, tuple(D), tuple(Y),
                                          [[0] * len(Y) for _ in D])
    lam = Subspace(emb.sub, tuple(D),
                   lam_vectors if lam_vectors is not None
                   else [[1 if i == j else 0 for j in range(len(D))]
                         for i in range(len(D))])
    cy = tuple(C) + tuple(Y)
    delta = Subspace(emb.sub, cy,
                     delta_vectors if delta_vectors is not None
                     else [[1 if i == j else 0 for j in range(len(cy))]
                           for i in range(len(cy))])
    return SubfieldTemplate(emb, tuple(C), tuple(D), tuple(Y), A1, A2, lam, delta)


def conforms_subfield(A, tmpl):
    return check_subfield(A, tmpl).ok


def respects_frame(A, tmpl):
    """(respects?, lexicographically least witness Z or None)."""
    report = check_frame_respects(A, tmpl)
    return report.ok, report.Z


# ---------------------------------------------------------------------------
# additive spans
# ---------------------------------------------------------------------------

def test_additive_span_membership_and_elements():
    span = AdditiveSpan(GF4, ("a",), [(1,)])
    assert span.size == 2
    assert span.contains((1,)) and span.contains((0,))
    assert not span.contains((2,))
    assert sorted(span.elements()) == [(0,), (1,)]


def test_additive_span_reads_generators_in_the_given_label_order():
    # generators follow the ambient labels as given, as Subspace's vectors do;
    # the span holds them reordered to the sorted labels
    span = AdditiveSpan(GF3, ("z0", "a1"), [(1, 0)])
    assert span.ambient == ("a1", "z0")
    assert span.generators() == [(0, 1)]
    assert span.contains((0, 1)) and not span.contains((1, 0))
    assert Subspace(GF3, ("z0", "a1"), [(1, 0)]).basis == ((0, 1),)
    rev = AdditiveSpan(GF4, ("c", "b", "a"), [(1, 2, 3), (0, 0, 1)])
    assert rev == AdditiveSpan(GF4, ("a", "b", "c"), [(3, 2, 1), (1, 0, 0)])


# (p, k, ambient size): every member of F^n is probed, at most 257^2
SPAN_FIELDS = [(2, 1, 5), (3, 1, 4), (2, 2, 3), (3, 2, 2), (257, 1, 2)]


@pytest.mark.parametrize("p,k,n", SPAN_FIELDS)
def test_additive_span_contains_matches_elements(p, k, n):
    F = make_field(p, k)
    rng = random.Random(p * 10 + k)
    vectors = list(product(range(F.q), repeat=n))
    for count in range(4 if F.q < 257 else 2):
        gens = [rng.choice(vectors) for _ in range(count)]
        span = AdditiveSpan(F, tuple(range(n)), gens)
        members = span.elements()
        assert len(set(members)) == len(members) == span.size
        assert all(span.contains(g) for g in gens)
        members = set(members)
        assert [v for v in vectors if span.contains(v)] == sorted(members)
        assert not span.contains(vectors[0][1:])  # wrong length


def test_additive_span_gamma_closure():
    full = subgroup_of_order(GF4, 3)
    small = AdditiveSpan(GF4, ("a",), [(1,)])
    assert small.closed_under(subgroup_of_order(GF4, 1))
    assert not small.closed_under(full)
    big = AdditiveSpan(GF4, ("a",), [(1,), (2,)])
    assert big.closed_under(full)


def test_frame_template_rejects_unclosed_lambda():
    full = subgroup_of_order(GF4, 3)
    nil = Matrix(GF4, ("d",), (), [[]])
    with pytest.raises(LabelClash):
        FrameTemplate(full, (), ("d",), (), (), (), nil,
                      AdditiveSpan(GF4, ("d",), [(1,)]),
                      AdditiveSpan(GF4, (), []))


# ---------------------------------------------------------------------------
# subfield templates
# ---------------------------------------------------------------------------

def test_empty_template_accepts_everything():
    tmpl = SubfieldTemplate.empty(GF4)
    A = Matrix(GF4, ("r0", "r1"), ("c0", "c1"), [[1, 2], [3, 0]])
    assert conforms_subfield(A, tmpl)


def test_prime_subfield_template_checks_entries():
    tmpl = gf4_subfield_template()
    good = Matrix(GF4, ("r0",), ("c0", "c1"), [[1, 0]])
    bad = Matrix(GF4, ("r0",), ("c0", "c1"), [[1, 2]])  # 2 is outside GF(2)
    assert conforms_subfield(good, tmpl)
    report = check_subfield(bad, tmpl)
    assert not report.ok and report.violated == "clause-ii"


def test_lambda_column_violation():
    emb = prime_subfield(GF2)
    tmpl = SubfieldTemplate(emb, (), ("d",), (),
                            Matrix(GF2, ("d",), (), [[]]),
                            Matrix(GF2, ("d",), (), [[]]),
                            Subspace(GF2, ("d",), []),  # Lambda = {0}
                            Subspace(GF2, (), []))
    A = Matrix(GF2, ("d", "r0"), ("c0",), [[1], [1]])
    report = check_subfield(A, tmpl)
    assert not report.ok and report.violated == "clause-iii"


def test_delta_row_violation():
    emb = prime_subfield(GF2)
    tmpl = SubfieldTemplate(emb, ("c",), (), (),
                            Matrix(GF2, (), ("c",), []),
                            Matrix(GF2, (), (), []),
                            Subspace(GF2, (), []),
                            Subspace(GF2, ("c",), []))  # Delta = {0}
    A = Matrix(GF2, ("r0",), ("c", "e0"), [[1, 1]])
    report = check_subfield(A, tmpl)
    assert not report.ok and report.violated == "clause-iv"


def test_missing_template_labels_raise():
    tmpl = gf4_subfield_template(D=("d",))
    A = Matrix(GF4, ("r0",), ("c0",), [[1]])
    with pytest.raises(LabelClash):
        check_subfield(A, tmpl)


def test_subfield_matroid_of_empty_template():
    tmpl = SubfieldTemplate.empty(GF2)
    A = Matrix(GF2, ("r0", "r1"), ("c0", "c1", "c2"), [[1, 0, 1], [0, 1, 1]])
    M = subfield_matroid_of(A, tmpl)
    assert M.size == 5 and M.rank == 2


def test_contraction_drops_rank_by_independent_column():
    emb = prime_subfield(GF2)
    tmpl = SubfieldTemplate(emb, ("c",), (), (),
                            Matrix(GF2, (), ("c",), []),
                            Matrix(GF2, (), (), []),
                            Subspace(GF2, (), []),
                            Subspace(GF2, ("c",), [(1,)]))  # Delta full
    A = Matrix(GF2, ("r0", "r1"), ("c", "e0"), [[1, 0], [0, 1]])
    M = subfield_matroid_of(A, tmpl)
    # [I, A] has rank 2; contracting the independent column c drops it to 1
    assert M.rank == 1 and M.size == 3


def test_deletion_removes_exactly_D():
    tmpl = gf4_subfield_template(D=("d",))
    A = Matrix(GF4, ("d", "r0"), ("e0", "e1"), [[1, 0], [0, 1]])
    M = subfield_matroid_of(A, tmpl)
    assert M.size == 3 and "d" not in M.ground


def test_nonconforming_realization_raises():
    tmpl = gf4_subfield_template()
    A = Matrix(GF4, ("r0",), ("c0",), [[2]])
    with pytest.raises(NotConforming):
        subfield_matroid_of(A, tmpl)


# ---------------------------------------------------------------------------
# frame templates: respects / conform
# ---------------------------------------------------------------------------

def brute_force_least_Z(A, tmpl):
    """All-subsets reference for the Z witness of `respects`."""
    named_cols = set(tmpl.C) | set(tmpl.Y0) | set(tmpl.Y1)
    named_rows = set(tmpl.D) | set(tmpl.X)
    free = [c for c in A.cols if c not in named_cols]
    bottom = [r for r in A.rows if r not in named_rows]
    Dsorted = sort_labels(tmpl.D)
    from matroidlab.templates import _is_gamma_frame_column, _is_unit_column

    best = None
    for k in range(len(free) + 1):
        for Z in combinations(free, k):
            zs = set(Z)
            ok = True
            for c in free:
                dpart = [A.entry(r, c) for r in Dsorted]
                col = [A.entry(r, c) for r in bottom]
                if c in zs:
                    if any(dpart) or not _is_unit_column(col):
                        ok = False
                        break
                else:
                    if not tmpl.lam.contains(dpart) or not _is_gamma_frame_column(
                            A.field, tmpl.gamma, col):
                        ok = False
                        break
            if ok:
                key = tuple(label_key(x) for x in sort_labels(Z))
                if best is None or key < best[0]:
                    best = (key, sort_labels(Z))
    return None if best is None else best[1]


def test_trivial_frame_respects_with_z_search_3x4():
    tmpl = FrameTemplate.trivial(ONE2)
    rows = ("r0", "r1", "r2")
    cols = ("c0", "c1", "c2", "c3")
    import random

    rng = random.Random(99)
    for _ in range(200):
        A = Matrix(GF2, rows, cols,
                   [[rng.randrange(2) for _ in cols] for _ in rows])
        ok, Z = respects_frame(A, tmpl)
        want = brute_force_least_Z(A, tmpl)
        assert ok == (want is not None)
        if ok:
            assert Z == want


def test_two_nonzero_column_cannot_join_Z():
    tmpl = FrameTemplate.trivial(ONE2)
    # column c1 = (1,1) is a frame column but not a unit column
    A = Matrix(GF2, ("r0", "r1"), ("c0", "c1"), [[1, 1], [0, 1]])
    ok, Z = respects_frame(A, tmpl)
    assert ok and "c1" not in Z


def test_nonzero_x_row_fails_clause_ii():
    nil = Matrix(GF2, ("x",), (), [[]])
    tmpl = FrameTemplate(ONE2, (), (), ("x",), (), (), nil,
                         AdditiveSpan(GF2, (), []), AdditiveSpan(GF2, (), []))
    A = Matrix(GF2, ("x", "r0"), ("c0",), [[1], [1]])
    report = check_frame_respects(A, tmpl)
    assert not report.ok and report.violated == "clause-ii"


def test_conform_frame_empty_Z_is_identity():
    A = Matrix(GF2, ("r0",), ("c0", "c1"), [[1, 0]])
    assert conform_frame(A, (), {}) == A


def test_conform_frame_zero_y1_column():
    A = Matrix(GF2, ("r0", "r1"), ("z0", "y",), [[1, 0], [0, 0]])
    out = conform_frame(A, ("z0",), {"z0": "y"})
    assert out == A


def test_conform_frame_explicit_sum():
    A = Matrix(GF2, ("r0", "r1"), ("z0", "y1", "c"), [[1, 1, 0], [0, 1, 1]])
    out = conform_frame(A, ("z0",), {"z0": "y1"})
    # z0 gains y1: columns z0 = (0, 1), y1 = (1, 1), c = (0, 1)
    assert out.data == ((0, 1, 0), (1, 1, 1))


def test_conform_frame_bad_assignment():
    A = Matrix(GF2, ("r0",), ("z0",), [[1]])
    with pytest.raises(BadAssignment):
        conform_frame(A, ("z0",), {})


# ---------------------------------------------------------------------------
# frame templates: realization
# ---------------------------------------------------------------------------

def test_trivial_frame_realizes_k3():
    tmpl = FrameTemplate.trivial(ONE3)
    G = complete_graph(3)
    A = graphic(G, GF3).generator_matrix()
    A = Matrix(GF3, ("r0", "r1"), A.cols, A.data)  # rows must be fresh labels
    M = frame_matroid_of(A, tmpl)
    assert isomorphic(M, graphic(G, GF3))


def test_y1_columns_never_survive():
    nil = Matrix(GF2, (), ("y1",), [])
    tmpl = FrameTemplate(ONE2, (), (), (), (), ("y1",), nil,
                         AdditiveSpan(GF2, (), []),
                         AdditiveSpan(GF2, ("y1",), [(1,)]))
    A = Matrix(GF2, ("r0",), ("y1", "e0"), [[1, 1]])
    M = frame_matroid_of(A, tmpl)
    assert "y1" not in M.ground and M.ground == ("e0",)


def test_x_rows_survive():
    nil = Matrix(GF2, ("x",), (), [[]])
    tmpl = FrameTemplate(ONE2, (), (), ("x",), (), (), nil,
                         AdditiveSpan(GF2, (), []), AdditiveSpan(GF2, (), []))
    A = Matrix(GF2, ("x", "r0"), ("e0", "e1"), [[0, 0], [1, 1]])
    M = frame_matroid_of(A, tmpl)
    assert "x" in M.ground and M.size == 3


# ---------------------------------------------------------------------------
# the realization kernel and the membership prefilter
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field", [GF2, GF3, GF4], ids=repr)
def test_realize_matches_reference_chain(field):
    rng = random.Random(field.q)
    seen = {"contracts": 0, "dependent": 0, "empty": 0}
    for trial in range(300):
        m, n = rng.randint(0, 4), rng.randint(0, 5)
        rows = tuple(f"r{i}" for i in range(m))
        cols = tuple(range(n))  # ints sort before the row labels
        data = [[rng.randrange(field.q) for _ in cols] for _ in rows]
        C = [c for c in cols if rng.random() < 0.5]
        if len(C) >= 2 and trial % 3 == 0:
            s = rng.randrange(field.q)  # make C dependent: one column a multiple of another
            for row in data:
                row[C[1]] = field.mul(s, row[C[0]])
        rest = [e for e in rows + cols if e not in C]
        D = [e for e in rest if rng.random() < (1.0 if trial % 10 == 0 else 0.4)]
        A = Matrix(field, rows, cols, data)
        got = _realize(A, C, D)
        assert got == realize_reference(A, C, D)
        seen["contracts"] += bool(C)
        _, piv = rref_rows(field, [[row[c] for c in C] for row in data])
        seen["dependent"] += len(piv) < len(C)
        seen["empty"] += got.size == 0
    assert min(seen.values()) >= 20, seen


def _random_matroid(field, rng, m, n, plant):
    """A random m x n generator matrix; with plant=True some columns are
    replaced by zero columns (loops) or by multiples of earlier columns
    (parallel pairs)."""
    cols = [[rng.randrange(field.q) for _ in range(m)] for _ in range(n)]
    for j in range(1, n if plant else 0):
        roll = rng.random()
        if roll < 0.15:
            cols[j] = [0] * m
        elif roll < 0.4:
            s = rng.randrange(1, field.q)
            cols[j] = [field.mul(s, x) for x in cols[rng.randrange(j)]]
    return from_generator(Matrix(field, tuple(range(m)), tuple(range(n)),
                                 [[col[i] for col in cols] for i in range(m)]))


def _equivalent_copy(M, rng):
    """M's columns relabelled, permuted and scaled, and its generator
    multiplied by a random nonsingular matrix."""
    F, r = M.field, M.rank
    while True:
        T = [[rng.randrange(F.q) for _ in range(r)] for _ in range(r)]
        if len(rref_rows(F, T)[1]) == r:
            break
    mixed = [combine(F, coeffs, M.space.basis) for coeffs in T]
    order = list(range(M.size))
    rng.shuffle(order)
    scales = [rng.randrange(1, F.q) for _ in order]
    labels = [f"x{j}" for j in range(M.size)]
    data = [[F.mul(s, row[j]) for j, s in zip(order, scales)] for row in mixed]
    return from_generator(Matrix(F, tuple(range(r)), labels, data))


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_parallel_prefilter_and_prebuilt_profile_are_sound(p):
    field = {2: GF2, 3: GF3, 4: GF4, 5: make_field(5, 1)}[p]
    rng = random.Random(500 + p)
    pool = ([_random_matroid(field, rng, rng.randint(1, 4), rng.randint(2, 7), True)
             for _ in range(60)]
            + [_random_matroid(field, rng, 3, rng.randint(5, 6), False) for _ in range(30)])
    outcomes = set()
    for M in pool:
        N = _equivalent_copy(M, rng)
        assert _parallel_invariants(N) == _parallel_invariants(M)
        assert equivalent_up_to_relabel_scaling(N, M, profile2=_profile(M, 12))
        assert equivalent_up_to_relabel_scaling(N, M)
        for other in pool:
            if (other.size, other.rank) != (M.size, M.rank):
                continue
            plain = equivalent_up_to_relabel_scaling(other, M)
            assert equivalent_up_to_relabel_scaling(other, M, profile2=_profile(M, 12)) == plain
            if plain:
                assert _parallel_invariants(other) == _parallel_invariants(M)
            outcomes.add((plain, _parallel_invariants(other) == _parallel_invariants(M)))
    # equivalent pairs, and inequivalent pairs the prefilter does and does not catch
    assert outcomes == {(True, True), (False, True), (False, False)}, outcomes


# ---------------------------------------------------------------------------
# enumeration and membership
# ---------------------------------------------------------------------------

def test_enumerate_empty_subfield_template_counts():
    tmpl = SubfieldTemplate.empty(GF2)
    out = list(enumerate_conforming(tmpl, extra_rows=2, free_cols=2))
    assert len(out) == 16  # all 2x2 GF(2) matrices give distinct matroids


def test_enumerate_trivial_frame_small():
    tmpl = FrameTemplate.trivial(ONE2)
    out = list(enumerate_conforming(tmpl, extra_rows=2, free_cols=3))
    assert out
    for M in out:
        assert M.size == 3
    # every enumerated matroid is a member of the class
    for M in out[:5]:
        assert member_of(tmpl, M)


def test_member_of_empty_subfield_template_accepts_anything():
    tmpl = SubfieldTemplate.empty(GF2)
    M = from_generator(Matrix(GF2, (0, 1), (0, 1, 2), [[1, 0, 1], [0, 1, 1]]))
    assert member_of(tmpl, M)


def test_k3_member_of_trivial_frame():
    tmpl = FrameTemplate.trivial(ONE2)
    assert member_of(tmpl, graphic(complete_graph(3), GF2))


def test_fano_not_member_of_trivial_frame():
    tmpl = FrameTemplate.trivial(ONE2)
    assert not member_of(tmpl, pg(3, GF2))


def test_graphic_up_to_4_edges_members_of_trivial_frame():
    tmpl = FrameTemplate.trivial(ONE2)
    seen = set()
    for n in (2, 3, 4, 5):
        pool = list(combinations(range(n), 2))
        for k in range(1, 5):
            for edges in combinations(pool, k):
                verts = sorted({v for e in edges for v in e})
                G = Graph.from_edges(verts, edges)
                M = graphic(G, GF2)
                key = tuple(sorted(
                    (m.bit_count(), r) for m, r in enumerate(
                        __import__("matroidlab.matroid", fromlist=["all_subset_ranks"])
                        .all_subset_ranks(M))))
                if key in seen:
                    continue  # skip isomorphic repeats to keep this quick
                seen.add(key)
                assert member_of(tmpl, M)


def test_subfield_members_confined_theorem_direction():
    # C = D = Y = empty over GF(4) with F0 = GF(2): members have all entries
    # in the subfield and are confined to it
    tmpl = gf4_subfield_template()
    for M in enumerate_conforming(tmpl, extra_rows=2, free_cols=2):
        assert confined_to(M, GF2)


# ---------------------------------------------------------------------------
# enumeration and membership on non-trivial templates
# ---------------------------------------------------------------------------

def rich_subfield_template():
    """GF(4) over GF(2) with C, D, Y all non-empty, A1 outside the subfield,
    Lambda = {0} and Delta = span{(1, 1)}, both proper."""
    return gf4_subfield_template(
        C=("c",), D=("d",), Y=("y",), lam_vectors=[], delta_vectors=[[1, 1]],
        A1=Matrix(GF4, ("d",), ("c",), [[2]]), A2=Matrix(GF4, ("d",), ("y",), [[1]]))


def rich_frame_template_gf3():
    """Gamma = {1, -1} over GF(3) with D, X, Y0, Y1 non-empty.  The X row of
    A1 is zero, so x is a coloop of every member."""
    A1 = Matrix(GF3, ("d", "x"), ("y0", "y1"), [[1, 2], [0, 0]])
    return FrameTemplate(subgroup_of_order(GF3, 2), (), ("d",), ("x",), ("y0",), ("y1",),
                         A1, AdditiveSpan(GF3, ("d",), [(1,)]),
                         AdditiveSpan(GF3, ("y0", "y1"), [(1, 1)]))


def rich_frame_template_gf2():
    """Gamma = {1} over GF(2), where -1 = 1, so the pair columns (i, j) and
    (j, i) coincide; D, X, Y0, Y1 non-empty and A1 non-zero on X."""
    A1 = Matrix(GF2, ("d", "x"), ("y0", "y1"), [[1, 0], [1, 1]])
    return FrameTemplate(ONE2, (), ("d",), ("x",), ("y0",), ("y1",),
                         A1, AdditiveSpan(GF2, ("d",), [(1,)]),
                         AdditiveSpan(GF2, ("y0", "y1"), [(1, 1)]))


def contracting_frame_template_gf2():
    """rich_frame_template_gf2 with a contracted column c, which the
    column prefilter must leave alone."""
    A1 = Matrix(GF2, ("d", "x"), ("c", "y0", "y1"), [[1, 1, 0], [0, 1, 1]])
    return FrameTemplate(ONE2, ("c",), ("d",), ("x",), ("y0",), ("y1",),
                         A1, AdditiveSpan(GF2, ("d",), [(1,)]),
                         AdditiveSpan(GF2, ("c", "y0", "y1"), [(1, 1, 0)]))


# name -> (template, (extra rows, free columns) shapes, SHA-256 of the
# ordered enumerations); the brute-force oracle runs on the shapes with at
# most ORACLE_MATRICES matrices
RICH_TEMPLATES = {
    "subfield-gf4": (
        rich_subfield_template, ((1, 1), (2, 0), (0, 2), (1, 2), (2, 1), (1, 3)),
        "0f9e0b7d9cc4c57492fa66c2059589003c21b98aaa4259a02e9688023e9fecbb"),
    "frame-gf3": (
        rich_frame_template_gf3, ((1, 1), (2, 0), (0, 2), (2, 2)),
        "bd51aca4a75decb360b46d536c40650f04c79dfd181cbda5db6c2ed8b6995bc1"),
    "frame-gf2": (
        rich_frame_template_gf2, ((2, 1), (3, 1), (2, 2), (3, 2)),
        "ad7dff87315e65bf980b0cd91c850997332d0c53510b01b3a5bf03e6c71322ad"),
}
ORACLE_MATRICES = 1 << 16


def _labels(tmpl, b, f):
    """Rows and columns of enumerate_conforming's matrices: the named
    labels in template order, then b00, b01, ... and e00, e01, ..."""
    if isinstance(tmpl, FrameTemplate):
        rows, cols = tmpl.D + tmpl.X, tmpl.C + tmpl.Y0 + tmpl.Y1
    else:
        rows, cols = tmpl.D, tmpl.C + tmpl.Y
    return (rows + tuple(f"b{i:02d}" for i in range(b)),
            cols + tuple(f"e{i:02d}" for i in range(f)))


@pytest.fixture(scope="module")
def rich_enumerations():
    return {name: {shape: list(enumerate_conforming(make(), *shape))
                   for shape in shapes}
            for name, (make, shapes, _) in RICH_TEMPLATES.items()}


@pytest.mark.parametrize("name", sorted(RICH_TEMPLATES))
def test_rich_template_enumeration_matches_bruteforce(name, rich_enumerations):
    make, shapes, _ = RICH_TEMPLATES[name]
    tmpl = make()
    checked = 0
    for shape in shapes:
        got = rich_enumerations[name][shape]
        assert got and len(set(got)) == len(got)
        rows, cols = _labels(tmpl, *shape)
        if tmpl.field.q ** (len(rows) * len(cols)) <= ORACLE_MATRICES:
            assert set(got) == conforming_matroids_bruteforce(tmpl, rows, cols)
            checked += 1
    assert checked >= 3


@pytest.mark.parametrize("name", sorted(RICH_TEMPLATES))
def test_rich_template_enumeration_order_is_pinned(name, rich_enumerations):
    _, shapes, digest = RICH_TEMPLATES[name]
    ordered = [[list(shape), [[list(M.ground), [list(r) for r in M.space.basis]]
                              for M in rich_enumerations[name][shape]]]
               for shape in shapes]
    assert hashlib.sha256(json.dumps(ordered).encode()).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(RICH_TEMPLATES))
def test_rich_template_enumerated_are_members(name, rich_enumerations):
    tmpl = RICH_TEMPLATES[name][0]()
    for found in rich_enumerations[name].values():
        for N in found:
            assert member_of(tmpl, N)


# frame templates and shapes on which enumeration is compared with realizing
# every candidate: the trivial templates at the benchmark's shapes, the rich
# templates at theirs, and a contracting template
DEDUPE_SHAPES = {
    "trivial-gf2": (lambda: FrameTemplate.trivial(ONE2), ((2, 4), (2, 5), (3, 3), (3, 4))),
    "trivial-gf3": (lambda: FrameTemplate.trivial(ONE3), ((2, 4), (3, 3))),
    "trivial-gf4": (lambda: FrameTemplate.trivial(subgroup_of_order(GF4, 1)),
                    ((2, 4), (2, 5), (3, 3))),
    "frame-gf3": (rich_frame_template_gf3, RICH_TEMPLATES["frame-gf3"][1]),
    "frame-gf2": (rich_frame_template_gf2, RICH_TEMPLATES["frame-gf2"][1]),
    "frame-gf2-C": (contracting_frame_template_gf2, ((1, 1), (2, 1), (2, 2), (3, 1))),
}


@pytest.mark.parametrize("name", sorted(DEDUPE_SHAPES))
def test_frame_enumeration_matches_realize_then_dedupe(name):
    make, shapes = DEDUPE_SHAPES[name]
    tmpl = make()
    for shape in shapes:
        got = [(M.ground, M.space.basis) for M in enumerate_conforming(tmpl, *shape)]
        want = [(M.ground, M.space.basis)
                for M in enumerate_frame_realizing_all(tmpl, *shape)]
        assert got and got == want, shape


def test_frame_enumeration_realizes_each_matroid_once(monkeypatch):
    # a candidate whose C and kept columns span a row space already seen is
    # not realized.  With C empty that row space is the realized matroid's
    # (realizing every candidate took 2,401 calls for these 66 matroids);
    # with C non-empty it is finer, so some realizations repeat a matroid
    # (13 calls for 6 matroids among 400 candidates)
    calls = []
    real = templates.frame_matroid_of
    monkeypatch.setattr(templates, "frame_matroid_of",
                        lambda A, tmpl: calls.append(A) or real(A, tmpl))
    out = list(enumerate_conforming(FrameTemplate.trivial(ONE2), 3, 4))
    assert len(out) == len(calls) == 66
    calls.clear()
    tmpl = contracting_frame_template_gf2()
    lay = _FrameLayout(tmpl, 2, 2)
    out = list(enumerate_conforming(tmpl, 2, 2))
    candidates = len(lay.delta_elems) ** 2 * len(lay.options(range(2))) ** 2
    assert len(out) <= len(calls) < candidates


# the subfield shapes (p, extra rows, free columns) the benchmark enumerates
SUBFIELD_ENUM_SHAPES = [(2, 2, 3), (2, 3, 2), (2, 2, 4), (2, 3, 3), (3, 2, 2), (3, 2, 3),
                        (3, 3, 2)]


@pytest.mark.parametrize("p,b,f", SUBFIELD_ENUM_SHAPES)
def test_subfield_enumeration_takes_identity_blocks_as_reduced(p, b, f):
    # with nothing contracted or deleted and the labels sorted, [I,A] is its
    # own RREF: the enumerated spaces, pivots and label index included, are
    # those Subspace builds by row reduction, in the order of the A's
    F = make_field(p, 1)
    labels = tuple(f"b{i:02d}" for i in range(b)) + tuple(f"e{j:02d}" for j in range(f))
    units = [tuple(int(i == j) for j in range(b)) for i in range(b)]
    want = [Subspace(F, labels, [units[i] + A[i * f:(i + 1) * f] for i in range(b)])
            for A in product(range(p), repeat=b * f)]
    got = [M.space for M in enumerate_conforming(SubfieldTemplate.empty(F), b, f)]
    assert len(got) == len(want)
    for U, V in zip(got, want):
        assert (U.field, U.ambient, U.basis, U.pivots, U._index) == \
            (V.field, V.ambient, V.basis, V.pivots, V._index)


def test_subfield_enumeration_agrees_with_and_without_sorted_labels(monkeypatch):
    # C and D empty: Y = c sorts between the b and e labels, so [I,A] is taken
    # as reduced; Y = z does not, so each candidate goes through _realize
    realized = []
    real = templates._realize
    monkeypatch.setattr(templates, "_realize",
                        lambda *args: realized.append(args) or real(*args))

    def enumerate_with(y, shape):
        tmpl = gf4_subfield_template(Y=(y,), lam_vectors=[], delta_vectors=[[1]])
        realized.clear()
        got = list(enumerate_conforming(tmpl, *shape))
        assert set(got) == conforming_matroids_bruteforce(tmpl, *_labels(tmpl, *shape))
        return got, len(realized)

    for shape in ((1, 1), (2, 1), (1, 2)):
        reduced, n_reduced = enumerate_with("c", shape)
        realized_all, n_realized = enumerate_with("z", shape)
        assert n_reduced == 0 and n_realized >= len(realized_all) > 1
        assert realized_all == [relabel(M, {e: {"c": "z"}.get(e, e) for e in M.ground})
                                for M in reduced]


# frame templates and shapes on which the echelon walk is checked: Gamma =
# GF(4)* scales pivots by elements other than 1; the rich GF(3) template
# has fixed X and Y0 columns; the GF(2) one with C has a contracted column
WALK_TEMPLATES = {
    "trivial-gf4-gamma3": (lambda: FrameTemplate.trivial(subgroup_of_order(GF4, 3)),
                           ((2, 2), (3, 2))),
    "frame-gf3": (rich_frame_template_gf3, ((2, 0), (1, 2), (2, 2))),
    "frame-gf2-C": (contracting_frame_template_gf2, ((2, 2), (3, 1))),
}


@pytest.mark.parametrize("name", sorted(WALK_TEMPLATES))
def test_echelon_walk_keys_are_the_row_reductions(name):
    make, shapes = WALK_TEMPLATES[name]
    tmpl = make()
    F = tmpl.field
    for b, f in shapes:
        lay = _FrameLayout(tmpl, b, f)
        m = len(lay.rows)
        options = lay.options(range(b))
        for delta_rows in product(lay.delta_elems, repeat=b):
            named = lay.named_columns(delta_rows)
            columns = [lay.column(option, named) for option in options]
            fixed = [named[c] for c in tmpl.C] + lay.kept_columns(named, ())
            walked = list(_echelon_walk(F, m, fixed, columns, f))
            assert [picks for picks, _ in walked] == list(product(columns, repeat=f))
            for picks, key in walked:
                cols = fixed + list(picks)
                assert len(key) == len(cols) and all(len(c) == m for c in key)
                red, _ = rref_rows(F, list(zip(*cols)))
                assert list(zip(*key)) == red + [(0,) * len(cols)] * (m - len(red))


def test_rich_subfield_template_rejects_u24():
    # every member is binary: contracting c = w*e_d + s sends y = e_d + s to
    # a multiple of the binary vector s (or to a loop), and all other columns
    # are binary already; U_{2,4} is not binary
    assert not member_of(rich_subfield_template(), uniform_represented(2, 4, GF4))


def test_rich_frame_template_rejects_coloop_free():
    # the X row of A1 is zero, so x is a coloop of every member; the
    # triangle U_{2,3} has none
    assert not member_of(rich_frame_template_gf3(), uniform_represented(2, 3, GF3))


def test_member_of_rank_table_budget_comes_from_cap():
    # 13 parallel elements: the rank table has 2^13 = 8192 entries
    M = from_generator(Matrix(GF2, (0,), tuple(range(13)), [[1] * 13]))
    tmpl = SubfieldTemplate.empty(GF2)
    assert member_of(tmpl, M, cap=10**9)
    assert member_of(tmpl, M)
    with pytest.raises(CapExceeded, match=r"^8192 rank-table entries \(2\^13\) exceed "
                                          r"the budget 5000; raise it with --cap$"):
        member_of(tmpl, M, cap=5000)


@pytest.mark.parametrize("search,message", [
    (lambda: member_of(FrameTemplate.trivial(ONE2), pg(3, GF2), cap=100),
     "101 frame search nodes exceed the budget 100"),
    # rejecting Fano takes 510 nodes: the rank floor starts the search at
    # b = 3 rows and the zero-row bound ends it at b = 7, the free column
    # count (1,725 nodes over b = 0..15 without either)
    (lambda: member_of(FrameTemplate.trivial(ONE2), pg(3, GF2), cap=509),
     "510 frame search nodes exceed the budget 509"),
    # the rank floor skips b = 0..2, so the first budget check is at b = 3
    (lambda: member_of(SubfieldTemplate.empty(GF2), pg(3, GF2), cap=100),
     "816 candidate matrices with 3 anonymous rows exceed the budget 100"),
    (lambda: list(enumerate_conforming(SubfieldTemplate.empty(GF2), 3, 3, cap=100)),
     "512 conforming matrices exceed the budget 100"),
    (lambda: list(enumerate_conforming(FrameTemplate.trivial(ONE2), 3, 3, cap=100)),
     "343 conforming matrices exceed the budget 100"),
], ids=["member-frame", "member-frame-all-nodes", "member-subfield", "enumerate-subfield",
        "enumerate-frame"])
def test_template_budgets_give_count_and_flag(search, message):
    with pytest.raises(CapExceeded) as info:
        search()
    assert str(info.value) == message + "; raise it with --cap"


def above_floor_member():
    """A member of contracting_frame_template_gf2 of rank 3 that the frame
    search finds at b = 2 anonymous rows, one above the rank floor
    r - |D| - |X| = 1."""
    return from_generator(Matrix(GF2, (0, 1, 2), ("e00", "e01", "x", "y0"),
                                 [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]]))


# (search at a node budget, nodes a finished search visits, its verdict)
FINISHED_FRAME_SEARCHES = [
    # the rank floor starts at b = 3 rows and the zero-row bound ends at b = 7
    (lambda cap: member_of(FrameTemplate.trivial(ONE2), pg(3, GF2), cap=cap), 510, False),
    # f = 1 free column: b runs from the floor 0 to b_max = 2f + |Delta| = 5
    (lambda cap: member_of(rich_frame_template_gf3(), uniform_represented(2, 3, GF3), cap=cap),
     36, False),
    # 62 nodes at b = 1, then found at b = 2, where untouched zero rows cut
    (lambda cap: member_of(contracting_frame_template_gf2(), above_floor_member(), cap=cap),
     68, True),
]


@pytest.mark.parametrize("search,nodes,verdict", FINISHED_FRAME_SEARCHES,
                         ids=["fano-trivial", "u23-rich-gf3", "above-floor-member"])
def test_finished_frame_search_node_count_is_pinned(search, nodes, verdict):
    # a budget of exactly the nodes visited finishes; one less raises, so a
    # weaker prune (more nodes) or a lost row count (fewer) fails here
    assert search(nodes) is verdict
    with pytest.raises(CapExceeded) as info:
        search(nodes - 1)
    assert str(info.value) == (f"{nodes} frame search nodes exceed the budget {nodes - 1}; "
                               "raise it with --cap")


def test_member_of_realizes_only_prefiltered_candidates(monkeypatch):
    # a candidate is realized only when its kept columns have the target's
    # parallel invariants; realizing every candidate took 265 and 1,801 calls
    calls = []
    for name in ("subfield_matroid_of", "frame_matroid_of"):
        real = getattr(templates, name)
        monkeypatch.setattr(templates, name,
                            lambda A, tmpl, real=real: calls.append(A) or real(A, tmpl))
    assert member_of(SubfieldTemplate.empty(GF2), graphic(complete_graph(4), GF2))
    assert len(calls) == 1
    calls.clear()
    M = from_generator(Matrix(GF2, (0, 1, 2), tuple(range(6)),
                              [[1, 1, 0, 0, 1, 1], [0, 0, 1, 0, 1, 0], [0, 0, 0, 1, 0, 1]]))
    assert member_of(FrameTemplate.trivial(ONE2), M)
    assert len(calls) == 1


def test_membership_skips_row_counts_that_cannot_match(monkeypatch):
    # the realized matroid has rank at most |B|, so subfield membership
    # builds no layout below b = r - |D|; and a zero-Delta row that no free
    # column touches can be dropped, while under first-use order each column
    # touches at most one new one, so the frame search visits no Delta pick
    # with more zero rows than free columns
    built = []
    real = templates._SubfieldLayout
    monkeypatch.setattr(templates, "_SubfieldLayout",
                        lambda tmpl, b, f: built.append(b) or real(tmpl, b, f))
    # y is a coloop of every member and U_{3,4} has none: b runs to r + |C| = 3
    assert not member_of(contraction_free_subfield_template(), uniform_represented(3, 4, GF4))
    assert built == [2, 3]
    built.clear()
    assert member_of(SubfieldTemplate.empty(GF2), graphic(complete_graph(4), GF2))
    assert built == [3]

    visited = []
    named_columns = _FrameLayout.named_columns

    def record(lay, delta_rows):
        visited.append((len(lay.rows) - lay.n_named, sum(not any(d) for d in delta_rows)))
        return named_columns(lay, delta_rows)

    monkeypatch.setattr(_FrameLayout, "named_columns", record)
    # every Delta vector of the trivial template is zero; f = 7 free columns
    assert not member_of(FrameTemplate.trivial(ONE2), pg(3, GF2))
    assert {b for b, _ in visited} == {3, 4, 5, 6, 7}
    assert all(zeros == b for b, zeros in visited)
    visited.clear()
    # f = 1 free column; at b = 3 only the picks with at most one zero row
    tmpl = rich_frame_template_gf2()
    assert not member_of(tmpl, uniform_represented(1, 3, GF2), row_cap=3)
    assert max(zeros for _, zeros in visited) == 1
    assert sorted(zeros for b, zeros in visited if b == 3) == [0, 1]


def _named_order_templates(c, y0, y1):
    """A subfield and a frame template whose Delta is not symmetric in its
    labels, with C+Y (resp. Y0+Y1) named c, y0 (resp. y0, y1)."""
    sub = gf4_subfield_template(C=(c,), D=("d",), Y=(y0,), lam_vectors=[[1]],
                                delta_vectors=[[1, 0]],
                                A1=Matrix(GF4, ("d",), (c,), [[2]]),
                                A2=Matrix(GF4, ("d",), (y0,), [[1]]))
    frame = FrameTemplate(subgroup_of_order(GF3, 2), (), ("d",), ("x",), (y0,), (y1,),
                          Matrix(GF3, ("d", "x"), (y0, y1), [[1, 2], [0, 1]]),
                          AdditiveSpan(GF3, ("d",), [(1,)]),
                          AdditiveSpan(GF3, (y0, y1), [(1, 0)]))  # Delta = <y0>
    return sub, frame


def test_named_labels_out_of_sorted_order_only_relabel():
    # the layouts place Lambda and Delta entries by the templates' sorted
    # label orders; naming the labels so that template order and sorted
    # order differ must only relabel the enumerated matroids
    names = {"c": "zc", "y0": "z0", "y1": "a1"}
    for plain, renamed, shapes in zip(_named_order_templates("c", "y0", "y1"),
                                      _named_order_templates("zc", "z0", "a1"),
                                      (((1, 1), (2, 1)), ((1, 1), (2, 1)))):
        for shape in shapes:
            got = set(enumerate_conforming(renamed, *shape))
            want = {relabel(M, {e: names.get(e, e) for e in M.ground})
                    for M in enumerate_conforming(plain, *shape)}
            assert got == want and len(got) > 1


def test_template_searches_sort_no_labels_per_candidate(monkeypatch):
    # the searches read the D, C+Y0+Y1 and Y1 orders off Lambda's and
    # Delta's ambient sets; sorting them per check, realization and Delta
    # pick took 15, 134 and 7,762 calls for 1, 40 and 2,312 candidates
    frame, rich = FrameTemplate.trivial(ONE2), rich_frame_template_gf2()
    sorts, realized = [], []
    monkeypatch.setattr(templates, "sort_labels",
                        lambda labels: sorts.append(labels) or sort_labels(labels))
    real = templates._realize
    monkeypatch.setattr(templates, "_realize",
                        lambda *args: realized.append(args) or real(*args))
    counts = []
    for search in (lambda: member_of(frame, graphic(complete_graph(4), GF2)),
                   lambda: list(enumerate_conforming(rich, 2, 1)),
                   lambda: list(enumerate_conforming(rich, 3, 2))):
        sorts.clear()
        realized.clear()
        assert search()
        counts.append((len(realized), len(sorts)))
    assert counts[0][0] >= 1 and counts[1][0] < counts[2][0], counts
    assert [n_sorts for _, n_sorts in counts] == [0, 0, 0], counts


# ---------------------------------------------------------------------------
# membership candidates: the column prefilter and the conformance checks
# ---------------------------------------------------------------------------

def contraction_free_subfield_template():
    """GF(4) over GF(2) with C empty and D, Y non-empty: Lambda = {0} and
    A2 = 1 make y the only column with an entry in row d, a coloop."""
    return gf4_subfield_template(D=("d",), Y=("y",), lam_vectors=[], delta_vectors=[[1]],
                                 A2=Matrix(GF4, ("d",), ("y",), [[1]]))


def _subfield_candidates(tmpl, b, f, rng, k):
    """Up to k seeded picks of membership's subfield search at b anonymous
    rows and f free columns, as (layout, entries): a Lambda pick, then a
    row multiset from combinations_with_replacement."""
    lay = _SubfieldLayout(tmpl, b, f)
    picks = list(product(product(lay.lam_elems, repeat=f),
                         combinations_with_replacement(lay.row_options(), b)))
    return [(lay, lay.entries(*pick)) for pick in rng.sample(picks, min(k, len(picks)))]


def _frame_candidates(tmpl, b, f, rng, k):
    """k seeded picks of membership's frame search at b anonymous rows and
    f free columns, as (layout, named columns, free columns): Delta rows
    from combinations_with_replacement, then each free column from
    options(_allowed_rows(...)) given the rows used so far."""
    lay = _FrameLayout(tmpl, b, f)
    deltas = list(combinations_with_replacement(range(len(lay.delta_elems)), b))
    out = []
    for _ in range(k):
        delta_pick = rng.choice(deltas)
        named = lay.named_columns([lay.delta_elems[i] for i in delta_pick])
        used, chosen = frozenset(), []
        for _ in range(f):
            option = rng.choice(lay.options(_allowed_rows(delta_pick, used)))
            used |= {i for i, _ in option[2]}
            chosen.append(lay.column(option, named))
        out.append((lay, named, chosen))
    return out


# contraction-free templates and the (rows, free columns) shapes sampled
PREFILTER_TEMPLATES = {
    "subfield-empty-gf2": (lambda: SubfieldTemplate.empty(GF2),
                           ((0, 3), (1, 3), (2, 3), (3, 3), (2, 4))),
    "subfield-empty-gf3": (lambda: SubfieldTemplate.empty(GF3),
                           ((1, 3), (2, 2), (2, 3), (3, 3))),
    "subfield-gf4-no-C": (contraction_free_subfield_template,
                          ((0, 2), (1, 2), (2, 2), (2, 3))),
    "frame-gf3": (rich_frame_template_gf3, ((1, 1), (2, 2), (2, 3), (3, 3))),
    "frame-gf2": (rich_frame_template_gf2, ((1, 2), (2, 2), (3, 2), (3, 3))),
}


def _candidates(tmpl, b, f, rng, k):
    """(kept columns, realized matroid) of sampled membership candidates."""
    if isinstance(tmpl, SubfieldTemplate):
        return [(lay.kept_columns(data), subfield_matroid_of(lay.matrix(data), tmpl))
                for lay, data in _subfield_candidates(tmpl, b, f, rng, k)]
    return [(lay.kept_columns(named, chosen), frame_matroid_of(lay.matrix(named, chosen), tmpl))
            for lay, named, chosen in _frame_candidates(tmpl, b, f, rng, k)]


@pytest.mark.parametrize("name", sorted(PREFILTER_TEMPLATES))
def test_kept_column_invariants_match_realized(name):
    make, shapes = PREFILTER_TEMPLATES[name]
    tmpl = make()
    normalize = normalizer(tmpl.field)
    rng = random.Random(name)
    seen = {"loops": 0, "parallel": 0, "scaled": 0, "rejected": 0}
    for b, f in shapes:
        sample = _candidates(tmpl, b, f, rng, 60)
        for (cols, N), (_, other) in zip(sample, sample[1:] + sample[:1]):
            assert len(cols) == N.size
            assert _Target(N, 1, True).columns_match(cols)
            same = _parallel_invariants(other) == _parallel_invariants(N)
            assert _Target(other, 1, True).columns_match(cols) == same
            seen["rejected"] += not same
            keys = [normalize(v) for v in cols]
            seen["loops"] += None in keys
            classes = {k for k in keys if k}
            seen["parallel"] += len(classes) < len(keys) - keys.count(None)
            seen["scaled"] += len(classes) < len({v for v, k in zip(cols, keys) if k})
    assert min(seen["loops"], seen["parallel"], seen["rejected"]) >= 5, seen
    if tmpl.field.q == 3:  # GF(2) has no other scalars; the GF(4) template is binary
        assert seen["scaled"] >= 5, seen


# (template, target size, row cap): the brute-force oracle covers every
# matrix of the template with at most row-cap anonymous rows
VERDICT_CASES = [
    ("subfield-empty-gf2", 5, 3),
    ("subfield-empty-gf3", 4, 2),
    ("subfield-gf4-no-C", 4, 2),
    ("subfield-gf4-no-C", 3, 2),  # rank r > |D| = 1: the rank floor skips b < r - 1
    ("subfield-gf4", 4, 1),
    ("frame-gf3", 3, 1),
    ("frame-gf3", 4, 0),
    ("frame-gf2", 3, 2),
    ("frame-gf2", 3, 3),  # b = 2, 3 > f = 1: Delta picks with 2+ zero rows are skipped
    ("frame-gf2", 4, 1),
    ("frame-gf2-C", 3, 1),
    ("frame-gf2-C", 4, 1),
]


@pytest.mark.parametrize("name,n,row_cap", VERDICT_CASES)
def test_member_of_verdicts_match_bruteforce(name, n, row_cap):
    make = {**{k: v[0] for k, v in PREFILTER_TEMPLATES.items()},
            "subfield-gf4": rich_subfield_template,
            "frame-gf2-C": contracting_frame_template_gf2}[name]
    tmpl = make()
    F = tmpl.field
    pool = set()
    for b in range(row_cap + 1):
        if isinstance(tmpl, SubfieldTemplate):
            f = n - b - len(tmpl.Y)
        else:
            f = n - len(tmpl.X) - len(tmpl.Y0)
        if f >= 0:
            pool |= conforming_matroids_bruteforce(tmpl, *_labels(tmpl, b, f))
    assert pool and all(K.size == n for K in pool)
    rng = random.Random(f"{name}-{n}")
    members = sorted(pool, key=lambda K: (K.rank, repr(K.space.basis)))
    targets = [_equivalent_copy(K, rng) for K in rng.sample(members, min(8, len(members)))]
    targets += [_random_matroid(F, rng, rng.randint(1, n), n, True) for _ in range(16)]
    verdicts = []
    for N in targets:
        truth = any(equivalent_up_to_relabel_scaling(N, K) for K in pool
                    if K.rank == N.rank)
        assert member_of(tmpl, N, row_cap=row_cap) == truth
        verdicts.append(truth)
    # the copies of members are positives; some random targets must be negatives
    assert verdicts.count(False) >= 3, verdicts


# every shape of the rich templates, plus the empty and trivial templates
CONFORMANCE_SHAPES = {
    **{name: (make, shapes) for name, (make, shapes, _) in RICH_TEMPLATES.items()},
    "subfield-empty-gf2": (lambda: SubfieldTemplate.empty(GF2), ((2, 2), (3, 3))),
    "subfield-empty-gf3": (lambda: SubfieldTemplate.empty(GF3), ((2, 2), (3, 2))),
    "frame-trivial-gf2": (lambda: FrameTemplate.trivial(ONE2), ((2, 2), (3, 3), (4, 2))),
    "frame-trivial-gf3": (lambda: FrameTemplate.trivial(subgroup_of_order(GF3, 2)),
                          ((2, 2), (3, 3))),
}


@pytest.mark.parametrize("name", sorted(CONFORMANCE_SHAPES))
def test_layout_candidates_conform(name):
    # membership builds, checks and realizes only the candidates that pass
    # the column prefilter, so every layout candidate must conform
    make, shapes = CONFORMANCE_SHAPES[name]
    tmpl = make()
    rng = random.Random(name)
    for b, f in shapes:
        if isinstance(tmpl, SubfieldTemplate):
            lay = _SubfieldLayout(tmpl, b, f)
            row_opts = lay.row_options()
            picks = [data for _, data in _subfield_candidates(tmpl, b, f, rng, 40)]
            picks += [lay.entries(tuple(rng.choice(lay.lam_elems) for _ in range(f)),
                                  [rng.choice(row_opts) for _ in range(b)])
                      for _ in range(40)]  # enumeration's product picks
            for data in picks:
                assert check_subfield(lay.matrix(data), tmpl).ok
        else:
            lay = _FrameLayout(tmpl, b, f)
            picks = [(named, chosen)
                     for _, named, chosen in _frame_candidates(tmpl, b, f, rng, 40)]
            options = lay.options(range(b))
            for _ in range(40):  # enumeration's product picks
                named = lay.named_columns([rng.choice(lay.delta_elems) for _ in range(b)])
                picks.append((named, [lay.column(rng.choice(options), named) for _ in range(f)]))
            for named, chosen in picks:
                assert check_frame_conforms(lay.matrix(named, chosen), tmpl).ok
