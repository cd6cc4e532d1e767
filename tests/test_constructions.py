import pytest

from oracles import (
    bicircular_rank_bruteforce,
    check_rank_axioms,
    is_frame_matrix,
    is_frame_presentation,
    is_gamma_frame_matrix,
    rank_table,
    seeded,
)

from matroidlab.errors import FieldTooSmall, LabelMismatch
from matroidlab.field import make_field, mult_subgroups, subgroup_of_order
from matroidlab.linalg import Matrix
from matroidlab.constructions import (
    Graph,
    ag,
    bicircular,
    complete_graph,
    gamma_frame_full,
    graphic,
    pg,
    reid,
    uniform,
    uniform_represented,
)
from matroidlab.matroid import (
    all_subset_ranks,
    cogirth,
    from_generator,
    girth,
    is_simple,
    isomorphic,
    projectively_equivalent,
    rank_of,
)

GF2 = make_field(2, 1)
GF3 = make_field(3, 1)
GF4 = make_field(2, 2)
GF5 = make_field(5, 1)
GF7 = make_field(7, 1)


def mk(field, data):
    m, n = len(data), len(data[0])
    return from_generator(Matrix(field, tuple(range(m)), tuple(range(n)), data))


# ---------------------------------------------------------------------------
# geometries
# ---------------------------------------------------------------------------

def test_pg_fano():
    M = pg(3, GF2)
    assert M.size == 7 and M.rank == 3 and is_simple(M)


def test_pg_line_gf3():
    M = pg(2, GF3)
    assert M.size == 4 and M.rank == 2
    assert all_subset_ranks(M) == rank_table(4, uniform(2, 4))


def test_pg_plane_gf3():
    assert pg(3, GF3).size == 13


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_pg_ag_gammaframe_counts_closed_forms(p, k):
    F = make_field(p, k)
    q = F.q
    for r in range(1, 7):
        P = pg(r, F)
        assert P.size == (q ** r - 1) // (q - 1) and P.rank == r
        A = ag(r, F)
        assert A.size == q ** (r - 1) and A.rank == r
    for gamma in mult_subgroups(F):
        for r in range(1, 7):
            G = gamma_frame_full(r, gamma)
            assert G.size == gamma.order * r * (r - 1) // 2 + r


def test_ag_small_counts():
    assert ag(3, GF2).size == 4
    assert ag(2, GF3).size == 3


def test_ag_simple_full_rank():
    for F in (GF2, GF3, GF4):
        M = ag(3, F)
        assert is_simple(M) and M.rank == 3


# ---------------------------------------------------------------------------
# uniform matroids
# ---------------------------------------------------------------------------

def test_uniform_u23_matches_represented():
    R = uniform_represented(2, 3, GF2)
    assert isomorphic(R, mk(GF2, [[1, 0, 1], [0, 1, 1]]))
    assert all_subset_ranks(R) == rank_table(3, uniform(2, 3))


def test_uniform_free():
    assert rank_table(4, uniform(4, 4)) == [mask.bit_count() for mask in range(16)]


def test_uniform_closed_form_is_a_matroid_and_is_represented():
    """GF(7) represents U_{m,n} for every n <= 8."""
    for n in range(9):
        for m in range(n + 1):
            check_rank_axioms(n, uniform(m, n))
            assert rank_table(n, uniform(m, n)) == all_subset_ranks(
                uniform_represented(m, n, GF7))


def test_uniform_u24_not_binary():
    with pytest.raises(FieldTooSmall):
        uniform_represented(2, 4, GF2)


@pytest.mark.parametrize("m,n,F", [(2, 4, GF3), (3, 5, GF5), (2, 5, GF4), (1, 4, GF3)])
def test_uniform_represented_is_uniform(m, n, F):
    M = uniform_represented(m, n, F)
    assert all_subset_ranks(M) == rank_table(n, uniform(m, n))


def test_uniform_represented_edge_ranks():
    assert uniform_represented(0, 3, GF2).rank == 0
    assert uniform_represented(3, 3, GF2).rank == 3


# ---------------------------------------------------------------------------
# graphic matroids
# ---------------------------------------------------------------------------

def test_graphic_k3_is_u23():
    M = graphic(complete_graph(3), GF2)
    assert all_subset_ranks(M) == rank_table(3, uniform(2, 3))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_graphic_kn_rank(n):
    for F in (GF2, GF3):
        assert graphic(complete_graph(n), F).rank == n - 1


def test_graphic_k4_girth_cogirth():
    M = graphic(complete_graph(4), GF3)
    assert girth(M) == 3
    assert cogirth(M) == 3


def test_graphic_disconnected_rank():
    G = Graph.from_edges(range(5), [(0, 1), (1, 2), (3, 4)])
    assert graphic(G, GF2).rank == 5 - 2


def test_graphic_orientation_projectively_equivalent():
    G = complete_graph(4)
    M = graphic(G, GF3)
    rows = []
    for i, v in enumerate(G.vertices):
        row = []
        for j, (a, b) in enumerate(G.edges):
            flip = (i + j) % 2 == 0  # arbitrary different orientation
            if v == a:
                row.append(GF3.neg(1) if flip else 1)
            elif v == b:
                row.append(1 if flip else GF3.neg(1))
            else:
                row.append(0)
        rows.append(row)
    M2 = from_generator(Matrix(GF3, G.vertices, tuple(range(len(G.edges))), rows))
    assert projectively_equivalent(M, M2)


def test_graph_rejects_loops_and_duplicates():
    with pytest.raises(LabelMismatch):
        Graph.from_edges([0, 1], [(0, 0)])
    with pytest.raises(LabelMismatch):
        Graph.from_edges([0, 1], [(0, 1), (1, 0)])


# ---------------------------------------------------------------------------
# bicircular matroids
# ---------------------------------------------------------------------------

def test_bicircular_tree_is_free():
    G = Graph.from_edges(range(4), [(0, 1), (1, 2), (2, 3)])
    assert rank_table(3, bicircular(G)) == rank_table(3, uniform(3, 3))


def test_bicircular_k3_is_free():
    assert rank_table(3, bicircular(complete_graph(3))) == rank_table(3, uniform(3, 3))


def test_bicircular_k4_is_u46():
    assert rank_table(6, bicircular(complete_graph(4))) == rank_table(6, uniform(4, 6))


def test_bicircular_axioms_small_graphs():
    rng = seeded(3)
    for _ in range(8):
        n = rng.randint(2, 5)
        pool = [(i, j) for i in range(n) for j in range(i + 1, n)]
        rng.shuffle(pool)
        edges = pool[: min(6, len(pool))]
        check_rank_axioms(len(edges), bicircular(Graph.from_edges(range(n), edges)))


def test_bicircular_rank_matches_definition():
    rng = seeded(18)
    for _ in range(30):
        n = rng.randint(2, 6)
        pool = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = rng.sample(pool, min(len(pool), rng.randint(1, 8)))
        G = Graph.from_edges(range(n), edges)
        assert rank_table(len(edges), bicircular(G)) == rank_table(
            len(edges), lambda S: bicircular_rank_bruteforce(G, S))


# ---------------------------------------------------------------------------
# Reid geometries
# ---------------------------------------------------------------------------

def test_reid_gf2_is_fano():
    assert isomorphic(reid(GF2), pg(3, GF2))


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_reid_counts(p, k):
    F = make_field(p, k)
    M = reid(F)
    assert M.size == 2 * F.q + 3 and M.rank == 3


def test_reid_choice_independence():
    for F in (GF2, GF3):
        default = reid(F)
        alt = reid(F, lines=((0, 1, 0), (0, 1, 1), (0, 0, 1), (1, 0, 1)))
        assert isomorphic(default, alt)


# ---------------------------------------------------------------------------
# frame matrices
# ---------------------------------------------------------------------------

def test_gamma_frame_trivial_is_k4():
    one = subgroup_of_order(GF2, 1)
    M = gamma_frame_full(3, one)
    assert M.size == 6
    assert isomorphic(M, graphic(complete_graph(4), GF2))


def test_gamma_frame_full_gf3():
    full = subgroup_of_order(GF3, 2)
    M = gamma_frame_full(3, full)
    assert M.size == 9 and is_simple(M)


def test_gamma_frame_rank_one():
    M = gamma_frame_full(1, subgroup_of_order(GF3, 1))
    assert M.size == 1 and M.rank == 1


def test_gamma_frame_generator_is_gamma_frame_matrix():
    for F, order in [(GF2, 1), (GF3, 2), (GF4, 3), (GF5, 2)]:
        gamma = subgroup_of_order(F, order)
        M = gamma_frame_full(4, gamma)
        A = M.generator_matrix()
        assert is_gamma_frame_matrix(A, gamma)


def test_is_frame_matrix_identity():
    A = Matrix.identity(GF3, (0, 1, 2))
    assert is_frame_matrix(A)
    assert is_gamma_frame_matrix(A, subgroup_of_order(GF3, 1))


def test_is_frame_matrix_three_nonzeros():
    A = Matrix(GF2, (0, 1, 2), (0,), [[1], [1], [1]])
    assert not is_frame_matrix(A)


def test_gamma_frame_rejects_scalar_outside_subgroup():
    gamma1 = subgroup_of_order(GF4, 1)
    A = Matrix(GF4, (0, 1), (0,), [[1], [GF4.neg(2)]])  # column (1, -2), 2 not in {1}
    assert is_frame_matrix(A)
    assert not is_gamma_frame_matrix(A, gamma1)


def test_frame_presentation_checker():
    one = subgroup_of_order(GF2, 1)
    M = gamma_frame_full(3, one)
    assert is_frame_presentation(M, (0, 1, 2))  # unit columns are the basis
    F7 = pg(3, GF2)
    assert not is_frame_presentation(F7, (0, 1, 2))  # (1,1,1) needs all three
