from itertools import combinations
from math import comb

import pytest
from oracles import (
    h_exhaustive_reference,
    has_minor_bruteforce,
    is_alpha_t_frame_reference,
    random_matroid,
    seeded,
)

from matroidlab.errors import CapExceeded, DefectOutOfRange
from matroidlab.field import make_field, mult_subgroups, subgroup_of_order
from matroidlab.constructions import (
    complete_graph,
    gamma_frame_full,
    graphic,
    pg,
    uniform_represented,
)
from matroidlab.matroid import delete, dual, rank_of
from matroidlab.growth import (
    GrowthValue,
    h_exhaustive,
    h_exponential,
    h_gamma_frame,
    h_nelson_pg_excluded,
    h_nelson_two_field,
    is_alpha_t_frame,
)

GF2 = make_field(2, 1)
GF3 = make_field(3, 1)


def test_h_exponential_projective_geometry():
    out = h_exponential(2, 0, 0, 4)
    assert out == GrowthValue(15, False)


def test_h_exponential_with_defect():
    assert h_exponential(2, 1, 1, 3).value == 13


def test_h_exponential_gf3():
    assert h_exponential(3, 0, 0, 3).value == 13


def test_h_exponential_defect_range():
    with pytest.raises(DefectOutOfRange):
        h_exponential(2, 0, 1, 3)  # k=0 forces d=0
    top = (2 ** 4 - 1) // 3
    h_exponential(2, 2, top, 3)
    with pytest.raises(DefectOutOfRange):
        h_exponential(2, 2, top + 1, 3)


def test_h_gamma_frame_values():
    assert h_gamma_frame(1, 3) == 6
    assert h_gamma_frame(2, 3) == 9
    # the (q-1) alpha shape used for two-field classes
    assert h_gamma_frame(3 - 1, 4) == 2 * comb(4, 2) + 4


def test_h_nelson_two_field():
    assert h_nelson_two_field(2, 3).value == 13
    assert not h_nelson_two_field(2, 3).pre_asymptotic


def test_h_nelson_pg_excluded_preasymptotic():
    out = h_nelson_pg_excluded(2, 3, 1)
    assert out.value == -27 and out.pre_asymptotic


def test_nelson_formulas_agree_with_exponential():
    for q in (2, 3):
        for r in (3, 5, 7):
            assert h_nelson_two_field(q, r).value == h_exponential(q, 1, 1, r).value
            n = 3
            d = (q ** (2 * n) - 1) // (q * q - 1)
            assert (h_nelson_pg_excluded(q, n, r).value
                    == h_exponential(q, n, d, r).value)


def test_h_gamma_frame_matches_construction_counts():
    for p, k in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]:
        F = make_field(p, k)
        for gamma in mult_subgroups(F):
            for r in range(1, 9):
                assert h_gamma_frame(gamma.order, r) == gamma_frame_full(r, gamma).size


def test_trichotomy_sanity_graphic_leading_term():
    for r in range(1, 9):
        assert h_gamma_frame(1, r) == comb(r + 1, 2)


# ---------------------------------------------------------------------------
# exhaustive search
# ---------------------------------------------------------------------------

def test_h_exhaustive_full_geometry():
    for q, F in ((2, GF2), (3, GF3)):
        for r in (1, 2, 3, 4):
            value, witness = h_exhaustive(F, r)
            assert value == (q ** r - 1) // (q - 1)
            assert len(witness) == value


def test_h_exhaustive_forbidden_k4_matches_oracle():
    # independent oracle first: full subset enumeration with the
    # brute-force minor test
    geometry = pg(3, GF2)
    k4 = graphic(complete_graph(4), GF2)
    best = 0
    for size in range(7, 2, -1):
        for S in combinations(geometry.ground, size):
            if rank_of(geometry, S) != 3:
                continue
            restriction = delete(geometry, set(geometry.ground) - set(S))
            if not has_minor_bruteforce(restriction, k4):
                best = size
                break
        if best:
            break
    value, _ = h_exhaustive(GF2, 3, forbidden=k4)
    assert value == best == 5


FANO = pg(3, GF2)
K4 = graphic(complete_graph(4), GF2)
U24 = uniform_represented(2, 4, GF3)


@pytest.mark.parametrize("forbidden,value,witness", [
    (FANO, 6, tuple(range(6))),
    (dual(FANO), 7, tuple(range(7))),
    (K4, 5, tuple(range(5))),
    (U24, 7, tuple(range(7))),
    (uniform_represented(2, 3, GF2), 3, (0, 1, 2)),
    (pg(2, GF3), 7, tuple(range(7))),
    (pg(4, GF2), 7, tuple(range(7))),  # larger than the geometry
], ids=["F7", "F7*", "K4", "U24", "U23", "PG13", "PG32"])
def test_h_exhaustive_gf2_matches_reference(forbidden, value, witness):
    assert h_exhaustive(GF2, 3, forbidden=forbidden) == (value, witness)
    assert h_exhaustive_reference(GF2, 3, forbidden) == (value, witness)


@pytest.mark.parametrize("forbidden,value,witness", [
    (K4, 9, tuple(range(9))),
    (U24, 6, (0, 1, 2, 3, 6, 10)),
], ids=["K4", "U24"])
def test_h_exhaustive_gf3_witness_is_pinned(forbidden, value, witness):
    assert h_exhaustive(GF3, 3, forbidden=forbidden) == (value, witness)


def test_h_exhaustive_geometry_table_gate_comes_first():
    # the forbidden minor is larger than PG(3, 2), but the 15-point
    # geometry's rank table is over its size limit before that matters
    with pytest.raises(CapExceeded, match=r"^PG\(3, 2\) has more than 14 points, "
                                          r"the fixed limit of its rank table$"):
        h_exhaustive(GF2, 4, forbidden=pg(5, GF2))


def test_h_exhaustive_monotone_under_minor_order():
    # M(K_4) is a minor of the Fano plane, so forbidding it is stricter
    v_small, _ = h_exhaustive(GF2, 3, forbidden=graphic(complete_graph(4), GF2))
    v_large, _ = h_exhaustive(GF2, 3, forbidden=pg(3, GF2))
    assert v_small <= v_large


# ---------------------------------------------------------------------------
# (alpha, t)-frame recognizer
# ---------------------------------------------------------------------------

def test_k4_is_one_zero_frame():
    found, wit = is_alpha_t_frame(graphic(complete_graph(4), GF2), 1, 0)
    assert found
    V, T = wit
    assert T == () and len(V) == 3


def test_k5_is_one_zero_frame():
    found, _ = is_alpha_t_frame(graphic(complete_graph(5), GF2), 1, 0)
    assert found


def test_gamma_frame_full_is_alpha_zero_frame():
    for F, order in [(GF2, 1), (GF3, 2)]:
        gamma = subgroup_of_order(F, order)
        M = gamma_frame_full(3, gamma)
        found, wit = is_alpha_t_frame(M, gamma.order, 0)
        assert found
        found_exact, _ = is_alpha_t_frame(M, gamma.order, 0, exact=True)
        assert found_exact


def test_free_matroid_fails_alpha_one():
    from matroidlab.linalg import Matrix
    from matroidlab.matroid import from_generator

    free = from_generator(Matrix.identity(GF2, (0, 1, 2)))
    found, _ = is_alpha_t_frame(free, 1, 0)
    assert not found


def test_alpha_t_frame_with_lift():
    # every Fano basis {a,b,c} leaves a+b+c with a full-size fundamental
    # circuit, so (1,0) fails; moving one basis element into T makes
    # clause (i) vacuous and each pair still spans extra points
    fano = pg(3, GF2)
    assert is_alpha_t_frame(fano, 1, 0)[0] is False
    assert is_alpha_t_frame(fano, 1, 1)[0] is True
    assert is_alpha_t_frame(fano, 2, 0)[0] is False


@pytest.mark.parametrize("F", [GF2, GF3], ids=["GF2", "GF3"])
def test_alpha_t_frame_matches_reference(F):
    rng = seeded(F.q)
    verdicts = set()
    for _ in range(75):
        M = random_matroid(F, 8, rng, min_n=3)
        alpha, t, exact = rng.randint(0, 2), rng.randint(0, 2), rng.random() < 0.5
        got = is_alpha_t_frame(M, alpha, t, exact=exact)
        assert got == is_alpha_t_frame_reference(M, alpha, t, exact=exact)
        verdicts.add(got[0])
    assert verdicts == {True, False}
