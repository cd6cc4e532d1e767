"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; criteria with stated runtime budgets assert them.
"""

import json
import math
import time
from fractions import Fraction
from itertools import combinations

from oracles import (
    dist_bfs,
    exact_ml_error,
    has_minor_bruteforce,
    random_matrix,
    seeded,
    smallest_circuit_bruteforce,
)

from matroidlab.field import make_field, mult_subgroups
from matroidlab.linalg import Matrix, Subspace, enumerate_subspaces
from matroidlab.constructions import (
    Graph,
    complete_graph,
    gamma_frame_full,
    graphic,
    pg,
    reid,
)
from matroidlab.matroid import (
    ReprMatroid,
    cogirth,
    contract,
    delete,
    dual,
    from_generator,
    girth,
    isomorphic,
    rank_of,
    smallest_circuit,
    smallest_cocircuit,
)
from matroidlab.perturb import PerturbPair, dist, pert_bounds, pert_exact
from matroidlab.codes import (
    code_params,
    cut_code_distance_bound,
    ml_error_mc,
    shannon_f,
    theta_binary,
    theta_graphic,
)
from matroidlab.growth import h_exhaustive
from matroidlab.templates import (
    FrameTemplate,
    SubfieldTemplate,
    enumerate_conforming,
    member_of,
)
from matroidlab.field import subgroup_of_order

GF2 = make_field(2, 1)
GF3 = make_field(3, 1)
GF4 = make_field(2, 2)

FANO = pg(3, GF2)


def _random_matroids(count, max_n, seed, fields=(GF2, GF3, GF4)):
    rng = seeded(seed)
    out = []
    while len(out) < count:
        F = fields[rng.randrange(len(fields))]
        n = rng.randint(1, max_n)
        m = rng.randint(0, n)
        out.append(from_generator(random_matrix(F, m, n, rng)))
    return out


def test_criterion_1_duality_suite():
    start = time.monotonic()
    rng = seeded(1001)
    matroids = _random_matroids(500, 10, seed=101)
    for M in matroids:
        X = {e for e in M.ground if rng.random() < 0.35}
        assert dual(delete(M, X)) == contract(dual(M), X)
        assert dual(dual(M)) == M
        assert girth(M) == cogirth(dual(M))
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"\n[criterion 1] PASS duality suite on 500 matroids in {elapsed:.1f}s")


def test_criterion_2_girth_oracle_equivalence():
    rng = seeded(202)
    mismatches = 0
    for _ in range(1000):
        n = rng.randint(1, 8)
        m = rng.randint(0, n)
        M = from_generator(random_matrix(GF2, m, n, rng))
        kern = smallest_circuit(M)
        brute = smallest_circuit_bruteforce(M)
        if (kern is None) != (brute is None):
            mismatches += 1
        elif kern is not None and kern[0] != brute[0]:
            mismatches += 1
    assert mismatches == 0
    print("\n[criterion 2] PASS kernel girth == circuit enumeration on 1000 samples")


def test_criterion_3_perturbation_lemma_exhaustive():
    start = time.monotonic()
    checked = 0
    for field, n, count in ((GF2, 3, 16), (GF2, 4, 67), (GF3, 3, 28), (GF4, 2, 7)):
        ground = tuple(range(n))
        spaces = [ReprMatroid(Subspace(field, ground, list(b)))
                  for b in enumerate_subspaces(field, n)]
        assert len(spaces) == count
        for a in spaces:
            for b in spaces:
                pair = PerturbPair(a, b)
                p = pert_exact(pair)
                d = dist(pair)
                assert d == dist_bfs(pair)
                lo, hi = pert_bounds(pair)
                assert lo <= p <= hi
                assert p <= d <= 2 * p
                checked += 1
    elapsed = time.monotonic() - start
    assert checked == 16 * 16 + 67 * 67 + 28 * 28 + 7 * 7
    assert elapsed < 600.0
    print(f"\n[criterion 3] PASS dist == BFS and pert<=dist<=2pert on {checked} pairs "
          f"in {elapsed:.1f}s")


def test_criterion_4_counts():
    for q, field in ((2, GF2), (3, GF3), (4, GF4), (5, make_field(5, 1))):
        for r in range(1, 9):
            P = pg(r, field)
            assert P.size == (q ** r - 1) // (q - 1)
            assert P.rank == r
        for gamma in mult_subgroups(field):
            for r in range(1, 9):
                G = gamma_frame_full(r, gamma)
                assert G.size == gamma.order * r * (r - 1) // 2 + r
    print("\n[criterion 4] PASS pg and frame counts exact for q in 2..5, r <= 8")


def test_criterion_5_reid():
    assert isomorphic(reid(GF2), FANO)
    for q, field in ((2, GF2), (3, GF3), (4, GF4), (5, make_field(5, 1))):
        assert reid(field).size == 2 * q + 3
    # exhaustive embedding search: no 7-point restriction of PG(2,3) is Fano
    plane = pg(3, GF3)
    hits = 0
    for S in combinations(plane.ground, 7):
        if rank_of(plane, S) != 3:
            continue
        restriction = delete(plane, set(plane.ground) - set(S))
        if isomorphic(restriction, reid(GF2)):
            hits += 1
    assert hits == 0
    print("\n[criterion 5] PASS reid counts; no embedding of reid(GF(2)) in PG(2,3)")


def test_criterion_6_thresholds():
    grid = [i / 20 for i in range(1, 20)]
    for R in grid:
        assert abs(shannon_f(theta_binary(R)) - R) <= 1e-9
    assert theta_graphic(Fraction(1, 4)) == Fraction(1, 10)
    tb = [theta_binary(R) for R in grid]
    tg = [theta_graphic(R) for R in grid]
    assert all(a > b for a, b in zip(tb, tb[1:]))
    assert all(a > b for a, b in zip(tg, tg[1:]))
    print("\n[criterion 6] PASS thresholds: 19-point inversion grid, exact 1/10, monotone")


def test_criterion_7_ml_simulation():
    rep5 = from_generator(Matrix(GF2, (0,), tuple(range(5)), [[1] * 5]))
    exact_rep = sum(math.comb(5, i) * 0.1 ** i * 0.9 ** (5 - i) for i in range(3, 6))
    assert abs(exact_rep - 0.00856) < 5e-6
    est = ml_error_mc(rep5, p=0.1, seed=4242, trials=10 ** 6)
    assert est.ci_lo <= exact_rep <= est.ci_hi  # 3-sigma Wilson by default
    ham = dual(FANO)
    exact_ham = exact_ml_error(ham, 0.01)  # exhaustive syndrome oracle
    sphere = 1 - 0.99 ** 7 - 7 * 0.01 * 0.99 ** 6
    assert abs(exact_ham - sphere) < 1e-12
    est2 = ml_error_mc(ham, p=0.01, seed=77, trials=10 ** 6)
    assert est2.ci_lo <= exact_ham <= est2.ci_hi
    print(f"\n[criterion 7] PASS ML sim: rep5 {est.rate:.5f} vs {exact_rep:.5f}; "
          f"hamming {est2.rate:.5f} vs {exact_ham:.5f}")


def _random_connected_graph(rng, R):
    n = rng.randint(3, 10)
    edges = [(i, rng.randrange(i)) for i in range(1, n)]
    max_edges = int((n - 1) / R)
    pool = [(i, j) for i in range(n) for j in range(i + 1, n)
            if (min(i, j), max(i, j)) not in {(min(a, b), max(a, b)) for a, b in edges}]
    rng.shuffle(pool)
    for e in pool:
        if len(edges) >= max_edges:
            break
        if rng.random() < 0.5:
            edges.append(e)
    return Graph.from_edges(range(n), edges)


def test_criterion_8_cut_code_bound():
    rng = seeded(808)
    for R in (0.25, 0.5):
        for _ in range(100):
            G = _random_connected_graph(rng, R)
            rep = cut_code_distance_bound(G, R)
            assert rep.rate_cut >= Fraction(R).limit_denominator(4)
            assert rep.distance <= rep.min_degree <= rep.delta_degree
            assert rep.delta_stated == 1 / (2 * (1 - R))  # both deltas reported
    print("\n[criterion 8] PASS cut-code distance <= min degree <= 2|E|/|V| on 200 graphs")


def test_criterion_9_template_round_trip():
    sub = SubfieldTemplate.empty(GF2)
    seen = 0
    for b in range(0, 5):
        for f in range(0, 7 - b):
            if b + f == 0 or b + f > 6:
                continue
            for N in enumerate_conforming(sub, extra_rows=b, free_cols=f):
                assert member_of(sub, N)
                seen += 1
    assert seen > 100
    frame = FrameTemplate.trivial(subgroup_of_order(GF2, 1))
    frame_seen = 0
    configs = [(b, f) for b in range(0, 4) for f in range(1, 6)] + [(2, 6)]
    for b, f in configs:
        for N in enumerate_conforming(frame, extra_rows=b, free_cols=f):
            assert member_of(frame, N)
            frame_seen += 1
    assert frame_seen > 50
    assert not member_of(frame, FANO)  # rejected at size 7
    print(f"\n[criterion 9] PASS round trip on {seen} subfield + {frame_seen} frame "
          "matroids; Fano rejected")


def test_criterion_10_growth_search():
    for r in range(1, 5):
        value, witness = h_exhaustive(GF2, r)
        assert value == 2 ** r - 1
    v_fano, _ = h_exhaustive(GF2, 3, forbidden=FANO)
    assert v_fano == 6
    # independent oracle first: full subset enumeration with the brute-force
    # minor test, then the pinned value
    k4 = graphic(complete_graph(4), GF2)
    oracle_best = 0
    for size in range(7, 2, -1):
        for S in combinations(FANO.ground, size):
            if rank_of(FANO, S) != 3:
                continue
            restriction = delete(FANO, set(FANO.ground) - set(S))
            if not has_minor_bruteforce(restriction, k4):
                oracle_best = size
                break
        if oracle_best:
            break
    v_k4, _ = h_exhaustive(GF2, 3, forbidden=k4)
    assert v_k4 == oracle_best == 5
    print("\n[criterion 10] PASS growth search: 2^r-1 free, 6 sans Fano, 5 sans M(K4)")


def _worker_digest(workers):
    """Serialized outputs of the worker-sensitive computations."""
    out = {}
    rng = seeded(111)
    for i in range(40):
        F = (GF2, GF3, GF4)[rng.randrange(3)]
        n = rng.randint(2, 9)
        m = rng.randint(1, n)
        M = from_generator(random_matrix(F, m, n, rng))
        out[f"girth{i}"] = repr(smallest_circuit(M, workers=workers))
        out[f"cocirc{i}"] = repr(smallest_cocircuit(M, workers=workers))
        out[f"params{i}"] = repr(code_params(M, workers=workers))
    rep5 = from_generator(Matrix(GF2, (0,), tuple(range(5)), [[1] * 5]))
    out["mlsim"] = repr(ml_error_mc(rep5, p=0.1, seed=5, trials=120000,
                                    workers=workers))
    out["mlsim_ham"] = repr(ml_error_mc(dual(FANO), p=0.02, seed=6,
                                        trials=60000, workers=workers))
    pairs = [PerturbPair(a, b) for a, b in zip(
        _random_matroids(6, 4, seed=55, fields=(GF2,)),
        _random_matroids(6, 4, seed=56, fields=(GF2,)))
        if a.ground == b.ground]
    out["pert"] = repr([(pert_bounds(p), pert_exact(p), dist(p)) for p in pairs])
    out["growth"] = repr(h_exhaustive(GF2, 3, forbidden=FANO))
    out["theta"] = repr([theta_binary(i / 10) for i in range(1, 10)])
    return json.dumps(out, sort_keys=True)


def test_criterion_11_determinism_across_workers(tmp_path):
    one = _worker_digest(1)
    eight = _worker_digest(8)
    assert one == eight
    from matroidlab.cli import main
    from matroidlab.fileio import write_matrix
    import io
    import contextlib

    ham = tmp_path / "hamming.mat"
    ham.write_text(write_matrix(dual(FANO).generator_matrix()))
    code4 = tmp_path / "gf4.mat"
    code4.write_text(write_matrix(random_matrix(GF4, 5, 11, seeded(112))))
    for argv in (["mlsim", str(ham), "--p", "0.05", "--seed", "4", "--trials", "70000"],
                 ["cogirth", str(code4)]):
        outputs = []
        for w in ("1", "8"):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(argv + ["--workers", w])
            assert code == 0
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1]
    print("\n[criterion 11] PASS byte-identical outputs with workers 1 and 8")
