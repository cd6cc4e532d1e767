import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    exact_ml_error,
    mc_block_per_trial,
    pack_words_per_row,
    random_matroid,
    seeded,
)

from matroidlab.errors import Disconnected, DomainError, EmptyCode, NotBinary
from matroidlab.field import make_field
from matroidlab.linalg import Matrix
from matroidlab.constructions import Graph, complete_graph, graphic
from matroidlab.matroid import dual, from_generator, girth
from matroidlab import codes
from matroidlab.codes import (
    cut_code_distance_bound,
    code_params,
    good_family_probe,
    ml_error_mc,
    shannon_f,
    theta_binary,
    theta_graphic,
    wilson_interval,
)

GF2 = make_field(2, 1)
GF3 = make_field(3, 1)


def mk(field, data):
    m, n = len(data), len(data[0])
    return from_generator(Matrix(field, tuple(range(m)), tuple(range(n)), data))


def fano():
    return mk(GF2, [[1, 0, 0, 1, 1, 0, 1],
                    [0, 1, 0, 1, 0, 1, 1],
                    [0, 0, 1, 0, 1, 1, 1]])


def repetition(n):
    return mk(GF2, [[1] * n])


def ten_five():
    # a [10,5] code whose ML decoder ties
    return mk(GF2, [[1, 0, 0, 0, 0, 1, 1, 0, 1, 0],
                    [0, 1, 0, 0, 0, 0, 1, 1, 0, 1],
                    [0, 0, 1, 0, 0, 1, 0, 1, 1, 0],
                    [0, 0, 0, 1, 0, 0, 1, 0, 1, 1],
                    [0, 0, 0, 0, 1, 1, 0, 1, 0, 1]])


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def test_simplex_code_params():
    cp = code_params(fano())
    assert (cp.n, cp.k, cp.d) == (7, 3, 4)
    assert cp.rate == Fraction(3, 7) and cp.rel_dist == Fraction(4, 7)


def test_repetition_params():
    cp = code_params(repetition(5))
    assert (cp.n, cp.k, cp.d) == (5, 1, 5)


def test_identity_code_distance_one():
    cp = code_params(mk(GF2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert cp.d == 1


def test_empty_code_rejected():
    M = from_generator(Matrix(GF2, (), (), []))
    with pytest.raises(EmptyCode):
        code_params(M)


def test_dual_distance_is_girth_random():
    rng = seeded(31)
    for _ in range(30):
        M = random_matroid(GF3, 7, rng)
        cp = code_params(dual(M))
        assert cp.d == girth(M)


# ---------------------------------------------------------------------------
# goodness probe
# ---------------------------------------------------------------------------

def test_cycle_codes_of_kn_fail_fixed_eps():
    family = [dual(graphic(complete_graph(n), GF2)) for n in range(3, 7)]
    verdicts, best = good_family_probe(family, eps=Fraction(1, 3), horizon=10)
    assert not verdicts[-1].good  # relative distance 3/C(n,2) collapses
    assert best <= Fraction(3, 15)


def test_repetition_family_fails():
    family = [repetition(n) for n in range(2, 8)]
    verdicts, best = good_family_probe(family, eps=Fraction(1, 2), horizon=10)
    assert not verdicts[-1].good
    assert best == Fraction(1, 7)


def test_random_rate_half_codes_look_good_at_low_eps():
    rng = seeded(37)
    fams = []
    for n in (8, 10, 12):
        rows = [[rng.randrange(2) for _ in range(n)] for _ in range(n // 2)]
        fams.append(mk(GF2, rows))
    verdicts, best = good_family_probe(fams, eps=Fraction(1, 10), horizon=10)
    # sampled, reported, not asserted: just check the probe reports shapes
    assert len(verdicts) == 3 and best >= 0


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------

def test_shannon_f_at_half_is_zero():
    assert abs(shannon_f(0.5)) < 1e-15


def test_shannon_f_limit_toward_zero():
    assert shannon_f(1e-9) > 0.99999


def test_theta_binary_round_trip_grid():
    for i in range(1, 20):
        R = i / 20
        p = theta_binary(R)
        assert abs(shannon_f(p) - R) <= 1e-9


def test_theta_binary_half():
    assert abs(theta_binary(0.5) - 0.11) < 1e-3  # f(0.11) is about 0.5


def test_theta_binary_decreasing():
    vals = [theta_binary(i / 20) for i in range(1, 20)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_theta_graphic_quarter_exact_rational():
    out = theta_graphic(Fraction(1, 4))
    assert out == Fraction(1, 10)


def test_theta_graphic_limits():
    assert abs(theta_graphic(1e-12) - 0.5) < 1e-5
    assert theta_graphic(1 - 1e-12) < 1e-5


def test_theta_graphic_decreasing():
    vals = [theta_graphic(i / 20) for i in range(1, 20)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_threshold_domain_errors():
    with pytest.raises(DomainError):
        theta_binary(0.0)
    with pytest.raises(DomainError):
        theta_graphic(1.0)
    with pytest.raises(DomainError):
        shannon_f(0.7)


def test_channel_params_validation():
    code = repetition(3)
    with pytest.raises(DomainError, match=r"^bit-error probability must lie in \[0, 1/2\)$"):
        ml_error_mc(code, 0.6, 0, 10)
    with pytest.raises(DomainError, match="^trial count must be positive$"):
        ml_error_mc(code, 0.1, 0, 0)
    assert ml_error_mc(code, 0.1, 1, 10).trials == 10


# ---------------------------------------------------------------------------
# cut codes
# ---------------------------------------------------------------------------

def test_cut_code_k4():
    rep = cut_code_distance_bound(complete_graph(4), R=0.5)
    assert rep.distance == 3 == rep.min_degree
    assert rep.holds


def test_cut_code_path_graph_bridge():
    G = Graph.from_edges(range(4), [(0, 1), (1, 2), (2, 3)])
    rep = cut_code_distance_bound(G, R=0.5)
    assert rep.distance == 1


def test_cut_code_reports_both_deltas():
    rep = cut_code_distance_bound(complete_graph(5), R=0.25)
    assert rep.delta_stated == 1 / (2 * (1 - 0.25))
    assert rep.delta_degree == 2 * 10 / 5
    assert rep.rate_cut == Fraction(4, 10)
    assert rep.rate_cycle == Fraction(6, 10)


def test_cut_code_rejects_disconnected():
    G = Graph.from_edges(range(4), [(0, 1), (2, 3)])
    with pytest.raises(Disconnected):
        cut_code_distance_bound(G, R=0.5)


def test_degree_chain_on_random_connected_graphs():
    rng = seeded(41)
    for _ in range(60):
        n = rng.randint(3, 9)
        edges = [(i, rng.randrange(i)) for i in range(1, n)]  # random tree
        pool = [(i, j) for i in range(n) for j in range(i + 1, n)
                if (j, i) not in edges and (i, j) not in edges]
        rng.shuffle(pool)
        edges += pool[: rng.randint(0, max(0, (n - 1) // 2))]
        G = Graph.from_edges(range(n), edges)
        rep = cut_code_distance_bound(G, R=0.5)
        assert rep.distance <= rep.min_degree <= rep.delta_degree


# ---------------------------------------------------------------------------
# ML simulation
# ---------------------------------------------------------------------------

def test_ml_zero_noise():
    est = ml_error_mc(repetition(5), p=0.0, seed=1, trials=2000)
    assert est.errors == 0 and est.rate == 0


def test_ml_repetition5_matches_binomial_tail():
    exact = sum(math.comb(5, i) * 0.1 ** i * 0.9 ** (5 - i) for i in range(3, 6))
    est = ml_error_mc(repetition(5), p=0.1, seed=7, trials=200000)
    assert est.ci_lo <= exact <= est.ci_hi
    assert abs(exact - 0.00856) < 1e-5


def test_ml_hamming74_matches_sphere_decoding():
    ham = dual(fano())
    assert code_params(ham).k == 4
    exact = exact_ml_error(ham, 0.01)
    sphere = 1 - 0.99 ** 7 - 7 * 0.01 * 0.99 ** 6  # perfect code: >=2 flips fail
    assert abs(exact - sphere) < 1e-12
    est = ml_error_mc(ham, p=0.01, seed=3, trials=200000)
    assert est.ci_lo <= exact <= est.ci_hi


def test_ml_workers_deterministic():
    est1 = ml_error_mc(repetition(5), p=0.1, seed=11, trials=50000, workers=1)
    est8 = ml_error_mc(repetition(5), p=0.1, seed=11, trials=50000, workers=8)
    assert est1 == est8


def test_ml_chunked_codeword_axis_is_identical(monkeypatch):
    # rep5 and Hamming(7,4) are perfect codes and never tie; rep4 and the
    # [10,5] code do, so the merged tie counts are checked too
    cases = [(repetition(5), 0.1, 11, 50000), (dual(fano()), 0.05, 3, 40000),
             (repetition(4), 0.1, 6, 40000), (ten_five(), 0.1, 7, 40000)]
    whole = [ml_error_mc(M, p=p, seed=s, trials=t) for M, p, s, t in cases]
    assert all(est.errors != int(est.errors) for est in whole[2:])
    # one codeword per chunk and one trial per flip slice; then flip slices
    # of 100-200 trials; then chunks of 3 (uneven over 16 codewords) and
    # flip slices of 4,915-12,288 trials, each uneven over a block
    for words in (1, 1000, 3 * codes.MC_BLOCK):
        monkeypatch.setattr(codes, "MC_CHUNK_WORDS", words)
        assert [ml_error_mc(M, p=p, seed=s, trials=t) for M, p, s, t in cases] == whole


def test_ml_block_matches_per_trial_oracle(monkeypatch):
    # each distinct pattern decoded once, weighted by its multiplicity,
    # against every trial decoded on its own: rep4 and the [10,5] code
    # tie, Hamming(7,4) sends codeword 9, and the 70-bit code packs each
    # pattern into two words, with its two short codewords in and across
    # the second, so that patterns equal in their first word decode
    # differently; the 64-bit code is the widest one-word pattern, with
    # short codewords on its top and bottom bits; at p = 0.01 most trials
    # repeat a pattern, at p = 0.45 nearly none do, and p = 0.25 and
    # p = 2^-20 put p 2^53 on an integer, where the raw Philox threshold
    # must still agree with the oracle's float draw
    rng = seeded(70)
    seventy = mk(GF2, [[int(j in (64, 65, 66, 67)) for j in range(70)],
                       [int(j in (60, 62, 65, 69)) for j in range(70)]]
                 + [[rng.randrange(2) for _ in range(70)] for _ in range(4)])
    sixty_four = mk(GF2, [[int(j in (60, 61, 62, 63)) for j in range(64)],
                          [int(j in (0, 1, 62, 63)) for j in range(64)]]
                    + [[rng.randrange(2) for _ in range(64)] for _ in range(3)])
    cases = [(repetition(4), 0), (ten_five(), 0), (dual(fano()), 9), (seventy, 0),
             (sixty_four, 0)]
    default = codes.MC_CHUNK_WORDS
    for M, sent in cases:
        words = codes._pack_words(codes._codeword_table(M, 1 << 14))
        for p in (0.01, 0.1, 0.45, 0.25, 2.0 ** -20):
            for block, count in ((0, codes.MC_BLOCK), (3, 701)):
                args = (words, M.size, sent, p, 29, block, count)
                expected = mc_block_per_trial(*args)
                # one draw and one codeword per chunk only on the short block
                for chunk_words in (1, 1000, default)[count > 701:]:
                    monkeypatch.setattr(codes, "MC_CHUNK_WORDS", chunk_words)
                    assert codes._mc_block(*args) == expected


@pytest.mark.parametrize("n", [0, 1, 7, 8, 12, 16, 63, 64, 65, 128, 129])
def test_pack_words_matches_per_row_packing(n):
    # every byte and word boundary, the zero-column row, and one flat pack
    # of a whole block of rows
    rng = np.random.default_rng(n)
    for rows in (1, 2, 3, 4, 5, 1 << 14):
        bits = rng.random((rows, n)) < 0.5
        for table in (bits, bits.astype(np.uint8)):
            packed = codes._pack_words(table)
            assert packed.dtype == np.uint64
            assert np.array_equal(packed, pack_words_per_row(table))


def test_flip_draw_matches_float_draw(monkeypatch):
    # the raw Philox threshold against Generator.random() < p, on p 2^53
    # both whole (0, 2^-20, 0.25) and not, up to the largest p below 1/2,
    # in one slice per block and in slices of 1 and 3 trials; `edge` is
    # the random() value of a draw among the (40, 301) case's whose raw
    # word is exactly the threshold ceil(edge 2^53) 2^11, so its bit stays
    # at p = edge and flips one ulp above it, where p 2^53 is a whole
    # number plus at most 1/4 (edge < 1/4)
    raw = np.random.Philox(key=[29, 3]).random_raw(40 * 301)
    edge = int(raw[(raw % 2048 == 0) & (raw < 2 ** 62)][0]) * 2.0 ** -64
    for chunk_words in (codes.MC_CHUNK_WORDS, 7, 21):
        monkeypatch.setattr(codes, "MC_CHUNK_WORDS", chunk_words)
        for n, count in ((7, 900), (40, 301), (0, 5)):
            for p in (0.0, 2.0 ** -20, 0.01, 0.25, 0.45, math.nextafter(0.5, 0),
                      edge, math.nextafter(edge, 1)):
                rng = np.random.Generator(np.random.Philox(key=[29, 3]))
                expected = pack_words_per_row(rng.random((count, n)) < p)
                assert np.array_equal(codes._draw_flips(n, p, 29, 3, count), expected)


class _ThirdBlock(Exception):
    pass


@pytest.mark.parametrize("workers", [1, 2])
def test_ml_blocks_are_walked_lazily(monkeypatch, workers):
    # a million one-trial blocks; a block list built up front takes about
    # 100 MB before the first block runs
    calls = []

    def block(words, n, true_idx, p, seed, block_idx, count):
        calls.append(block_idx)
        if len(calls) == 3:
            raise _ThirdBlock
        return 0, Fraction(0)

    monkeypatch.setattr(codes, "MC_BLOCK", 1)
    monkeypatch.setattr(codes, "_mc_block", block)
    tracemalloc.start()
    try:
        with pytest.raises(_ThirdBlock):
            ml_error_mc(fano(), p=0.1, seed=1, trials=10 ** 6, workers=workers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20
    assert len(calls) <= 3 + workers


def test_ml_monotone_in_p_statistically():
    ham = dual(fano())
    ests = [ml_error_mc(ham, p=p, seed=13, trials=30000)
            for p in (0.01, 0.05, 0.1, 0.2, 0.3)]
    for a, b in zip(ests, ests[1:]):
        assert a.rate <= b.rate + (a.ci_hi - a.rate) + (b.rate - b.ci_lo)


def test_ml_linearity_zero_vs_random_codeword():
    ham = dual(fano())
    zero = ml_error_mc(ham, p=0.1, seed=17, trials=40000, codeword_index=0)
    other = ml_error_mc(ham, p=0.1, seed=18, trials=40000, codeword_index=9)
    assert max(zero.ci_lo, other.ci_lo) <= min(zero.ci_hi, other.ci_hi)


def test_ml_codes_without_columns_never_err():
    # a row of zero packed bits still gets one word to sort and compare
    for M in (from_generator(Matrix(GF2, (), (), [])),
              from_generator(Matrix(GF2, (), (0, 1), []))):
        est = ml_error_mc(M, p=0.1, seed=1, trials=100)
        assert est.errors == 0.0


def test_ml_rejects_nonbinary():
    M = mk(GF3, [[1, 1, 1]])
    with pytest.raises(NotBinary):
        ml_error_mc(M, p=0.1, seed=1, trials=10)


def test_wilson_interval_basic():
    lo, hi = wilson_interval(50, 100, z=3)
    assert lo < 0.5 < hi
    lo0, hi0 = wilson_interval(0, 100, z=3)
    assert lo0 == 0.0 and hi0 < 0.15
