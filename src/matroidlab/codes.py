"""Linear codes as represented matroids: parameters, asymptotic-goodness
probes, the binary entropy threshold and its graphic counterpart, the
cut-code degree bound, and Monte Carlo maximum-likelihood decoding over a
binary symmetric channel.

A code and a represented matroid are the same object; distance is the
cogirth (minimum weight of the row space), length the ground set size,
dimension the rank.

The ML simulation transmits the zero codeword (linearity makes the error
rate codeword-independent; the tests check this statistically), flips
bits i.i.d., and decodes to the nearest codeword by exhaustive search,
once per distinct error pattern of a block (the pattern fixes the
outcome), weighted by how often the pattern was drawn.  Ties are scored
fractionally: a tie among t codewords that includes the transmitted one
counts (t-1)/t of an error, which is the exact error probability of a
uniform tie-breaking ML decoder.  The codeword table is matroid's span
kernel (_span_words) over the generator rows: word i combines them by
the bits of i, little-endian, the order codeword_index counts in.  It and
the flip patterns are packed into uint64 words by linalg._pack_words.
Randomness is counter-based: block b of trials uses Philox key (seed, b),
so any partition of blocks over workers reproduces the same stream.
"""

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

import numpy as np

from .errors import (
    Disconnected,
    DomainError,
    EmptyCode,
    NotBinary,
    check_budget,
)
from .field import make_field
from .linalg import DEFAULT_WEIGHT_CAP, _pack_words, min_weight
from .matroid import ReprMatroid, _span_words

DEFAULT_CODEWORD_CAP = 1 << 14
MC_BLOCK = 1 << 14
MC_CHUNK_WORDS = 1 << 20  # XOR words or flip draws per chunk of a block; bounds its memory


@dataclass(frozen=True)
class CodeParams:
    n: int
    k: int
    d: int | None
    rate: Fraction
    rel_dist: Fraction | None


def code_params(M: ReprMatroid, workers=1, cap=DEFAULT_WEIGHT_CAP) -> CodeParams:
    """(n, k, d, rate, relative distance); d is None for the zero code.

    d comes from min_weight within `cap`.  `workers` is accepted for
    callers that pass it and changes nothing: the minimum-weight search
    runs in one thread."""
    n = M.size
    if n == 0:
        raise EmptyCode("code of length 0")
    k = M.rank
    d, _ = min_weight(M.space, cap=cap)
    return CodeParams(n, k, d, Fraction(k, n),
                      None if d is None else Fraction(d, n))


@dataclass(frozen=True)
class ProbeVerdict:
    index: int
    n: int
    k: int
    d: int | None
    rate: Fraction
    rel_dist: Fraction
    good: bool


def good_family_probe(family, eps, horizon=10):
    """Check rate >= eps and relative distance >= eps for each matroid.

    Returns (verdicts, best_eps) where best_eps is the largest bound the
    whole sampled family sustains."""
    verdicts = []
    best = None
    for i, item in enumerate(family):
        if i >= horizon:
            break
        cp = code_params(item)
        rel = cp.rel_dist if cp.rel_dist is not None else Fraction(0)
        good = cp.rate >= eps and rel >= eps
        verdicts.append(ProbeVerdict(i, cp.n, cp.k, cp.d, cp.rate, rel, good))
        floor = min(cp.rate, rel)
        best = floor if best is None else min(best, floor)
    return verdicts, (best if best is not None else Fraction(0))


# ---------------------------------------------------------------------------
# threshold functions
# ---------------------------------------------------------------------------

def shannon_f(p: float) -> float:
    """f(p) = 1 + p log2 p + (1-p) log2(1-p) on (0, 1/2]."""
    if not 0 < p <= 0.5:
        raise DomainError("p must lie in (0, 1/2]")
    return 1.0 + p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p)


def theta_binary(R: float) -> float:
    """Inverse of shannon_f on (0, 1/2), by bisection to absolute 1e-12."""
    if not 0 < R < 1:
        raise DomainError("R must lie in (0, 1)")
    lo, hi = 0.0, 0.5  # f(lo+) = 1, f(hi) = 0; f decreasing
    while hi - lo > 1e-12:
        mid = (lo + hi) / 2
        if shannon_f(mid) > R:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


THETA_GRAPHIC_STATUS = "conjectured"  # published for regular graphs only


def theta_graphic(R):
    """(1 - sqrt(R))^2 / (2 (1 + R)); exact Fractions stay exact when
    sqrt(R) is rational.  Treat the value as conjectural."""
    if not 0 < R < 1:
        raise DomainError("R must lie in (0, 1)")
    if isinstance(R, Fraction):
        a, b = R.numerator, R.denominator
        ra, rb = math.isqrt(a), math.isqrt(b)
        if ra * ra == a and rb * rb == b:
            s = Fraction(ra, rb)
            return (1 - s) ** 2 / (2 * (1 + R))
        R = float(R)
    s = math.sqrt(R)
    return (1 - s) ** 2 / (2 * (1 + R))


# ---------------------------------------------------------------------------
# cut codes of graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CutBoundReport:
    n_vertices: int
    n_edges: int
    distance: int
    min_degree: int
    rate_cut: Fraction
    rate_cycle: Fraction
    delta_stated: float      # 1 / (2 (1-R)) as printed in the source lemma
    delta_degree: float      # 2|E| / |V|, the handshake bound actually used
    holds: bool


def cut_code_distance_bound(G, R, cap=DEFAULT_WEIGHT_CAP) -> CutBoundReport:
    """Distance of the cut code of a connected graph against both bound
    candidates; see the module notes on the two rate conventions.  The
    distance comes from min_weight within `cap`."""
    from .constructions import graphic

    if not G.is_connected():
        raise Disconnected("cut code bound needs a connected graph")
    nv, ne = len(G.vertices), len(G.edges)
    if ne == 0:
        raise EmptyCode("graph has no edges")
    if not 0 < R < 1:
        raise DomainError("R must lie in (0, 1)")
    M = graphic(G, make_field(2, 1))
    d, _ = min_weight(M.space, cap=cap)
    mindeg = G.min_degree()
    delta_stated = 1.0 / (2.0 * (1.0 - R))
    delta_degree = 2.0 * ne / nv
    return CutBoundReport(
        n_vertices=nv,
        n_edges=ne,
        distance=d,
        min_degree=mindeg,
        rate_cut=Fraction(nv - 1, ne),
        rate_cycle=Fraction(ne - nv + 1, ne),
        delta_stated=delta_stated,
        delta_degree=delta_degree,
        holds=d <= delta_degree,
    )


# ---------------------------------------------------------------------------
# Monte Carlo ML decoding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MLEstimate:
    p: float
    trials: int
    seed: int
    errors: float          # fractional tie accounting, exact sum
    rate: float
    ci_lo: float
    ci_hi: float


def _codeword_table(M: ReprMatroid, cap):
    if M.field.q != 2:
        raise NotBinary("the simulated channel is binary")
    k, n = M.rank, M.size
    check_budget(2 ** k, "codewords", cap)
    return _span_words(M.field, np.array(M.space.basis, dtype=np.uint8).reshape(k, n), n)


def wilson_interval(x: float, n: int, z: float = 3.0):
    """Wilson score interval for x successes in n trials."""
    if n == 0:
        return 0.0, 1.0
    phat = x / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _draw_flips(n, p, seed, block_idx, count):
    """The packed flip patterns of a block of `count` trials of n bits.

    They are drawn and packed in slices of at most MC_CHUNK_WORDS draws
    (consecutive draws concatenate to one draw of the whole block) from
    Philox key (seed, block_idx).  A bit is flipped when its raw Philox
    word is below ceil(p 2^53) 2^11.  Generator.random() on Philox is
    (w >> 11) 2^-53 for the next raw word w, and an integer m is below
    p 2^53 iff it is below ceil(p 2^53), so this is bit for bit
    rng.random((count, n)) < p without building the floats."""
    bitgen = np.random.Philox(key=[seed, block_idx])
    below = np.uint64(math.ceil(p * 2 ** 53) << 11)
    step = max(1, MC_CHUNK_WORDS // max(1, n))
    slices = (min(step, count - lo) for lo in range(0, count, step))
    return np.concatenate([_pack_words((bitgen.random_raw(rows * n) < below).reshape(rows, n))
                           for rows in slices])


def _mc_block(words, n, true_idx, p, seed, block_idx, count):
    """(hard errors, tie fractions) of one block of trials.

    `words` is the codeword table packed by _pack_words, and the flips
    come from _draw_flips.  The decision depends only on the error
    pattern, so equal packed rows are collapsed into distinct patterns
    with multiplicities, in ascending order: by np.unique when a pattern
    is one word (n <= 64), by a lexsort over all its words otherwise.
    Only the distinct patterns walk the codeword axis, in chunks of at
    most MC_CHUNK_WORDS XOR words, keeping each pattern's least distance
    and the number of codewords at it.  Every count is weighted by its
    multiplicity.
    """
    flips = _draw_flips(n, p, seed, block_idx, count)
    if flips.shape[1] == 1:
        flips, mult = np.unique(flips[:, 0], return_counts=True)
        flips = flips[:, None]
    else:
        flips = flips[np.lexsort(flips.T)]
        first = np.ones(count, dtype=bool)
        first[1:] = (flips[1:] != flips[:-1]).any(axis=1)
        starts = np.flatnonzero(first)
        mult = np.diff(starts, append=count)
        flips = flips[starts]
    received = words[true_idx] ^ flips
    dtrue = np.bitwise_count(flips).sum(axis=1, dtype=np.int32)
    dmin = np.full(len(flips), n + 1, dtype=np.int32)
    ties = np.zeros(len(flips), dtype=np.int32)
    chunk = max(1, MC_CHUNK_WORDS // (len(flips) * words.shape[1]))
    for lo in range(0, len(words), chunk):
        dists = np.bitwise_count(received[:, None, :] ^ words[None, lo:lo + chunk, :])
        dists = dists.sum(axis=2, dtype=np.int32)
        cmin = dists.min(axis=1)
        cties = (dists == cmin[:, None]).sum(axis=1, dtype=np.int32)
        ties = np.where(cmin < dmin, cties, ties + np.where(cmin == dmin, cties, 0))
        dmin = np.minimum(dmin, cmin)
    hard = int(mult[dtrue > dmin].sum())
    tied = (dtrue == dmin) & (ties > 1)
    times = np.bincount(ties[tied], weights=mult[tied])
    frac = Fraction(0)
    for t in np.flatnonzero(times):
        frac += Fraction(int(times[t]) * (int(t) - 1), int(t))
    return hard, frac


def _window_map(pool, fn, items, width):
    """pool.map over a lazy iterable, in order, with at most width + 1
    items submitted and not yet consumed."""
    items = iter(items)
    pending = deque(pool.submit(fn, x) for x in islice(items, width))
    while pending:
        done = pending.popleft()
        pending.extend(pool.submit(fn, x) for x in islice(items, 1))
        yield done.result()


def _sum_blocks(results):
    """Exact error count of (hard, tie fraction) block results, reduced in
    the order they arrive."""
    hard, frac = 0, Fraction(0)
    for h, f in results:
        hard += h
        frac += f
    return hard + float(frac)


def ml_error_mc(code: ReprMatroid, p, seed, trials, *, workers=1,
                cap=DEFAULT_CODEWORD_CAP, codeword_index=0) -> MLEstimate:
    """Empirical block-error rate of exact ML decoding on a BSC(p).

    Deterministic for fixed (seed, trials) independently of `workers`:
    trials are split into fixed-size blocks with per-block counter-based
    generators, and the error count is an exact integer-plus-fractions
    sum reduced in block order.  Blocks are generated lazily and reduced
    as their results arrive, with at most `workers` + 1 blocks submitted
    and not yet reduced, so memory does not grow with `trials`.
    """
    if not 0 <= p < 0.5:
        raise DomainError("bit-error probability must lie in [0, 1/2)")
    if trials < 1:
        raise DomainError("trial count must be positive")
    codewords = _codeword_table(code, cap)
    n = codewords.shape[1]
    words = _pack_words(codewords)
    blocks = ((b, min(MC_BLOCK, trials - lo))
              for b, lo in enumerate(range(0, trials, MC_BLOCK)))

    def run(block):
        return _mc_block(words, n, codeword_index, p, seed, *block)

    if workers > 1 and trials > MC_BLOCK:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            errors = _sum_blocks(_window_map(pool, run, blocks, workers))
    else:
        errors = _sum_blocks(map(run, blocks))
    rate = errors / trials
    lo, hi = wilson_interval(errors, trials)
    return MLEstimate(p, trials, seed, errors, rate, lo, hi)
