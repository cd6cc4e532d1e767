"""Independent reference computations for the benchmark's output checks.

Nothing here calls matroidlab's algorithms: field arithmetic is rebuilt
from (p, k, modulus), ranks come from a separate elimination, minimum
weights from numpy enumeration over a known information set, and ML
error rates from syndrome enumeration.  The library's answers are
checked against these, so a fast path that changes an answer fails the
run even at seeds whose digest is not pinned.
"""

import itertools
import math

import numpy as np


class CheckFailed(Exception):
    """An op's output disagrees with the reference or is not a certificate."""


def require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


class Tables:
    """Addition and multiplication tables of GF(p^k) on little-endian
    base-p digit codes, built from the modulus alone."""

    def __init__(self, p, k, modulus=None):
        q = p ** k
        self.p, self.k, self.q = p, k, q

        def digits(a):
            return [(a // p ** i) % p for i in range(k)]

        def code(ds):
            return sum(d * p ** i for i, d in enumerate(ds))

        def mul(a, b):
            prod = [0] * (2 * k - 1)
            for i, x in enumerate(digits(a)):
                for j, y in enumerate(digits(b)):
                    prod[i + j] = (prod[i + j] + x * y) % p
            for top in range(2 * k - 2, k - 1, -1):  # reduce by the monic modulus
                lead = prod[top]
                if lead:
                    for i, m in enumerate(modulus):
                        prod[top - k + i] = (prod[top - k + i] - lead * m) % p
            return code(prod[:k])

        self.add = np.array([[code([(x + y) % p for x, y in zip(digits(a), digits(b))])
                              for b in range(q)] for a in range(q)], dtype=np.uint8)
        self.mul = np.array([[mul(a, b) if k > 1 else (a * b) % p
                              for b in range(q)] for a in range(q)], dtype=np.uint8)
        self.neg = [int(np.nonzero(self.add[a] == 0)[0][0]) for a in range(q)]
        self.inv = [0] + [int(np.nonzero(self.mul[a] == 1)[0][0]) for a in range(1, q)]
        self.add_l, self.mul_l = self.add.tolist(), self.mul.tolist()  # for scalar loops


# ---------------------------------------------------------------------------
# elimination and ranks
# ---------------------------------------------------------------------------

def rref(T, rows):
    """Reduced row echelon form of a list of rows: (nonzero rows, pivots)."""
    add, mul = T.add_l, T.mul_l
    work = [[int(x) for x in r] for r in rows]
    n = len(work[0]) if work else 0
    out, pivots = [], []
    for c in range(n):
        pr = next((i for i, r in enumerate(work) if r[c]), None)
        if pr is None:
            continue
        row = work.pop(pr)
        ia = T.inv[row[c]]
        row = [mul[ia][x] for x in row]
        work = [[add[x][mul[T.neg[r[c]]][y]] for x, y in zip(r, row)] for r in work]
        out = [[add[x][mul[T.neg[r[c]]][y]] for x, y in zip(r, row)] for r in out]
        out.append(row)
        pivots.append(c)
    return [tuple(r) for r in out], pivots


def rank(T, rows):
    return len(rref(T, rows)[1]) if rows else 0


def col_rank(T, cols):
    """Rank of a list of column vectors."""
    if not cols:
        return 0
    return rank(T, [list(r) for r in zip(*cols)])


def rank_table(T, cols):
    """ranks[mask] for every subset of the columns (bit i is cols[i]).

    Spans are kept as sets of vectors, so each step is a set update."""
    n = len(cols)
    zero = tuple([0] * len(cols[0])) if cols else ()
    spans = [frozenset([zero])]
    ranks = [0]
    for mask in range(1, 1 << n):
        top = mask.bit_length() - 1
        prev = mask ^ (1 << top)
        v = tuple(cols[top])
        if v in spans[prev]:
            spans.append(spans[prev])
            ranks.append(ranks[prev])
        else:
            grown = set()
            for t in range(T.q):
                sv = tuple(T.mul_l[t][x] for x in v)
                grown.update(tuple(T.add_l[a][b] for a, b in zip(u, sv))
                             for u in spans[prev])
            spans.append(frozenset(grown))
            ranks.append(ranks[prev] + 1)
    return ranks


def rank_isomorphic(r1, r2, n):
    """Backtracking search for a bijection preserving every subset rank."""
    if len(r1) != len(r2):
        return False
    if sorted(r1) != sorted(r2):
        return False
    full = (1 << n) - 1
    order = list(range(n))
    mapping = [None] * n
    used = [False] * n

    def image(mask):
        out = 0
        for i in range(n):
            if mask >> i & 1:
                out |= 1 << mapping[i]
        return out

    def rec(depth):
        if depth == n:
            return all(r1[m] == r2[image(m)] for m in range(full + 1))
        i = order[depth]
        for j in range(n):
            if used[j]:
                continue
            mapping[i], used[j] = j, True
            prefix = (1 << (depth + 1)) - 1
            ok = True
            sub = prefix
            while True:  # every subset of the placed elements that holds i
                if sub >> i & 1 and r1[sub] != r2[image(sub)]:
                    ok = False
                    break
                if sub == 0:
                    break
                sub = (sub - 1) & prefix
            if ok and rec(depth + 1):
                return True
            mapping[i], used[j] = None, False
        return False

    return rec(0)


# ---------------------------------------------------------------------------
# minimum weight over a known information set
# ---------------------------------------------------------------------------

FULL_ENUMERATION = 1 << 18


def _messages(T, k, max_support):
    """All nonzero messages with at most max_support nonzero coordinates."""
    out = []
    nz = range(1, T.q)
    for s in range(1, min(max_support, k) + 1):
        for supp in itertools.combinations(range(k), s):
            for vals in itertools.product(nz, repeat=s):
                m = [0] * k
                for i, v in zip(supp, vals):
                    m[i] = v
                out.append(m)
    return np.array(out, dtype=np.uint8).reshape(-1, k)


def all_codewords(T, G):
    """Every codeword of rowspace(G), built by adding each row's multiples."""
    words = np.zeros((1, G.shape[1]), dtype=np.uint8)
    for row in G:
        scaled = T.mul[:, row]                       # (q, n): s * row for every s
        words = T.add[words[:, None, :], scaled[None, :, :]].reshape(-1, G.shape[1])
    return words


def some_codewords(T, G, msgs):
    acc = np.zeros((len(msgs), G.shape[1]), dtype=np.uint8)
    for i in range(G.shape[0]):
        acc = T.add[acc, T.mul[msgs[:, i][:, None], G[i][None, :]]]
    return acc


def lightest_below(T, G, w):
    """Smallest weight below w of a nonzero codeword of rowspace(G), or None.

    G must carry an identity block on some k columns, so a codeword's weight
    is at least the support of its message and messages of support < w
    suffice."""
    k = G.shape[0]
    if w <= 1 or k == 0:
        return None
    bounded = sum(math.comb(k, s) * (T.q - 1) ** s for s in range(1, min(w - 1, k) + 1))
    if T.q ** k <= min(bounded, FULL_ENUMERATION):
        words = all_codewords(T, G)[1:]             # drop the zero word
    else:
        words = some_codewords(T, G, _messages(T, k, w - 1))
    weights = (words != 0).sum(axis=1)
    low = weights[weights < w]
    return int(low.min()) if len(low) else None


def check_min_weight(T, G, value, support, what):
    """value is the minimum nonzero weight of rowspace(G) and some nonzero
    codeword is supported exactly on `support` (column indices)."""
    require(value == len(support), f"{what}: witness size {len(support)} != value {value}")
    k, n = G.shape
    outside = [j for j in range(n) if j not in set(support)]
    # a nonzero codeword vanishing outside the witness exists iff the
    # columns outside it do not have full rank k
    require(col_rank(T, [G[:, j] for j in outside]) < k,
            f"{what}: no codeword is supported on the witness")
    lighter = lightest_below(T, G, value)
    require(lighter is None, f"{what}: reference finds weight {lighter} < {value}")


def check_circuit(T, G, value, support, H, what):
    """support is a smallest circuit: dependent columns of G, of the minimum
    weight of the dual code generated by H."""
    require(value == len(support), f"{what}: witness size {len(support)} != value {value}")
    require(col_rank(T, [G[:, j] for j in support]) < len(support),
            f"{what}: witness columns are independent")
    lighter = lightest_below(T, H, value)
    require(lighter is None, f"{what}: reference finds a circuit of size {lighter} < {value}")


# ---------------------------------------------------------------------------
# ML decoding on a BSC
# ---------------------------------------------------------------------------

def exact_ml_error(H, p):
    """Block error of ML decoding with uniform tie-breaking, by syndromes:
    the decoder is right with probability sum over cosets of
    p^w (1-p)^(n-w), w the coset's least weight."""
    m, n = H.shape
    patterns = np.arange(1 << n, dtype=np.uint32)
    bits = ((patterns[:, None] >> np.arange(n)[None, :]) & 1).astype(np.uint8)
    synd = (bits.astype(np.int64) @ H.T.astype(np.int64)) % 2
    index = synd @ (1 << np.arange(m))
    least = np.full(1 << m, n + 1)
    np.minimum.at(least, index, bits.sum(axis=1))
    right = sum(p ** int(w) * (1 - p) ** (n - int(w)) for w in least)
    return 1.0 - right


def check_ml(H, p, trials, rate, what):
    exact = exact_ml_error(H, p)
    sigma = math.sqrt(max(exact * (1 - exact), 1e-12) / trials)
    require(abs(rate - exact) <= 5 * sigma,
            f"{what}: rate {rate} is {abs(rate - exact) / sigma:.1f} sigma from exact {exact}")
