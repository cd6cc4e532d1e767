"""Growth rates: closed-form evaluators for the known density formulas,
exhaustive extremal search over projective-geometry restrictions at desk
scale, and the recognizer for frame-like matroids with a bounded lift.

The closed forms are only eventually exact; evaluators therefore return
the formula value together with a pre-asymptotic flag, set whenever the
value is inconsistent with being the size of a simple rank-r matroid
(that is, below r).
"""

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .errors import CapExceeded, DefectOutOfRange
from .field import FiniteField
from .matroid import (
    all_subset_ranks,
    delete,
    has_minor,
    isomorphic,
    rank_of,
)

DEFAULT_SEARCH_CAP = 1 << 18


@dataclass(frozen=True)
class GrowthValue:
    value: int
    pre_asymptotic: bool


def h_exponential(q: int, k: int, d: int, r: int) -> GrowthValue:
    """(q^(r+k) - 1)/(q - 1) - q d, the exponentially dense form.

    The defect d must satisfy 0 <= d <= (q^(2k) - 1)/(q^2 - 1).
    """
    bound = (q ** (2 * k) - 1) // (q * q - 1)
    if not 0 <= d <= bound:
        raise DefectOutOfRange(f"defect {d} outside [0, {bound}]")
    value = (q ** (r + k) - 1) // (q - 1) - q * d
    return GrowthValue(value, value < r)


def h_gamma_frame(alpha: int, r: int) -> int:
    """alpha * C(r, 2) + r: the full frame matroid count for |Gamma| = alpha."""
    if alpha < 1 or r < 1:
        raise ValueError("need alpha >= 1 and r >= 1")
    return alpha * comb(r, 2) + r


def h_nelson_two_field(q: int, r: int) -> GrowthValue:
    """(q^(r+1) - 1)/(q - 1) - q: matroids representable over GF(q^2) and
    GF(q^j) for odd j >= 3."""
    value = (q ** (r + 1) - 1) // (q - 1) - q
    return GrowthValue(value, value < r)


def h_nelson_pg_excluded(q: int, n: int, r: int) -> GrowthValue:
    """(q^(r+n) - 1)/(q - 1) - q (q^(2n) - 1)/(q^2 - 1): GF(q^2)-matroids
    with no rank-(n+2) projective geometry minor (n >= 3).  Negative at
    small r; the flag marks such pre-asymptotic inputs."""
    if n < 3:
        raise ValueError("need n >= 3")
    value = (q ** (r + n) - 1) // (q - 1) - q * (q ** (2 * n) - 1) // (q * q - 1)
    return GrowthValue(value, value < r)


# ---------------------------------------------------------------------------
# exhaustive extremal search
# ---------------------------------------------------------------------------

def h_exhaustive(F: FiniteField, r: int, forbidden=None, cap=DEFAULT_SEARCH_CAP,
                 minor_cap=14):
    """Largest spanning point subset of PG(r-1, q) whose restriction has no
    forbidden minor, with a witness.

    Scans subset sizes downward; within a size, subsets sharing the
    pairwise line-incidence signature are bucketed and skipped only after
    an actual isomorphism check against an already rejected representative.
    Returns (value, witness labels).
    """
    from .constructions import pg

    geometry = pg(r, F)
    points = geometry.ground
    n = len(points)
    examined = 0
    for size in range(n, r - 1, -1):
        rejected = {}
        for S in combinations(points, size):
            examined += 1
            if examined > cap:
                raise CapExceeded(f"examined over {cap} subsets")
            if rank_of(geometry, S) != r:
                continue
            restriction = delete(geometry, set(points) - set(S))
            if forbidden is None:
                return size, S
            sig = _line_signature(restriction)
            bucket = rejected.setdefault(sig, [])
            if any(isomorphic(restriction, seen) for seen in bucket):
                continue
            found, _ = has_minor(restriction, forbidden, cap=minor_cap)
            if not found:
                return size, S
            bucket.append(restriction)
    raise ValueError("every spanning restriction carries the forbidden minor")


def _line_signature(M):
    """Sorted multiset, over element pairs, of how many elements lie on the
    rank-2 flat the pair spans.  Isomorphism invariant used for bucketing."""
    g = M.ground
    sig = []
    for a, b in combinations(g, 2):
        on_line = sum(
            1 for c in g
            if c not in (a, b) and rank_of(M, {a, b, c}) <= 2)
        sig.append(on_line)
    return tuple(sorted(sig))


# ---------------------------------------------------------------------------
# frame-with-lift recognizer
# ---------------------------------------------------------------------------

def is_alpha_t_frame(M, alpha: int, t: int, exact=False, cap=12):
    """Search for a basis split V + T with |T| = t such that
    (i) the fundamental circuit of any element outside the basis meets V
        in at most two elements, and
    (ii) every pair u, v in V has at least `alpha` elements in the span of
        T + {u, v} beyond the spans of T + {u} and T + {v}
        (exactly `alpha` when exact=True).

    Returns (found, (V, T) or None), first witness in enumeration order.
    """
    n = M.size
    if n > cap:
        raise CapExceeded(f"|E|={n} exceeds search cap {cap}")
    g = M.ground
    pos = {e: i for i, e in enumerate(g)}
    ranks = all_subset_ranks(M, cap=cap)
    r = ranks[(1 << n) - 1]
    if t > r:
        return False, None

    def rk(labels):
        mask = 0
        for e in labels:
            mask |= 1 << pos[e]
        return ranks[mask]

    for B in combinations(g, r):
        if rk(B) != r:
            continue
        outside = [e for e in g if e not in set(B)]
        fundamental = {}
        for e in outside:
            circ = [b for b in B if rk(tuple(set(B) - {b}) + (e,)) == r]
            fundamental[e] = set(circ)
        for T in combinations(B, t):
            V = [b for b in B if b not in set(T)]
            if any(len(fundamental[e] & set(V)) > 2 for e in outside):
                continue
            ok = True
            for u, v in combinations(V, 2):
                base = set(T)
                span_uv = rk(tuple(base | {u, v}))
                count = 0
                for w in g:
                    if w in base | {u, v}:
                        continue
                    if rk(tuple(base | {u, v, w})) != span_uv:
                        continue
                    if rk(tuple(base | {u, w})) == rk(tuple(base | {u})):
                        continue
                    if rk(tuple(base | {v, w})) == rk(tuple(base | {v})):
                        continue
                    count += 1
                if (count != alpha) if exact else (count < alpha):
                    ok = False
                    break
            if ok:
                return True, (tuple(V), tuple(T))
    return False, None
