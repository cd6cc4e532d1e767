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

from .errors import CapExceeded, DefectOutOfRange, check_budget
from .field import FiniteField
from .matroid import (
    DEFAULT_MINOR_CAP,
    _iso_search,
    _minor_profile,
    _minor_search,
    _profile,
    all_subset_ranks,
    check_subset_cap,
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

def h_exhaustive(F: FiniteField, r: int, forbidden=None, cap=DEFAULT_SEARCH_CAP):
    """Largest spanning point subset of PG(r-1, q) whose restriction has no
    `forbidden` minor, with a witness: (value, witness labels).

    With nothing forbidden this is the whole geometry.  Otherwise the
    geometry's rank table is built once, within a fixed limit of
    DEFAULT_MINOR_CAP points that is checked before the geometry is built,
    and subsets are scanned by decreasing size, in combinations order within
    a size; at most `cap` subsets are examined.  A spanning subset's
    restriction profile is read from the table.  Restrictions found to carry
    the minor are kept as profiles, bucketed by rank histogram, and a
    restriction isomorphic to one of them is skipped without a minor search,
    which otherwise runs in the restriction's table read from the
    geometry's.  Skipping only isomorphic copies leaves the first subset
    without the minor, and so the witness, as an unbucketed scan would find
    it.
    """
    from .constructions import pg

    # PG(r-1, q) has (q^r - 1)/(q - 1) >= 2^r - 1 points, so a rank past the
    # limit's bit length is over it without computing q^r
    if forbidden is not None and r >= 1 and (
            r > DEFAULT_MINOR_CAP.bit_length()
            or (F.q ** r - 1) // (F.q - 1) > DEFAULT_MINOR_CAP):
        raise CapExceeded(f"PG({r - 1}, {F.q}) has more than {DEFAULT_MINOR_CAP} "
                          "points, the fixed limit of its rank table")
    geometry = pg(r, F)
    points = geometry.ground
    if forbidden is None:
        return len(points), points
    n = len(points)
    ranks = all_subset_ranks(geometry, cap=DEFAULT_MINOR_CAP)
    # a minor larger than the geometry is in no restriction: build no table
    PN = _profile(forbidden, DEFAULT_MINOR_CAP) if forbidden.size <= n else None
    examined = 0
    for size in range(n, r - 1, -1):
        rejected = {}
        for S in combinations(range(n), size):
            examined += 1
            check_budget(examined, "subsets", cap)
            mask = sum(1 << i for i in S)
            if ranks[mask] != r:
                continue
            profile = _minor_profile(ranks, S)
            bucket = rejected.setdefault(frozenset(profile.hist.items()), [])
            if any(_iso_search(profile, seen, lambda mapping: True) for seen in bucket):
                continue
            if PN is None or _minor_search(profile.ranks, PN) is None:
                return size, tuple(points[i] for i in S)
            bucket.append(profile)
    raise ValueError("every spanning restriction carries the forbidden minor")


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
    g = M.ground
    check_subset_cap(n, cap, flag=None)  # `growth alphat` has no flag for cap
    ranks = all_subset_ranks(M, cap=cap)
    r = ranks[(1 << n) - 1]
    if t > r:
        return False, None
    for B in combinations(range(n), r):
        bmask = sum(1 << i for i in B)
        if ranks[bmask] != r:
            continue
        # the fundamental circuit of each element outside B, as a mask of B
        fundamental = [sum(1 << b for b in B if ranks[bmask ^ 1 << b | 1 << e] == r)
                       for e in range(n) if not bmask >> e & 1]
        for T in combinations(B, t):
            tmask = sum(1 << i for i in T)
            vmask = bmask ^ tmask
            if any((f & vmask).bit_count() > 2 for f in fundamental):
                continue
            V = [b for b in B if vmask >> b & 1]
            for u, v in combinations(V, 2):
                # elements in the span of T + {u, v} beyond the spans of
                # T + {u} and of T + {v}
                tu, tv = tmask | 1 << u, tmask | 1 << v
                tuv = tu | tv
                count = sum(1 for w in range(n)
                            if not tuv >> w & 1
                            and ranks[tuv | 1 << w] == ranks[tuv]
                            and ranks[tu | 1 << w] != ranks[tu]
                            and ranks[tv | 1 << w] != ranks[tv])
                if (count != alpha) if exact else (count < alpha):
                    break
            else:
                return True, (tuple(g[i] for i in V), tuple(g[i] for i in T))
    return False, None
