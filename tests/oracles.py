"""Slow, independent reference implementations used only by the tests."""

from itertools import product
import random

from matroidlab.errors import CapExceeded
from matroidlab.linalg import Matrix, Subspace
from matroidlab.matroid import ReprMatroid, from_generator


def random_matrix(field, m, n, rng):
    return Matrix(field, tuple(range(m)), tuple(range(n)),
                  [[rng.randrange(field.q) for _ in range(n)] for _ in range(m)])


def random_matroid(field, max_n, rng, min_n=1):
    n = rng.randint(min_n, max_n)
    m = rng.randint(0, n)
    return from_generator(random_matrix(field, m, n, rng))


def proj_equiv_bruteforce(M1: ReprMatroid, M2: ReprMatroid) -> bool:
    """Try every nonsingular diagonal scaling."""
    F = M1.field
    n = M1.size
    if M1.ground != M2.ground or F != M2.field:
        raise ValueError("ground sets and field must match")
    basis = M1.space.basis
    for scales in product(F.nonzero(), repeat=n):
        scaled = [[F.mul(x, s) for x, s in zip(row, scales)] for row in basis]
        if Subspace(F, M1.ground, scaled) == M2.space:
            return True
    return False


def confined_bruteforce(M: ReprMatroid, sub_codes) -> bool:
    """Try every column scaling; confined iff some scaled RREF lands in F0."""
    from matroidlab.linalg import rref_rows

    F = M.field
    n = M.size
    basis = M.space.basis
    if not basis:
        return True
    for scales in product(F.nonzero(), repeat=n):
        scaled = [[F.mul(x, s) for x, s in zip(row, scales)] for row in basis]
        red, _ = rref_rows(F, scaled)
        if all(x in sub_codes for row in red for x in row):
            return True
    return False


def min_weight_reference(U: Subspace):
    """Tuple-based minimum-weight enumeration with the library's witness order.

    Combinations of basis rows are enumerated by level (number of rows
    used), then in tasks keyed by (first row, first scalar), then depth
    first over (row, scalar) pairs; the result is the least key
    (weight, level, task, counter).  Levels past the best weight are
    skipped, since s rows give weight at least s at the pivot columns.
    """
    F = U.field
    k = U.dim
    if k == 0:
        return None, None
    nz = list(F.nonzero())
    scaled = [{s: tuple(F.mul(s, x) for x in row) for s in nz} for row in U.basis]
    best = None  # (w, level, task, counter, witness)

    for level in range(1, k + 1):
        if best is not None and level > best[0]:
            break
        tasks = ((f, s) for f in range(k - level + 1) for s in nz)
        for task_idx, (first, s0) in enumerate(tasks):
            counter = 0

            def rec(start, remaining, acc):
                nonlocal best, counter
                if remaining == 0:
                    key = (len(acc) - acc.count(0), level, task_idx, counter, acc)
                    counter += 1
                    if best is None or key < best:
                        best = key
                    return
                for i in range(start, k - remaining + 1):
                    for s in nz:
                        rec(i + 1, remaining - 1,
                            tuple(F.add(x, y) for x, y in zip(acc, scaled[i][s])))

            rec(first + 1, level - 1, scaled[first][s0])
    return best[0], best[4]


def min_weight_bruteforce(U: Subspace, cap=1 << 24):
    """Scan all q^dim vectors; (weight, first vector of least weight)."""
    if U.dim == 0:
        return None, None
    if U.field.q ** U.dim > cap:
        raise CapExceeded("brute force cap")
    best = None
    for v in U.vectors():
        if any(v):
            w = len(v) - v.count(0)
            if best is None or w < best[0]:
                best = (w, v)
    return best


def seeded(seed):
    return random.Random(seed)
