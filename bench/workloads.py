"""The benchmark's workloads: seeded inputs, the ops run on them, and the
check each op's output must pass.

Every op is one in-process call of the library function that the
matching CLI subcommand calls, with the CLI's arguments, and returns the
bytes the CLI would print.  Inputs are generated from the seed, written
with `fileio` and read back, so the library only sees parsed inputs.

Each workload is a fixed list of op shapes; the seed only chooses the
random instances of each shape.  That keeps the cost of a pass nearly the
same at every seed while the answers differ.
"""

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

import numpy as np

from matroidlab import fileio
from matroidlab.codes import code_params, cut_code_distance_bound, ml_error_mc
from matroidlab.constructions import complete_graph, graphic, pg, uniform_represented
from matroidlab.field import make_field, subgroup_of_order
from matroidlab.growth import h_exhaustive
from matroidlab.linalg import Matrix
from matroidlab.matroid import (
    UNBOUNDED,
    contract,
    delete,
    dual,
    from_generator,
    has_minor,
    isomorphic,
    rank_of,
    smallest_circuit,
    smallest_cocircuit,
    vertical_connectivity,
)
from matroidlab.perturb import PerturbPair, dist, pert_bounds, pert_exact
from matroidlab.templates import FrameTemplate, SubfieldTemplate, enumerate_conforming, member_of

import oracles
from oracles import require

# caps the CLI passes by default (`_add_common` in cli.py)
MINOR_CAP = 14
VCONN_CAP = 16
PERTURB_CAP = 5000
TEMPLATE_CAP = 200000
GROWTH_CAP = 1 << 18


@dataclass
class Op:
    id: str
    call: Callable[[], str]      # the library call, returning the CLI's bytes
    check: Callable[[str], None]  # raises CheckFailed


def _json(obj):
    return json.dumps(obj, sort_keys=True) + "\n"


@lru_cache(maxsize=None)
def _tables(p, k, modulus):
    return oracles.Tables(p, k, modulus)


def tables(F):
    return _tables(F.p, F.k, F.modulus)


class Inputs:
    """Writes each generated input with fileio and parses it back."""

    def __init__(self, workdir):
        self.dir = workdir
        self.count = 0

    def _roundtrip(self, text, reader):
        path = self.dir / f"in{self.count:05d}.txt"
        self.count += 1
        path.write_text(text)
        return reader(path.read_text())

    def matrix(self, F, rows, cols, data):
        return self._roundtrip(fileio.write_matrix(Matrix(F, rows, cols, data)),
                               fileio.read_matrix)

    def matroid(self, F, data, labels=None):
        labels = tuple(range(len(data[0]))) if labels is None else tuple(labels)
        return from_generator(self.matrix(F, range(len(data)), labels, data))

    def of(self, M):
        return from_generator(self._roundtrip(fileio.write_matrix(M.generator_matrix()),
                                              fileio.read_matrix))

    def graph(self, G):
        return self._roundtrip(fileio.write_graph(G), fileio.read_graph)

    def template(self, tmpl):
        return self._roundtrip(fileio.write_template(tmpl), fileio.read_template)


def _systematic(F, k, n, rng, planted=None):
    """A random k x n generator [I | A] with shuffled columns, and the
    matching parity-check generator [-A^T | I] under the same shuffle.

    planted=(w, c) makes row 0 a codeword of weight w and one column of A
    a combination of c - 1 identity columns (a circuit of size c).  Below
    the distances typical of the shape, these fix the minimum weights of the
    code and its dual, and with them the work of the weight enumeration."""
    A = [[rng.randrange(F.q) for _ in range(n - k)] for _ in range(k)]
    if planted:
        w, c = planted
        support = rng.sample(range(n - k), w - 1)
        A[0] = [rng.randrange(1, F.q) if j in support else 0 for j in range(n - k)]
        j = rng.choice([j for j in range(n - k) if j not in support])
        rows = rng.sample(range(1, k), c - 1)
        for i in range(k):
            A[i][j] = rng.randrange(1, F.q) if i in rows else 0
    G = [[int(i == j) for j in range(k)] + A[i] for i in range(k)]
    neg = tables(F).neg
    H = [[neg[A[j][i]] for j in range(k)] + [int(i == j) for j in range(n - k)]
         for i in range(n - k)]
    perm = list(range(n))
    rng.shuffle(perm)
    G = [[row[perm[c]] for c in range(n)] for row in G]
    H = [[row[perm[c]] for c in range(n)] for row in H]
    return G, H


def _scale_relabel(F, data, rng, labels):
    """Columns scaled by random nonzero scalars and given shuffled labels."""
    T = tables(F)
    n = len(data[0])
    scales = [rng.randrange(1, F.q) for _ in range(n)]
    data = [[int(T.mul[s][x]) for x, s in zip(row, scales)] for row in data]
    return data, rng.sample(labels, n)


# ---------------------------------------------------------------------------
# codes: minimum-weight enumeration and Monte Carlo ML decoding
# ---------------------------------------------------------------------------

# (p, k_ext, dim, length, planted weights, count).  Both q^dim and
# q^(length-dim) stay within the 2^24 enumeration cap.  The first three
# shapes sit at the cap (their duals are small); the others have planted
# minimum weights, so each shape's ops cost about the same at every seed.
CODE_SHAPES = (
    (2, 1, 24, 28, None, 4), (3, 1, 15, 17, None, 4), (2, 2, 12, 14, None, 4),
    (2, 1, 24, 48, (4, 4), 6), (3, 1, 12, 24, (4, 4), 8), (2, 2, 10, 20, (4, 4), 6),
)
TWO_WORKER_PER_SHAPE = 1           # 2-worker cocircuit ops per planted shape
ML_SHAPES = ((5, 12), (6, 13), (8, 16))  # binary (k, n), n <= 16
ML_P = 0.05
ML_TRIALS = 100_000
CUT_KN = (5, 6, 7, 8, 9)


def _witness_json(hit):
    value, witness = (None, None) if hit is None else hit
    return _json({"value": value, "witness": None if witness is None else list(witness)})


def build_codes(seed, inputs):
    rng = random.Random(seed)
    ops = []
    for p, e, k, n, planted, count in CODE_SHAPES:
        F = make_field(p, e)
        tag = f"GF{F.q}-{k}x{n}"
        for i in range(count):
            G, H = _systematic(F, k, n, rng, planted)
            M = inputs.matroid(F, G)
            ops += _code_ops(f"{tag}-{i}", F, M, G, H,
                             two_workers=planted is not None and i < TWO_WORKER_PER_SHAPE)
    GF2 = make_field(2, 1)
    for k, n in ML_SHAPES:
        G, H = _systematic(GF2, k, n, rng)
        M = inputs.matroid(GF2, G)
        seed_i = rng.randrange(1 << 16)
        ops.append(_ml_op(f"mlsim/{k}x{n}", M, H, seed_i))
    for kn in CUT_KN:
        ops.append(_cut_op(kn, inputs.graph(complete_graph(kn))))
    return ops


def _code_ops(tag, F, M, G, H, two_workers):
    Gn, Hn = np.array(G, dtype=np.uint8), np.array(H, dtype=np.uint8)

    def check_cocircuit(text):
        out = json.loads(text)
        oracles.check_min_weight(tables(F), Gn, out["value"], out["witness"], tag)

    def check_circuit(text):
        out = json.loads(text)
        oracles.check_circuit(tables(F), Gn, out["value"], out["witness"], Hn, tag)

    def check_params(text):
        head, row = text.splitlines()
        require(head == "n,k,d,rate,rel_dist", f"{tag}: bad CSV header {head!r}")
        k, n = Gn.shape
        claimed = int(row.split(",")[2])
        d = oracles.lightest_below(tables(F), Gn, claimed + 1)  # the least weight <= claimed
        want = f"{n},{k},{d},{Fraction(k, n)},{Fraction(d, n)}"
        require(row == want, f"{tag}: params {row!r}, reference {want!r}")

    def params():
        cp = code_params(M, workers=1)
        return f"n,k,d,rate,rel_dist\n{cp.n},{cp.k},{cp.d},{cp.rate},{cp.rel_dist}\n"

    ops = [
        Op(f"cocircuit/{tag}", lambda: _witness_json(smallest_cocircuit(M, workers=1)),
           check_cocircuit),
        Op(f"circuit/{tag}", lambda: _witness_json(smallest_circuit(M, workers=1)),
           check_circuit),
        Op(f"params/{tag}", params, check_params),
    ]
    if two_workers:
        ops.append(Op(f"cocircuit-w2/{tag}",
                      lambda: _witness_json(smallest_cocircuit(M, workers=2)),
                      check_cocircuit))
    return ops


def _ml_op(tag, M, H, seed):
    def call():
        est = ml_error_mc(M, ML_P, seed, ML_TRIALS, workers=2)
        return ("p,err,ci_lo,ci_hi,trials,seed\n"
                f"{est.p!r},{est.rate!r},{est.ci_lo!r},{est.ci_hi!r},{est.trials},{est.seed}\n")

    def check(text):
        head, row = text.splitlines()
        require(head == "p,err,ci_lo,ci_hi,trials,seed", f"{tag}: bad CSV header")
        p, rate, lo, hi, trials, seed_out = row.split(",")
        require(float(p) == ML_P and int(trials) == ML_TRIALS and int(seed_out) == seed,
                f"{tag}: parameters not echoed: {row!r}")
        require(float(lo) <= float(rate) <= float(hi), f"{tag}: rate outside its interval")
        oracles.check_ml(np.array(H, dtype=np.uint8), ML_P, ML_TRIALS, float(rate), tag)

    return Op(tag, call, check)


def _cut_op(kn, G):
    def call():
        rep = cut_code_distance_bound(G, 0.5)
        return ("vertices,edges,distance,min_degree,rate_cut,rate_cycle,"
                "delta_stated,delta_degree,holds\n"
                f"{rep.n_vertices},{rep.n_edges},{rep.distance},{rep.min_degree},"
                f"{rep.rate_cut},{rep.rate_cycle},{rep.delta_stated!r},"
                f"{rep.delta_degree!r},{rep.holds}\n")

    def check(text):
        # the cut code of K_n has distance n-1 (a vertex star is a least cut)
        ne = kn * (kn - 1) // 2
        want = (f"{kn},{ne},{kn - 1},{kn - 1},{Fraction(kn - 1, ne)},"
                f"{Fraction(ne - kn + 1, ne)},{1.0 / (2.0 * (1.0 - 0.5))!r},"
                f"{2.0 * ne / kn!r},True")
        require(text.splitlines()[1] == want, f"cut/K{kn}: {text.splitlines()[1]!r} != {want!r}")

    return Op(f"cut/K{kn}", call, check)


# ---------------------------------------------------------------------------
# templates: enumeration and membership round trip
# ---------------------------------------------------------------------------

# (kind, (p, k), extra rows, free columns).  Enumeration costs do not depend
# on the seed, and these are the slowest ops after the Fano query, so the
# 90th percentile lands on them rather than on a random member's cost.
ENUM_SHAPES = (
    ("subfield", (2, 1), 2, 3), ("subfield", (2, 1), 3, 2), ("subfield", (2, 1), 2, 4),
    ("subfield", (2, 1), 3, 3), ("subfield", (3, 1), 2, 2), ("subfield", (3, 1), 2, 3),
    ("subfield", (3, 1), 3, 2),
    ("frame", (2, 1), 2, 4), ("frame", (2, 1), 2, 5), ("frame", (2, 1), 3, 3),
    ("frame", (2, 1), 3, 4),
    ("frame", (3, 1), 2, 4), ("frame", (3, 1), 3, 3),
    ("frame", (2, 2), 2, 4), ("frame", (2, 2), 2, 5), ("frame", (2, 2), 3, 3),
)
# (kind, (p, k), rank or frame rows, size, count): members built by the benchmark.
# Most are binary of size 6, criterion 9's largest (b + f = 6): each makes
# dozens of equivalence tests and subset-rank tables, where smaller members
# make a handful.
MEMBER_SHAPES = (
    ("subfield", (2, 1), 2, 5, 4), ("subfield", (2, 1), 3, 5, 4),
    ("subfield", (2, 1), 2, 6, 32), ("subfield", (2, 1), 3, 6, 24),
    ("subfield", (3, 1), 2, 4, 6), ("subfield", (3, 1), 3, 4, 6),
    ("frame", (2, 1), 3, 4, 8), ("frame", (2, 1), 3, 5, 6),
    ("frame", (3, 1), 3, 4, 8), ("frame", (2, 2), 3, 4, 8),
)
LABELS = tuple(range(100))

# A template over GF(4) whose members are the GF(4)-matroids confined to GF(2).
BINARY_IN_GF4 = "template subfield\ngf 2 2\npoly 1 1 1\nsubfield 2 1\nA1\nA2\nlambda\ndelta\n"


def _frame_columns(F, b):
    """The Gamma-frame columns on b rows for Gamma = {1}: zero, units, e_i - e_j."""
    neg1 = tables(F).neg[1]
    out = [tuple([0] * b)]
    out += [tuple(int(r == i) for r in range(b)) for i in range(b)]
    for i, j in itertools.permutations(range(b), 2):
        col = [0] * b
        col[i], col[j] = 1, neg1
        out.append(tuple(col))
    return out


def build_templates(seed, inputs):
    rng = random.Random(seed)
    tmpls = {}
    for kind, (p, k) in sorted({(s[0], s[1]) for s in ENUM_SHAPES + MEMBER_SHAPES}):
        F = make_field(p, k)
        t = SubfieldTemplate.empty(F) if kind == "subfield" else \
            FrameTemplate.trivial(subgroup_of_order(F, 1))
        tmpls[kind, (p, k)] = inputs.template(t)
    ops = [_enum_op(kind, b, f, tmpls[kind, pk]) for kind, pk, b, f in ENUM_SHAPES]
    for kind, (p, k), r, n, count in MEMBER_SHAPES:
        F = make_field(p, k)
        for i in range(count):
            if kind == "subfield":
                G, _ = _systematic(F, r, n, rng)
            else:
                cols = _frame_columns(F, r)[1:]  # no loops
                picked = [rng.choice(cols) for _ in range(n)]
                G = [[c[row] for c in picked] for row in range(r)]
            data, labels = _scale_relabel(F, G, rng, LABELS)
            M = inputs.matroid(F, data, labels)
            ops.append(_member_op(f"member/{kind}-GF{F.q}-{r}x{n}-{i}",
                                  tmpls[kind, (p, k)], M, True))
    # non-members with verdicts fixed by theory: a Gamma = {1} frame matroid
    # is graphic, and U_{2,4} is not binary
    GF2, GF3, GF4 = make_field(2, 1), make_field(3, 1), make_field(2, 2)
    binary = inputs.template(fileio.read_template(BINARY_IN_GF4))
    fano = pg(3, GF2)
    negatives = (
        ("fano-frame-GF2", tmpls["frame", (2, 1)], fano),
        ("U24-frame-GF3", tmpls["frame", (3, 1)], uniform_represented(2, 4, GF3)),
        ("U24-frame-GF4", tmpls["frame", (2, 2)], uniform_represented(2, 4, GF4)),
        ("U25-frame-GF4", tmpls["frame", (2, 2)], uniform_represented(2, 5, GF4)),
        ("U24-binary-GF4", binary, uniform_represented(2, 4, GF4)),
        ("U25-binary-GF4", binary, uniform_represented(2, 5, GF4)),
        ("U35-binary-GF4", binary, uniform_represented(3, 5, GF4)),
    )
    for name, tmpl, N in negatives:
        data, labels = _scale_relabel(N.field, [list(r) for r in N.space.basis], rng, LABELS)
        ops.append(_member_op(f"member/{name}", tmpl, inputs.matroid(N.field, data, labels),
                              False))
    return ops


def _member_op(tag, tmpl, M, verdict):
    def check(text):
        require(json.loads(text) == {"member": verdict},
                f"{tag}: {text.strip()} but the verdict by construction is {verdict}")

    return Op(tag, lambda: _json({"member": member_of(tmpl, M, cap=TEMPLATE_CAP)}), check)


def _enum_op(kind, b, f, tmpl):
    F = tmpl.field
    tag = f"enumerate/{kind}-GF{F.q}-{b}x{f}"

    def call():
        out = []
        for M in enumerate_conforming(tmpl, b, f, cap=TEMPLATE_CAP):
            out.append({"ground": list(M.ground), "rank": M.rank,
                        "generator": [list(r) for r in M.space.basis]})
        return _json(out)

    def expected():
        """Ground set and RREF generators of every conforming matrix's matroid."""
        rows = [f"b{i:02d}" for i in range(b)]
        cols = [f"e{i:02d}" for i in range(f)]
        if kind == "subfield":  # M([I|A]) for every A; its RREF is [I|A] itself
            return rows + cols, {
                tuple(tuple(int(i == j) for j in range(b)) + tuple(A[i * f:(i + 1) * f])
                      for i in range(b))
                for A in itertools.product(range(F.q), repeat=b * f)}
        # frame: M(A) for every Gamma-frame matrix A, the rows B being deleted
        return cols, {tuple(oracles.rref(tables(F), [[c[r] for c in picked] for r in range(b)])[0])
                      for picked in itertools.product(_frame_columns(F, b), repeat=f)}

    def check(text):
        out = json.loads(text)
        ground, gens = expected()
        got = [tuple(tuple(r) for r in m["generator"]) for m in out]
        require(len(got) == len(set(got)), f"{tag}: duplicate matroids")
        require(all(m["ground"] == ground and m["rank"] == len(m["generator"]) for m in out),
                f"{tag}: wrong ground set or rank")
        require(set(got) == gens,
                f"{tag}: {len(got)} matroids, reference has {len(gens)}; "
                f"{len(set(got) - gens)} unexpected, {len(gens - set(got))} missing")

    return Op(tag, call, check)


# ---------------------------------------------------------------------------
# structure: minors, isomorphism, connectivity, growth, perturbations
# ---------------------------------------------------------------------------

# (p, rank, size, count) for random matroids tested against every minor
MINOR_SHAPES = ((2, 4, 9, 4), (2, 5, 9, 4), (3, 4, 8, 4), (3, 4, 9, 4))
ISO_SIZES = (8, 9, 10)          # restrictions of PG(2,3)
ISO_PER_SIZE = 4                # pairs of each kind (projective image, random subset)
# seeded GF(2)^4 pairs, `dist` only: with more dist than pert ops the median op
# lies inside the dist cluster rather than in the gap between the two
PERT_GF2_SAMPLE = 150


def _all_subspaces(T, n):
    """Every subspace of GF(q)^n as its RREF basis, from spans of vectors."""
    vecs = list(itertools.product(range(T.q), repeat=n))
    found = {()}
    frontier = {()}
    while frontier:
        nxt = set()
        for basis in frontier:
            for v in vecs:
                red, _ = oracles.rref(T, list(basis) + [v])
                red = tuple(red)
                if red not in found:
                    found.add(red)
                    nxt.add(red)
        frontier = nxt
    return sorted(found, key=lambda b: (len(b), b))


def _pg_points(T, r):
    """Points of PG(r-1, q) in the library's documented order."""
    pts = []
    for lead in range(r):
        tail = r - lead - 1
        for code in range(T.q ** tail):
            v = [0] * r
            v[lead] = 1
            for t in range(tail):
                v[lead + 1 + t] = (code // T.q ** t) % T.q
            pts.append(tuple(v))
    return pts


def _rank_table_once(F, G):
    """The rank table of G's columns, computed on first use and kept."""
    cache = []

    def get():
        if not cache:
            cache.append(oracles.rank_table(tables(F), list(zip(*G))))
        return cache[0]

    return get


def build_structure(seed, inputs):
    rng = random.Random(seed)
    GF2, GF3 = make_field(2, 1), make_field(3, 1)
    fano = pg(3, GF2)
    minors = {}
    for name, N, impossible in (
        ("U24", uniform_represented(2, 4, GF3), {2}),   # never in a binary matroid
        ("K4", graphic(complete_graph(4), GF2), set()),
        ("F7", fano, {3}),                              # never in a ternary matroid
        ("F7dual", dual(fano), {3}),
    ):
        N = inputs.of(N)
        cols = [N.column(e) for e in N.ground]
        minors[name] = (N, _rank_table_once(N.field, list(zip(*cols))), impossible)
    ops = []
    for p, r, n, count in MINOR_SHAPES:
        F = make_field(p, 1)
        for i in range(count):
            G, _ = _systematic(F, r, n, rng)
            M = inputs.matroid(F, G)
            ranks = _rank_table_once(F, G)
            tag = f"GF{p}-{r}x{n}-{i}"
            for name, (N, target, impossible) in minors.items():
                ops.append(_minor_op(f"minor/{tag}-{name}", M, ranks, N, target,
                                     p in impossible))
            ops.append(_vconn_op(f"vconn/{tag}", M, ranks))
    ops += _iso_ops(rng, inputs, GF3)
    ops += _growth_ops(inputs, GF2, GF3, fano)
    ops += _pert_ops(rng, inputs, GF3, 3, None, with_pert=True)
    ops += _pert_ops(rng, inputs, GF2, 4, PERT_GF2_SAMPLE, with_pert=False)
    return ops


def _minor_table(ranks, C, kept):
    """Rank table of M/C on the elements `kept`, by lookup in M's table:
    r(X + C) - r(C), bit i of X standing for kept[i]."""
    cmask = sum(1 << j for j in C)
    out = []
    for mask in range(1 << len(kept)):
        x = cmask
        for i, j in enumerate(kept):
            if mask >> i & 1:
                x |= 1 << j
        out.append(ranks[x] - ranks[cmask])
    return out


def _minor_op(tag, M, table, N, target_table, impossible):
    """table and target_table give the rank tables of M and N on first use."""
    def check(text):
        out = json.loads(text)
        if impossible:
            require(out["value"] is False, f"{tag}: minor found where none can exist")
        n, target = M.size, target_table()
        if out["value"]:
            C, D = out["witness"]["contract"], out["witness"]["delete"]
            require(not set(C) & set(D), f"{tag}: contract and delete sets meet")
            kept = [j for j in range(n) if j not in set(C) | set(D)]
            require(len(kept) == N.size and
                    oracles.rank_isomorphic(_minor_table(table(), C, kept), target, N.size),
                    f"{tag}: M/C\\D is not isomorphic to the minor")
            return
        require(out["witness"] is None, f"{tag}: witness without a minor")
        # every minor is M/C\D for some kept set of N's size and some C among
        # the other elements; none may match N's rank table
        r, rN = table(), target[-1]
        for kept in itertools.combinations(range(n), N.size):
            rest = [j for j in range(n) if j not in kept]
            kmask = sum(1 << j for j in kept)
            for c in range(1 << len(rest)):
                C = [j for i, j in enumerate(rest) if c >> i & 1]
                cmask = sum(1 << j for j in C)
                if r[kmask | cmask] - r[cmask] != rN:
                    continue
                require(not oracles.rank_isomorphic(_minor_table(r, C, kept), target, N.size),
                        f"{tag}: reference finds the minor contracting {C}, keeping {list(kept)}")

    def call():
        found, wit = has_minor(M, N, cap=MINOR_CAP)
        return _json({"value": found,
                      "witness": None if wit is None else {"contract": list(wit[0]),
                                                           "delete": list(wit[1])}})

    return Op(tag, call, check)


def _vconn_op(tag, M, table):
    """table gives the rank table of M's generated matrix on first use."""
    def call():
        k, wit = vertical_connectivity(M, cap=VCONN_CAP, with_witness=True)
        return _json({"value": "unbounded" if k is UNBOUNDED else k,
                      "witness": None if wit is None else {"X": list(wit[0]),
                                                           "Y": list(wit[1])}})

    def check(text):
        out = json.loads(text)
        ranks = table()
        n = len(ranks).bit_length() - 1
        labels = list(range(n))  # Inputs.matroid labels columns 0..n-1
        full = (1 << n) - 1
        r = ranks[full]
        gaps = [ranks[m] + ranks[full ^ m] - r for m in range(1 << n)
                if ranks[m] < r and ranks[full ^ m] < r]
        if not gaps:
            require(out == {"value": "unbounded", "witness": None}, f"{tag}: {out}")
            return
        require(out["value"] == min(gaps) + 1, f"{tag}: value {out['value']} != {min(gaps) + 1}")
        X, Y = out["witness"]["X"], out["witness"]["Y"]
        require(sorted(X + Y) == sorted(labels) and not set(X) & set(Y), f"{tag}: not a partition")
        mx = sum(1 << labels.index(e) for e in X)
        require(ranks[mx] < r and ranks[full ^ mx] < r and
                ranks[mx] + ranks[full ^ mx] - r == min(gaps),
                f"{tag}: witness partition does not attain the value")

    return Op(tag, call, check)


def _iso_ops(rng, inputs, F):
    T = tables(F)
    points = _pg_points(T, 3)
    ops = []
    for size in ISO_SIZES:
        for i in range(ISO_PER_SIZE):
            S = rng.sample(range(len(points)), size)
            A = [[points[j][row] for j in S] for row in range(3)]
            while True:  # a random invertible 3x3 matrix
                P = [[rng.randrange(F.q) for _ in range(3)] for _ in range(3)]
                if oracles.rank(T, P) == 3:
                    break
            image = [[0] * size for _ in range(3)]
            for row in range(3):
                for j in range(size):
                    for t in range(3):
                        image[row][j] = int(T.add[image[row][j]][T.mul[P[row][t]][A[t][j]]])
            M1 = inputs.matroid(F, A)
            data, labels = _scale_relabel(F, image, rng, LABELS)
            ops.append(_iso_op(f"iso/PG23-{size}-image-{i}", F, A, M1,
                               data, inputs.matroid(F, data, labels), True))
            S2 = rng.sample(range(len(points)), size)
            B = [[points[j][row] for j in S2] for row in range(3)]
            data, labels = _scale_relabel(F, B, rng, LABELS)
            ops.append(_iso_op(f"iso/PG23-{size}-random-{i}", F, A, M1,
                               data, inputs.matroid(F, data, labels), None))
            ops.append(_vconn_op(f"vconn/PG23-{size}-{i}", M1, _rank_table_once(F, A)))
    return ops


def _iso_op(tag, F, A1, M1, A2, M2, verdict):
    """A1 and A2 are the generated matrices behind M1 and M2."""
    def check(text):
        T = tables(F)
        r1 = oracles.rank_table(T, list(zip(*A1)))
        r2 = oracles.rank_table(T, list(zip(*A2)))
        want = oracles.rank_isomorphic(r1, r2, len(r1).bit_length() - 1)
        require(verdict is None or want == verdict, f"{tag}: reference disagrees with construction")
        require(json.loads(text) == {"value": want}, f"{tag}: {text.strip()}, reference {want}")

    return Op(tag, lambda: _json({"value": isomorphic(M1, M2)}), check)


def _growth_ops(inputs, GF2, GF3, fano):
    k4 = inputs.of(graphic(complete_graph(4), GF2))
    f7 = inputs.of(fano)
    cases = (  # (tag, field, forbidden, known extremal size)
        ("GF2-free", GF2, None, 7), ("GF3-free", GF3, None, 13),
        ("GF2-no-F7", GF2, f7, 6), ("GF2-no-K4", GF2, k4, 5),
    )
    ops = []
    for tag, F, forb, value in cases:
        def call(F=F, forb=forb):
            v, witness = h_exhaustive(F, 3, forbidden=forb, cap=GROWTH_CAP)
            return _json({"value": v, "witness": list(witness)})

        def check(text, F=F, value=value, tag=tag):
            # a set smaller than the forbidden minor cannot contain it, so the
            # known value and a spanning witness of that size certify the answer
            out = json.loads(text)
            T = tables(F)
            pts = _pg_points(T, 3)
            require(out["value"] == value == len(set(out["witness"])),
                    f"growth/{tag}: value {out['value']}, known {value}")
            require(oracles.col_rank(T, [pts[j] for j in out["witness"]]) == 3,
                    f"growth/{tag}: witness does not span")

        ops.append(Op(f"growth/{tag}", call, check))
    return ops


def _random_basis(T, basis, rng):
    """Another basis of the same space: random invertible recombination."""
    d = len(basis)
    if d == 0:
        return []
    while True:
        P = [[rng.randrange(T.q) for _ in range(d)] for _ in range(d)]
        if oracles.rank(T, P) == d:
            break
    n = len(basis[0])
    out = []
    for prow in P:
        v = [0] * n
        for c, brow in zip(prow, basis):
            v = [int(T.add[x][T.mul[c][y]]) for x, y in zip(v, brow)]
        out.append(v)
    return out


def _pert_ops(rng, inputs, F, n, sample, with_pert):
    T = tables(F)
    spaces = _all_subspaces(T, n)
    ground = tuple(range(n))
    mats = []
    for basis in spaces:
        rows = _random_basis(T, basis, rng)
        mats.append(from_generator(inputs.matrix(F, range(len(rows)), ground, rows)))
    pairs = list(itertools.product(range(len(spaces)), repeat=2))
    if sample is not None:
        pairs = rng.sample(pairs, sample)
    ops = []
    for a, b in pairs:
        pair = PerturbPair(mats[a], mats[b])
        tag = f"GF{F.q}^{n}-{a}-{b}"
        ops.append(_dist_op(tag, T, pair, spaces[a], spaces[b]))
        if with_pert:
            ops.append(_pert_op(tag, T, pair, spaces[a], spaces[b]))
    return ops


def _dims(T, U1, U2):
    """(dim U1 + U2, dim U1, dim U2) from the generated bases."""
    return oracles.rank(T, list(U1) + list(U2)), len(U1), len(U2)


def _dist_op(tag, T, pair, U1, U2):
    def check(text):
        s, d1, d2 = _dims(T, U1, U2)
        want = 2 * s - d1 - d2
        require(json.loads(text) == {"value": want},
                f"dist/{tag}: {text.strip()}, closed form 2s-d1-d2 = {want}")

    return Op(f"dist/{tag}", lambda: _json({"value": dist(pair, cap=PERTURB_CAP)}), check)


def _pert_op(tag, T, pair, U1, U2):
    def call():
        lo, hi, diff = pert_bounds(pair, with_witness=True)
        return _json({"lo": lo, "hi": hi, "witness": [list(r) for r in diff],
                      "exact": pert_exact(pair, cap=PERTURB_CAP)})

    def check(text):
        out = json.loads(text)
        s, d1, d2 = _dims(T, U1, U2)
        want = s - min(d1, d2)
        require(out["exact"] == want, f"pert/{tag}: exact {out['exact']}, "
                                      f"closed form s-min(d1,d2) = {want}")
        require(out["lo"] <= want <= out["hi"], f"pert/{tag}: bounds {out['lo']}..{out['hi']}")
        require(oracles.rank(T, out["witness"]) == out["hi"],
                f"pert/{tag}: witness difference does not have rank hi")

    return Op(f"pert/{tag}", call, check)


def probe_layers():
    """One small call into each layer function that tracing.py wraps, so a
    traced run can tell a wrapper that was never installed from an idle layer.
    The inputs are tiny so the probe barely moves a busy layer's numbers."""
    GF2 = make_field(2, 1)
    fano, line = pg(3, GF2), pg(2, GF2)
    smallest_circuit(fano)
    smallest_cocircuit(fano)
    code_params(fano)
    ml_error_mc(dual(fano), 0.05, 0, 100)
    rank_of(contract(fano, [0]), [1, 2])
    delete(fano, [0])
    has_minor(fano, line)
    isomorphic(line, line)
    vertical_connectivity(line)
    h_exhaustive(GF2, 2)
    ground = (0, 1, 2)
    pair = PerturbPair(from_generator(Matrix(GF2, (0,), ground, [[1, 1, 0]])),
                       from_generator(Matrix(GF2, (0, 1), ground, [[0, 1, 1], [1, 0, 0]])))
    dist(pair)
    pert_bounds(pair)
    pert_exact(pair)
    subfield = SubfieldTemplate.empty(GF2)
    list(enumerate_conforming(subfield, 1, 2))
    member_of(subfield, line)
    list(enumerate_conforming(FrameTemplate.trivial(subgroup_of_order(GF2, 1)), 2, 2))


WORKLOADS = {
    "codes": build_codes,
    "templates": build_templates,
    "structure": build_structure,
}
