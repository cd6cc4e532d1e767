"""Named matroids and matrices: projective and affine geometries, graphic
matroids, uniform matroids, Reid geometries, and full frame matroids for a
multiplicative subgroup, all represented over a field; and the rank
functions of uniform and bicircular matroids in closed form, over index
sets.

All constructors are pure and deterministic: points are enumerated in a
fixed order and ground labels are 0..n-1, so two runs produce identical
objects.
"""

from dataclasses import dataclass
from itertools import combinations, product

from .errors import FieldTooSmall, LabelMismatch
from .field import FiniteField, MultSubgroup
from .linalg import Matrix, combine, label_key, normalizer, transpose, unit_vectors
from .matroid import ReprMatroid, from_generator


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Graph:
    """Simple graph: no loops, no parallel edges."""

    vertices: tuple
    edges: tuple  # tuples (u, v) with u before v in label order

    def __post_init__(self):
        vs = set(self.vertices)
        if len(vs) != len(self.vertices):
            raise LabelMismatch("duplicate vertices")
        seen = set()
        for e in self.edges:
            if len(e) != 2 or e[0] == e[1]:
                raise LabelMismatch(f"bad edge {e}")
            if e[0] not in vs or e[1] not in vs:
                raise LabelMismatch(f"edge {e} uses unknown vertex")
            key = frozenset(e)
            if key in seen:
                raise LabelMismatch(f"duplicate edge {e}")
            seen.add(key)

    @classmethod
    def from_edges(cls, vertices, edges):
        vertices = tuple(sorted(vertices, key=label_key))
        norm = tuple(sorted((tuple(sorted(e, key=label_key)) for e in edges),
                            key=lambda e: (label_key(e[0]), label_key(e[1]))))
        return cls(vertices, norm)

    def degree(self, v):
        return sum(1 for e in self.edges if v in e)

    def min_degree(self):
        return min(self.degree(v) for v in self.vertices) if self.vertices else 0

    def components(self):
        return [vs for vs, _ in _components(self.vertices, self.edges)]

    def is_connected(self):
        return len(self.components()) <= 1


def _components(vertices, edges):
    """The components of the graph (vertices, edges), as (vertex set, edge
    list) pairs in the order of their first vertex."""
    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    comps = {}
    for v in vertices:
        comps.setdefault(find(v), (set(), []))[0].add(v)
    for e in edges:
        comps[find(e[0])][1].append(e)
    return list(comps.values())


def complete_graph(n):
    if n < 0:
        raise ValueError(f"K_n needs n >= 0, got {n}")
    return Graph.from_edges(range(n), combinations(range(n), 2))


# ---------------------------------------------------------------------------
# geometries
# ---------------------------------------------------------------------------

def _pg_points(m, F):
    """Normalized points of PG(m-1, F): first nonzero coordinate is 1.

    Ordered by leading position, then by the little-endian code of the
    remaining coordinates.
    """
    pts = []
    for lead in range(m):
        tail = m - lead - 1
        for code in range(F.q ** tail):
            v = [0] * m
            v[lead] = 1
            c = code
            for t in range(tail):
                v[lead + 1 + t] = c % F.q
                c //= F.q
            pts.append(tuple(v))
    return pts


def pg(m: int, F: FiniteField) -> ReprMatroid:
    """Projective geometry PG(m-1, q): one column per 1-dim subspace."""
    if m < 1:
        raise ValueError("rank must be >= 1")
    pts = _pg_points(m, F)
    return from_generator(Matrix(F, range(m), range(len(pts)), transpose(pts, m)))


def ag(m: int, F: FiniteField) -> ReprMatroid:
    """Affine geometry AG(m-1, q): PG(m-1, q) minus a hyperplane."""
    if m < 1:
        raise ValueError("rank must be >= 1")
    pts = [p for p in _pg_points(m, F) if p[0] == 1]
    return from_generator(Matrix(F, range(m), range(len(pts)), transpose(pts, m)))


def uniform(m: int, n: int):
    """The rank function of U_{m,n} on subsets S of range(n):
    min(|S|, m)."""
    if not 0 <= m <= n:
        raise ValueError("need 0 <= m <= n")
    return lambda S: min(len(S), m)


def uniform_represented(m: int, n: int, F: FiniteField) -> ReprMatroid:
    """U_{m,n} over F via Vandermonde columns on distinct evaluation points,
    plus the point at infinity when n = q+1.  Needs q >= n-1."""
    if not 0 <= m <= n:
        raise ValueError("need 0 <= m <= n")
    if m == 0:
        return from_generator(Matrix(F, (), tuple(range(n)), []))
    if m == n:
        return from_generator(Matrix.identity(F, tuple(range(n))))
    if n > F.q + 1:
        raise FieldTooSmall(f"U_{{{m},{n}}} needs q >= {n - 1}, got q={F.q}")
    cols = []
    for t in range(min(n, F.q)):
        cols.append(tuple(F.pow(t, i) if t or i == 0 else 0 for i in range(m)))
    if n == F.q + 1:
        cols.append(unit_vectors(m)[m - 1])
    return from_generator(Matrix(F, range(m), range(n), transpose(cols, m)))


# ---------------------------------------------------------------------------
# graphic and bicircular matroids
# ---------------------------------------------------------------------------

def graphic(G: Graph, F: FiniteField) -> ReprMatroid:
    """Cycle matroid M(G): signed vertex-edge incidence matrix over F.

    Orientation is lexicographic (the smaller endpoint gets +1); any other
    orientation gives a projectively equivalent representation.
    """
    rows = []
    for v in G.vertices:
        row = []
        for (a, b) in G.edges:
            if v == a:
                row.append(1)
            elif v == b:
                row.append(F.neg(1))
            else:
                row.append(0)
        rows.append(row)
    return from_generator(Matrix(F, G.vertices, tuple(range(len(G.edges))), rows))


def bicircular(G: Graph):
    """The rank function of BM(G) on sets S of indices into G.edges.

    A set of edges is independent iff every component of the subgraph it
    spans contains at most one cycle.  So a component of that subgraph adds
    |V_c| to the rank if it has a cycle and |E_c| = |V_c| - 1 if it is a
    tree: min(|V_c|, |E_c|) either way (Matthews, "Bicircular matroids",
    Quart. J. Math. 1977)."""
    edges = G.edges

    def rank(S):
        chosen = [edges[i] for i in S]
        verts = {v for e in chosen for v in e}
        return sum(min(len(vs), len(es)) for vs, es in _components(verts, chosen))

    return rank


# ---------------------------------------------------------------------------
# Reid geometries
# ---------------------------------------------------------------------------

def reid(F: FiniteField, lines=None) -> ReprMatroid:
    """Rank-3 restriction of PG(2, F): two full lines through a common
    point plus two extra points of a third line through that point.

    Default pinned coordinates: e = (1,0,0); the full lines pass through
    (0,1,0) and (0,0,1); the extra points a = (0,1,1) and b = (1,1,1) lie
    on the third line spanned by e and (0,1,1).  2q+3 points.
    """
    if F.q < 2:
        raise FieldTooSmall("q >= 2 required")
    if lines is None:
        d1, d3, a, b = (0, 1, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)
    else:
        d1, d3, a, b = lines
    e = (1, 0, 0)
    normalize = normalizer(F)

    def span_points(u, v):
        # normalized points of the projective line through u and v
        return [normalize(combine(F, st, (u, v)))
                for st in product(F.elements(), repeat=2) if any(st)]

    # dict.fromkeys drops repeated points and keeps first-seen order
    pts = list(dict.fromkeys(span_points(e, d1) + span_points(e, d3)
                             + [tuple(a), tuple(b)]))
    if len(pts) != 2 * F.q + 3:
        raise ValueError("chosen points do not form a Reid configuration")
    return from_generator(Matrix(F, range(3), range(len(pts)), transpose(pts, 3)))


# ---------------------------------------------------------------------------
# frame matrices and frame matroids
# ---------------------------------------------------------------------------

def gamma_frame_full(r: int, gamma: MultSubgroup) -> ReprMatroid:
    """All unit columns e_i plus all e_i - g*e_j (i < j, g in Gamma):
    the largest simple frame matroid of rank r for this subgroup.
    Exactly r + |Gamma| * C(r, 2) columns."""
    if r < 1:
        raise ValueError("rank must be >= 1")
    F = gamma.field
    cols = unit_vectors(r)
    for i in range(r):
        for j in range(i + 1, r):
            for g in sorted(gamma.elements):
                col = [0] * r
                col[i] = 1
                col[j] = F.neg(g)
                cols.append(tuple(col))
    return from_generator(Matrix(F, range(r), range(len(cols)), transpose(cols, r)))
