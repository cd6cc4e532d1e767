"""Finite fields GF(p^k) with integer-coded elements.

An element is the integer whose little-endian base-p digits are the
coefficients of its polynomial representative; GF(p) elements are just
0..p-1, and on those codes field arithmetic agrees with arithmetic mod p.
For k > 1 the modulus is the monic irreducible polynomial of degree k
over GF(p) whose non-leading coefficients, read as a little-endian base-p
integer, are smallest.  Fixing the modulus this way keeps element codes
reproducible across runs and machines, which matters because matrices are
serialized as raw codes.

Every field also carries the row kernel of the library's eliminations:
F.axpy(f, xs, ys), the list x + f*y, and F.scale(f, xs), the list f*x.
Both take row lists of equal length; axpy needs f != 0, since over GF(2)
it adds rows by XOR and ignores f.  Each field picks its implementation
once, from p, k and q (see _row_kernel).

Multiplicative subgroups and subfield embeddings live here too; both are
needed by frame matrices and by subfield confinement.
"""

from dataclasses import dataclass
from functools import lru_cache

from .errors import CapExceeded, DegreeZero, NotASubfield, NotPrime

DEFAULT_ORDER_CAP = 1 << 16
_TABLE_MAX = 256  # build full q x q tables only below this order


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p); polys are little-endian coefficient tuples
# ---------------------------------------------------------------------------

def _poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a, m, p):
    # m monic
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i, mi in enumerate(m):
                a[shift + i] = (a[shift + i] - lead * mi) % p
        a.pop()
    return _poly_trim(a)


def _poly_divisible(a, m, p):
    return not _poly_mod(a, m, p)


def _is_irreducible(poly, p):
    """Trial division by every monic polynomial of degree <= deg/2."""
    deg = len(poly) - 1
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        for code in range(p ** d):
            div = _digits(code, p, d) + [1]
            if _poly_divisible(poly, div, p):
                return False
    return True


def _digits(code, p, k):
    out = []
    for _ in range(k):
        out.append(code % p)
        code //= p
    return out


def _undigits(digits, p):
    code = 0
    for d in reversed(digits):
        code = code * p + d
    return code


@lru_cache(maxsize=None)
def _least_irreducible(p: int, k: int) -> tuple:
    for code in range(p ** k):
        cand = _digits(code, p, k) + [1]
        if _is_irreducible(cand, p):
            return tuple(cand)
    raise AssertionError("no irreducible polynomial found")  # unreachable


class FiniteField:
    """GF(p^k).  Immutable; safe to share between threads."""

    def __init__(self, p, k, modulus=None):
        if k < 1:
            raise DegreeZero(f"extension degree must be >= 1, got {k}")
        # The cap comes before the primality test, whose trial division
        # runs to sqrt(p), and p ** k is built only for small p and k: with
        # p >= 2, a k as long as the cap's bit length already exceeds it.
        if p >= 2 and (p > DEFAULT_ORDER_CAP or k >= DEFAULT_ORDER_CAP.bit_length()
                       or p ** k > DEFAULT_ORDER_CAP):
            order = p ** k if k == 1 or (p <= DEFAULT_ORDER_CAP and k <= 64) else f"{p}^{k}"
            raise CapExceeded(f"field order {order} exceeds cap {DEFAULT_ORDER_CAP}")
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        q = p ** k
        self.p = p
        self.k = k
        self.q = q
        if k == 1:
            self.modulus = None
        else:
            self.modulus = tuple(modulus) if modulus is not None else _least_irreducible(p, k)
            if len(self.modulus) != k + 1 or self.modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree k")
            if not _is_irreducible(list(self.modulus), p):
                raise ValueError("modulus is reducible")
        self._init_tables()

    def _init_tables(self):
        p, k, q = self.p, self.k, self.q
        if q <= _TABLE_MAX:
            if k == 1:
                self.add_t = [[(a + b) % p for b in range(q)] for a in range(q)]
                self.mul_t = [[(a * b) % p for b in range(q)] for a in range(q)]
            else:
                self.add_t = [
                    [self._add_raw(a, b) for b in range(q)] for a in range(q)
                ]
                self.mul_t = [
                    [self._mul_raw(a, b) for b in range(q)] for a in range(q)
                ]
            self.neg_t = [self.add_t[a].index(0) for a in range(q)]
            inv = [0] * q
            for a in range(1, q):
                inv[a] = self.mul_t[a].index(1)
            self.inv_t = inv
        else:
            self.add_t = self.mul_t = self.neg_t = self.inv_t = None
        self._dlog = None
        self._gen = None
        self.axpy, self.scale = self._row_kernel()

    def _row_kernel(self):
        """(axpy, scale): axpy(f, xs, ys) is the list x + f*y and scale(f, xs)
        the list f*x, over row lists of equal length, with f != 0 for axpy.

        The implementation is chosen once, from (p, k, q): GF(2) adds rows
        by XOR, ignoring f, and a prime field reduces mod p; an extension
        field with tables looks up f's row of mul_t once per call, then
        add_t; one above the table limit keeps the scalar digit arithmetic."""
        p, k = self.p, self.k
        mul_t, add_t = self.mul_t, self.add_t
        if k == 1:
            if p == 2:
                def axpy(f, xs, ys):
                    return [x ^ y for x, y in zip(xs, ys)]
            else:
                def axpy(f, xs, ys):
                    return [(x + f * y) % p for x, y in zip(xs, ys)]

            def scale(f, xs):
                return [f * x % p for x in xs]
        elif mul_t is not None:
            def axpy(f, xs, ys):
                mf = mul_t[f]
                return [add_t[x][mf[y]] for x, y in zip(xs, ys)]

            def scale(f, xs):
                mf = mul_t[f]
                return [mf[x] for x in xs]
        else:
            add, mul = self._add_raw, self._mul_raw

            def axpy(f, xs, ys):
                return [add(x, mul(f, y)) for x, y in zip(xs, ys)]

            def scale(f, xs):
                return [mul(f, x) for x in xs]
        return axpy, scale

    # the row kernel is closures, which do not pickle: rebuild the field
    def __reduce__(self):
        return FiniteField, (self.p, self.k, self.modulus)

    # raw digit arithmetic, used to build tables and for big fields
    def _add_raw(self, a, b):
        p, k = self.p, self.k
        if k == 1:
            return (a + b) % p
        da, db = _digits(a, p, k), _digits(b, p, k)
        return _undigits([(x + y) % p for x, y in zip(da, db)], p)

    def _mul_raw(self, a, b):
        p, k = self.p, self.k
        if k == 1:
            return (a * b) % p
        prod = _poly_mul(_digits(a, p, k), _digits(b, p, k), p)
        red = _poly_mod(prod, list(self.modulus), p)
        return _undigits(red + [0] * (k - len(red)), p)

    # ------------------------------------------------------------------
    # arithmetic on integer codes
    # ------------------------------------------------------------------
    def add(self, a, b):
        return self.add_t[a][b] if self.add_t is not None else self._add_raw(a, b)

    def neg(self, a):
        if self.neg_t is not None:
            return self.neg_t[a]
        p, k = self.p, self.k
        if k == 1:
            return -a % p
        return _undigits([(-d) % p for d in _digits(a, p, k)], p)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        return self.mul_t[a][b] if self.mul_t is not None else self._mul_raw(a, b)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        if self.inv_t is not None:
            return self.inv_t[a]
        return self.pow(a, self.q - 2)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e):
        if e < 0:
            a, e = self.inv(a), -e
        out, base = 1, a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def elements(self):
        return range(self.q)

    def nonzero(self):
        return range(1, self.q)

    # ------------------------------------------------------------------
    # multiplicative structure
    # ------------------------------------------------------------------
    def element_order(self, a):
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative order")
        x, n = a, 1
        while x != 1:
            x = self.mul(x, a)
            n += 1
        return n

    def generator(self):
        """Smallest code generating the (cyclic) multiplicative group."""
        if self._gen is None:
            target = self.q - 1
            for a in self.nonzero():
                if self.element_order(a) == target:
                    self._gen = a
                    break
        return self._gen

    def dlog(self, a):
        """Discrete log base generator(); a must be nonzero."""
        if a == 0:
            raise ZeroDivisionError("dlog of 0")
        if self._dlog is None:
            g = self.generator()
            table = {}
            x = 1
            for i in range(self.q - 1):
                table[x] = i
                x = self.mul(x, g)
            self._dlog = table
        return self._dlog[a]

    def subfield_codes(self, d):
        """Codes of the subfield of order p^d, i.e. fixed points of x -> x^(p^d)."""
        if self.k % d != 0:
            raise NotASubfield(f"GF({self.p}^{d}) is not a subfield of {self!r}")
        q0 = self.p ** d
        return frozenset(a for a in self.elements() if self.pow(a, q0) == a)

    # ------------------------------------------------------------------
    def __eq__(self, other):
        return (
            isinstance(other, FiniteField)
            and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        return f"GF({self.q})"


@lru_cache(maxsize=None)
def make_field(p: int, k: int) -> FiniteField:
    """Construct GF(p^k) with the deterministic least irreducible modulus."""
    return FiniteField(p, k)


# ---------------------------------------------------------------------------
# multiplicative subgroups
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultSubgroup:
    """A subgroup of the multiplicative group, as a frozenset of codes."""

    field: FiniteField
    elements: frozenset

    def __post_init__(self):
        if 1 not in self.elements:
            raise ValueError("subgroup must contain 1")
        if (self.field.q - 1) % len(self.elements) != 0:
            raise ValueError("subgroup order must divide q-1")
        F = self.field
        for a in self.elements:
            if a == 0 or F.inv(a) not in self.elements:
                raise ValueError("not closed under inverse")
            for b in self.elements:
                if F.mul(a, b) not in self.elements:
                    raise ValueError("not closed under product")

    @property
    def order(self):
        return len(self.elements)

    def __contains__(self, code):
        return code in self.elements

    def __repr__(self):
        return f"MultSubgroup(order={self.order} in {self.field!r})"


def _divisors(n):
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def subgroup_of_order(F: FiniteField, m: int) -> MultSubgroup:
    """The unique multiplicative subgroup of order m (m must divide q-1)."""
    n = F.q - 1
    if n == 0:
        raise ValueError("GF(1) does not exist")
    if m < 1 or n % m != 0:
        raise ValueError(f"{m} does not divide q-1={n}")
    g = F.generator()
    h = F.pow(g, n // m)
    elems, x = set(), 1
    for _ in range(m):
        elems.add(x)
        x = F.mul(x, h)
    return MultSubgroup(F, frozenset(elems))


def mult_subgroups(F: FiniteField):
    """One subgroup per divisor of q-1 (the multiplicative group is cyclic)."""
    return [subgroup_of_order(F, m) for m in _divisors(F.q - 1)]


# ---------------------------------------------------------------------------
# subfields and embeddings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubfieldEmbedding:
    """Injective field homomorphism GF(p^d) -> GF(p^k), as a code table."""

    sub: FiniteField
    parent: FiniteField
    fwd: tuple  # fwd[c] = image code in parent, indexed by sub code

    def embed(self, code):
        return self.fwd[code]

    def image(self):
        return frozenset(self.fwd)

    def __repr__(self):
        return f"{self.sub!r} -> {self.parent!r}"


def _embedding(sub: FiniteField, parent: FiniteField) -> SubfieldEmbedding:
    p = parent.p
    if sub == parent:
        return SubfieldEmbedding(sub, parent, tuple(parent.elements()))
    if sub.p != p:
        raise NotASubfield(f"{sub!r} does not embed in {parent!r}")
    if sub.k == 1:
        # prime subfield: codes 0..p-1 already carry mod-p arithmetic
        return SubfieldEmbedding(sub, parent, tuple(range(p)))
    # deterministic: smallest root of sub's modulus inside parent
    beta = None
    for cand in parent.elements():
        acc = 0
        for coeff in reversed(sub.modulus):
            acc = parent.add(parent.mul(acc, cand), coeff)
        if acc == 0:
            beta = cand
            break
    if beta is None:
        raise NotASubfield(f"{sub!r} does not embed in {parent!r}")
    powers = [parent.pow(beta, i) for i in range(sub.k)]
    fwd = []
    for code in sub.elements():
        acc = 0
        for digit, bp in zip(_digits(code, p, sub.k), powers):
            acc = parent.add(acc, parent.mul(digit, bp))
        fwd.append(acc)
    emb = SubfieldEmbedding(sub, parent, tuple(fwd))
    if len(set(fwd)) != sub.q:
        raise AssertionError("embedding is not injective")
    return emb


def subfield_lattice(F: FiniteField):
    """One embedded subfield per divisor of k, smallest degree first."""
    return [_embedding(make_field(F.p, d), F) for d in _divisors(F.k)]
