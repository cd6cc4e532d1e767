"""Finite fields GF(p^k) with integer-coded elements.

An element is the integer whose little-endian base-p digits are the
coefficients of its polynomial representative; GF(p) elements are just
0..p-1, and on those codes field arithmetic agrees with arithmetic mod p.
For k > 1 the modulus is the monic irreducible polynomial of degree k
over GF(p) whose non-leading coefficients, read as a little-endian base-p
integer, are smallest.  Fixing the modulus this way keeps element codes
reproducible across runs and machines, which matters because matrices are
serialized as raw codes.

Every field has one representation of its cyclic multiplicative group:
exp[i] = g^i for 0 <= i < 2(q-1), where g = generator() is the smallest
primitive element, and log[a] = the i < q-1 with g^i = a.  Products,
inverses, powers, discrete logs and orders are index arithmetic on them.
Addition is XOR over characteristic 2, mod p over a prime field, and by
Zech logarithms Z(i) = log(1 + g^i) otherwise (Huber, IEEE Trans. IT
1990).  Fields with q <= 256 also keep q x q addition and multiplication
tables, built from these, as a lookup is faster there.

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
from math import gcd, isqrt

import numpy as np

from .errors import CapExceeded, DegreeZero, NotASubfield, NotPrime

DEFAULT_ORDER_CAP = 1 << 16
_TABLE_MAX = 256  # build full q x q tables only up to this order


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p); polys are little-endian coefficient tuples
# ---------------------------------------------------------------------------

def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return [c % p for c in out]


def _poly_mod(a, m, p):
    """a modulo the monic m, as len(m) - 1 coefficients when a is longer."""
    a = list(a)
    while len(a) >= len(m):
        lead = a.pop()
        shift = len(a) - len(m) + 1
        for i, mi in enumerate(m[:-1]):
            a[shift + i] = (a[shift + i] - lead * mi) % p
    return a


def _is_irreducible(poly, p):
    """Trial division by every monic polynomial of degree <= deg/2."""
    deg = len(poly) - 1
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        for code in range(p ** d):
            div = _digits(code, p, d) + [1]
            if not any(_poly_mod(poly, div, p)):
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
    cands = (_digits(code, p, k) + [1] for code in range(p ** k))
    return tuple(next(c for c in cands if _is_irreducible(c, p)))


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
        self.p, self.k, self.q = p, k, p ** k
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
        n = q - 1
        self._gen = self._primitive()
        exp = self._powers(self._gen)
        log = np.zeros(q, dtype=np.int64)
        log[exp] = np.arange(n)
        # exp spans two periods, so a sum of two logs indexes it unreduced;
        # log[0] is a placeholder, as every caller handles 0 first
        self.exp = exp.tolist() * 2
        self.log = log.tolist()
        self._half = n // 2 if p > 2 else 0  # -1 = g^half
        self.add_t = self.mul_t = self._zech = None
        if q <= _TABLE_MAX:
            weights = p ** np.arange(k)
            digits = np.arange(q)[:, None] // weights % p
            self.add_t = ((digits[:, None] + digits[None]) % p @ weights).tolist()
            mul = np.tile(exp, 2)[log[:, None] + log[None]]
            mul[0] = mul[:, 0] = 0
            self.mul_t = mul.tolist()
        elif p > 2 and k > 1:
            # 1 + g^i adds 1 to the lowest digit, and is 0 at i = half;
            # doubled, zech[i] = Z(i) for -n < i < 2n (negative i wrap)
            zech = log[exp - exp % p + (exp + 1) % p].tolist()
            zech[self._half] = None
            self._zech = zech * 2
        self.axpy, self.scale = self._row_kernel()

    def _primitive(self):
        """The smallest code g with g^((q-1)/l) != 1 for each prime l | q-1."""
        n = self.q - 1
        cofactors = [n // l for l in _divisors(n) if is_prime(l)]

        def power(a, e):
            out = 1
            while e:
                if e & 1:
                    out = self._mul_raw(out, a)
                a = self._mul_raw(a, a)
                e >>= 1
            return out

        return next(a for a in range(1, self.q) if all(power(a, e) != 1 for e in cofactors))

    def _powers(self, g):
        """g^0, ..., g^(q-2) as a numpy array.  Multiplying by g is a linear
        map A of digit vectors (row j: the digits of g*x^j), so the digits
        of g^(i+m) are those of g^i times A^m: the list doubles per step."""
        p, k, n = self.p, self.k, self.q - 1
        A = np.array([_digits(self._mul_raw(g, p ** j), p, k) for j in range(k)],
                     dtype=np.int64)
        rows = np.eye(1, k, dtype=np.int64)  # the digits of g^0 = 1
        while len(rows) < n:
            rows = np.concatenate([rows, rows @ A % p])
            A = A @ A % p
        return rows[:n] @ p ** np.arange(k)

    def _row_kernel(self):
        """(axpy, scale): axpy(f, xs, ys) is the list x + f*y and scale(f, xs)
        the list f*x, over row lists of equal length, with f != 0 for axpy.

        The implementation is chosen once, from (p, k, q): GF(2) adds rows
        by XOR, ignoring f, and a prime field reduces mod p; a tabled field
        looks up f's row of mul_t once per call, then add_t; any other adds
        logs to multiply, then adds by XOR (p = 2) or by Zech logs."""
        p, k = self.p, self.k
        mul_t, add_t = self.mul_t, self.add_t
        exp, log = self.exp, self.log
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
            if p == 2:
                def axpy(f, xs, ys):
                    lf = log[f]
                    return [x ^ exp[lf + log[y]] if y else x for x, y in zip(xs, ys)]
            else:
                plus = self._plus

                def axpy(f, xs, ys):
                    lf = log[f]
                    return [plus(x, lf + log[y]) if y else x for x, y in zip(xs, ys)]

            def scale(f, xs):
                lf = log[f]
                return [exp[lf + log[x]] if x else 0 for x in xs]
        return axpy, scale

    # the row kernel is closures, which do not pickle: rebuild the field
    def __reduce__(self):
        return FiniteField, (self.p, self.k, self.modulus)

    def _mul_raw(self, a, b):
        """a*b by polynomial arithmetic; used only to find g and build exp."""
        p, k = self.p, self.k
        if k == 1:
            return (a * b) % p
        prod = _poly_mul(_digits(a, p, k), _digits(b, p, k), p)
        return _undigits(_poly_mod(prod, self.modulus, p), p)

    def _plus(self, x, t):
        """x + g^t for 0 <= t < 2(q-1), over an untabled extension field of
        odd p: x + g^t = g^lx * (1 + g^(t - lx)) = g^(lx + Z(t - lx))."""
        if not x:
            return self.exp[t]
        lx = self.log[x]
        z = self._zech[t - lx]
        return 0 if z is None else self.exp[lx + z]

    # ------------------------------------------------------------------
    # arithmetic on integer codes
    # ------------------------------------------------------------------
    def add(self, a, b):
        t = self.add_t
        if t is not None:
            return t[a][b]
        if self.k == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        return self._plus(a, self.log[b]) if b else a

    def neg(self, a):
        return self.exp[self.log[a] + self._half] if a else 0

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        t = self.mul_t
        if t is not None:
            return t[a][b]
        return self.exp[self.log[a] + self.log[b]] if a and b else 0

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self.exp[self.q - 1 - self.log[a]]

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e):
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("0 has no inverse")
            return 0 if e else 1
        return self.exp[self.log[a] * e % (self.q - 1)]

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
        return (self.q - 1) // gcd(self.log[a], self.q - 1)

    def generator(self):
        """Smallest code generating the (cyclic) multiplicative group."""
        return self._gen

    def dlog(self, a):
        """Discrete log base generator(); a must be nonzero."""
        if a == 0:
            raise ZeroDivisionError("dlog of 0")
        return self.log[a]

    def subfield_codes(self, d):
        """Codes of the subfield of order p^d: 0 and the subgroup of order
        p^d - 1, whose logs are the multiples of (q-1)/(p^d-1)."""
        if self.k % d != 0:
            raise NotASubfield(f"GF({self.p}^{d}) is not a subfield of {self!r}")
        n = self.q - 1
        return frozenset([0, *self.exp[:n:n // (self.p ** d - 1)]])

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
        F, S = self.field, self.elements
        if 1 not in S:
            raise ValueError("subgroup must contain 1")
        n = F.q - 1
        if n % len(S) != 0:
            raise ValueError("subgroup order must divide q-1")
        # F^x is cyclic: its one subgroup of order m = |S| is the g^i with
        # n/m dividing i, and S is a subgroup exactly when it lies inside it
        step = n // len(S)
        if not all(0 < a <= n and F.log[a] % step == 0 for a in S):
            raise ValueError("not a subgroup: not closed under product or inverse")

    @property
    def order(self):
        return len(self.elements)

    def __contains__(self, code):
        return code in self.elements

    def __repr__(self):
        return f"MultSubgroup(order={self.order} in {self.field!r})"


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def subgroup_of_order(F: FiniteField, m: int) -> MultSubgroup:
    """The unique multiplicative subgroup of order m (m must divide q-1)."""
    n = F.q - 1
    if m < 1 or n % m != 0:
        raise ValueError(f"{m} does not divide q-1={n}")
    return MultSubgroup(F, frozenset(F.exp[:n:n // m]))


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
