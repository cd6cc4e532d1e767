from itertools import combinations
import pickle
import random

import pytest

from oracles import PolyField, prime_subfield

from matroidlab.errors import CapExceeded, DegreeZero, NotASubfield, NotPrime
from matroidlab.field import (
    FiniteField,
    MultSubgroup,
    _embedding,
    make_field,
    mult_subgroups,
    subfield_lattice,
    subgroup_of_order,
)

AXIOM_FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2), (2, 4), (7, 1)]


def test_gf2_elements():
    F = make_field(2, 1)
    assert list(F.elements()) == [0, 1]
    assert F.add(1, 1) == 0
    assert F.mul(1, 1) == 1


def test_gf4_generator_order_three():
    F = make_field(2, 2)
    assert F.q == 4
    g = F.generator()
    assert F.element_order(g) == 3
    # brute-force every nonzero order
    orders = sorted(F.element_order(a) for a in F.nonzero())
    assert orders == [1, 3, 3]


def test_not_prime_rejected():
    with pytest.raises(NotPrime):
        make_field(4, 1)


def test_degree_zero_rejected():
    with pytest.raises(DegreeZero):
        make_field(2, 0)


def test_order_cap():
    with pytest.raises(CapExceeded):
        make_field(2, 17)


@pytest.mark.parametrize("p,k", AXIOM_FIELDS)
def test_field_axioms_exhaustive(p, k):
    F = make_field(p, k)
    els = list(F.elements())
    for a in els:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.mul(a, 0) == 0
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
    for a in els:
        for b in els:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in els:
                assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_modulus_deterministic():
    assert make_field(2, 3).modulus == (1, 1, 0, 1)  # x^3 + x + 1
    assert make_field(3, 2).modulus == (1, 0, 1)  # x^2 + 1
    F1, F2 = make_field(2, 4), make_field(2, 4)
    assert F1.modulus == F2.modulus


def test_subfield_lattice_gf2():
    lat = subfield_lattice(make_field(2, 1))
    assert len(lat) == 1 and lat[0].sub.q == 2


def test_subfield_lattice_gf16_degrees():
    degs = [e.sub.k for e in subfield_lattice(make_field(2, 4))]
    assert degs == [1, 2, 4]


def test_prime_subfield_gf9():
    emb = prime_subfield(make_field(3, 2))
    assert emb.sub.q == 3


@pytest.mark.parametrize("p,k", [(2, 2), (2, 4), (3, 2), (2, 3)])
def test_embeddings_are_homomorphisms(p, k):
    F = make_field(p, k)
    for emb in subfield_lattice(F):
        sub = emb.sub
        assert emb.embed(0) == 0 and emb.embed(1) == 1
        for a in sub.elements():
            for b in sub.elements():
                assert emb.embed(sub.add(a, b)) == F.add(emb.embed(a), emb.embed(b))
                assert emb.embed(sub.mul(a, b)) == F.mul(emb.embed(a), emb.embed(b))


@pytest.mark.parametrize("p,k,modulus", [(2, 1, None), (3, 1, None), (5, 2, None),
                                         (2, 3, (1, 0, 1, 1)), (2, 16, None)])
def test_self_embedding_is_identity(p, k, modulus):
    # template files name F0 by (p, k) only, so F0 = F reads back through
    # this embedding; GF(2^16) must not pay for a root search
    F = FiniteField(p, k, modulus=modulus)
    emb = _embedding(F, F)
    assert (emb.sub, emb.parent, emb.fwd) == (F, F, tuple(F.elements()))


def test_mult_subgroups_gf2():
    subs = mult_subgroups(make_field(2, 1))
    assert len(subs) == 1 and subs[0].elements == frozenset({1})


def test_mult_subgroups_gf7_orders():
    orders = [g.order for g in mult_subgroups(make_field(7, 1))]
    assert orders == [1, 2, 3, 6]


def test_mult_subgroups_gf4_orders():
    orders = [g.order for g in mult_subgroups(make_field(2, 2))]
    assert orders == [1, 3]


@pytest.mark.parametrize("p,k", [(2, 2), (3, 1), (5, 1), (2, 3), (3, 2)])
def test_subgroup_orders_are_exactly_divisors(p, k):
    F = make_field(p, k)
    n = F.q - 1
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    subs = mult_subgroups(F)
    assert [g.order for g in subs] == divisors
    for g in subs:
        # closure is re-verified by the constructor; spot-check inverses
        for a in g.elements:
            assert F.inv(a) in g.elements


def test_subgroup_of_order_rejects_nondivisor():
    with pytest.raises(ValueError):
        subgroup_of_order(make_field(7, 1), 4)


def test_subfield_codes_match_embedding_image():
    F = make_field(2, 4)
    for emb in subfield_lattice(F):
        assert F.subfield_codes(emb.sub.k) == emb.image()


def test_subfield_codes_rejects_nondivisor_degree():
    with pytest.raises(NotASubfield):
        make_field(2, 4).subfield_codes(3)


@pytest.mark.parametrize("p", [257, 65521])
def test_large_prime_field_matches_integer_arithmetic(p):
    F = make_field(p, 1)
    assert F.add_t is None  # above the table cap: the untabled path
    rng = random.Random(p)
    for _ in range(2000):
        a, b = rng.randrange(p), rng.randrange(p)
        assert F.add(a, b) == (a + b) % p
        assert F.sub(a, b) == (a - b) % p
        assert F.neg(a) == -a % p
        assert F.mul(a, b) == a * b % p


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (3, 2), (257, 1), (2, 9), (3, 6)])
def test_field_pickles_with_its_row_kernel(p, k):
    F = make_field(p, k)
    G = pickle.loads(pickle.dumps(F))
    assert G == F and (G.add_t, G.mul_t) == (F.add_t, F.mul_t)
    xs, ys = [1, 0, 1, F.q - 1], [1, 1, 0, 1]
    assert G.axpy(1, xs, ys) == F.axpy(1, xs, ys)
    assert G.scale(F.q - 1, xs) == F.scale(F.q - 1, xs)


def _check_against_oracle(F, units, xs, ys, fs):
    """F's unary operations on the codes units, its binary ones on the pairs
    of xs and ys, and its row kernel on units with each scalar of fs,
    against the polynomial definition."""
    O = PolyField(F)
    assert O.add(xs, ys).tolist() == [F.add(a, b) for a, b in zip(xs, ys)]
    assert O.sub(xs, ys).tolist() == [F.sub(a, b) for a, b in zip(xs, ys)]
    assert O.mul(xs, ys).tolist() == [F.mul(a, b) for a, b in zip(xs, ys)]
    nonzero = [a for a in units if a]
    assert O.neg(units).tolist() == [F.neg(a) for a in units]
    assert O.inv(nonzero).tolist() == [F.inv(a) for a in nonzero]
    for e in (0, 1, 2, 3, F.q - 2, F.q - 1, F.q, 2 * F.q + 5):
        assert O.pow(units, e).tolist() == [F.pow(a, e) for a in units]
    for e in (-1, -2, -F.q):
        assert O.pow(nonzero, e).tolist() == [F.pow(a, e) for a in nonzero]
    logs = [F.dlog(a) for a in nonzero]
    assert all(0 <= i < F.q - 1 for i in logs)
    assert O.pow(F.generator(), logs).tolist() == nonzero
    assert O.element_order(nonzero).tolist() == [F.element_order(a) for a in nonzero]
    rotated = units[1:] + units[:1]
    for f in fs:
        assert O.axpy(f, units, rotated).tolist() == F.axpy(f, units, rotated)
        assert O.scale(f, units).tolist() == F.scale(f, units)


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (2, 9)])
def test_field_matches_polynomial_definition_exhaustively(p, k):
    F = make_field(p, k)
    units = list(F.elements())
    _check_against_oracle(F, units, [a for a in units for _ in units], units * F.q,
                          F.nonzero())
    # the generator is the smallest code of order q-1
    orders = PolyField(F).element_order(units[1:]).tolist()
    assert F.generator() == 1 + orders.index(F.q - 1)


@pytest.mark.parametrize("p,k", [(3, 6), (2, 16), (65521, 1)])
def test_field_matches_polynomial_definition_on_samples(p, k):
    F = make_field(p, k)
    rng = random.Random(F.q)
    xs = [rng.randrange(F.q) for _ in range(3000)] + [0, 0, 1, F.q - 1]
    ys = [rng.randrange(F.q) for _ in range(3000)] + [0, 5, 0, F.q - 1]
    _check_against_oracle(F, xs[:500], xs, ys,
                          [1, F.q - 1] + [rng.randrange(1, F.q) for _ in range(20)])
    orders = PolyField(F).element_order(range(1, F.generator() + 1)).tolist()
    assert orders.index(F.q - 1) == F.generator() - 1


def test_generator_codes_are_pinned():
    # subgroup_of_order, construct gammaframe and confinement witnesses
    # read the generator, so its code is part of the output contract
    fields = {(2, 2): 2, (2, 8): 3, (3, 5): 3, (257, 1): 3, (2, 16): 3, (3, 10): 34,
              (65521, 1): 17}
    assert {pk: make_field(*pk).generator() for pk in fields} == fields


@pytest.mark.parametrize("modulus", [(1, 1, 0), (1, 0, 1, 1, 0), (1, 1, 2)])
def test_modulus_must_be_monic_of_degree_k(modulus):
    with pytest.raises(ValueError, match="monic of degree k"):
        FiniteField(2, 3, modulus=modulus)


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError, match="reducible"):
        FiniteField(2, 3, modulus=(1, 0, 0, 1))  # x^3 + 1 = (x + 1)(x^2 + x + 1)


@pytest.mark.parametrize("p,k", [(2, 2), (7, 1), (2, 9), (3, 6)])
def test_zero_has_no_inverse_log_or_order(p, k):
    F = make_field(p, k)
    for op in (F.inv, F.dlog, F.element_order):
        with pytest.raises(ZeroDivisionError):
            op(0)


@pytest.mark.parametrize("codes,message", [
    ({2, 4}, "must contain 1"),
    ({1, 2, 4, 6}, "must divide q-1"),
    ({1, 2}, "not closed"),
    ({1, 3, 5}, "not closed"),
    ({0, 1}, "not closed"),
])
def test_mult_subgroup_refusals(codes, message):
    with pytest.raises(ValueError, match=message):
        MultSubgroup(make_field(7, 1), frozenset(codes))


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_mult_subgroup_accepts_exactly_the_closed_sets(p, k):
    # every set of codes, against the closure check by the polynomial definition
    F = make_field(p, k)
    O = PolyField(F)
    for r in range(F.q + 1):
        for S in map(frozenset, combinations(F.elements(), r)):
            closed = (1 in S and (F.q - 1) % len(S) == 0 and 0 not in S
                      and all(O.mul(a, b) in S for a in S for b in S))
            try:
                MultSubgroup(F, S)
            except ValueError:
                assert not closed
            else:
                assert closed


@pytest.mark.parametrize("p,k", [(2, 9), (3, 6), (2, 16)])
def test_subgroup_of_order_is_the_orbit_of_a_generator_power(p, k):
    F = make_field(p, k)
    n = F.q - 1
    for m in [m for m in range(1, n + 1) if n % m == 0][:6]:
        h, orbit, x = F.pow(F.generator(), n // m), set(), 1
        for _ in range(m):
            orbit.add(x)
            x = F.mul(x, h)
        assert subgroup_of_order(F, m).elements == frozenset(orbit)
        if 1 < m < n:  # swap one element for a non-element
            outside = next(a for a in F.nonzero() if a not in orbit)
            with pytest.raises(ValueError, match="not closed"):
                MultSubgroup(F, frozenset((orbit - {max(orbit)}) | {outside}))


def test_subgroup_check_is_linear_in_the_order():
    # a closure loop over all pairs takes tens of seconds here
    F = make_field(2, 16)
    assert subgroup_of_order(F, F.q - 1).order == F.q - 1
    assert subgroup_of_order(make_field(2, 10), 1023).order == 1023
