import functools
import hashlib
import itertools
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_factor

from modcover import rings
from modcover._fp import combine
from modcover.cli import main
from modcover.dsl import parse_ring
from modcover.modules import direct_sum, free_module, quotient_module, submodule_generated
from modcover.rings import (
    RING_SIZE_GUARD,
    FiniteRing,
    Ideal,
    _Coordinates,
    _is_irreducible,
    _is_prime,
    _rotate,
    basis_vectors,
    ideal_generated,
    local_factorization,
    maximal_ideals,
    power_exceeds,
    quotient_ring,
    ring_gf,
    ring_product,
    ring_zmod,
    smallest_irreducible,
)

from oracles import (
    MIXED_PRODUCTS,
    PINNED_RINGS,
    POLY_DEGREES,
    additive_closure,
    corpus_modules,
    dense_images,
    dense_product,
    elements,
    factor_by_sweeps,
    is_field_by_power_walk,
    is_irreducible_by_search,
    large_ring_labels,
    local_factors,
    mask_of,
    maximal_ideal_masks,
    member_elements,
    monic_polynomials,
    nilpotents_by_squaring,
    poly_mulmod_table,
    poly_ring,
    residue_field,
    residue_field_by_snf,
    smallest_irreducible_by_search,
)


def prime_factors(n):
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def euler_phi(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


# -- Z/n ----------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(n=st.integers(2, 60), a=st.integers(0, 200), b=st.integers(0, 200))
def test_zmod_matches_integer_arithmetic(n, a, b):
    R = ring_zmod(n)
    x, y = ((a % n,), (b % n,))
    assert R.add(x, y) == ((a + b) % n,)
    assert R.mul(x, y) == ((a * b) % n,)
    assert R.sub(x, y) == ((a - b) % n,)
    assert R.sub(R.zero, x) == ((-a) % n,)


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 12, 30, 64])
def test_zmod_units_count_is_euler_phi(n):
    assert len(ring_zmod(n).units()) == euler_phi(n)


@pytest.mark.parametrize("n", range(2, 40))
def test_zmod_maximal_ideals_are_prime_divisors(n):
    # independent oracle: maximal ideals of Z/n are pZ/n for primes p | n
    R = ring_zmod(n)
    ideals = maximal_ideals(R)
    got = sorted((i.size, i.residue_size) for i in ideals)
    want = sorted((n // p, p) for p in prime_factors(n))
    assert got == want
    for i in ideals:
        members = {x[0] for x in member_elements(i)}
        p = i.residue_size
        assert members == {k for k in range(n) if k % p == 0}


def test_zmod_rejects_degenerate_moduli():
    for n in (0, 1, -2):
        with pytest.raises(ValueError):
            ring_zmod(n)


def test_ring_size_guard():
    from modcover.errors import GuardExceeded

    with pytest.raises((GuardExceeded, ValueError)):
        ring_zmod(5000)


def test_power_exceeds_is_the_plain_comparison():
    bounds = [0, 1, 2, 3, 255, 256, 4095, 4096, 2**20 - 1, 2**20, 2**20 + 1]
    for base in range(2, 12):
        for k in range(0, 70):
            for bound in bounds:
                assert power_exceeds(base, k, bound) == (base**k > bound), (base, k, bound)


# -- finite fields -----------------------------------------------------------


def test_smallest_irreducible_gf4():
    # lexicographically smallest monic irreducible of degree 2 over F_2
    assert tuple(smallest_irreducible(2, 2)) == (1, 1, 1)  # x^2 + x + 1


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (5, 2)])
def test_gf_is_a_field(p, k):
    F = ring_gf(p, k)
    q = p**k
    assert F.size == q
    assert len(F.units()) == q - 1
    ideals = maximal_ideals(F)
    assert len(ideals) == 1 and ideals[0].size == 1 and ideals[0].residue_size == q
    # multiplicative group is closed and has no zero divisors
    for x in elements(F):
        for y in elements(F):
            if x != F.zero and y != F.zero:
                assert F.mul(x, y) != F.zero


def test_gf4_generator_squares_to_x_plus_one():
    F = ring_gf(2, 2)
    x = (0, 1)
    assert F.mul(x, x) == (1, 1)


def test_smallest_irreducible_matches_the_factor_search():
    # every field the old search reached: p^k <= 4096 with k <= 8
    cases = [
        (p, k) for p in range(2, 4097) if _is_prime(p) for k in range(1, 9) if p**k <= 4096
    ]
    for p, k in cases:
        assert smallest_irreducible(p, k) == smallest_irreducible_by_search(p, k), (p, k)


@pytest.mark.parametrize("p,max_degree", [(2, 6), (3, 4), (5, 3), (7, 2)])
def test_irreducibility_matches_the_factor_search(p, max_degree):
    for k in range(1, max_degree + 1):
        for tail in itertools.product(range(p), repeat=k):
            f = list(tail) + [1]
            assert _is_irreducible(f, p) == is_irreducible_by_search(f, p), f


def test_gf_rejects_reducible_polynomial():
    with pytest.raises(ValueError):
        ring_gf(2, 2, (0, 0, 1))  # x^2 is reducible


@pytest.mark.parametrize(
    "text, message",
    [
        ("GF(2^2; f=1,0,1)", "GF(2^2): polynomial [1, 0, 1] is reducible"),
        ("GF(5^3; f=3,0,1,1)", "GF(5^3): polynomial [3, 0, 1, 1] is reducible"),
    ],
)
def test_gf_rejects_a_reducible_polynomial_by_name(text, message):
    # x^2 + 1 = (x + 1)^2 over F_2, and x^3 + x^2 + 3 has the root 1 over F_5
    with pytest.raises(ValueError) as excinfo:
        parse_ring(text)
    assert str(excinfo.value) == f"{message} at position 0:\n{text}\n^"


def _gf_degrees(bound) -> list:
    """Every (p, k) with p prime, k >= 1 and p^k <= bound."""
    primes = [p for p in range(2, bound + 1) if _is_prime(p)]
    return [(p, k) for p in primes for k in range(1, bound.bit_length()) if p**k <= bound]


def test_gf_table_is_the_table_of_polynomial_products():
    # the table read off x^0, ..., x^(2k-2) mod f is the k^2 products of
    # 1, x, ..., x^(k-1) mod f: for every monic irreducible f of degree
    # 2 to 8 with p^k <= 256, and for the default f up to the ring guard
    for p, k in _gf_degrees(256):
        if k < 2:
            continue
        for tail in itertools.product(range(p), repeat=k):
            f = list(tail) + [1]
            if _is_irreducible(f, p):
                assert rings._build_gf(p, k, f).table == poly_mulmod_table(f, p), (p, f)
    for p, k in _gf_degrees(RING_SIZE_GUARD):
        want = poly_mulmod_table(smallest_irreducible(p, k), p)
        assert rings._build_gf(p, k, None).table == want, (p, k)


def test_degree_one_polynomials_are_irreducible():
    # Z/p[x]/(x + c) is Z/p, so x itself is the smallest irreducible
    for p, k in _gf_degrees(RING_SIZE_GUARD):
        if k == 1:
            assert smallest_irreducible(p, 1) == [0, 1], p
    for p in (2, 3, 131, 4093):
        assert all(_is_irreducible([c, 1], p) for c in range(p)), p


def test_the_irreducibility_test_and_the_gf_table_form_no_product(monkeypatch):
    # both read Z/p[x]/(f) off the powers of x mod f, so neither squares
    # nor raises to the p-th power by a product
    def no_product(*args):
        raise AssertionError("a product was formed")

    monkeypatch.setattr(rings, "_frobenius", no_product)
    monkeypatch.setattr(rings, "_power", no_product)
    for q in sorted(POLY_DEGREES):
        if _is_prime(q):
            for f in monic_polynomials(q):
                assert _is_irreducible(f, q) == is_irreducible_by_search(f, q), (q, f)
    for p, k in _gf_degrees(RING_SIZE_GUARD):
        assert rings._build_gf(p, k, None).size == p**k, (p, k)


def test_gf_rejects_composite_characteristic():
    with pytest.raises(ValueError):
        ring_gf(4, 1)


def test_gf_polynomials_equal_mod_p_give_one_ring():
    R = parse_ring("GF(2^2; f=3,1,1)")
    assert R is parse_ring("GF(2^2; f=1,1,1)")
    assert R.label == "GF(2^2; f=1,1,1)"


def test_gf_custom_polynomial_label_round_trips():
    from modcover.dsl import parse_ring

    F = ring_gf(2, 3, (1, 1, 0, 1))  # x^3 + x + 1
    assert parse_ring(F.label).label == F.label


# -- products and CRT ---------------------------------------------------------


def test_product_maximal_ideals_come_from_factors():
    R = ring_product(ring_zmod(4), ring_zmod(9))
    got = sorted(i.residue_size for i in maximal_ideals(R))
    assert got == [2, 3]


def test_crt_z6_matches_f2_times_f3():
    A = ring_zmod(6)
    B = ring_product(ring_zmod(2), ring_zmod(3))
    fa = sorted((i.size, i.residue_size) for i in maximal_ideals(A))
    fb = sorted((i.size, i.residue_size) for i in maximal_ideals(B))
    assert fa == fb
    assert len(A.units()) == len(B.units())


def test_product_componentwise_ops():
    A, B = ring_zmod(3), ring_gf(2, 2)
    R = ring_product(A, B)
    for xa, xb in itertools.product(elements(A), elements(B)):
        for ya, yb in itertools.product(elements(A)[:2], elements(B)[:2]):
            x = xa + xb
            y = ya + yb
            assert R.mul(x, y) == A.mul(xa, ya) + B.mul(xb, yb)


# -- element-level axioms (basis-level checks extend bilinearly; this is belt
#    and suspenders on small rings) --------------------------------------------


@pytest.mark.parametrize(
    "make",
    [
        lambda: ring_zmod(12),
        lambda: ring_gf(2, 2),
        lambda: ring_gf(3, 2),
        lambda: ring_product(ring_zmod(4), ring_zmod(3)),
        lambda: ring_product(ring_gf(2, 2), ring_zmod(2)),
    ],
)
def test_exhaustive_ring_axioms(make):
    R = make()
    assert R.size <= 64
    elems = elements(R)
    for x in elems:
        assert R.mul(R.one, x) == x
        assert R.mul(x, R.zero) == R.zero
    for x, y in itertools.product(elems, repeat=2):
        assert R.mul(x, y) == R.mul(y, x)
    for x, y, z in itertools.product(elems, repeat=3):
        assert R.mul(R.mul(x, y), z) == R.mul(x, R.mul(y, z))
        assert R.mul(x, R.add(y, z)) == R.add(R.mul(x, y), R.mul(x, z))


# -- ideals and quotients -------------------------------------------------------


def test_ideal_generated_brute_force_oracle():
    # oracle: I = {r*g1 + s*g2 : r, s in R} for small rings
    R = ring_zmod(12)
    for g1 in elements(R):
        I = ideal_generated(R, [g1])
        want = {R.mul(r, g1) for r in elements(R)}
        assert set(member_elements(I)) == want


def test_zero_ideal_is_zero():
    R = ring_zmod(6)
    assert Ideal(R, 1, ()).size == 1
    assert Ideal(R, 1, ()) == ideal_generated(R, [R.zero])


def test_quotient_of_z12_by_4_is_z4():
    R = ring_zmod(12)
    I = ideal_generated(R, [(4,)])
    Q, project, lift = quotient_ring(R, I)
    assert Q.size == 4
    assert Q.orders == (4,)
    # projection is a ring homomorphism
    for x in elements(R):
        for y in elements(R):
            assert project(R.mul(x, y)) == Q.mul(project(x), project(y))
            assert project(R.add(x, y)) == Q.add(project(x), project(y))
    assert project(R.one) == Q.one
    for c in elements(Q):
        assert project(lift(c)) == c


def test_quotient_by_unit_ideal_rejected():
    R = ring_zmod(6)
    I = ideal_generated(R, [R.one])
    with pytest.raises(ValueError):
        quotient_ring(R, I)


# -- local factorization ----------------------------------------------------------


@pytest.mark.parametrize("n", [12, 30, 8, 36, 49])
def test_local_factorization_of_zmod(n):
    R = ring_zmod(n)
    lf = local_factors(R)
    sizes = sorted(f.size for f in lf.factors)
    want = sorted(p ** prime_power(n, p) for p in prime_factors(n))
    assert sizes == want
    # idempotents are orthogonal and sum to 1
    total = R.zero
    for e in idempotents_of(R):
        assert R.mul(e, e) == e
        total = R.add(total, e)
    assert total == R.one
    # round trip through the factorization
    for x in elements(R):
        assert lf.iso_backward(lf.iso_forward(x)) == x


def prime_power(n, p):
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def test_maximal_ideals_of_gf_product():
    R = ring_product(ring_gf(2, 2), ring_gf(3))
    got = sorted(i.residue_size for i in maximal_ideals(R))
    assert got == [3, 4]


# -- ring structure by linear algebra, against the element sweeps -------------------


def idempotents_of(R) -> tuple:
    return tuple(f.idempotent for f in local_factorization(R))


def assert_matches_the_sweeps(R):
    idempotents, masks = factor_by_sweeps(R)
    assert idempotents_of(R) == idempotents, R.label
    assert tuple(f.members for f in local_factorization(R)) == masks, R.label
    assert [i.members for i in maximal_ideals(R)] == sorted(masks), R.label
    for ideal in maximal_ideals(R):
        assert is_field_by_power_walk(residue_field(ideal)[0]), R.label


@pytest.mark.parametrize("text", PINNED_RINGS + MIXED_PRODUCTS)
def test_local_factor_radical_spans_e_times_the_radical(text):
    # the radical J of a finite commutative ring is its nilradical, so eJ
    # is {e x : x nilpotent}, swept here; `all_submodules` reads it off
    # `LocalFactor.radical`
    R = parse_ring(text)
    nilpotents = nilpotents_by_squaring(R)
    for factor in local_factorization(R):
        e = factor.idempotent
        want = mask_of(R.index_of(R.mul(e, x)) for x in nilpotents)
        assert R.closure(factor.radical) == want, (R.label, e)
        assert all(any(a) for a in factor.radical), (R.label, e)


@pytest.mark.parametrize(
    "text", PINNED_RINGS + MIXED_PRODUCTS + [f"Z/{n}" for n in range(2, 65)]
)
def test_factorization_matches_the_element_sweeps(text):
    assert_matches_the_sweeps(parse_ring(text))


def test_factorization_matches_the_element_sweeps_on_large_ring_classes():
    labels = large_ring_labels()
    assert len(labels) == 330
    for text in labels:
        assert_matches_the_sweeps(parse_ring(text))


def sample_elements(x, rng, count=6) -> list:
    """Zero, the basis vectors and `count` random elements of a ring or
    module x; with its one for a ring."""
    sample = [x.zero, *basis_vectors(x.rank)]
    sample += [tuple(rng.randrange(d) for d in x.orders) for _ in range(count)]
    if isinstance(x, FiniteRing):
        sample.append(x.one)
    return sample


def dense_combination(x, vectors, orders) -> tuple:
    """Σ_t x_t vectors[t] mod orders, summed over every coordinate of the
    dense vectors, zero coefficients and entries included."""
    return tuple(sum(xt * y[s] for xt, y in zip(x, vectors)) % d for s, d in enumerate(orders))


class Unread:
    """A row that fails when read."""

    def __iter__(self):
        raise AssertionError("a row was read for a zero coefficient")


def test_combine_matches_the_dense_loop():
    # coefficients and entries negative and unreduced, as V and V⁻¹ carry,
    # over sparse rows and dense `enumerate` rows alike
    rng = random.Random(30)
    for _ in range(300):
        orders = tuple(rng.randrange(1, 13) for _ in range(rng.randrange(1, 6)))
        vectors = [
            tuple(rng.randrange(-40, 41) for _ in orders) for _ in range(rng.randrange(0, 6))
        ]
        x = [rng.choice([0, rng.randrange(-30, 31)]) for _ in vectors]
        want = dense_combination(x, vectors, orders)
        sparse = [[(s, v) for s, v in enumerate(y) if v] for y in vectors]
        assert combine(x, sparse, orders) == want
        assert combine(x, [tuple(enumerate(y)) for y in vectors], orders) == want
        assert all(0 <= v < d for v, d in zip(want, orders))


def test_combine_reads_no_row_for_a_zero_coefficient():
    assert combine((0, 0, 0), [Unread()] * 3, (4, 6)) == (0, 0)
    assert combine((0, 5), [Unread(), [(1, -3)]], (4, 6)) == (0, 3)


def test_combine_over_empty_orders_is_empty():
    # the trivial quotient's `project`: no kept column, so every row is empty
    assert combine((3, -1), [(), ()], ()) == ()
    assert combine((), [], ()) == ()


def assert_products_are_dense(x, rng):
    """`_product`, `images`, `row_image` and `multiples` of x agree with
    the dense bilinear loop, on ring elements a and elements of x, images
    in the same order."""
    ring = x if isinstance(x, FiniteRing) else x.ring
    scalars, elems = sample_elements(ring, rng), sample_elements(x, rng)
    for a in scalars:
        for y in elems:
            assert x._product(a, y) == dense_product(x, a, y)
        assert x.multiples(a) == [dense_product(x, a, e) for e in basis_vectors(x.rank)]
    assert x.images(elems) == dense_images(x, elems)
    bs = basis_vectors(ring.rank)
    assert [x.row_image(i, y) for y in elems for i in range(ring.rank)] == [
        dense_product(x, b, y) for y in elems for b in bs
    ]


def test_products_match_the_dense_loop_on_rings_and_residue_fields():
    rng = random.Random(19)
    labels = large_ring_labels() + PINNED_RINGS
    for text in labels:
        R = parse_ring(text)
        assert_products_are_dense(R, rng)
        for ideal in maximal_ideals(R):
            assert_products_are_dense(residue_field(ideal)[0], rng)


def test_products_match_the_dense_loop_on_modules():
    rng = random.Random(19)
    R = parse_ring("Z/4 x GF(2^2)")
    free = free_module(R, 2)
    gen = free.index_of((1, 0, 1, 0, 2, 1))
    quotient, _, _ = quotient_module(free, submodule_generated(free, [gen]))
    assert 1 < quotient.size < free.size
    extra = [quotient, direct_sum(quotient, free_module(R, 1))]
    for m in corpus_modules() + extra:
        assert_products_are_dense(m, rng)


def additive_order(R, x):
    return math.lcm(*(d // math.gcd(d, c) for c, d in zip(x, R.orders)))


# Z/q[x]/(f) that are not reduced, as (q, f) with f low degree first
NON_REDUCED_POLY_RINGS = [
    (2, (0, 0, 1, 1)),  # x^2 (x + 1)
    (4, (0, 0, 1)),  # x^2 over Z/4
    (2, (1, 0, 0, 0, 1)),  # (x + 1)^4
    (8, (1, 1, 1)),  # local, with residue field F_4
    (9, (0, 1, 1)),  # x (x + 1) over Z/9
    (3, (0, 0, 1, 0, 1)),  # x^2 (x^2 + 1)
]


@pytest.mark.parametrize(
    "spec",
    [f"Z/{n}" for n in range(2, 65)] + MIXED_PRODUCTS + NON_REDUCED_POLY_RINGS,
    ids=str,
)
def test_the_fixed_space_of_r_mod_p_counts_the_primitive_idempotents(spec):
    # In R/pR, x^p = x exactly on the F_p-span of its t primitive
    # idempotents, which lift to those of R_p. So {x : x^p - x in pR} is
    # p^t cosets of pR; counted over R's own elements and products alone
    R = parse_ring(spec) if isinstance(spec, str) else poly_ring(*spec)
    assert R.size <= 256
    idempotents = idempotents_of(R)
    for p in prime_factors(R.size):
        p_r = {R.scale(p, x) for x in elements(R)}
        fixed = sum(
            R.sub(functools.reduce(R.mul, [x] * p), x) in p_r for x in elements(R)
        )
        # e lies in R_p, that is e e_p = e, exactly when its additive order is
        # a power of p
        t = sum(prime_factors(additive_order(R, e)) == [p] for e in idempotents)
        assert fixed == p**t * len(p_r), (R.label, p)


@pytest.mark.parametrize("q", sorted(POLY_DEGREES))
def test_split_and_lift_on_polynomial_quotients(q):
    # Z/q[x]/(f), q = p^a: its maximal ideals are (p, g) for the distinct
    # irreducible factors g of f mod p, with residue field F_p[x]/(g)
    p = prime_factors(q)[0]
    for f in monic_polynomials(q):
        R = poly_ring(q, f)
        _, factors = gf_factor([c % p for c in reversed(f)], p, ZZ)
        want = sorted(p ** (len(g) - 1) for g, _ in factors)
        assert sorted(i.residue_size for i in maximal_ideals(R)) == want, f
        assert_matches_the_sweeps(R)


# sha256 over the coordinates of every residue field of PINNED_RINGS and of
# the rings Z/q[x]/(f) above. `construct_cover` walks a field's elements in
# these coordinates, so they order its certificates; a change that alters
# them on purpose re-records this. Recorded for the echelon fields: R/m is
# R/pR on the non-pivot columns of m's image, so 95 of the 618 fields,
# most of them of degree > 1 over a Z/q[x]/(f), read other coordinates
# than the Smith normal form gave
RESIDUE_FIELD_DIGEST = "3a262dcf699686152fdff35320996bf1fe0f3a663a94d92ba7cbe92b1d08fd35"


def test_residue_field_coordinates_are_pinned():
    pinned = [parse_ring(text) for text in PINNED_RINGS]
    polys = [poly_ring(q, f) for q in sorted(POLY_DEGREES) for f in monic_polynomials(q)]
    assert len(polys) == 433
    digest = hashlib.sha256()
    for R in pinned + polys:
        for ideal in maximal_ideals(R):
            field, project, _ = residue_field(ideal)
            images = [project(b) for b in basis_vectors(R.rank)]
            fact = (R.label, field.orders, field.table, field.one, images)
            digest.update(repr(fact).encode() + b"\n")
    assert digest.hexdigest() == RESIDUE_FIELD_DIGEST


def test_residue_fields_meet_their_definition():
    # every R/m of the pinned rings, of the Z/q[x]/(f) above and of the
    # benchmark's large rings, checked against what R/m must be rather
    # than against how it is built: |R|/|m| elements; project is additive
    # on every element and multiplicative on basis pairs, so a ring map,
    # and its kernel, by an element sweep, is m; lift is a section; and
    # R/m by a Smith normal form has the same size and is a field too
    polys = [poly_ring(q, f) for q in sorted(POLY_DEGREES) for f in monic_polynomials(q)]
    built = [parse_ring(text) for text in PINNED_RINGS + large_ring_labels()] + polys
    assert len(built) == 6 + 330 + 433
    checked = 0
    for R in built:
        bs = basis_vectors(R.rank)
        for ideal in maximal_ideals(R):
            field, project, lift = residue_field(ideal)
            assert field.size == R.size // ideal.size, R.label
            assert project(R.one) == field.one
            images = [project(b) for b in bs]
            for a, b in itertools.combinations_with_replacement(range(R.rank), 2):
                assert project(R.mul(bs[a], bs[b])) == field.mul(images[a], images[b])
            kernel = []
            for i, x in enumerate(elements(R)):
                y = project(x)
                want = field.zero
                for c, image in zip(x, images):
                    want = field.add(want, field.scale(c, image))
                assert y == want, (R.label, x)
                if y == field.zero:
                    kernel.append(i)
            assert mask_of(kernel) == ideal.members, R.label
            assert all(project(lift(y)) == y for y in field.iter_elements())
            by_snf, _, _ = residue_field_by_snf(ideal)
            assert by_snf.size == field.size
            assert is_field_by_power_walk(by_snf), R.label
            checked += 1
    assert checked == 1467


@pytest.mark.parametrize("text", ["GF(4093)", "Z/4096"])
def test_factor_sweeps_no_elements(text, monkeypatch):
    R = parse_ring(text)
    calls = []
    original = FiniteRing.mul

    def counted(self, x, y):
        calls.append(1)
        return original(self, x, y)

    monkeypatch.setattr(FiniteRing, "mul", counted)
    rings._factor(R)
    assert len(calls) < 200


# -- independent lattice oracle and global identities ------------------------------


def brute_ideal_masks(R):
    """Subset-filter oracle: subsets containing 0, closed under
    subtraction and multiplication by every ring element."""
    assert R.size <= 16
    elems = elements(R)
    zero_idx = R.index_of(R.zero)
    out = set()
    for bits in range(1 << R.size):
        if not bits >> zero_idx & 1:
            continue
        members = [i for i in range(R.size) if bits >> i & 1]
        ok = True
        for i in members:
            for j in members:
                if not bits >> R.index_of(R.sub(elems[i], elems[j])) & 1:
                    ok = False
                    break
            if not ok:
                break
            for r in elems:
                if not bits >> R.index_of(R.mul(r, elems[i])) & 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.add(bits)
    return out


@pytest.mark.parametrize(
    "make",
    [
        lambda: ring_zmod(12),
        lambda: ring_zmod(16),
        lambda: ring_gf(2, 2),
        lambda: ring_gf(2, 3),
        lambda: ring_product(ring_zmod(2), ring_zmod(2)),
        lambda: ring_product(ring_zmod(2), ring_zmod(4)),
        lambda: ring_product(ring_zmod(3), ring_zmod(5)),
    ],
)
def test_maximal_ideals_against_subset_filter_oracle(make):
    R = make()
    lattice = brute_ideal_masks(R)
    full = (1 << R.size) - 1
    proper = [m for m in lattice if m != full]
    maximal = {
        m for m in proper if not any(m != t and m & ~t == 0 for t in proper)
    }
    assert {i.members for i in maximal_ideals(R)} == maximal


@pytest.mark.parametrize(
    "make",
    [
        lambda: ring_zmod(12),
        lambda: ring_zmod(30),
        lambda: ring_gf(3, 2),
        lambda: ring_product(ring_zmod(4), ring_gf(2, 2)),
    ],
)
def test_union_of_maximal_ideals_is_the_non_units(make):
    R = make()
    in_some_ideal = set()
    for i in maximal_ideals(R):
        in_some_ideal.update(member_elements(i))
    non_units = set(elements(R)) - R.units()
    assert in_some_ideal == non_units


def test_crt_explicit_isomorphism_z6_to_f2_times_f3():
    R = ring_zmod(6)
    P = ring_product(ring_zmod(2), ring_zmod(3))

    def phi(x):
        return (x[0] % 2, x[0] % 3)

    images = {phi(x) for x in elements(R)}
    assert len(images) == 6  # bijective
    for x in elements(R):
        for y in elements(R):
            assert phi(R.add(x, y)) == P.add(phi(x), phi(y))
            assert phi(R.mul(x, y)) == P.mul(phi(x), phi(y))
    assert phi(R.one) == P.one


def test_local_factorization_idempotents_of_z6():
    assert sorted(e[0] for e in idempotents_of(ring_zmod(6))) == [3, 4]


def test_local_factorization_of_local_ring_is_trivial():
    R = ring_zmod(8)
    assert len(local_factors(R).factors) == 1
    assert idempotents_of(R) == ((1,),)


@pytest.mark.parametrize(
    "make",
    [lambda n=n: ring_zmod(n) for n in range(2, 65)]
    + [
        lambda: ring_gf(2, 3),
        lambda: ring_product(ring_zmod(4), ring_gf(2, 2)),
        lambda: ring_product(ring_zmod(12), ring_zmod(10)),
    ],
)
def test_local_factorization_round_trip_on_every_element(make):
    # the library checks only that the idempotents are orthogonal and sum
    # to 1; the factors R/(1-e)R then make up R, and invert each other
    R = make()
    lf = local_factors(R)
    assert math.prod(f.size for f in lf.factors) == R.size
    for x in elements(R):
        assert lf.iso_backward(lf.iso_forward(x)) == x


@pytest.mark.parametrize(
    "n,want",
    [(8, {1, 3, 5, 7}), (12, {1, 5, 7, 11}), (6, {1, 5})],
)
def test_unit_sets(n, want):
    assert {u[0] for u in ring_zmod(n).units()} == want


@pytest.mark.parametrize(
    "make",
    [lambda n=n: ring_zmod(n) for n in range(2, 65)]
    + [
        lambda: ring_gf(2, 3),
        lambda: ring_gf(3, 2),
        lambda: ring_product(ring_zmod(4), ring_gf(2, 2)),
        lambda: ring_product(ring_zmod(12), ring_zmod(10)),
    ],
)
def test_maximal_ideal_masks_match_the_elementwise_pullback(make):
    # the library closes (1-e)R with p e and e times the lifts of
    # rad(R/pR); the reference keeps each x whose projection to the factor
    # R/(1-e)R is nilpotent
    R = make()
    got = tuple(f.members for f in local_factorization(R))
    assert got == maximal_ideal_masks(R)


def test_quotient_by_zero_ideal_is_the_ring():
    R = ring_zmod(12)
    Q, project, lift = quotient_ring(R, Ideal(R, 1, ()))
    assert Q.size == R.size
    seen = {project(x) for x in elements(R)}
    assert len(seen) == R.size


# -- ring validation: rejection ------------------------------------------------------


def test_rejects_table_that_is_not_well_defined():
    # (b0 + b0) * b0 = 0, but b0*b0 + b0*b0 = (0, 2): 2 * (b0 b0) != 0
    with pytest.raises(ValueError, match="well defined"):
        FiniteRing([2, 3], [[(1, 1), (0, 2)], [(0, 2), (0, 2)]], (1, 1), "bad")


def test_rejects_non_commutative_table():
    # 1 = b0 on the left, but b1 * b0 = b0 + b1
    with pytest.raises(ValueError, match="not commutative"):
        FiniteRing([2, 2], [[(1, 0), (0, 1)], [(1, 1), (0, 0)]], (1, 0), "noncomm")


def test_rejects_non_associative_table():
    # basis 1, x, y over Z/2 with x^2 = y^2 = 0 and xy = 1: (xx)y = 0, x(xy) = x
    one, x, y, zero = (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)
    table = [[one, x, y], [x, zero, one], [y, one, zero]]
    with pytest.raises(ValueError, match=re.escape("(ab)x = a(bx)")):
        FiniteRing([2, 2, 2], table, one, "nonassoc")


def test_rejects_wrong_unit():
    with pytest.raises(ValueError, match="1x = x"):
        FiniteRing([3], [[(1,)]], (2,), "badone")


@pytest.mark.parametrize(
    "orders, table, one",
    [
        ([2], [[(1,)]], (1, 0)),  # one too long
        ([2], [[(1, 0)]], (1,)),  # an entry too long
        ([2, 2], [[(1, 0)]], (1, 0)),  # one row of one entry
        ([2, 2], [[(1, 0), (0, 1)], [(0, 1), (1,)]], (1, 0)),  # an entry too short
    ],
)
@pytest.mark.parametrize("validate", [True, False])
def test_rejects_table_of_the_wrong_shape(orders, table, one, validate):
    # a wrong row count is the shape rule's; an entry or a one of the
    # wrong length is rejected by `reduce`, as any element is
    with pytest.raises(ValueError, match="the table must be|is not of length"):
        FiniteRing(orders, table, one, "shape", validate=validate)


def test_constructor_rings_and_their_residue_fields_are_rings():
    # the constructors and quotient_ring skip `_validate`; run it on the
    # rings of the pins, the benchmark's large rings, every Z/q[x]/(f)
    # above and their residue fields, and the exhaustive laws on each
    # distinct small table
    polys = [poly_ring(q, f) for q in sorted(POLY_DEGREES) for f in monic_polynomials(q)]
    built = (
        [parse_ring(text) for text in PINNED_RINGS + large_ring_labels()]
        + [ring_zmod(n) for n in range(2, 65)]
        + polys
    )
    assert len(built) == 832
    checked, small = 0, set()
    for R in built:
        for S in [R] + [residue_field(ideal)[0] for ideal in maximal_ideals(R)]:
            S._validate()
            checked += 1
            table = (S.orders, S.table, S.one)
            if S.size <= 16 and table not in small:
                assert satisfies_ring_laws(S), S.label
                small.add(table)
    assert checked == 2401


@pytest.fixture
def validations(monkeypatch):
    """The labels of the rings `_validate` runs on, from an empty ring
    table, so that every constructor ring is built afresh."""
    calls = []
    original = FiniteRing._validate

    def counted(self):
        calls.append(self.label)
        original(self)

    monkeypatch.setattr(FiniteRing, "_validate", counted)
    monkeypatch.setattr(rings, "_INTERNED", rings._RingTable())
    return calls


@pytest.mark.parametrize(
    "make, validated",
    [
        (lambda: parse_ring("GF(2^7)"), False),
        (lambda: parse_ring("Z/360"), False),
        (lambda: parse_ring("Z/12 x Z/10"), False),
        (lambda: poly_ring(4, [1, 0, 1]), True),  # hand-built Z/4[x]/(x^2 + 1)
    ],
)
def test_only_hand_built_rings_are_validated(make, validated, validations):
    R = make()
    R.units()
    maximal_ideals(R)
    assert validations == ([R.label] if validated else [])


@pytest.mark.parametrize(
    "argv",
    [
        ("ring-info", "GF(2^7)"),
        ("ring-info", "Z/12 x Z/10", "--json"),
        ("module-info", "free 1 over Z/360"),
    ],
)
def test_cli_runs_no_validation(argv, validations, capsys):
    assert main(list(argv)) == 0
    assert capsys.readouterr().out
    assert validations == []


def satisfies_ring_laws(R) -> bool:
    """Exhaustive elementwise oracle on reduced elements: unit, both
    distributive laws, commutativity and associativity. Each sum and
    product of two elements is computed once."""
    mul, add = functools.cache(R.mul), functools.cache(R.add)
    elems = list(R.iter_elements())
    for x in elems:
        if mul(R.one, x) != x or mul(x, R.one) != x:
            return False
    for x, y in itertools.product(elems, repeat=2):
        if mul(x, y) != mul(y, x):
            return False
    for x, y, z in itertools.product(elems, repeat=3):
        if mul(mul(x, y), z) != mul(x, mul(y, z)):
            return False
        if mul(add(x, y), z) != add(mul(x, z), mul(y, z)):
            return False
        if mul(z, add(x, y)) != add(mul(z, x), mul(z, y)):
            return False
    return True


def accepted(orders, table, one) -> bool:
    try:
        FiniteRing(orders, table, one, "candidate")
    except ValueError:
        return False
    return True


@st.composite
def ring_tables(draw):
    """Random structure constants and one. Some tables are drawn symmetric,
    and some with b_0 = 1, so that tables failing only the subtler laws
    (associativity, well-definedness) are common, not just the unit law.

    Up to rank 2 a unital commutative table is additively generated by 1
    and one more element, so it is associative whenever the other laws
    hold; rank 3 over (Z/2)^3 is drawn too so associativity can fail alone.
    """
    r = draw(st.integers(1, 3))
    if r == 3:
        orders = [2, 2, 2]
    else:
        orders = draw(st.lists(st.sampled_from([2, 3, 4]), min_size=r, max_size=r))
    coords = st.tuples(*(st.integers(0, d - 1) for d in orders))
    table = [[draw(coords) for _ in range(r)] for _ in range(r)]
    one = draw(coords)
    shape = draw(st.sampled_from(["free", "symmetric", "b0 is one"]))
    if shape != "free":
        for i in range(r):
            for j in range(i):
                table[i][j] = table[j][i]
    if shape == "b0 is one":
        one = tuple(1 if k == 0 else 0 for k in range(r))
        for j in range(r):
            table[0][j] = table[j][0] = tuple(1 if k == j else 0 for k in range(r))
    return orders, table, one


@settings(max_examples=200, deadline=None)
@given(ring_tables())
def test_basis_check_is_complete(candidate):
    orders, table, one = candidate
    oracle = satisfies_ring_laws(FiniteRing(orders, table, one, "raw", validate=False))
    assert accepted(orders, table, one) == oracle


def test_basis_check_is_complete_on_every_table_over_z2_squared():
    # exhaustive over all 4^4 tables and 4 candidate ones on (Z/2)^2, so
    # both outcomes are covered, not only the common rejection
    vecs = list(itertools.product(range(2), repeat=2))
    outcomes = set()
    for t00, t01, t10, t11, one in itertools.product(vecs, repeat=5):
        table = [[t00, t01], [t10, t11]]
        raw = FiniteRing([2, 2], table, one, "raw", validate=False)
        ok = satisfies_ring_laws(raw)
        assert accepted([2, 2], table, one) == ok, (table, one)
        outcomes.add(ok)
    assert outcomes == {True, False}


# -- subsets as bitmasks -----------------------------------------------------------


def group_elements(orders):
    """Elements of ⊕ Z/d in lexicographic order, the bit order of masks."""
    return list(itertools.product(*(range(d) for d in orders)))


def group_add(orders):
    return lambda x, y: tuple((a + b) % d for a, b, d in zip(x, y, orders))


def mask_of_elements(orders, elems) -> int:
    index = {x: i for i, x in enumerate(group_elements(orders))}
    mask = 0
    for x in elems:
        mask |= 1 << index[x]
    return mask


@st.composite
def shift_groups(draw):
    """Orders of rank 0-4, each in 2..9, with at most 4096 elements."""
    return draw(
        st.lists(st.integers(2, 9), max_size=4).filter(lambda o: math.prod(o) <= 4096)
    )


def group_element(orders):
    return st.tuples(*(st.integers(0, d - 1) for d in orders))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_translate_adds_the_element_to_every_member(data):
    orders = data.draw(shift_groups())
    elems = group_elements(orders)
    mask = data.draw(st.integers(0, (1 << len(elems)) - 1))
    x = data.draw(group_element(orders))
    members = [y for i, y in enumerate(elems) if mask >> i & 1]
    want = mask_of_elements(orders, [group_add(orders)(y, x) for y in members])
    assert _rotate(mask, _Coordinates(orders, (), 0).moves(x)) == want


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_closure_matches_the_set_closure(data):
    orders = data.draw(shift_groups())
    group = _Coordinates(orders, (), 0)
    add, zero = group_add(orders), tuple(0 for _ in orders)
    element = group_element(orders)
    first = data.draw(st.lists(element, max_size=3))
    start = additive_closure(add, zero, first)  # an earlier closure
    # generators drawn from `start` as well, which must change nothing
    inside = st.sampled_from(sorted(start))
    gens = data.draw(st.lists(st.one_of(element, inside), max_size=4))
    want = additive_closure(add, zero, gens, start)
    start_mask = mask_of_elements(orders, start)
    assert group.closure(first) == start_mask
    assert group.closure(gens, start_mask) == mask_of_elements(orders, want)


# orders 2^k - 1, 2^k and 2^k + 1, where the doubling walk stops on a
# wrap-around, and the primes from 127 to 157
LARGE_ORDERS = [127, 128, 129, 255, 256, 257, 511, 512, 131, 137, 139, 149, 151, 157]


@st.composite
def large_order_groups(draw):
    """One cyclic factor of order 127 to 512, alone or mixed with up to
    two small ones, in any position; at most 4096 elements."""
    big = draw(st.sampled_from(LARGE_ORDERS))
    small = draw(
        st.lists(st.integers(2, 9), max_size=2).filter(lambda o: big * math.prod(o) <= 4096)
    )
    return draw(st.permutations([big] + small))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_closure_matches_the_set_closure_at_large_orders(data):
    orders = data.draw(large_order_groups())
    group = _Coordinates(orders, (), 0)
    add, zero = group_add(orders), tuple(0 for _ in orders)
    element = group_element(orders)
    first = data.draw(st.lists(element, max_size=2))
    start = additive_closure(add, zero, first)  # an earlier closure
    # zero and generators drawn from `start`, which must change nothing
    inside = st.sampled_from(sorted(start))
    gens = data.draw(st.lists(st.one_of(element, inside, st.just(zero)), max_size=3))
    want = additive_closure(add, zero, gens, start)
    start_mask = mask_of_elements(orders, start)
    assert group.closure(first) == start_mask
    assert group.closure(gens, start_mask) == mask_of_elements(orders, want)


@pytest.mark.parametrize("n", [2, 3, 128, 129, 151, 512])
def test_closure_translates_about_log2_n_times(n, monkeypatch):
    # each translation of the running union is one `_rotate` of its blocks
    translations = []
    rotate = rings._rotate

    def counted(mask, moves):
        translations.append(moves)
        return rotate(mask, moves)

    monkeypatch.setattr(rings, "_rotate", counted)
    group = _Coordinates((n,), (), 0)
    full = (1 << n) - 1
    assert group.closure([(1,)]) == full
    assert len(translations) <= n.bit_length() + 1  # floor(log2 n) + 2
    for g in [(0,), (1,), (n - 1,)]:  # each already in `start`
        translations.clear()
        assert group.closure([g], full) == full
        assert len(translations) == 1
    translations.clear()
    assert group.closure([(0,)]) == 1
    assert len(translations) == 1


def test_shifts_of_the_zero_group():
    group = _Coordinates((), (), 0)
    assert group.index_of(()) == 0 and group.element(0) == ()
    assert _rotate(1, group.moves(())) == 1
    assert group.closure([(), ()]) == 1
    assert group.closure([], 1) == 1


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_index_codec_is_the_lexicographic_order(data):
    orders = data.draw(shift_groups())
    group = _Coordinates(orders, (), 0)
    elems = group_elements(orders)
    x = data.draw(group_element(orders))
    i = data.draw(st.integers(0, len(elems) - 1))
    assert group.element(group.index_of(x)) == x
    assert group.index_of(group.element(i)) == i
    assert group.element(i) == elems[i]


def test_index_of_rejects_what_is_not_a_reduced_element():
    R = ring_zmod(4)
    for bad in [(5,), (4,), (-1,), (), (1, 0)]:
        with pytest.raises(KeyError):
            R.index_of(bad)
        with pytest.raises(KeyError):
            bad in Ideal(R, 1, ())
    for bad in [4, -1]:
        with pytest.raises(IndexError):
            R.element(bad)
