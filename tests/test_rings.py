import hashlib
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_factor

from modcover import rings
from modcover.dsl import parse_ring
from modcover.rings import (
    FiniteRing,
    _is_irreducible,
    _is_prime,
    _Shifts,
    basis_vectors,
    ideal_generated,
    local_factorization,
    maximal_ideals,
    quotient_ring,
    residue_field,
    ring_gf,
    ring_product,
    ring_zmod,
    smallest_irreducible,
    zero_ideal,
)

from oracles import (
    PINNED_RINGS,
    additive_closure,
    elements,
    factor_by_sweeps,
    is_field_by_power_walk,
    is_irreducible_by_search,
    large_ring_labels,
    local_factors,
    maximal_ideal_masks,
    member_elements,
    poly_ring,
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
    assert R.neg(x) == ((-a) % n,)


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


def test_gf_rejects_composite_characteristic():
    with pytest.raises(ValueError):
        ring_gf(4, 1)


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
    assert zero_ideal(R).size == 1


def test_quotient_of_z12_by_4_is_z4():
    R = ring_zmod(12)
    I = ideal_generated(R, [(4,)])
    Q, project, lift = quotient_ring(R, I)
    assert Q.size == 4
    assert Q.additive_orders == (4,)
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
    for e in local_factorization(R).idempotents:
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


def assert_matches_the_sweeps(R):
    lf = local_factorization(R)
    idempotents, masks = factor_by_sweeps(R)
    assert lf.idempotents == idempotents, R.label
    assert lf.maximal_ideal_masks == masks, R.label
    assert [i.members for i in maximal_ideals(R)] == sorted(masks), R.label
    for ideal in maximal_ideals(R):
        assert is_field_by_power_walk(residue_field(ideal)[0]), R.label


@pytest.mark.parametrize("text", PINNED_RINGS + [f"Z/{n}" for n in range(2, 65)])
def test_factorization_matches_the_element_sweeps(text):
    assert_matches_the_sweeps(parse_ring(text))


def test_factorization_matches_the_element_sweeps_on_large_ring_classes():
    labels = large_ring_labels()
    assert len(labels) == 330
    for text in labels:
        assert_matches_the_sweeps(parse_ring(text))


# q -> the largest degree of f tried; every monic f up to it, so reducible
# and repeated factors of f mod p are all there
POLY_DEGREES = {2: 5, 3: 3, 4: 3, 5: 2, 7: 2, 8: 2, 9: 2}


def monic_polynomials(q):
    """Every monic f over Z/q of degree 1 to POLY_DEGREES[q]."""
    for k in range(1, POLY_DEGREES[q] + 1):
        for tail in itertools.product(range(q), repeat=k):
            yield list(tail) + [1]


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
# them on purpose re-records this
RESIDUE_FIELD_DIGEST = "64eea6bf62d7400f0fd6494a0a42f530170bc6b2d15d7b4850c5832cbbf50910"


def test_residue_field_coordinates_are_pinned():
    pinned = [parse_ring(text) for text in PINNED_RINGS]
    polys = [poly_ring(q, f) for q in sorted(POLY_DEGREES) for f in monic_polynomials(q)]
    assert len(polys) == 433
    digest = hashlib.sha256()
    for R in pinned + polys:
        for ideal in maximal_ideals(R):
            field, project, _ = residue_field(ideal)
            images = [project(b) for b in basis_vectors(R.rank)]
            fact = (R.label, field.additive_orders, field.mul_table, field.one, images)
            digest.update(repr(fact).encode() + b"\n")
    assert digest.hexdigest() == RESIDUE_FIELD_DIGEST


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
    lf = local_factorization(ring_zmod(6))
    assert sorted(e[0] for e in lf.idempotents) == [3, 4]


def test_local_factorization_of_local_ring_is_trivial():
    R = ring_zmod(8)
    assert len(local_factors(R).factors) == 1
    assert local_factorization(R).idempotents == ((1,),)


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
    assert local_factorization(R).maximal_ideal_masks == maximal_ideal_masks(R)


def test_quotient_by_zero_ideal_is_the_ring():
    R = ring_zmod(12)
    Q, project, lift = quotient_ring(R, zero_ideal(R))
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
    with pytest.raises(ValueError, match="not associative"):
        FiniteRing([2, 2, 2], table, one, "nonassoc")


def test_rejects_wrong_unit():
    with pytest.raises(ValueError, match="1\\*b_0"):
        FiniteRing([3], [[(1,)]], (2,), "badone")


def satisfies_ring_laws(R) -> bool:
    """Exhaustive elementwise oracle on reduced elements: unit, both
    distributive laws, commutativity and associativity."""
    elems = list(R.iter_elements())
    for x in elems:
        if R.mul(R.one, x) != x or R.mul(x, R.one) != x:
            return False
    for x, y in itertools.product(elems, repeat=2):
        if R.mul(x, y) != R.mul(y, x):
            return False
    for x, y, z in itertools.product(elems, repeat=3):
        if R.mul(R.mul(x, y), z) != R.mul(x, R.mul(y, z)):
            return False
        if R.mul(R.add(x, y), z) != R.add(R.mul(x, z), R.mul(y, z)):
            return False
        if R.mul(z, R.add(x, y)) != R.add(R.mul(z, x), R.mul(z, y)):
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
    assert _Shifts(orders).translate(mask, x) == want


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_closure_matches_the_set_closure(data):
    orders = data.draw(shift_groups())
    shifts = _Shifts(orders)
    add, zero = group_add(orders), tuple(0 for _ in orders)
    element = group_element(orders)
    first = data.draw(st.lists(element, max_size=3))
    start = additive_closure(add, zero, first)  # an earlier closure
    # generators drawn from `start` as well, which must change nothing
    inside = st.sampled_from(sorted(start))
    gens = data.draw(st.lists(st.one_of(element, inside), max_size=4))
    want = additive_closure(add, zero, gens, start)
    start_mask = mask_of_elements(orders, start)
    assert shifts.closure(first) == start_mask
    assert shifts.closure(gens, start_mask) == mask_of_elements(orders, want)


def test_shifts_of_the_zero_group():
    shifts = _Shifts(())
    assert shifts.index(()) == 0 and shifts.element(0) == ()
    assert shifts.translate(1, ()) == 1
    assert shifts.closure([(), ()]) == 1
    assert shifts.closure([], 1) == 1


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_index_codec_is_the_lexicographic_order(data):
    orders = data.draw(shift_groups())
    shifts = _Shifts(orders)
    elems = group_elements(orders)
    x = data.draw(group_element(orders))
    i = data.draw(st.integers(0, len(elems) - 1))
    assert shifts.element(shifts.index(x)) == x
    assert shifts.index(shifts.element(i)) == i
    assert shifts.element(i) == elems[i]


def test_index_of_rejects_what_is_not_a_reduced_element():
    R = ring_zmod(4)
    for bad in [(5,), (4,), (-1,), (), (1, 0)]:
        with pytest.raises(KeyError):
            R.index_of(bad)
        with pytest.raises(KeyError):
            bad in zero_ideal(R)
    for bad in [4, -1]:
        with pytest.raises(IndexError):
            R.element(bad)
