"""Finite commutative unital rings.

A ring is stored as its additive coordinate group ⊕_i Z/d_i together
with a multiplication table on the coordinate basis; multiplication of
arbitrary elements is the bilinear extension. Elements are plain integer
tuples, reduced coordinate-wise. All values are immutable after
construction and validation, so the constructors share one object per
ring (see `_RingTable`) and each ring stores the facts derived from it:
its local factorization, maximal ideals, residue fields and units.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass
from functools import cache, reduce

from .errors import GuardExceeded
from .snf import abelian_quotient

RING_SIZE_GUARD = 4096

Element = tuple  # coordinate tuple; one entry per additive generator


@cache
def basis_vectors(rank: int) -> tuple:
    """The coordinate tuples of the additive basis e_0, ..., e_{rank-1}."""
    return tuple(tuple(int(s == t) for s in range(rank)) for t in range(rank))


class _Shifts:
    """Subsets of ⊕ Z/d_t as bitmasks over the lexicographic element
    indices, where x has index Σ x_t w_t with w_t = Π_{s>t} d_s; zero is
    bit 0. `index` and `element` convert between the two, so no element
    list is stored.

    Adding c to coordinate t moves index i by c w_t inside its block of
    d_t w_t consecutive indices, wrapping around, so translating a whole
    mask is one rotation of every block per nonzero coordinate. The
    repunit of coordinate t has bit 0 of every block set.
    """

    def __init__(self, orders):
        self.size = size = reduce(lambda a, b: a * b, orders, 1)
        self.coords = []  # (weight, block, repunit) per coordinate
        weight = size
        for d in orders:
            weight //= d
            block = d * weight
            repunit = ((1 << size) - 1) // ((1 << block) - 1)
            self.coords.append((weight, block, repunit))

    def index(self, x) -> int:
        """Σ x_t w_t; raises KeyError unless x is a reduced coordinate tuple."""
        if len(x) != len(self.coords):
            raise KeyError(x)
        i = 0
        for c, (weight, block, _) in zip(x, self.coords):
            if not 0 <= c * weight < block:  # c outside [0, d_t)
                raise KeyError(x)
            i += c * weight
        return i

    def element(self, i) -> tuple:
        """The reduced coordinate tuple of index i: (i // w_t mod d_t)_t;
        raises IndexError unless 0 <= i < size."""
        if not 0 <= i < self.size:
            raise IndexError(i)
        return tuple(i % block // weight for weight, block, _ in self.coords)

    def translate(self, mask: int, x) -> int:
        """The mask of {y + x : y in mask}; x a reduced coordinate tuple."""
        for c, (weight, block, repunit) in zip(x, self.coords):
            if c:
                shift = c * weight
                stay = (repunit << (block - shift)) - repunit  # no wrap-around
                low = mask & stay
                mask = low << shift | (mask ^ low) >> (block - shift)
        return mask

    def closure(self, gens, start: int = 1) -> int:
        """Mask of the subgroup generated by the subgroup `start` and the
        gens (reduced coordinate tuples). H + <g> is the union of the
        cosets H + kg up to the first that meets H, i.e. holds zero."""
        for g in gens:
            coset = self.translate(start, g)
            while not coset & 1:
                start |= coset
                coset = self.translate(coset, g)
        return start


class FiniteRing:
    def __init__(self, additive_orders, mul_table, one, label, *, validate=True):
        self.additive_orders = tuple(int(d) for d in additive_orders)
        if not self.additive_orders or any(d < 2 for d in self.additive_orders):
            raise ValueError("additive orders must be a nonempty list of integers >= 2")
        self.rank = len(self.additive_orders)
        self.size = reduce(lambda a, b: a * b, self.additive_orders, 1)
        if self.size > RING_SIZE_GUARD:
            raise GuardExceeded(
                "ring-size", f"|R| = {self.size} exceeds guard {RING_SIZE_GUARD}"
            )
        self.mul_table = tuple(
            tuple(self.reduce(e) for e in row) for row in mul_table
        )
        self.one = self.reduce(one)
        self.zero = (0,) * self.rank
        self.label = label
        self.shifts = _Shifts(self.additive_orders)
        self._units = None
        self._local_factorization = None
        self._maximal_ideals = None  # tuple, sorted by members
        self._residue_fields = None  # maximal-ideal mask -> (field, project, lift)
        if validate:
            self._validate()

    # -- additive structure ------------------------------------------------

    def reduce(self, x) -> Element:
        return tuple(int(c) % d for c, d in zip(x, self.additive_orders))

    def add(self, x, y) -> Element:
        return tuple((a + b) % d for a, b, d in zip(x, y, self.additive_orders))

    def neg(self, x) -> Element:
        return tuple((-a) % d for a, d in zip(x, self.additive_orders))

    def sub(self, x, y) -> Element:
        return tuple((a - b) % d for a, b, d in zip(x, y, self.additive_orders))

    def scale(self, n, x) -> Element:
        return tuple((n * a) % d for a, d in zip(x, self.additive_orders))

    # -- multiplication ----------------------------------------------------

    def mul(self, x, y) -> Element:
        acc = [0] * self.rank
        table = self.mul_table
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                c = xi * yj
                for k, bk in enumerate(table[i][j]):
                    if bk:
                        acc[k] += c * bk
        return tuple(a % d for a, d in zip(acc, self.additive_orders))

    # -- element indices (lexicographic on coordinates) --------------------

    def iter_elements(self):
        """The elements in index order, without storing them."""
        return itertools.product(*(range(d) for d in self.additive_orders))

    def index_of(self, x) -> int:
        return self.shifts.index(x)

    def element(self, i) -> Element:
        return self.shifts.element(i)

    # -- units ---------------------------------------------------------------

    def units(self) -> frozenset:
        """Elements in no maximal ideal."""
        if self._units is None:
            non_units = 0
            for ideal in maximal_ideals(self):
                non_units |= ideal.members
            self._units = frozenset(
                x for i, x in enumerate(self.iter_elements()) if not non_units >> i & 1
            )
        return self._units

    def __repr__(self):
        return f"FiniteRing({self.label}, |R|={self.size})"

    # -- validation ----------------------------------------------------------

    def _validate(self):
        """Check the ring laws exactly, in O(r^3) basis products.

        `mul` is the bilinear extension of the table to coordinate
        representatives. It is well defined on ⊕ Z/d_i, hence distributive,
        exactly when d_i * (b_i b_j) = 0 for all i, j; by bilinearity the
        unit law, commutativity and associativity then hold on all elements
        once they hold on the basis. So these checks are complete.
        """
        r = self.rank
        bs = basis_vectors(r)
        for i, d in enumerate(self.additive_orders):
            if self.mul(self.one, bs[i]) != bs[i]:
                raise ValueError(f"{self.label}: 1*b_{i} != b_{i}")
            for j in range(r):
                if self.mul_table[i][j] != self.mul_table[j][i]:
                    raise ValueError(f"{self.label}: basis product not commutative")
                if self.scale(d, self.mul_table[i][j]) != self.zero:
                    raise ValueError(
                        f"{self.label}: d_{i} * b_{i}b_{j} != 0, so the product "
                        "is not well defined (distributivity fails)"
                    )
                for k in range(r):
                    lhs = self.mul(self.mul(bs[i], bs[j]), bs[k])
                    rhs = self.mul(bs[i], self.mul(bs[j], bs[k]))
                    if lhs != rhs:
                        raise ValueError(f"{self.label}: basis product not associative")


# -- ideals ------------------------------------------------------------------


@dataclass(frozen=True)
class Ideal:
    ring: FiniteRing
    members: int  # bitmask over the ring's element indices
    generators: tuple  # coordinate tuples witnessing the members

    @property
    def size(self) -> int:
        return self.members.bit_count()

    @property
    def residue_size(self) -> int:
        return self.ring.size // self.size

    def __contains__(self, x) -> bool:
        return bool(self.members >> self.ring.index_of(x) & 1)

    def is_proper(self) -> bool:
        return self.size < self.ring.size

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators)
        return f"Ideal({self.ring.label}; <{gens}>; size={self.size})"


def _ideal_span(ring: FiniteRing, gens, start=1) -> int:
    """Mask of the ideal generated by `gens` (coordinate tuples) and the
    ideal mask `start`: the additive span of the b_i * g, which is
    already closed under the action."""
    bs = basis_vectors(ring.rank)
    return ring.shifts.closure([ring.mul(b, g) for g in gens for b in bs], start)


def ideal_generated(ring: FiniteRing, gens) -> Ideal:
    """Smallest ideal containing `gens` (coordinate tuples)."""
    gens = [ring.reduce(g) for g in gens]
    return Ideal(ring, _ideal_span(ring, gens), tuple(sorted(gens)))


def zero_ideal(ring: FiniteRing) -> Ideal:
    return Ideal(ring, 1, ())  # zero is bit 0


def _greedy_generators(members: int, grow) -> tuple:
    """Greedy small generating set of a submodule given by its members
    mask (an ideal is a submodule of R): the least member that the span
    of those kept so far misses is kept, and `grow(idx, span)` is the
    span mask of the kept ones together with idx."""
    gens = []
    span = 1  # the zero submodule
    rest = members & ~span
    while rest:
        idx = (rest & -rest).bit_length() - 1
        gens.append(idx)
        span = grow(idx, span)
        rest = members & ~span
    return tuple(gens)


def minimal_generators(ring: FiniteRing, members: int) -> tuple:
    """Greedy small generating set for an ideal given as a members mask."""
    gens = _greedy_generators(
        members, lambda idx, span: _ideal_span(ring, [ring.element(idx)], span)
    )
    return tuple(ring.element(i) for i in gens)


# -- constructors --------------------------------------------------------------


class _RingTable:
    """The rings built by the constructors, keyed by their arguments.

    Rings are immutable, so all callers asking for one ring share one
    object and the facts stored on it. The least recently used rings are
    dropped once the rings held exceed RING_SIZE_GUARD elements in total.
    """

    def __init__(self):
        self.rings = OrderedDict()
        self.elements = 0

    def get(self, key, build) -> FiniteRing:
        ring = self.rings.get(key)
        if ring is not None:
            self.rings.move_to_end(key)
            return ring
        ring = self.rings[key] = build()
        self.elements += ring.size
        while self.elements > RING_SIZE_GUARD:  # never drops `ring` itself
            _, old = self.rings.popitem(last=False)
            self.elements -= old.size
        return ring


_INTERNED = _RingTable()


def ring_zmod(n: int) -> FiniteRing:
    """Z/n as a finite ring."""
    return _INTERNED.get(("Z", n), lambda: _build_zmod(n))


def _build_zmod(n):
    if n < 2:
        raise ValueError(f"Z/{n}: modulus must be at least 2")
    if n > RING_SIZE_GUARD:
        raise GuardExceeded("ring-size", f"Z/{n} exceeds guard {RING_SIZE_GUARD}")
    return FiniteRing([n], [[(1,)]], (1,), f"Z/{n}")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _poly_trim(f):
    while f and f[-1] == 0:
        f = f[:-1]
    return f


def _poly_mulmod(a, b, f, p):
    """(a*b) mod f over Z/p; f monic of degree k, inputs of degree < k."""
    k = len(f) - 1
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    for deg in range(len(prod) - 1, k - 1, -1):
        c = prod[deg]
        if not c:
            continue
        prod[deg] = 0
        for j in range(k):
            prod[deg - k + j] = (prod[deg - k + j] - c * f[j]) % p
    prod = prod[:k]
    return prod + [0] * (k - len(prod))


def _poly_divisible(f, g, p):
    """Whether monic g divides f over Z/p."""
    rem = [c % p for c in f]
    dg = len(g) - 1
    while len(_poly_trim(rem)) - 1 >= dg:
        rem = _poly_trim(rem)
        shift = len(rem) - 1 - dg
        c = rem[-1]
        for j, gj in enumerate(g):
            rem[shift + j] = (rem[shift + j] - c * gj) % p
    return not _poly_trim(rem)


def _is_irreducible(f, p) -> bool:
    """Exhaustive factor search; fine for the supported degrees (k <= 8)."""
    k = len(f) - 1
    if k < 1:
        return False
    for d in range(1, k // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            g = list(tail) + [1]  # monic of degree d
            if _poly_divisible(f, g, p):
                return False
    return True


def smallest_irreducible(p: int, k: int):
    """Lexicographically smallest monic irreducible of degree k over Z/p.

    Coefficients are low-degree first; lexicographic order compares the
    tuple (c_0, ..., c_{k-1}).
    """
    for tail in itertools.product(range(p), repeat=k):
        f = list(tail) + [1]
        if _is_irreducible(f, p):
            return f
    raise AssertionError("no irreducible polynomial found")  # unreachable


def ring_gf(p: int, k: int = 1, f=None) -> FiniteRing:
    """The finite field F_{p^k} as Z/p[x]/(f)."""
    key = ("GF", p, k, None if f is None else tuple(f))
    return _INTERNED.get(key, lambda: _build_gf(p, k, f))


def _build_gf(p, k, f):
    if not _is_prime(p):
        raise ValueError(f"GF: {p} is not prime")
    if k < 1:
        raise ValueError("GF: extension degree must be >= 1")
    if p**k > RING_SIZE_GUARD:
        raise GuardExceeded("ring-size", f"GF({p}^{k}) exceeds guard {RING_SIZE_GUARD}")
    if k > 8:
        raise GuardExceeded("gf-degree", "irreducibility search supports k <= 8")
    if f is None:
        f = smallest_irreducible(p, k)
        label = f"GF({p})" if k == 1 else f"GF({p}^{k})"
    else:
        f = [int(c) % p for c in f]
        if len(f) != k + 1 or f[-1] != 1:
            raise ValueError(f"GF: f must be monic of degree {k}")
        if not _is_irreducible(f, p):
            raise ValueError(f"GF({p}^{k}): polynomial {f} is reducible")
        label = f"GF({p}^{k}; f={','.join(str(c) for c in f)})"
    # basis 1, x, ..., x^(k-1)
    table = []
    for i in range(k):
        row = []
        xi = [0] * k
        xi[i] = 1
        for j in range(k):
            xj = [0] * k
            xj[j] = 1
            row.append(tuple(_poly_mulmod(xi, xj, f, p)))
        table.append(row)
    one = tuple([1] + [0] * (k - 1))
    return FiniteRing([p] * k, table, one, label)


def ring_product(a: FiniteRing, b: FiniteRing) -> FiniteRing:
    """Direct product with componentwise operations."""
    return _INTERNED.get(("x", a, b), lambda: _build_product(a, b))


def _build_product(a, b):
    if a.size * b.size > RING_SIZE_GUARD:
        raise GuardExceeded(
            "ring-size", f"|{a.label} x {b.label}| exceeds guard {RING_SIZE_GUARD}"
        )
    ra, rb = a.rank, b.rank
    zero_a, zero_b = a.zero, b.zero
    table = []
    for i in range(ra + rb):
        row = []
        for j in range(ra + rb):
            if i < ra and j < ra:
                row.append(a.mul_table[i][j] + zero_b)
            elif i >= ra and j >= ra:
                row.append(zero_a + b.mul_table[i - ra][j - ra])
            else:
                row.append(zero_a + zero_b)
        table.append(row)
    return FiniteRing(
        list(a.additive_orders) + list(b.additive_orders),
        table,
        a.one + b.one,
        f"{a.label} x {b.label}",
    )


# -- quotients and factorization ------------------------------------------------


def quotient_ring(ring: FiniteRing, ideal: Ideal):
    """Cosets of an ideal, with induced operations.

    Returns ``(quotient, project, lift)`` where project/lift translate
    between ring elements and quotient coordinates.
    """
    if ideal.ring is not ring:
        raise ValueError("ideal belongs to a different ring")
    bs = basis_vectors(ring.rank)
    addgens = [ring.mul(b, g) for g in ideal.generators for b in bs]
    qorders, project, lift = abelian_quotient(ring.additive_orders, addgens)
    if not qorders:
        raise ValueError("quotient by the unit ideal is the zero ring")
    lifted = [lift(u) for u in basis_vectors(len(qorders))]
    table = [[project(ring.mul(x, y)) for y in lifted] for x in lifted]
    label = f"({ring.label})/<{','.join(str(g) for g in ideal.generators)}>"
    q = FiniteRing(qorders, table, project(ring.one), label)
    return q, project, lift


@dataclass(frozen=True)
class LocalFactorization:
    ring: FiniteRing
    idempotents: tuple  # primitive idempotents, sorted by coordinates
    factors: tuple  # FiniteRing, one per idempotent, each local
    projections: tuple  # callables ring coords -> factor coords
    lifts: tuple  # sections of the projections
    maximal_ideal_masks: tuple  # pullback of each factor's maximal ideal

    def iso_forward(self, x):
        return tuple(p(x) for p in self.projections)

    def iso_backward(self, ys):
        r = self.ring
        acc = r.zero
        for e, lift, y in zip(self.idempotents, self.lifts, ys):
            acc = r.add(acc, r.mul(e, lift(y)))
        return acc


def local_factorization(ring: FiniteRing) -> LocalFactorization:
    """Decompose as a product of local rings via primitive idempotents.

    Computed once per ring, together with the maximal ideals and residue
    fields that come from the factors (see `_factor`).
    """
    if ring._local_factorization is None:
        _factor(ring)
    return ring._local_factorization


def maximal_ideals(ring: FiniteRing) -> list:
    """All maximal ideals, one per local factor, sorted by members bitmask.

    Each is verified once: the quotient by it is a field.
    """
    if ring._maximal_ideals is None:
        local_factorization(ring)
    return list(ring._maximal_ideals)


def residue_field(ideal: Ideal):
    """``(field, project, lift)`` for R/m, as `quotient_ring` returns it;
    built and checked once per maximal ideal m."""
    ring = ideal.ring
    if ring._residue_fields is None:
        local_factorization(ring)
    if ideal.members not in ring._residue_fields:
        raise ValueError(f"{ideal} is not a maximal ideal")
    return ring._residue_fields[ideal.members]


def _factor(ring: FiniteRing):
    """Store the local factorization, maximal ideals and residue fields.

    A factor eR of a primitive idempotent e has no idempotents but 0 and
    1, so it is local and its non-units are its nilpotents. Pulled back
    to R they form a maximal ideal, and the quotient by it must be a
    field; that check also proves the factor local. A factor whose
    maximal ideal is zero is that field already (both are R modulo the
    same ideal), so it is stored as the residue field.
    """
    idems = [x for x in ring.iter_elements() if ring.mul(x, x) == x]
    nonzero = [e for e in idems if e != ring.zero]
    primitive = sorted(
        e
        for e in nonzero
        if not any(f != e and ring.mul(e, f) == f for f in nonzero)
    )
    # sanity: pairwise orthogonal and summing to 1
    acc = ring.zero
    for i, e in enumerate(primitive):
        acc = ring.add(acc, e)
        for f in primitive[i + 1 :]:
            if ring.mul(e, f) != ring.zero:
                raise AssertionError("primitive idempotents not orthogonal")
    if acc != ring.one:
        raise AssertionError("primitive idempotents do not sum to 1")

    factors, projections, lifts, ideal_masks = [], [], [], []
    fields = {}
    for e in primitive:
        complement = ideal_generated(ring, [ring.sub(ring.one, e)])
        factor, proj, lift = quotient_ring(ring, complement)
        non_units = _nilpotents(factor)
        _assert_is_ideal(factor, non_units)
        # the pullback of the non-units: (1-e)R is the kernel of proj
        mask = ring.shifts.closure([lift(y) for y in non_units], complement.members)
        factors.append(factor)
        projections.append(proj)
        lifts.append(lift)
        ideal_masks.append(mask)
        if mask == complement.members:  # the factor is a field: it is R/m
            fields[mask] = factor, proj, lift

    size_product = reduce(lambda a, b: a * b, (f.size for f in factors), 1)
    if size_product != ring.size:
        raise AssertionError("factor sizes do not multiply to |R|")
    lf = LocalFactorization(
        ring,
        tuple(primitive),
        tuple(factors),
        tuple(projections),
        tuple(lifts),
        tuple(ideal_masks),
    )
    # The round trip is additive: each projection is, and e*lift(y) is
    # additive modulo e*(1-e)R = 0 since lift is additive modulo the kernel
    # (1-e)R. So it is the identity iff it fixes the additive basis.
    for b in basis_vectors(ring.rank):
        if lf.iso_backward(lf.iso_forward(b)) != b:
            raise AssertionError("factorization maps do not invert each other")

    ideals = []
    for mask in sorted(ideal_masks):
        ideal = Ideal(ring, mask, minimal_generators(ring, mask))
        if mask not in fields:
            fields[mask] = quotient_ring(ring, ideal)
        _assert_is_field(fields[mask][0])
        ideals.append(ideal)
    ring._local_factorization = lf
    ring._maximal_ideals = tuple(ideals)
    ring._residue_fields = fields


def _nilpotents(ring) -> set:
    """Elements with some power zero.

    If x^n = 0 with n least, then R, xR, x^2 R, ..., x^n R = 0 strictly
    shrink, each at least halving, so n <= log2 |R|; s squarings with
    2^s > log2 |R| reach x^(2^s) = 0.
    """
    steps = (ring.size.bit_length() - 1).bit_length()
    out = set()
    for x in ring.iter_elements():
        y = x
        for _ in range(steps):
            if y == ring.zero:
                break
            y = ring.mul(y, y)
        if y == ring.zero:
            out.add(x)
    return out


def _assert_is_ideal(ring, subset):
    """Raise unless `subset` (a set of elements) is closed under the basis
    action and is an additive subgroup: its additive closure, which
    contains it, is no larger."""
    bs = basis_vectors(ring.rank)
    for x in subset:
        for b in bs:
            if ring.mul(b, x) not in subset:
                raise AssertionError(f"{ring.label}: non-units not action-closed")
    if ring.shifts.closure(subset).bit_count() != len(subset):
        raise AssertionError(f"{ring.label}: non-units not additively closed")


def _assert_is_field(ring):
    """Raise unless every nonzero element is a unit.

    Walks the powers of each nonzero element not yet known to be a unit.
    A walk that reaches 1 makes every power a unit; one that reaches 0, or
    takes |R| steps without reaching 1, has found a non-unit. It does not
    use `units()`, which is derived from the maximal ideals this certifies.
    """
    units = {ring.one}
    for x in ring.iter_elements():
        if x == ring.zero or x in units:
            continue
        powers = [x]
        while powers[-1] != ring.one:
            y = ring.mul(powers[-1], x)
            if y == ring.zero or len(powers) == ring.size:
                raise AssertionError(
                    f"{ring.label}: quotient by a maximal ideal is not a field"
                )
            powers.append(y)
        units.update(powers)
