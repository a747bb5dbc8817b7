"""Finite commutative unital rings.

A ring is stored as its additive coordinate group ⊕_i Z/d_i together
with a multiplication table on the coordinate basis; multiplication of
arbitrary elements is the bilinear extension. Elements are plain integer
tuples, reduced coordinate-wise. A ring is a module over itself, so
`_Coordinates` serves rings and modules alike: arithmetic, element
indices, the product of a basis table, spans and greedy generating
sets, with the index codec built on the first mask read. Every product,
image and multiple is one `_fp.combine` over the table's rows. Its
`quotient` is modcover's one Smith normal form call site, and reads
nothing but sparse basis rows, so R^k is realized from R's rows. Every
table, a ring's or a module's, passes one shape rule when built, and one
law check (`_Coordinates.check_laws`) tells whether R acting through it
is a module. A hand-built table is checked to be a ring: commutative,
and R a module over itself (`FiniteRing._validate`); the constructors,
the residue fields and `quotient_ring` build rings by construction and
skip that check. All values are immutable after
construction, so the constructors share one object per ring (see
`_RingTable`), and each ring keeps the facts derived from it as cached
properties, formed when first read: its local factors, maximal ideals
and unit mask. These come from linear
algebra over F_p in R's own coordinates (see `_factor` and `_fp`), with
no Smith normal form; R/pR multiplies by R's own product. Each local
factor is one `LocalFactor` record: its idempotent e, its maximal ideal
m_e and the echelon of m_e's image in R/pR. Each m_e is certified once,
when R is factored, from the Frobenius of R/pR modulo that echelon, or,
when that image is zero, from the kernels of R/pR's own Frobenius that
the split into idempotents has formed; the generators of eJ, R/m_e's
coordinates (the residue columns) and the residue field R/m_e, R/pR
modulo the same echelon, are built from the record only when first read.
"""

from __future__ import annotations

import itertools
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cache, cached_property, reduce

from ._fp import (
    _echelon,
    _fixed_space,
    _frobenius,
    _is_field,
    _kernel,
    _kernels_of_a_field,
    _power,
    _reduce,
    basis_vectors,
    combine,
)
from .errors import GuardExceeded
from .snf import abelian_quotient

RING_SIZE_GUARD = 4096

Element = tuple  # coordinate tuple; one entry per additive generator


def power_exceeds(base: int, k: int, bound: int) -> bool:
    """Whether base**k > bound, for base >= 2, without computing a power
    far beyond the bound: 2**k > bound already when k exceeds its bit
    length."""
    return k > bound.bit_length() or base**k > bound


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
        self.orders = tuple(orders)
        self.size = size = math.prod(orders)
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

    def moves(self, x) -> list:
        """The (c w_t, block, repunit) of each nonzero coordinate c of x:
        what `_rotate` needs to translate a mask by x."""
        return [
            (c * weight, block, repunit)
            for c, (weight, block, repunit) in zip(x, self.coords)
            if c
        ]

    def closure(self, gens, start: int = 1) -> int:
        """Mask of the subgroup generated by the subgroup `start` and the
        gens (reduced coordinate tuples), by doubling.

        For H the running subgroup and a generator g, the union starts as
        H and is ORed with itself translated by g, 2g, 4g, ...: after the
        step jg it is H + {0, ..., 2j-1}g. When the coset just added holds
        zero, some kg with j <= k <= 2j-1 lies in H, so the order of g
        modulo H is at most 2j-1 and the union is H + <g>; when the next
        step 2jg is zero, the order of g divides 2j and so it is too. A
        generator of order n thus costs about log2 n + 1 translations.
        The step is kept as its `moves`, and doubling it doubles each
        shift c w_t modulo its block, dropping the coordinates it clears.
        """
        for g in gens:
            moves = self.moves(g)
            while True:
                coset = _rotate(start, moves)
                start |= coset
                if coset & 1:
                    break
                moves = [
                    (doubled, block, repunit)
                    for shift, block, repunit in moves
                    if (doubled := 2 * shift % block)
                ]
                if not moves:
                    break
        return start


def _rotate(mask: int, moves) -> int:
    """The mask with every block of each move rotated up by its shift,
    wrapping around: the translate of the mask by the element whose
    `_Shifts.moves` they are."""
    for shift, block, repunit in moves:
        stay = (repunit << (block - shift)) - repunit  # no wrap-around
        low = mask & stay
        mask = low << shift | (mask ^ low) >> (block - shift)
    return mask


class _Coordinates:
    """The additive group ⊕_t Z/d_t of a ring or a module, with the
    product that a basis table extends bilinearly.

    `table[i][t]` holds the coordinates of b_i · e_t, for b_i the ring's
    additive basis and e_t this object's; for a ring the two bases are
    one. Products read it through `rows`, its sparse form: the nonzero
    (s, v) of each b_i · e_t, built when first read, so building a ring
    or module pays nothing for it. Each read is one `combine`: `images`
    and `row_image` apply basis rows to x directly, `multiples` reads
    their columns with no product, and `_product` reads their entries in
    turn. `quotient`, given the orders and rows of any such group,
    builds every realized module, quotient module and quotient ring.
    Elements are reduced coordinate tuples. A subset is a bitmask
    over the element indices, read through the `shifts` codec, which is
    built on the first mask read.

    A ring and a module are accepted by the same two rules. The shape
    rule, run on every construction: the table has one row per basis
    element of the ring that acts, `ring_rank` of them, and each row has
    one entry per e_t, each of this object's rank (an entry of another
    length is rejected by `reduce`, as any element is). The law check,
    `check_laws`, run on demand: the ring acting through the table is a
    module.
    """

    label = "table"  # a ring or a module names itself in the errors

    def __init__(self, orders, table, ring_rank):
        self.orders = orders
        self.rank = r = len(orders)
        self.size = math.prod(orders)
        self.zero = (0,) * r
        # `reduce` rejects an entry of the wrong length
        if len(table) != ring_rank or any(len(row) != r for row in table):
            raise ValueError(
                f"{self.label}: the table must be {ring_rank} x {r}, "
                f"with each entry of length {r}"
            )
        self.table = tuple(tuple(self.reduce(v) for v in row) for row in table)

    # -- additive structure ------------------------------------------------

    def reduce(self, x) -> Element:
        """x reduced coordinate-wise, where an element enters: one of the wrong
        length raises ValueError. The arithmetic below checks no length."""
        if len(x) != self.rank:
            raise ValueError(f"{self.label}: {x!r} is not of length {self.rank}")
        return tuple(int(c) % d for c, d in zip(x, self.orders))

    def add(self, x, y) -> Element:
        return tuple((a + b) % d for a, b, d in zip(x, y, self.orders))

    def sub(self, x, y) -> Element:
        return tuple((a - b) % d for a, b, d in zip(x, y, self.orders))

    def scale(self, n, x) -> Element:
        return tuple((n * a) % d for a, d in zip(x, self.orders))

    @cached_property
    def rows(self) -> tuple:
        """`rows[i][t]` holds the nonzero (s, v) of b_i · e_t: the table
        with its zero entries dropped, built when first read."""
        return tuple(
            tuple(tuple((s, v) for s, v in enumerate(entry) if v) for entry in row)
            for row in self.table
        )

    def _product(self, a, x) -> Element:
        """Σ a_i x_t (b_i · e_t): the table extended bilinearly to the
        ring coordinates a and these coordinates x, one `combine` over the
        entries of the rows in turn."""
        coefficients = [ai * xt for ai in a for xt in x]
        return combine(coefficients, itertools.chain.from_iterable(self.rows), self.orders)

    # -- element indices (lexicographic on coordinates) --------------------

    @cached_property
    def shifts(self) -> _Shifts:
        return _Shifts(self.orders)

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    def iter_elements(self):
        """The elements in index order, without storing them."""
        return itertools.product(*(range(d) for d in self.orders))

    def index_of(self, x) -> int:
        return self.shifts.index(x)

    def element(self, i) -> Element:
        return self.shifts.element(i)

    # -- spans and generators ------------------------------------------------

    def images(self, elems) -> list:
        """The b_i · x over the ring basis, for each x in turn: additive
        generators of the ideal or submodule that the elements x
        generate. Each is Σ_t x_t (b_i · e_t), read off the basis row i."""
        return [combine(x, row, self.orders) for x in elems for row in self.rows]

    def row_image(self, i, x) -> Element:
        """b_i · x = Σ_t x_t (b_i · e_t), read off the basis row i alone."""
        return combine(x, self.rows[i], self.orders)

    def multiples(self, a) -> list:
        """The a · e_t over this object's basis e_t, for ring coordinates
        a: each Σ_i a_i (b_i · e_t), read off column t of the rows with no
        product."""
        return [combine(a, column, self.orders) for column in zip(*self.rows)]

    def restrict(self, lift, rank) -> list:
        """The table over a quotient ring of rank `rank` that acts here:
        entry [a][t] is lift(u_a) · e_t, for its basis u_a."""
        return [self.multiples(lift(u)) for u in basis_vectors(rank)]

    @staticmethod
    def quotient(orders, rows, gens) -> tuple:
        """``(orders, table, project, lift)`` for ⊕_t Z/orders[t], with the
        basis rows `rows` in the form of `_Coordinates.rows`, modulo the
        span of the images b_i · x of `gens`, by Smith normal form, with
        `table[i][j]` = project(b_i · lift(u_j)) over the quotient's basis
        u_j. Only the rows are read, so the ambient group need not be
        built: `realize` passes R^k's as R's, shifted into each block."""

        images = [combine(x, row, orders) for x in gens for row in rows]
        qorders, project, lift = abelian_quotient(orders, images)
        lifts = [lift(u) for u in basis_vectors(len(qorders))]
        table = [[project(combine(x, row, orders)) for x in lifts] for row in rows]
        return qorders, table, project, lift

    def check_laws(self, ring):
        """Check exactly that `ring` (R) acting through the table is a
        module, on the basis triples (b_i, b_j, e_t); raises ValueError
        naming the first law that fails.

        `_product` is the bilinear extension of the table to coordinate
        representatives. It is well defined on R x ⊕ Z/d'_t, hence
        distributive in both arguments, exactly when d_i·(b_i·e_t) = 0
        and d'_t·(b_i·e_t) = 0 for R's additive orders d_i. Then 1·x = x
        is linear in x and (ab)·x = a·(b·x) trilinear in a, b, x, so they
        hold on all elements once they hold on the bases: 1·e_t = e_t and
        (b_i b_j)·e_t = b_i·(b_j·e_t). So these checks are complete. They
        read R's product only on basis pairs, so R acting on itself runs
        them too: with a commutative table they are the ring laws (see
        `FiniteRing._validate`).
        """
        label = self.label
        for t, (x, e) in enumerate(zip(self.multiples(ring.one), basis_vectors(self.rank))):
            if x != e:
                raise ValueError(f"{label}: 1x = x fails at x = e_{t}")
        for i, (d, row) in enumerate(zip(ring.orders, self.table)):
            for t, (v, d_t) in enumerate(zip(row, self.orders)):
                if self.scale(d, v) != self.zero or self.scale(d_t, v) != self.zero:
                    raise ValueError(
                        f"{label}: b_{i} e_{t} is not killed by d_{i} and d'_{t}, "
                        "so the action is not well defined (distributivity fails)"
                    )
        for i, products in enumerate(ring.table):
            for j, b_ij in enumerate(products):
                for t, x in enumerate(self.multiples(b_ij)):
                    if x != self.row_image(i, self.table[j][t]):
                        raise ValueError(
                            f"{label}: (ab)x = a(bx) fails at a = b_{i}, "
                            f"b = b_{j}, x = e_{t}"
                        )

    def span(self, elems, start=1) -> int:
        """Mask of the ideal or submodule generated by the elements and
        the ideal or submodule mask `start`: the additive span of their
        images, which is already closed under the action."""
        return self.shifts.closure(self.images(elems), start)

    def greedy(self, members: int, start=1) -> tuple:
        """Greedy generating set (element indices) of the ideal or
        submodule `members` over the mask `start`: each member, in index
        order, that `start` and the earlier ones do not span."""
        return _greedy(self, members, start, self.span)


def _greedy(coords: _Coordinates, members: int, start: int, span) -> tuple:
    """The loop of `_Coordinates.greedy`, closing each step with `span`:
    `coords.span`, or a routine a caller knows gives the same masks over
    `start` more cheaply: over a mask that contains mM, the additive
    closure of a vector v and of the b_i·v for R/m's span columns (see
    `modules._residue_span`)."""
    gens = []
    rest = members & ~start
    while rest:
        idx = (rest & -rest).bit_length() - 1
        gens.append(idx)
        start = span([coords.element(idx)], start)
        rest = members & ~start
    return tuple(gens)


class FiniteRing(_Coordinates):
    """A ring given by its additive orders d_i, the products b_i b_j of
    its basis as coordinate tuples, and its one: a module over itself,
    so its table passes `_Coordinates`' shape rule with r rows. With
    `validate` (the default) the table is checked to be a ring; the
    constructors pass False for the rings they build by construction. Its
    derived facts are cached properties, formed when first read: `_factors`
    (what `_factor` returns), the sorted maximal ideals and `unit_mask`."""

    def __init__(self, additive_orders, mul_table, one, label, *, validate=True):
        self.label = label
        orders = tuple(int(d) for d in additive_orders)
        if not orders or any(d < 2 for d in orders):
            raise ValueError("additive orders must be a nonempty list of integers >= 2")
        size = math.prod(orders)
        if size > RING_SIZE_GUARD:
            raise GuardExceeded(
                "ring-size", f"|{label}| = {size} exceeds guard {RING_SIZE_GUARD}"
            )
        super().__init__(orders, mul_table, len(orders))
        self.additive_orders = self.orders
        self.mul_table = self.table
        self.one = self.reduce(one)
        if validate:
            self._validate()

    mul = _Coordinates._product

    # -- derived facts -------------------------------------------------------

    @cached_property
    def _factors(self) -> dict:
        """Maximal-ideal mask -> `LocalFactor`, as `_factor` finds them."""
        return _factor(self)

    @cached_property
    def _maximal_ideals(self) -> tuple:
        """The maximal ideals of `local_factorization`, sorted by members;
        read through it, so that R is factored under one name."""
        return tuple(sorted((f.ideal for f in local_factorization(self)), key=lambda i: i.members))

    @cached_property
    def unit_mask(self) -> int:
        """Mask of the units: the elements in no maximal ideal."""
        rest = self.full_mask
        for ideal in maximal_ideals(self):
            rest &= ~ideal.members
        return rest

    @property
    def unit_count(self) -> int:
        return self.unit_mask.bit_count()

    def units(self) -> frozenset:
        """The units as coordinate tuples, built from `unit_mask` on each
        call: the mask is read as a string whose character i is bit i, and
        picks them out of the elements in index order."""
        bits = bin(self.unit_mask)[:1:-1]
        return frozenset(itertools.compress(self.iter_elements(), map("1".__eq__, bits)))

    def __repr__(self):
        return f"FiniteRing({self.label}, |R|={self.size})"

    # -- validation ----------------------------------------------------------

    def _validate(self):
        """Check the ring laws exactly: a commutative basis table, and R a
        module over itself through it (`check_laws`). With the table
        commutative, the module laws are the ring laws: 1 is a unit on
        either side, the product is well defined on ⊕ Z/d_i, hence
        distributive on either side, and associative.
        """
        table = self.table
        if any(table[i][j] != table[j][i] for i in range(self.rank) for j in range(i)):
            raise ValueError(f"{self.label}: basis product not commutative")
        self.check_laws(self)


# -- ideals ------------------------------------------------------------------


@dataclass(frozen=True)
class Ideal:
    """An ideal is its members mask. `spanning` holds the elements it was
    built from, whose ideal span is that mask; the greedy `generators`
    are derived from the mask when first read."""

    ring: FiniteRing
    members: int  # bitmask over the ring's element indices
    spanning: tuple = field(compare=False)  # coordinate tuples spanning the members

    @cached_property
    def generators(self) -> tuple:
        """The greedy generating set in R's element order, as coordinate
        tuples; derived when first read."""
        return tuple(self.ring.element(i) for i in self.ring.greedy(self.members))

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


def ideal_generated(ring: FiniteRing, gens) -> Ideal:
    """Smallest ideal containing `gens` (coordinate tuples), spanned by
    them in sorted order."""
    gens = [ring.reduce(g) for g in gens]
    return Ideal(ring, ring.span(gens), tuple(sorted(gens)))


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
    # Z/n is a ring, so construction skips `_validate`
    if n < 2:
        raise ValueError(f"Z/{n}: modulus must be at least 2")
    return FiniteRing([n], [[(1,)]], (1,), f"Z/{n}", validate=False)


def _prime_powers(n: int) -> list:
    """[(p, a)] with p^a exactly dividing n, p ascending; [] for n < 2."""
    out, p = [], 2
    while n > 1:
        if p * p > n:
            p = n
        a = 0
        while n % p == 0:
            n //= p
            a += 1
        if a:
            out.append((p, a))
        p += 1
    return out


@cache  # read by `ring_gf` on each build or lookup; its arguments are within the ring guard
def _is_prime(n: int) -> bool:
    return _prime_powers(n) == [(n, 1)]


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


def _is_irreducible(f, p) -> bool:
    """Whether monic f is irreducible over Z/p, that is, whether
    Z/p[x]/(f), on the basis 1, x, ..., x^(k-1), is a field."""
    k = len(f) - 1
    if k < 1:
        return False
    return _is_field(_frobenius(lambda a, b: _poly_mulmod(a, b, f, p), k, p), p)


def smallest_irreducible(p: int, k: int):
    """Lexicographically smallest monic irreducible of degree k over Z/p.

    Coefficients are low-degree first; lexicographic order compares the
    tuple (c_0, ..., c_{k-1}).
    """
    for tail in itertools.product(range(p), repeat=k):
        f = list(tail) + [1]
        # x divides f when f(0) = 0, so only x itself is irreducible then
        if (f[0] or k == 1) and _is_irreducible(f, p):
            return f
    raise AssertionError("no irreducible polynomial found")  # unreachable


def ring_gf(p: int, k: int = 1, f=None) -> FiniteRing:
    """The finite field F_{p^k} as Z/p[x]/(f); f is read modulo p, so
    coefficient lists equal mod p give one ring. A p over the ring-size
    guard trips it before p is tested for primality, which would take
    trial division up to sqrt(p)."""
    if k < 1:
        raise ValueError("GF: extension degree must be >= 1")
    if p > RING_SIZE_GUARD:
        raise GuardExceeded("ring-size", f"GF({p}^{k}) exceeds guard {RING_SIZE_GUARD}")
    if not _is_prime(p):
        raise ValueError(f"GF: {p} is not prime")
    if f is not None:
        f = [int(c) % p for c in f]
    key = ("GF", p, k, None if f is None else tuple(f))
    return _INTERNED.get(key, lambda: _build_gf(p, k, f))


def _build_gf(p, k, f):
    # Z/p[x]/(f) is a ring for every monic f, so construction skips `_validate`
    if power_exceeds(p, k, RING_SIZE_GUARD):
        raise GuardExceeded("ring-size", f"GF({p}^{k}) exceeds guard {RING_SIZE_GUARD}")
    if f is None:
        f = smallest_irreducible(p, k)
        label = f"GF({p})" if k == 1 else f"GF({p}^{k})"
    else:
        if len(f) != k + 1 or f[-1] != 1:
            raise ValueError(f"GF: f must be monic of degree {k}")
        if not _is_irreducible(f, p):
            raise ValueError(f"GF({p}^{k}): polynomial {f} is reducible")
        label = f"GF({p}^{k}; f={','.join(str(c) for c in f)})"
    basis = basis_vectors(k)  # 1, x, ..., x^(k-1)
    table = [[tuple(_poly_mulmod(xi, xj, f, p)) for xj in basis] for xi in basis]
    return FiniteRing([p] * k, table, basis[0], label, validate=False)


def ring_product(a: FiniteRing, b: FiniteRing) -> FiniteRing:
    """Direct product with componentwise operations."""
    return _INTERNED.get(("x", a, b), lambda: _build_product(a, b))


def _build_product(a, b):
    # a product of two rings is a ring, so construction skips `_validate`
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
        validate=False,
    )


# -- quotients and factorization ------------------------------------------------


def quotient_ring(ring: FiniteRing, ideal: Ideal):
    """Cosets of an ideal, with induced operations, by `ring.quotient`.

    Returns ``(quotient, project, lift)`` where project/lift translate
    between ring elements and quotient coordinates. The product table is
    R's action on R/I restricted to lifts: project(lift(u) · lift(v)). A
    ring modulo an ideal is a ring, so construction skips `_validate`.
    """
    if ideal.ring is not ring:
        raise ValueError("ideal belongs to a different ring")
    qorders, action, project, lift = _Coordinates.quotient(ring.orders, ring.rows, ideal.spanning)
    if not qorders:
        raise ValueError("quotient by the unit ideal is the zero ring")
    table = _Coordinates(qorders, action, ring.rank).restrict(lift, len(qorders))
    label = f"({ring.label})/<{','.join(str(g) for g in ideal.spanning)}>"
    q = FiniteRing(qorders, table, project(ring.one), label, validate=False)
    return q, project, lift


@dataclass(frozen=True)
class LocalFactor:
    """One local factor eR of R ≅ ∏ eR, e a primitive idempotent, and its
    maximal ideal m_e = (1-e)R + eJ, J the radical of R. `_factor` builds
    one per e, by linear algebra over the residue characteristic p, and
    certifies m_e there from the Frobenius of R/pR. The factor ring eR is
    not built: modules read the decomposition only through e and eJ, the
    residue layer through m_e and R/m_e's coordinates, and the covering
    number only through m_e and |R/m_e|."""

    idempotent: tuple
    ideal: Ideal  # m_e
    p: int
    rows: tuple  # reduced echelon over F_p of m_e's image in R/pR
    pivots: tuple

    @cached_property
    def radical(self) -> tuple:
        """The nonzero additive generators of eJ, built when first read:
        the images of e r_1 = g_1 - (1-e) and of the e r_j, the elements
        that span m_e after g_1 (see `_factor`)."""
        ring = self.ideal.ring
        g_1, *e_r = self.ideal.spanning
        e_r_1 = ring.sub(g_1, ring.sub(ring.one, self.idempotent))
        return tuple(a for a in dict.fromkeys(ring.images([e_r_1, *e_r])) if any(a))

    @cached_property
    def residue_columns(self) -> tuple:
        """R/m_e's coordinates, read when first asked for: the columns of
        A = R/pR (R's columns i with p | d_i) that are not pivots of the
        echelon of m̄_e. They are a basis of A/m̄_e = R/m_e, so the basis
        vectors b_i of R on them lift R/m_e's basis, in order."""
        support = _support(self.ideal.ring, self.p)
        return tuple(c for j, c in enumerate(support) if j not in self.pivots)

    @cached_property
    def span_columns(self) -> tuple:
        """The residue columns but the one exchanged for 1: the first on
        which the residue of 1 is nonzero. So 1 and the b_i of these lift
        an F_p-basis of R/m_e. When |R/m_e| = p there is one residue
        column, and 1 is not in m_e, so that column is the one exchanged
        and none is left; no column is formed to learn it."""
        if self.ideal.residue_size == self.p:
            return ()
        columns = self.residue_columns
        one = self.residue(self.ideal.ring.one)
        exchanged = next(j for j, c in enumerate(one) if c)
        return columns[:exchanged] + columns[exchanged + 1 :]

    def residue(self, x) -> tuple:
        """The coordinates of x + m_e in R/m_e: x mod p on A's columns,
        reduced by the echelon rows and read on the residue columns."""
        support = _support(self.ideal.ring, self.p)
        reduced = _reduce(self.rows, self.pivots, [x[i] for i in support], self.p)
        columns = self.residue_columns
        return tuple(c for i, c in zip(support, reduced) if i in columns)

    @cached_property
    def residue_field(self) -> tuple:
        """``(field, project, lift)`` for R/m_e, built when first read;
        when m_e = 0, R is a field and is its own residue field."""
        ring = self.ideal.ring
        if self.ideal.members == 1:
            return ring, ring.reduce, ring.reduce
        return _residue_field(self)


def local_factorization(ring: FiniteRing) -> tuple:
    """The `LocalFactor` of each primitive idempotent, sorted by the
    idempotents' coordinates. Computed once per ring, on the first read
    of it or of the maximal ideals (see `_factor`)."""
    return tuple(ring._factors.values())


def maximal_ideals(ring: FiniteRing) -> list:
    """All maximal ideals, one per local factor, sorted by members bitmask.

    Each is certified once, when R is factored: the quotient by it is a
    field, read off the Frobenius of R/pR with no residue ring built.
    """
    return list(ring._maximal_ideals)


def local_factor(ideal: Ideal) -> LocalFactor:
    """The `LocalFactor` whose maximal ideal is m; raises ValueError
    unless m is a maximal ideal."""
    factor = ideal.ring._factors.get(ideal.members)
    if factor is None:
        raise ValueError(f"{ideal} is not a maximal ideal")
    return factor


def residue_field(ideal: Ideal):
    """``(field, project, lift)`` for R/m: the field, the map from R onto
    its coordinates, and a map back whose images project to the same
    coordinates. It is the `LocalFactor.residue_field` of m, which
    `_factor` certified."""
    return local_factor(ideal).residue_field


def _factor(ring: FiniteRing) -> dict:
    """The `LocalFactor` of each maximal ideal, keyed by its members mask
    in the order of the idempotents' coordinates, found by linear algebra
    over F_p (`_primary_idempotents`), with no sweep over the elements and
    no Smith normal form. Nothing is stored: the ring keeps the map as
    its `_factors`.

    R is the product of its p-primary parts R_p, and the primitive
    idempotents of R are those of the R_p. For each one, e, the factor eR
    is local, and m_e = (1-e)R + J_p is the maximal ideal not containing
    e, where J_p, generated by r_1 = p and the lifts r_j of rad(R/pR), is
    the preimage of the radical of R/pR; (1-e)R holds every other factor,
    so J_p adds only eJ_p = eJ. Since g_1 = (1-e) + e r_1 has
    g_1 (1-e) = 1-e, m_e is spanned by g_1 and the nonzero e r_j, in one
    span, and eJ by e r_1 and the e r_j. Orthogonal idempotents summing
    to 1 give R = ⊕ eR, so they are checked and the factors are not
    built.

    Each m_e, m_e = 0 included, is certified here with no residue ring:
    R/(m_e + pR) is A/m̄_e for A = R/pR and m̄_e the image of m_e, and it
    must be a field of order p^f, f = dim A/m̄_e, with |R/m_e| = p^f, so
    that pR lies in m_e and R/m_e is that field. When m̄_e ≠ 0, A's
    Frobenius, reduced modulo the echelon of m̄_e and read on its
    non-pivot columns, is the Frobenius of A/m̄_e, and it must pass
    `_is_field`. When m̄_e = 0, A/m̄_e is A and its Frobenius is A's,
    whose kernels `_primary_idempotents` has formed: the radical kernel
    ker F^s, zero exactly when ker F is, and the fixed space ker(F - I).
    The same test, `_kernels_of_a_field`, is read off those two. This is
    the only field check: R/m_e is built from the same echelon, stored
    in the record, when first read.
    `construct_cover` walks a field's elements in its coordinates, so
    these fix the order of its certificates.
    """
    char = reduce(
        math.lcm, (d // math.gcd(d, c) for c, d in zip(ring.one, ring.additive_orders))
    )  # the additive order of 1
    parts = []  # (idempotent, p, generators r_j of J_p, Frobenius of R/pR, its kernels)
    for p, a in _prime_powers(char):
        rest = char // p**a
        e_p = ring.scale(rest * pow(rest, -1, p**a), ring.one)  # 1 in R_p, 0 elsewhere
        idempotents, radical_gens, frobenius, kernels = _primary_idempotents(ring, p, e_p)
        parts += [(e, p, radical_gens, frobenius, kernels) for e in idempotents]
    parts.sort(key=lambda part: part[0])
    # sanity: pairwise orthogonal and summing to 1
    acc = ring.zero
    for i, (e, *_) in enumerate(parts):
        acc = ring.add(acc, e)
        for f, *_ in parts[i + 1 :]:
            if ring.mul(e, f) != ring.zero:
                raise AssertionError("primitive idempotents not orthogonal")
    if acc != ring.one:
        raise AssertionError("primitive idempotents do not sum to 1")

    factors = {}
    for e, p, (r_1, *r_rest), frobenius, kernels in parts:
        spanning = [ring.add(ring.sub(ring.one, e), ring.mul(e, r_1))]
        spanning += [g for g in (ring.mul(e, r) for r in r_rest) if g != ring.zero]
        images = ring.images(spanning)
        mask = ring.shifts.closure(images)
        support = _support(ring, p)
        rows, pivots = _echelon([[x[i] for i in support] for x in images], p)
        if rows:
            field = _is_field(_residue_frobenius(frobenius, rows, pivots, p), p)
        else:  # m̄_e = 0, so A/m̄_e is A, whose kernels are at hand
            field = _kernels_of_a_field(*kernels)
        degree = len(frobenius) - len(rows)  # dim A/m̄_e
        if ring.size != mask.bit_count() * p**degree or not field:
            raise AssertionError(f"{ring.label}: quotient by a maximal ideal is not a field")
        ideal = Ideal(ring, mask, tuple(spanning))
        factors[mask] = LocalFactor(e, ideal, p, tuple(map(tuple, rows)), tuple(pivots))
    return factors


def _support(ring, p) -> list:
    """The coordinates i with p | d_i. pR is ⊕ pZ/d_i, so A = R/pR is ⊕ Z/p
    over these coordinates, read as x_i mod p."""
    return [i for i, d in enumerate(ring.additive_orders) if d % p == 0]


def _residue_frobenius(frobenius, rows, pivots, p) -> list:
    """The Frobenius of A/m̄ on the basis of A's non-pivot columns, given
    A's Frobenius and the reduced echelon form ``(rows, pivots)`` of the
    ideal m̄: (x + m̄)^p = x^p + m̄, so each image is A's, reduced by the
    echelon rows and read on the non-pivot columns."""
    spots = [j for j in range(len(frobenius)) if j not in pivots]
    reduced = (_reduce(rows, pivots, frobenius[j], p) for j in spots)
    return [[x[k] for k in spots] for x in reduced]


def _residue_field(factor: LocalFactor) -> tuple:
    """``(field, project, lift)`` for R/m, m the maximal ideal of the
    `LocalFactor` factor, which contains p; the elements that span m name
    the field.

    Then R/m = A/m̄, for A = R/pR and m̄ the image of m there. `project`
    is the record's `residue`, and `lift` puts coordinates back on its
    residue columns, with zeros elsewhere. The basis of R/m is the image
    of the basis vectors of R on those columns, so its table is f^2
    entries of R's table projected, f = dim A/m̄.
    """
    ring = factor.ideal.ring
    columns = factor.residue_columns
    project = factor.residue
    table = [[project(ring.mul_table[i][j]) for j in columns] for i in columns]
    label = f"({ring.label})/<{','.join(str(g) for g in factor.ideal.spanning)}>"
    residue = FiniteRing(
        [factor.p] * len(columns), table, project(ring.one), label, validate=False
    )
    return residue, project, _placing(ring.rank, columns)


def _placing(rank, columns):
    """The map putting coordinates on `columns` of a rank-`rank` tuple,
    with zeros elsewhere: the lift from R/pR, or from a residue field,
    back to R."""

    def lift(y):
        x = [0] * rank
        for i, v in zip(columns, y):
            x[i] = v
        return tuple(x)

    return lift


def _primary_idempotents(ring, p, e_p) -> tuple:
    """``(idempotents, radical_gens, frobenius, kernels)``: the primitive
    idempotents e of R_p = e_p R, generators of the ideal J_p = pR +
    rad(R/pR) R, the preimage of the radical of R/pR, which is the same
    for every e, the Frobenius F of A = R/pR on its basis, and the bases
    of ker F^s and of ker(F - I) that are formed on the way, from which
    `_factor` certifies A when it is a residue field.

    R is ⊕ Z/d_i, so pR is ⊕ pZ/d_i and A = R/pR is ⊕ Z/p over the
    coordinates with p | d_i, read mod p; `lift` puts them back with
    zeros elsewhere, and A multiplies by R's own product on the lifts,
    read mod p. A = R_p/pR_p is an F_p-algebra. Frobenius F is F_p-linear
    on A, and rad A = ker F^s once p^s >= dim A, since a nilpotent of A
    has x^(dim A) = 0. In a local factor of A, x^p = x makes x^(p-1) an
    idempotent, so x is 0 or a unit c + n with c in F_p and n nilpotent,
    and then x = x^(p^k) = c + n^(p^k) = c. So the fixed space
    K = ker(F - I) of A itself is the F_p-span of A's t primitive
    idempotents. For b in K and c in F_p, 1 - (b - c)^(p-1) is the
    idempotent of the factors where b is c, so splitting 1 by these over
    a basis of K gives the t primitive idempotents. Each lifts uniquely to
    R_p by Newton's step e <- 3e^2 - 2e^3, as pR_p is nilpotent; when
    t = 1 the one it lifts to is e_p itself, and no step is taken.
    """
    support = _support(ring, p)
    lift = _placing(ring.rank, support)
    n = len(support)

    def mul(x, y):
        product = ring.mul(lift(x), lift(y))
        return tuple(product[i] % p for i in support)

    frobenius = _frobenius(mul, n, p)
    nil, reach = frobenius, p
    images = [tuple(enumerate(y)) for y in frobenius]
    while reach < n:
        nil = [combine(x, images, (p,) * n) for x in nil]
        reach *= p
    radical = _kernel(nil, p)
    radical_gens = [ring.scale(p, ring.one)] + [lift(r) for r in radical]

    one = tuple(ring.one[i] % p for i in support)
    fixed = _fixed_space(frobenius, p)
    idems = [one]
    for b in fixed:
        if len(idems) == len(fixed):
            break
        split = []
        for c in range(p):
            shifted = tuple((v - c * o) % p for v, o in zip(b, one))
            level = _power(mul, shifted, p - 1)
            level = tuple((o - v) % p for o, v in zip(one, level))
            for e in idems:
                part = mul(e, level)
                if any(part):
                    split.append(part)
        idems = split
    if len(idems) == 1:
        idempotents = [e_p]
    else:
        idempotents = [_lift_idempotent(ring, ring.mul(e_p, lift(e))) for e in idems]
    return idempotents, radical_gens, frobenius, (radical, fixed)


def _lift_idempotent(ring, e):
    """The idempotent congruent to e modulo a nilpotent ideal containing
    e^2 - e, by Newton's step e <- 3e^2 - 2e^3, which squares that ideal."""
    for _ in range(ring.size.bit_length()):
        square = ring.mul(e, e)
        if square == e:
            return e
        e = ring.sub(ring.scale(3, square), ring.scale(2, ring.mul(square, e)))
    raise AssertionError(f"{ring.label}: idempotent lifting does not converge")
