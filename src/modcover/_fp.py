"""Linear algebra over F_p, on vectors given as sequences of integers,
and `combine`, modcover's one routine that sums a vector from rows.

A linear map is given by the images of the basis vectors. `combine` sums
Σ_t x_t·rows[t] in ⊕ Z/d over sparse or dense rows: every product,
image and multiple of a basis table, every Smith-form coordinate and
every power of the Frobenius in the library is one such sum. The ring
layer uses the F_p helpers to split R/pR into its local factors, to
find its radical, to certify each residue field R/m from the Frobenius
of R/pR (or from the kernels of that Frobenius, when R/m is R/pR
itself) and to read R/m's coordinates off the echelon of m's image.
"""

from __future__ import annotations

from functools import cache


@cache
def basis_vectors(rank: int) -> tuple:
    """The coordinate tuples of the additive basis e_0, ..., e_{rank-1}."""
    return tuple(tuple(int(s == t) for s in range(rank)) for t in range(rank))


def combine(x, rows, orders) -> tuple:
    """Σ_t x_t·rows[t] reduced mod `orders`, where each rows[t] holds the
    (s, v) entries of a vector: the nonzero entries of a sparse basis
    row, or ``tuple(enumerate(y))`` for a dense vector y. A zero x_t reads
    nothing, and neither x nor the rows need be reduced."""
    acc = [0] * len(orders)
    for xt, row in zip(x, rows):
        if xt:
            for s, v in row:
                acc[s] += xt * v
    return tuple([a % d for a, d in zip(acc, orders)])


def _echelon(rows, p) -> tuple:
    """Reduced row echelon form over F_p of vectors of one length:
    ``(rows, pivots)``, the nonzero rows and their pivot columns."""
    rows = [[v % p for v in row] for row in rows]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        top = len(pivots)
        hit = next((i for i in range(top, len(rows)) if rows[i][col]), None)
        if hit is None:
            continue
        rows[top], rows[hit] = rows[hit], rows[top]
        inv = pow(rows[top][col], -1, p)
        pivot_row = rows[top] = [v * inv % p for v in rows[top]]
        for i, row in enumerate(rows):
            c = row[col]
            if c and i != top:
                rows[i] = [(a - c * b) % p for a, b in zip(row, pivot_row)]
        pivots.append(col)
    return rows[: len(pivots)], pivots


def _reduce(rows, pivots, x, p) -> list:
    """The representative of x modulo the span of the echelon rows that
    is zero on every pivot column. Each row is zero on the other pivot
    columns, so one pass clears them all."""
    x = [v % p for v in x]
    for row, col in zip(rows, pivots):
        c = x[col]
        if c:
            x = [(a - c * b) % p for a, b in zip(x, row)]
    return x


def _kernel(images, p) -> list:
    """A basis of the kernel of the F_p-linear map sending the j-th basis
    vector to images[j]."""
    n = len(images)
    rows, pivots = _echelon(zip(*images), p)  # the matrix has the images as columns
    basis = []
    for free in range(n):
        if free not in pivots:
            x = [0] * n
            x[free] = 1
            for row, col in zip(rows, pivots):
                x[col] = -row[free] % p
            basis.append(tuple(x))
    return basis


def _fixed_space(images, p) -> list:
    """A basis of {x : L(x) = x} for the F_p-linear map L sending the j-th
    basis vector to images[j]."""
    return _kernel(
        [tuple((v - (i == j)) % p for i, v in enumerate(img)) for j, img in enumerate(images)],
        p,
    )


def _power(mul, x, n: int):
    """x^n for n >= 1, by squaring with the product `mul`. Once a square
    equals its base, that base is idempotent and every power of it left
    to take is itself, so the squaring stops there."""
    result = None
    while True:
        if n & 1:
            result = x if result is None else mul(result, x)
        n >>= 1
        if not n:
            return result
        square = mul(x, x)
        if square == x:
            return x if result is None else mul(result, x)
        x = square


def _frobenius(mul, n, p) -> list:
    """The images u^p of the basis u of an F_p-algebra of dimension n
    with product `mul`."""
    return [_power(mul, u, p) for u in basis_vectors(n)]


def _is_field(frobenius, p) -> bool:
    """Whether a commutative F_p-algebra A is a field, given the images
    F(u_j) of its basis under Frobenius F(x) = x^p, which is F_p-linear.

    F is injective exactly when A has no nonzero nilpotent: the last
    nonzero x^(p^i) of a nilpotent x is in ker F. A reduced finite A is a
    product of fields, and the Berlekamp kernel ker(F - I) = {x : x^p = x}
    is F_p in each field, so it has dimension 1 exactly when A is one field.
    """
    return _kernels_of_a_field(_kernel(frobenius, p), _fixed_space(frobenius, p))


def _kernels_of_a_field(nilpotent, fixed) -> bool:
    """The test of `_is_field` on kernel bases already formed: `nilpotent`
    a basis of ker F^s for some s >= 1, which is zero exactly when ker F
    is, and `fixed` one of ker(F - I)."""
    return not nilpotent and len(fixed) == 1
