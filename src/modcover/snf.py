"""Integer Smith normal form and finite abelian group quotients.

Everything here works with plain Python ints and nested lists; matrices
are small (a handful of rows per ring/module coordinate), so no numpy.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ._fp import basis_vectors, combine


def smith_normal_form(rows: Sequence[Sequence[int]], ncols: int):
    """Diagonalize an integer matrix by unimodular row/column operations.

    Returns ``(diag, V, Vinv)`` where ``diag`` is the list of the first
    ``ncols`` diagonal entries (non-negative, each dividing the next) and
    ``V``/``Vinv`` are the mutually inverse column transforms, i.e. for
    some unimodular U (not tracked): U * A * V = D.

    V is carried as n extra rows below A's m, starting as the identity,
    so every column operation moves it with A; pivot search and row
    operations range over the first m rows alone.
    """
    m = len(rows)
    n = ncols
    A = [list(map(int, r)) for r in rows] + [list(e) for e in basis_vectors(n)]
    Vinv = [list(e) for e in basis_vectors(n)]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    def add_col(src, dst, c):
        # column dst += c * column src, skipping the rows where src is 0
        if c == 0:
            return
        for row in A:
            if row[src]:
                row[dst] += c * row[src]
        Vinv[src] = [a - c * b for a, b in zip(Vinv[src], Vinv[dst])]

    def neg_col(i):
        for row in A:
            row[i] = -row[i]
        Vinv[i] = [-x for x in Vinv[i]]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]

    def add_row(src, dst, c):
        if c:
            A[dst] = [a + c * b for a, b in zip(A[dst], A[src])]

    def take_pivot(t) -> bool:
        """Swap the first entry of least nonzero magnitude in rows and
        columns t.. into (t, t); False if they are all zero."""
        pivot, least = None, 0
        for i in range(t, m):
            row = A[i]
            for j in range(t, n):
                v = row[j]
                if v and (pivot is None or abs(v) < least):
                    pivot, least = (i, j), abs(v)
            if least == 1:  # no later entry is smaller
                break
        if pivot is None:
            return False
        i, j = pivot
        if i != t:
            swap_rows(t, i)
        if j != t:
            swap_cols(t, j)
        return True

    t = 0
    while t < m and t < n:
        if not take_pivot(t):
            break
        while True:
            dirty = False
            # a zero entry has quotient 0: nothing to add and nothing to swap
            for i in range(t + 1, m):
                if A[i][t]:
                    add_row(t, i, -(A[i][t] // A[t][t]))
                    if A[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if A[t][j]:
                    add_col(t, j, -(A[t][j] // A[t][t]))
                    if A[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                break
        if A[t][t] < 0:
            neg_col(t)
        t += 1

    # enforce the divisibility chain d_t | d_{t+1}
    t = 0
    while t + 1 < min(m, n):
        a, b = A[t][t], A[t + 1][t + 1]
        if a and b % a != 0:
            add_col(t + 1, t, 1)  # reintroduces an off-diagonal entry
            # re-run elimination from position t
            while True:
                take_pivot(t)  # column t is nonzero: it holds A[t][t] = a
                dirty = False
                for i in range(t + 1, m):
                    if A[i][t]:
                        add_row(t, i, -(A[i][t] // A[t][t]))
                        if A[i][t]:
                            dirty = True
                for j in range(t + 1, n):
                    if A[t][j]:
                        add_col(t, j, -(A[t][j] // A[t][t]))
                        if A[t][j]:
                            dirty = True
                if not dirty:
                    break
            if A[t][t] < 0:
                neg_col(t)
            t = max(t - 1, 0)
        else:
            t += 1

    for j in range(min(m, n)):
        if A[j][j] < 0:
            neg_col(j)
    diag = [A[j][j] if j < m else 0 for j in range(n)]
    return diag, A[m:], Vinv


def abelian_quotient(
    orders: Sequence[int], gens: Sequence[Sequence[int]]
) -> tuple[tuple[int, ...], Callable, Callable]:
    """Quotient of the group ⊕_i Z/orders[i] by the subgroup spanned by `gens`.

    Returns ``(new_orders, project, lift)``. ``new_orders`` are the cyclic
    invariant factors (each ≥ 2; empty tuple for the trivial quotient).
    ``project`` maps an ambient coordinate tuple to canonical quotient
    coordinates; ``lift`` is a section of ``project``. With V the column
    transform of the Smith form, coordinate j of ``project(x)`` is x times
    column j of V, and the lift of basis vector j is row j of V⁻¹ reduced,
    for the kept j: those whose diagonal entry is not 1. Each is one
    `combine` over those columns or rows, kept sparse. ``project`` is a
    homomorphism from Z^r that kills each orders[i]·e_i, so x need not be
    reduced.
    """
    r = len(orders)
    rows = [[0] * r for _ in range(r)]
    for i, d in enumerate(orders):
        rows[i][i] = d
    rows.extend(list(g) for g in gens)
    diag, V, Vinv = smith_normal_form(rows, r)
    # the lattice contains orders[i]*e_i, so every diagonal entry is >= 1,
    # and each divides the next, so the entries 1 come first: the kept
    # columns of V and rows of V⁻¹ are those from `first` on
    first = diag.count(1)
    new_orders = tuple(diag[first:])
    # row i of V on the kept columns, and the kept rows of V⁻¹: their
    # nonzero (idx, v), which `combine` sums
    vrows = [[(idx, v) for idx, v in enumerate(row[first:]) if v] for row in V]
    lifts = [[(i, v) for i, v in enumerate(row) if v] for row in Vinv[first:]]

    def project(x):
        return combine(x, vrows, new_orders)

    def lift(c):
        return combine(c, lifts, orders)

    return new_orders, project, lift
