"""Integer Smith normal form and finite abelian group quotients.

Everything here works with plain Python ints and nested lists; matrices
are small (a handful of rows per ring/module coordinate), so no numpy.
"""

from __future__ import annotations

from typing import Callable, Sequence


def smith_normal_form(rows: Sequence[Sequence[int]], ncols: int):
    """Diagonalize an integer matrix by unimodular row/column operations.

    Returns ``(diag, V, Vinv)`` where ``diag`` is the list of the first
    ``ncols`` diagonal entries (non-negative, each dividing the next) and
    ``V``/``Vinv`` are the mutually inverse column transforms, i.e. for
    some unimodular U (not tracked): U * A * V = D.
    """
    A = [list(map(int, r)) for r in rows]
    m = len(A)
    n = ncols
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    Vinv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_cols(i, j):
        if i == j:
            return
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]
        Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    def add_col(src, dst, c):
        # column dst += c * column src
        if c == 0:
            return
        for row in A:
            row[dst] += c * row[src]
        for row in V:
            row[dst] += c * row[src]
        for k in range(n):
            Vinv[src][k] -= c * Vinv[dst][k]

    def neg_col(i):
        for row in A:
            row[i] = -row[i]
        for row in V:
            row[i] = -row[i]
        Vinv[i] = [-x for x in Vinv[i]]

    def swap_rows(i, j):
        if i != j:
            A[i], A[j] = A[j], A[i]

    def add_row(src, dst, c):
        if c:
            A[dst] = [a + c * b for a, b in zip(A[dst], A[src])]

    def take_pivot(t) -> bool:
        """Swap the first entry of least nonzero magnitude in rows and
        columns t.. into (t, t); False if they are all zero."""
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                v = A[i][j]
                if v and (pivot is None or abs(v) < abs(A[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            return False
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        return True

    t = 0
    while t < m and t < n:
        if not take_pivot(t):
            break
        while True:
            dirty = False
            for i in range(t + 1, m):
                q = A[i][t] // A[t][t]
                add_row(t, i, -q)
                if A[i][t]:
                    swap_rows(t, i)
                    dirty = True
            for j in range(t + 1, n):
                q = A[t][j] // A[t][t]
                add_col(t, j, -q)
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
                    q = A[i][t] // A[t][t]
                    add_row(t, i, -q)
                    if A[i][t]:
                        dirty = True
                for j in range(t + 1, n):
                    q = A[t][j] // A[t][t]
                    add_col(t, j, -q)
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
    return diag, V, Vinv


def abelian_quotient(
    orders: Sequence[int], gens: Sequence[Sequence[int]]
) -> tuple[tuple[int, ...], Callable, Callable]:
    """Quotient of the group ⊕_i Z/orders[i] by the subgroup spanned by `gens`.

    Returns ``(new_orders, project, lift)``. ``new_orders`` are the cyclic
    invariant factors (each ≥ 2; empty tuple for the trivial quotient).
    ``project`` maps an ambient coordinate tuple to canonical quotient
    coordinates; ``lift`` is a section of ``project``.
    """
    r = len(orders)
    rows = [[orders[i] if j == i else 0 for j in range(r)] for i in range(r)]
    rows.extend(list(g) for g in gens)
    diag, V, Vinv = smith_normal_form(rows, r)
    # the lattice contains orders[i]*e_i, so every diagonal entry is >= 1
    keep = [j for j in range(r) if diag[j] > 1]
    new_orders = tuple(diag[j] for j in keep)

    def project(x):
        return tuple(
            sum(x[i] * V[i][j] for i in range(r)) % diag[j] for j in keep
        )

    def lift(c):
        full = [0] * r
        for idx, j in enumerate(keep):
            full[j] = c[idx]
        return tuple(
            sum(full[j] * Vinv[j][i] for j in range(r)) % orders[i]
            for i in range(r)
        )

    return new_orders, project, lift
