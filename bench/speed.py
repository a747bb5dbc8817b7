"""Machine-speed adjustment for the timed run.

The benchmark's machine shares its cores with other jobs: identical runs
differed by up to 90% in time, and every query in a run slowed by about
the same factor. A fixed kernel, timed just before and just after each
query, measures that factor. Each latency is rescaled to a machine on
which the kernel takes REFERENCE_KERNEL_S, about its time on the baseline
machine when the machine was quiet.

Contention slows allocation-heavy, dict- and tuple-heavy Python more than
a tight arithmetic loop, so the kernel is a frozen miniature of what
modcover does: it enumerates a small ring as coordinate tuples, indexes
them in a dict, multiplies through a structure-constant table and closes
ideals under addition, ending in bitmasks. It never calls modcover, so a
change to modcover cannot move it.

All times are CPU time of the calling thread, so time spent descheduled
while another process runs is left out of both the query and the kernel.
"""

from __future__ import annotations

import itertools
import time

REFERENCE_KERNEL_S = 0.00007

clock = time.thread_time

# Z/4 x Z/15: the basis idempotents' products, one row per basis element
_ORDERS = (4, 15)
_TABLE = (((1, 0), (0, 0)), ((0, 0), (0, 1)))
_BASIS = ((1, 0), (0, 1))
_GENERATORS = ((2, 3), (1, 5), (0, 6))


def _mul(x, y):
    acc = [0, 0]
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if not yj:
                continue
            c = xi * yj
            for k, bk in enumerate(_TABLE[i][j]):
                if bk:
                    acc[k] += c * bk
    return tuple(a % d for a, d in zip(acc, _ORDERS))


def _add(x, y):
    return tuple((a + b) % d for a, b, d in zip(x, y, _ORDERS))


def speed_kernel() -> int:
    elements = list(itertools.product(*(range(d) for d in _ORDERS)))
    index = {e: i for i, e in enumerate(elements)}
    total = 0
    for g in _GENERATORS:
        members = {index[(0, 0)]}
        for gi in [index[_mul(b, g)] for b in _BASIS]:
            base = list(members)
            cur = gi
            while cur not in members:
                members.update(index[_add(elements[x], elements[cur])] for x in base)
                cur = index[_add(elements[cur], elements[gi])]
        mask = 0
        for i in frozenset(members):
            mask |= 1 << i
        total += mask.bit_count()
    return total


def kernel_seconds() -> float:
    """Fastest of three back-to-back kernel runs, which shrugs off a single
    interruption but still follows slowdowns that last longer."""
    best = float("inf")
    for _ in range(3):
        start = clock()
        speed_kernel()
        best = min(best, clock() - start)
    return best


def at_reference_speed(seconds, kernel_before, kernel_after) -> float:
    return seconds * 2 * REFERENCE_KERNEL_S / (kernel_before + kernel_after)
