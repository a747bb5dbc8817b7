"""Every quotient is built by `_Coordinates.quotient`; these compare it
with the earlier constructions kept in `oracles`: `realize` over R^k
flattened, and the lifted-basis `quotient_module` and `quotient_ring`,
which multiply lifted basis vectors and project. Localization is compared
with its oracle in test_modules."""

import itertools

import pytest

from modcover.dsl import parse_ring
from modcover.modules import ModulePresentation, jacobson_radical, quotient_module, realize
from modcover.rings import (
    maximal_ideals,
    quotient_ring,
    ring_gf,
    ring_product,
    ring_zmod,
    zero_ideal,
)

import oracles
from oracles import PINNED_RINGS, corpus_modules, elements

# |R^k| up to which `project` is compared on every element of R^k
FREE_ELEMENTS = 4096


def quotient_elements(orders):
    return itertools.product(*(range(d) for d in orders))


def assert_same_quotient(got, want, ambient, label):
    """got and want are ``(orders, table, project, lift)``; the tables
    agree, lift is a section of project, and the projections agree on
    every element of `ambient`."""
    g_orders, g_table, g_project, g_lift = got
    w_orders, w_table, w_project, _ = want
    assert tuple(g_orders) == tuple(w_orders), label
    assert [list(row) for row in g_table] == [list(row) for row in w_table], label
    assert all(g_project(g_lift(u)) == u for u in quotient_elements(g_orders)), label
    assert all(g_project(x) == w_project(x) for x in ambient), label


def assert_realize_matches_flatten(pres, label):
    m = realize(pres)
    want = oracles.realize_by_flatten(pres)
    free = oracles.free_coordinates(pres.ring, pres.num_generators)
    orders, table, project, lift = free.quotient([sum(rel, ()) for rel in pres.relations])
    assert (orders, [list(row) for row in table]) == (
        m.orders,
        [list(row) for row in m.basis_act],
    ), label
    ambient = free.iter_elements() if free.size <= FREE_ELEMENTS else ()
    assert_same_quotient((orders, table, project, lift), want, ambient, label)


def test_realize_matches_flatten_on_the_corpus():
    for m in corpus_modules():
        assert_realize_matches_flatten(m.presentation, m.label)


Z6 = ring_zmod(6)
Z4_GF4 = ring_product(ring_zmod(4), ring_gf(2, 2))
GF64 = ring_gf(2, 6)


@pytest.mark.parametrize(
    "pres",
    [
        ModulePresentation(Z6, 0, ()),
        ModulePresentation(Z6, 0, ((),)),
        ModulePresentation(ring_zmod(4), 3, (((2,), (1,), (3,)), ((0,), (2,), (2,)))),
        ModulePresentation(Z4_GF4, 1, ()),
        ModulePresentation(Z4_GF4, 2, (((2, 1, 0), (1, 0, 1)),)),
        ModulePresentation(GF64, 1, ()),
        ModulePresentation(GF64, 2, (((1, 0, 1, 0, 0, 1), (0, 1, 0, 0, 1, 1)),)),
    ],
    ids=["k0", "k0-empty-relation", "k3", "Z4xGF4", "Z4xGF4-rel", "GF64", "GF64-rel"],
)
def test_realize_matches_flatten(pres):
    assert_realize_matches_flatten(pres, pres.to_dsl())


def test_quotient_module_matches_lifts_on_m_mod_radical():
    for m in corpus_modules():
        radical = jacobson_radical(m)
        q, project, lift = quotient_module(m, radical)
        want_q, want_project, want_lift = oracles.quotient_module_by_lifts(m, radical)
        assert_same_quotient(
            (q.orders, q.basis_act, project, lift),
            (want_q.orders, want_q.basis_act, want_project, want_lift),
            elements(m),
            m.label,
        )


@pytest.mark.parametrize("text", PINNED_RINGS)
def test_quotient_ring_matches_lifts(text):
    ring = parse_ring(text)
    for ideal in maximal_ideals(ring) + [zero_ideal(ring)]:
        q, project, lift = quotient_ring(ring, ideal)
        want, want_project, want_lift = oracles.quotient_ring_by_lifts(ring, ideal)
        assert q.one == want.one, text
        assert_same_quotient(
            (q.additive_orders, q.mul_table, project, lift),
            (want.additive_orders, want.mul_table, want_project, want_lift),
            elements(ring),
            f"{text} / {ideal}",
        )
