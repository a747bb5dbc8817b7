"""Every quotient is built by `_Coordinates.quotient`, which reads only
basis rows; these compare it record for record with the dense route kept
in `oracles` (R^k's table built, the lifted basis imaged through it, each
entry projected by full sums over V, on the Smith form that scans every
entry), and with the earlier constructions kept there: `realize` over R^k
flattened, and the lifted-basis `quotient_module` and `quotient_ring`,
which multiply lifted basis vectors and project. Localization is compared
with its oracle in test_modules."""

import itertools

import pytest

from modcover import rings, snf
from modcover.dsl import parse_presentation, parse_ring
from modcover.harness import corpus_generate
from modcover.modules import ModulePresentation, jacobson_radical, quotient_module, realize
from modcover.rings import (
    Ideal,
    _Coordinates,
    basis_vectors,
    maximal_ideals,
    quotient_ring,
    ring_gf,
    ring_product,
    ring_zmod,
)

import oracles
from oracles import PINNED_RINGS, corpus_modules, elements

# |R^k| up to which `project` is compared on every element of R^k
FREE_ELEMENTS = 4096
CORPUS_SEEDS = (1, 2, 3, 7)


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


def assert_same_record(got, want, rank, label):
    """got and want are ``(orders, table, project, lift)`` over an ambient
    group of rank `rank`: the same orders and table, and the same project
    of every ambient basis vector and lift of every quotient basis vector."""
    g_orders, g_table, g_project, g_lift = got
    w_orders, w_table, w_project, w_lift = want
    assert tuple(g_orders) == tuple(w_orders), label
    assert [list(row) for row in g_table] == [list(row) for row in w_table], label
    for e in basis_vectors(rank):
        assert g_project(e) == w_project(e), (label, e)
    for u in basis_vectors(len(g_orders)):
        assert g_lift(u) == w_lift(u), (label, u)


@pytest.fixture
def snf_inputs(monkeypatch):
    """Every (rows, ncols) the library's Smith form is called on during a
    test; at its end each must give the (diag, V, V⁻¹) of the full scan."""
    recorded = []
    original = snf.smith_normal_form

    def recording(rows, ncols):
        recorded.append(([list(r) for r in rows], ncols))
        return original(rows, ncols)

    monkeypatch.setattr(snf, "smith_normal_form", recording)
    yield recorded
    monkeypatch.undo()
    assert recorded
    for rows, ncols in recorded:
        assert snf.smith_normal_form(rows, ncols) == oracles.smith_normal_form_by_full_scan(
            rows, ncols
        ), (rows, ncols)


def assert_realize_matches_the_dense_route(pres, label):
    """The rows quotient over R^k's rows, and `realize`, against the dense
    route over R^k's table."""
    want = oracles.realize_by_dense_table(pres)
    free = oracles.free_coordinates(pres.ring, pres.num_generators)
    gens = [sum(rel, ()) for rel in pres.relations]
    got = _Coordinates.quotient(free.orders, free.rows, gens)
    assert_same_record(got, want, free.rank, label)
    m = realize(pres)
    assert (m.orders, [list(row) for row in m.table]) == (
        tuple(want[0]),
        [list(row) for row in want[1]],
    ), label


def corpus_texts():
    return [
        s.module_expr for seed in CORPUS_SEEDS for s in corpus_generate(seed=seed, count=200)
    ]


def test_realize_matches_the_dense_route_on_the_corpora(snf_inputs):
    for text in corpus_texts():
        assert_realize_matches_the_dense_route(parse_presentation(text), text)


def test_realize_matches_the_dense_route_on_every_sigma_search_label(snf_inputs):
    for text in oracles.sigma_search_variant_labels():
        assert_realize_matches_the_dense_route(parse_presentation(text), text)


def test_realize_matches_the_dense_route_on_the_large_rings(snf_inputs):
    for label in oracles.large_ring_labels():
        text = f"free 1 over {label}"
        assert_realize_matches_the_dense_route(parse_presentation(text), text)


def test_quotient_module_matches_the_dense_route_on_m_mod_radical(snf_inputs):
    for text in corpus_texts():
        m = realize(parse_presentation(text))
        radical = jacobson_radical(m)
        q, project, lift = quotient_module(m, radical)
        want = oracles.quotient_by_dense_table(m, radical.generator_coords())
        assert_same_record((q.orders, q.table, project, lift), want, m.rank, text)


@pytest.mark.parametrize("text", PINNED_RINGS)
def test_quotient_ring_matches_the_dense_route(text, snf_inputs):
    ring = parse_ring(text)
    for ideal in maximal_ideals(ring) + [Ideal(ring, 1, ())]:
        q, project, lift = quotient_ring(ring, ideal)
        want, want_project, want_lift = oracles.quotient_ring_by_dense_table(ring, ideal)
        assert q.one == want.one, text
        assert_same_record(
            (q.orders, q.table, project, lift),
            (want.orders, want.table, want_project, want_lift),
            ring.rank,
            f"{text} / {ideal}",
        )


@pytest.mark.parametrize(
    "text",
    [
        "free 3 over Z/2 x Z/2",
        "free 1 over GF(2^3)",
        "free 0 over Z/6",
        "Z/2 (+) Z/4 over Z/8",
        "module over Z/4 x GF(2^2): gens=2; rels=[((2,1,0),(1,0,1))]",
    ],
)
def test_realize_builds_only_the_modules_coordinates(text, monkeypatch):
    # R^k is read through R's rows: its table is never built
    pres = parse_presentation(text)
    built = []
    original = rings._Coordinates.__init__

    def counted(self, *args):
        built.append(type(self).__name__)
        original(self, *args)

    monkeypatch.setattr(rings._Coordinates, "__init__", counted)
    realize(pres)
    assert built == ["RealizedModule"]


def assert_realize_matches_flatten(pres, label):
    m = realize(pres)
    want = oracles.realize_by_flatten(pres)
    free = oracles.free_coordinates(pres.ring, pres.num_generators)
    gens = [sum(rel, ()) for rel in pres.relations]
    orders, table, project, lift = _Coordinates.quotient(free.orders, free.rows, gens)
    assert (orders, [list(row) for row in table]) == (
        m.orders,
        [list(row) for row in m.table],
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
def test_realize_matches_flatten(pres, snf_inputs):
    assert_realize_matches_flatten(pres, pres.to_dsl())
    assert_realize_matches_the_dense_route(pres, pres.to_dsl())


def test_quotient_module_matches_lifts_on_m_mod_radical():
    for m in corpus_modules():
        radical = jacobson_radical(m)
        q, project, lift = quotient_module(m, radical)
        want_q, want_project, want_lift = oracles.quotient_module_by_lifts(m, radical)
        assert_same_quotient(
            (q.orders, q.table, project, lift),
            (want_q.orders, want_q.table, want_project, want_lift),
            elements(m),
            m.label,
        )


@pytest.mark.parametrize("text", PINNED_RINGS)
def test_quotient_ring_matches_lifts(text):
    ring = parse_ring(text)
    for ideal in maximal_ideals(ring) + [Ideal(ring, 1, ())]:
        q, project, lift = quotient_ring(ring, ideal)
        want, want_project, want_lift = oracles.quotient_ring_by_lifts(ring, ideal)
        assert q.one == want.one, text
        assert_same_quotient(
            (q.orders, q.table, project, lift),
            (want.orders, want.table, want_project, want_lift),
            elements(ring),
            f"{text} / {ideal}",
        )
