import pytest

from modcover import snf
from modcover.dsl import parse_module, parse_presentation, parse_ring
from modcover.errors import GuardExceeded, ParseError
from modcover.modules import ModulePresentation, cyclic_sum, realize

from test_stored_facts import _count_calls


# -- rings --------------------------------------------------------------------


def test_parse_zmod():
    assert parse_ring("Z/12").size == 12


def test_parse_gf_prime_and_extension():
    assert parse_ring("GF(5)").size == 5
    assert parse_ring("GF(2^3)").size == 8


def test_parse_gf_with_polynomial():
    R = parse_ring("GF(2^3; f=1,1,0,1)")  # x^3 + x + 1
    assert R.size == 8
    assert "f=" in R.label


def test_parse_product_left_associative():
    R = parse_ring("Z/2 x Z/3 x Z/5")
    assert R.size == 30
    assert R.label == "Z/2 x Z/3 x Z/5"


def test_parse_parenthesized_ring():
    assert parse_ring("(Z/2 x Z/3) x GF(2^2)").size == 24


def test_whitespace_insensitive():
    a = parse_ring("Z/2xZ/3")
    b = parse_ring("  Z/2   x   Z/3 ")
    assert a.label == b.label == "Z/2 x Z/3"


def test_ring_labels_round_trip():
    for expr in ["Z/9", "GF(2^2)", "GF(7)", "Z/4 x Z/3", "GF(3^2; f=1,0,1)"]:
        R = parse_ring(expr)
        assert parse_ring(R.label).label == R.label


# -- ring errors ----------------------------------------------------------------


def test_parse_error_carries_caret_position():
    with pytest.raises(ParseError) as exc:
        parse_ring("Z/0")
    assert "^" in str(exc.value)
    assert exc.value.pos >= 0


def test_parse_error_on_garbage():
    for text in ["", "Z/", "GF(6)", "Z/4 y Z/2", "Z/4 x", "Q/2"]:
        with pytest.raises(ParseError):
            parse_ring(text)


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse_ring("Z/4 Z/2")


# -- modules ---------------------------------------------------------------------


def test_parse_free_module():
    m = parse_module("free 2 over Z/6")
    assert m.size == 36


def test_parse_presented_module():
    m = parse_module("module over Z/4: gens=2; rels=[(2,0)]")
    assert m.size == 8


def test_parse_module_with_tuple_coordinates():
    m = parse_module("module over Z/2 x Z/3: gens=1; rels=[((1,0))]")
    assert m.size == 3


def test_parse_empty_relations():
    m = parse_module("module over Z/2: gens=2; rels=[]")
    assert m.size == 4


def test_parse_cyclic_sum_sugar():
    m = parse_module("Z/2 (+) Z/3 over Z/6")
    assert m.size == 6
    assert m.ring.size == 6


def test_cyclic_sum_sugar_requires_zmod_ring():
    with pytest.raises(ParseError):
        parse_module("Z/2 (+) Z/2 over GF(4)")


def test_cyclic_sum_sugar_requires_divisors():
    with pytest.raises(ParseError):
        parse_module("Z/4 over Z/6")


def test_relation_arity_checked():
    with pytest.raises(ParseError):
        parse_module("module over Z/2: gens=2; rels=[(1)]")


def test_coordinate_arity_checked():
    with pytest.raises(ParseError):
        parse_module("module over Z/2 x Z/3: gens=1; rels=[((1,0,0))]")


def test_presentation_round_trip():
    exprs = [
        "module over Z/4: gens=2; rels=[(2,0), (0,2)]",
        "module over Z/2 x Z/3: gens=2; rels=[((1,0),(0,1))]",
        "free 2 over GF(2^2)",
        "Z/2 (+) Z/6 over Z/6",
    ]
    for expr in exprs:
        m = parse_module(expr)
        again = parse_module(m.presentation.to_dsl())
        assert again.size == m.size
        assert sorted(again.orders) == sorted(m.orders)


# -- presentations -----------------------------------------------------------------

# realizing it hangs in the Smith normal form (ROADMAP item 2)
HANG = (
    "module over Z/32: gens=4; rels=[(10,20,11,9), (13,26,5,6), (12,11,21,18), "
    "(0,24,25,20), (12,8,19,14)]"
)


def test_parse_presentation_runs_no_smith_normal_form(monkeypatch):
    calls = _count_calls(monkeypatch, ["abelian_quotient"], source=snf)

    def hang(rows, ncols):
        raise AssertionError("a Smith normal form ran, and on this text it would not end")

    monkeypatch.setattr(snf, "smith_normal_form", hang)
    pres = parse_presentation(HANG)
    assert calls == {"abelian_quotient": 0}
    assert (pres.ring.label, pres.num_generators, len(pres.relations)) == ("Z/32", 4, 5)
    assert pres.relations[0] == ((10,), (20,), (11,), (9,))


@pytest.mark.parametrize(
    "text",
    [
        "free 3 over Z/2 x Z/2",
        "module over Z/2 x Z/3: gens=2; rels=[((1,0),(0,1)), (2,3)]",
        "module over Z/2: gens=2; rels=[]",
        "Z/2 (+) Z/6 (+) Z/3 over Z/6",
    ],
)
def test_parse_module_realizes_the_parsed_presentation(text):
    pres = parse_presentation(text)
    m, want = parse_module(text), realize(pres)
    assert m.presentation == pres
    assert (m.orders, m.table, m.label) == (want.orders, want.table, want.label)


def test_the_cyclic_sum_form_is_cyclic_sums_presentation():
    pres = parse_presentation("Z/2 (+) Z/6 (+) Z/3 over Z/6")
    ring = pres.ring
    anns = [ring.scale(a, ring.one) for a in (2, 6, 3)]
    assert pres == ModulePresentation.diagonal(ring, anns)
    assert pres == cyclic_sum(ring, anns).presentation
    assert pres.relations == (((2,), (0,), (0,)), ((0,), (0,), (0,)), ((0,), (0,), (3,)))


def test_a_parse_error_wins_over_a_realize_guard():
    # the whole text is parsed before R^k is realized
    assert parse_presentation("free 100000000 over Z/3").num_generators == 100000000
    with pytest.raises(GuardExceeded):
        parse_module("free 100000000 over Z/3")
    # over the realize-intermediate guard, and over the module-size guard
    for text in ["free 100000000 over Z/3 junk", "free 13 over Z/2 )"]:
        with pytest.raises(ParseError):
            parse_module(text)
