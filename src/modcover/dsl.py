"""Tiny expression language for rings and modules.

Ring grammar (whitespace-insensitive, product left-associative):

    ring    = atom { "x" atom } ;
    atom    = "Z/" int
            | "GF(" int [ "^" int ] [ ";" "f=" int { "," int } ] ")"
            | "(" ring ")" ;

Module grammar:

    module  = "module over" ring ":" "gens=" int ";" "rels=[" rels "]"
            | "free" int "over" ring
            | cyclics "over" ring ;
    rels    = [ rel { "," rel } ] ;
    rel     = "(" entry { "," entry } ")" ;
    entry   = int | "(" int { "," int } ")" ;
    cyclics = "Z/" int { "(+)" "Z/" int } ;

Relation entries are ring elements: a bare integer means n * 1 in the
ring, a tuple gives additive coordinates directly. The cyclic-sum sugar
is only valid over a Z/n ring. Ring labels produced by the constructors
reparse to the same ring, and ModulePresentation.to_dsl round-trips.

A module text parses to a `ModulePresentation`, R^k and its relations,
with no Smith normal form run; `parse_module` realizes it.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .modules import ModulePresentation, RealizedModule, realize
from .rings import FiniteRing, ring_gf, ring_product, ring_zmod

_TOKEN_RE = re.compile(
    r"""
      (?P<kw>module\s+over|over|free|gens|rels|f|GF|Z)
    | (?P<int>\d+)
    | (?P<op>\(\+\)|[()/^;:,=\[\]x])
    | (?P<ws>\s+)
    | (?P<bad>.)
    """,
    re.VERBOSE,
)


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", text, m.start())
        val = m.group()
        if kind == "kw":
            val = re.sub(r"\s+", " ", val)
        tokens.append((kind, val, m.start()))
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value):
        kind, val, start = self.peek()
        if val != value:
            raise ParseError(f"expected {value!r}", self.text, start)
        return self.next()

    def accept(self, value) -> bool:
        if self.peek()[1] == value:
            self.next()
            return True
        return False

    def items(self, item, sep=","):
        """item { sep item }: the items read by `item`, while `sep`
        follows each."""
        out = [item()]
        while self.accept(sep):
            out.append(item())
        return out

    def expect_int(self) -> int:
        kind, val, start = self.peek()
        if kind != "int":
            raise ParseError("expected an integer", self.text, start)
        self.next()
        return int(val)

    def fail(self, message):
        raise ParseError(message, self.text, self.peek()[2])

    # -- rings ---------------------------------------------------------------

    def ring(self) -> FiniteRing:
        r = self.ring_atom()
        while self.accept("x"):
            r = ring_product(r, self.ring_atom())
        return r

    def ring_atom(self) -> FiniteRing:
        kind, val, start = self.peek()
        if val == "(":
            self.next()
            r = self.ring()
            self.expect(")")
            return r
        if val == "Z":
            self.next()
            self.expect("/")
            n = self.expect_int()
            try:
                return ring_zmod(n)
            except ValueError as exc:
                raise ParseError(str(exc), self.text, start) from exc
        if val == "GF":
            self.next()
            self.expect("(")
            p = self.expect_int()
            k = self.expect_int() if self.accept("^") else 1
            coeffs = None
            if self.accept(";"):
                self.expect("f")
                self.expect("=")
                coeffs = self.items(self.expect_int)
            self.expect(")")
            try:
                return ring_gf(p, k, tuple(coeffs) if coeffs else None)
            except ValueError as exc:
                raise ParseError(str(exc), self.text, start) from exc
        self.fail("expected a ring expression")

    # -- modules -------------------------------------------------------------

    def module(self) -> ModulePresentation:
        kind, val, _ = self.peek()
        if val == "module over":
            return self.module_presented()
        if val == "free":
            self.next()
            k = self.expect_int()
            self.expect("over")
            ring = self.ring()
            return ModulePresentation(ring, k, ())
        return self.module_cyclic_sum()

    def module_presented(self) -> ModulePresentation:
        self.expect("module over")
        ring = self.ring()
        self.expect(":")
        self.expect("gens")
        self.expect("=")
        k = self.expect_int()
        self.expect(";")
        self.expect("rels")
        self.expect("=")
        self.expect("[")
        rels = []
        if not self.accept("]"):
            rels = self.items(lambda: self.relation(ring, k))
            self.expect("]")
        return ModulePresentation(ring, k, tuple(rels))

    def relation(self, ring, k):
        _, _, start = self.peek()
        self.expect("(")
        entries = self.items(lambda: self.rel_entry(ring))
        self.expect(")")
        if len(entries) != k:
            raise ParseError(
                f"relation has {len(entries)} entries, expected {k}", self.text, start
            )
        return tuple(entries)

    def rel_entry(self, ring):
        kind, val, start = self.peek()
        if kind == "int":
            self.next()
            return ring.scale(int(val), ring.one)
        if val == "(":
            self.next()
            coords = self.items(self.expect_int)
            self.expect(")")
            if len(coords) != ring.rank:
                raise ParseError(
                    f"coordinate tuple has {len(coords)} entries, "
                    f"ring has {ring.rank} additive coordinates",
                    self.text,
                    start,
                )
            return ring.reduce(tuple(coords))
        self.fail("expected a ring element (integer or coordinate tuple)")

    def module_cyclic_sum(self) -> ModulePresentation:
        _, _, start = self.peek()
        anns = self.items(self.zmod_annihilator, "(+)")
        self.expect("over")
        ring = self.ring()
        if not ring.label.startswith("Z/") or "x" in ring.label:
            raise ParseError(
                "cyclic-sum sugar requires a Z/n base ring", self.text, start
            )
        n = ring.size
        for a in anns:
            if a < 1 or n % a != 0:
                raise ParseError(
                    f"Z/{a} is not a cyclic module over Z/{n}", self.text, start
                )
        return ModulePresentation.diagonal(ring, [ring.scale(a, ring.one) for a in anns])

    def zmod_annihilator(self) -> int:
        self.expect("Z")
        self.expect("/")
        return self.expect_int()

    def done(self):
        kind, _, start = self.peek()
        if kind != "eof":
            raise ParseError("unexpected trailing input", self.text, start)


def parse_ring(text: str) -> FiniteRing:
    p = _Parser(text)
    r = p.ring()
    p.done()
    return r


def parse_presentation(text: str) -> ModulePresentation:
    """The presentation a module text writes, in any of the three forms."""
    p = _Parser(text)
    pres = p.module()
    p.done()
    return pres


def parse_module(text: str) -> RealizedModule:
    return realize(parse_presentation(text))
