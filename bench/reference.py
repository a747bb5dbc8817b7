"""Expected answers computed from number theory alone, never from modcover.

Rings are small structured values:

    ("Z", n)                Z/n
    ("GF", p, k, f)         F_{p^k}; f is None or the low-degree-first
                            coefficients of a monic irreducible of degree k
    ("x", a, b)             the product a x b

Every finite commutative ring used here is a product of local rings, so
each fact below is a sum or product over the local factors: Z/p^e has one
maximal ideal with residue field F_p and length e; a field F_q has one
with residue field F_q and length 1.
"""

from __future__ import annotations

import re


def factorize(n: int) -> dict:
    """Prime -> exponent, by trial division (n is at most a few thousand)."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == {n: 1}


# -- rings -----------------------------------------------------------------


def ring_label(ring) -> str:
    """The DSL string for a ring descriptor."""
    kind = ring[0]
    if kind == "Z":
        return f"Z/{ring[1]}"
    if kind == "GF":
        _, p, k, f = ring
        if f is None:
            return f"GF({p})" if k == 1 else f"GF({p}^{k})"
        return f"GF({p}^{k}; f={','.join(map(str, f))})"
    return f"{ring_label(ring[1])} x {ring_label(ring[2])}"


def local_factors(ring) -> list:
    """(residue field size, length) for each local factor."""
    kind = ring[0]
    if kind == "Z":
        return [(p, e) for p, e in sorted(factorize(ring[1]).items())]
    if kind == "GF":
        return [(ring[1] ** ring[2], 1)]
    return local_factors(ring[1]) + local_factors(ring[2])


def ring_size(ring) -> int:
    kind = ring[0]
    if kind == "Z":
        return ring[1]
    if kind == "GF":
        return ring[1] ** ring[2]
    return ring_size(ring[1]) * ring_size(ring[2])


def residue_sizes(ring) -> list:
    """|R/m| for every maximal ideal m, sorted."""
    return sorted(q for q, _ in local_factors(ring))


def unit_count(ring) -> int:
    """|R^x|: a local ring of order q^e with residue field F_q has
    q^e - q^(e-1) units (the elements outside its maximal ideal)."""
    kind = ring[0]
    if kind == "Z":
        total = 1
        for p, e in factorize(ring[1]).items():
            total *= p**e - p ** (e - 1)
        return total
    if kind == "GF":
        return ring[1] ** ring[2] - 1
    return unit_count(ring[1]) * unit_count(ring[2])


def ring_length(ring) -> int:
    """Composition length of R as a module over itself."""
    return sum(e for _, e in local_factors(ring))


def radical_size(ring) -> int:
    """|J(R)| = |R| / prod |R/m|."""
    size = ring_size(ring)
    for q in residue_sizes(ring):
        size //= q
    return size


_ATOM_RE = re.compile(r"Z/(\d+)$|GF\((\d+)(?:\^(\d+))?\)$")


def parse_ring_label(text: str):
    """Inverse of ring_label for the unparenthesized forms the corpus uses."""
    parts = [s.strip() for s in text.split(" x ")]
    ring = None
    for part in parts:
        m = _ATOM_RE.match(part)
        if not m:
            raise ValueError(f"not a reference ring label: {text!r}")
        if m.group(1):
            atom = ("Z", int(m.group(1)))
        else:
            atom = ("GF", int(m.group(2)), int(m.group(3) or 1), None)
        ring = atom if ring is None else ("x", ring, atom)
    return ring


# -- modules ---------------------------------------------------------------
#
# A module is ("free", ring, k) or ("sum", n, (a_1, ..., a_t)), the latter
# meaning Z/a_1 (+) ... (+) Z/a_t over Z/n with every a_i dividing n.
# Its invariants come from mu_m = dim over R/m of M/mM, one per maximal
# ideal: M needs mu_m generators locally at m.


def module_label(module) -> str:
    if module[0] == "free":
        return f"free {module[2]} over {ring_label(module[1])}"
    _, n, parts = module
    return " (+) ".join(f"Z/{a}" for a in parts) + f" over Z/{n}"


def residue_dims(module) -> list:
    """(|R/m|, mu_m) for every maximal ideal m, mu_m possibly 0."""
    if module[0] == "free":
        return [(q, module[2]) for q in residue_sizes(module[1])]
    _, n, parts = module
    return [(p, sum(1 for a in parts if a % p == 0)) for p in sorted(factorize(n))]


def sigma(module):
    """Covering number: min |R/m| + 1 over m with mu_m >= 2, or None
    when no such m exists (the module is cyclic)."""
    s = [q for q, mu in residue_dims(module) if mu >= 2]
    return min(s) + 1 if s else None


def hdim(module) -> int:
    """Length of M / rad M, which is semisimple with mu_m copies of R/m."""
    return sum(mu for _, mu in residue_dims(module))


def maximal_submodule_count(module) -> int:
    """Hyperplanes of each M/mM: (q^mu - 1) / (q - 1), summed."""
    return sum((q**mu - 1) // (q - 1) for q, mu in residue_dims(module))


def module_radical_size(module) -> int:
    """|rad M|: J(R)^k for free modules, prod a/rad(a) for cyclic sums."""
    if module[0] == "free":
        return radical_size(module[1]) ** module[2]
    total = 1
    for a in module[2]:
        squarefree = 1
        for p in factorize(a):
            squarefree *= p
        total *= a // squarefree
    return total


_FREE_RE = re.compile(r"free (\d+) over (.+)$")
_SUM_RE = re.compile(r"((?:Z/\d+ \(\+\) )*Z/\d+) over Z/(\d+)$")


def parse_module_label(text: str):
    """A module descriptor for free modules and cyclic sums; None for
    explicit presentations, which have no reference here."""
    m = _FREE_RE.match(text)
    if m:
        return ("free", parse_ring_label(m.group(2)), int(m.group(1)))
    m = _SUM_RE.match(text)
    if m:
        parts = tuple(int(s.strip()[2:]) for s in m.group(1).split("(+)"))
        return ("sum", int(m.group(2)), parts)
    return None
