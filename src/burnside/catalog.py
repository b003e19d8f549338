"""The built-in group catalog and permutation-group constructors.

Catalog entries carry cycle-notation generators at a fixed degree, so
everything round-trips through the CLI's text interfaces.  Normal
prime-index bases used by the benchmark and extension routes are named
per entry (e.g. S5 builds on A5).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .groups import PermGroup, prime_factors
from .perms import format_tuple, parse_cycles


@dataclass
class CatalogEntry:
    name: str
    degree: int
    generators: list[str]
    extension_base: str | None = None   # normal prime-index subgroup
    search_ok: bool = False             # class search is complete here

    def build(self) -> PermGroup:
        gens = [parse_cycles(s, self.degree) for s in self.generators]
        return PermGroup(gens, self.degree)


def _norm(name: str) -> str:
    return "".join(ch for ch in name.lower() if ch.isalnum())


class Catalog:
    def __init__(self):
        self.entries: dict[str, CatalogEntry] = {}
        self._built: dict[str, PermGroup] = {}

    def add(self, entry: CatalogEntry) -> None:
        key = _norm(entry.name)
        if key in self.entries:
            raise ValueError(f"catalog entry {entry.name!r} added twice")
        self.entries[key] = entry

    def get(self, name: str) -> CatalogEntry | None:
        return self.entries.get(_norm(name))

    def group(self, name: str) -> PermGroup:
        key = _norm(name)
        if key not in self._built:
            entry = self.entries.get(key)
            if entry is None:
                raise KeyError(f"unknown catalog group {name!r}")
            self._built[key] = entry.build()
        return self._built[key]


# ---------------------------------------------------------------------------
# constructors


def cyclic_group(n: int) -> PermGroup:
    if n == 1:
        return PermGroup([], 1)
    return PermGroup([tuple((i + 1) % n for i in range(n))], n)


def abelian_group(factors) -> PermGroup:
    """Direct product of cyclic groups, one disjoint cycle per factor."""
    factors = [f for f in factors if f > 1]
    if not factors:
        return PermGroup([], 1)
    degree = sum(factors)
    gens = []
    off = 0
    for f in factors:
        images = list(range(degree))
        for i in range(f):
            images[off + i] = off + (i + 1) % f
        gens.append(tuple(images))
        off += f
    return PermGroup(gens, degree)


def dihedral_group(n: int) -> PermGroup:
    """Dihedral group of order 2n on n points (n >= 3)."""
    if n < 3:
        raise ValueError(f"dihedral group needs n >= 3, got {n}")
    rot = tuple((i + 1) % n for i in range(n))
    ref = tuple((n - i) % n for i in range(n))
    return PermGroup([rot, ref], n)


def regular_representation(elems: list, mult) -> list[tuple[int, ...]]:
    """Right-multiplication permutations of each element on the list."""
    index = {e: i for i, e in enumerate(elems)}
    return [tuple(index[mult(x, g)] for x in elems) for g in elems]


def dicyclic_group(m: int) -> PermGroup:
    """Dicyclic group of order 4m (generalized quaternion for m a power
    of 2), in its regular representation."""
    if m < 2:
        raise ValueError(f"dicyclic group needs m >= 2, got {m}")
    elems = [(i, e) for e in (0, 1) for i in range(2 * m)]

    def mult(x, g):
        i, e = x
        j, f = g
        if e == 0:
            return ((i + j) % (2 * m), f)
        if f == 0:
            return ((i - j) % (2 * m), 1)
        return ((i - j + m) % (2 * m), 0)

    perms = regular_representation(elems, mult)
    a = perms[elems.index((1, 0))]
    b = perms[elems.index((0, 1))]
    G = PermGroup([a, b], 4 * m)
    if G.order != 4 * m:
        raise RuntimeError(f"dicyclic group of order {G.order}")
    return G


def symmetric_group(n: int) -> PermGroup:
    if n == 1:
        return PermGroup([], 1)
    gens = [tuple([1, 0] + list(range(2, n)))]
    if n > 2:
        gens.append(tuple(list(range(1, n)) + [0]))
    return PermGroup(gens, n)


def alternating_group(n: int) -> PermGroup:
    if n < 3:
        raise ValueError(f"alternating group needs n >= 3, got {n}")
    c3 = list(range(n))
    c3[0], c3[1], c3[2] = 1, 2, 0
    gens = [tuple(c3)]
    if n > 3:
        if n % 2:
            gens.append(tuple(list(range(1, n)) + [0]))
        else:
            gens.append(tuple([0] + list(range(2, n)) + [1]))
    return PermGroup(gens, n)


def gl23_generators() -> list[tuple[int, ...]]:
    """GL(2,3) acting on the 8 nonzero vectors of F_3^2."""
    vecs = [(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]
    vi = {v: i for i, v in enumerate(vecs)}

    def mat_perm(m):
        return tuple(vi[((m[0][0] * v[0] + m[0][1] * v[1]) % 3,
                         (m[1][0] * v[0] + m[1][1] * v[1]) % 3)]
                     for v in vecs)
    S = mat_perm(((0, 2), (1, 0)))
    T = mat_perm(((1, 1), (0, 1)))
    D = mat_perm(((1, 0), (0, 2)))
    return [S, T, D]


_F32_MOD = 0b100101  # y^5 + y^2 + 1, primitive over F_2


def _f32_mul(a: int, b: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a & 0b100000:
            a ^= _F32_MOD
    return r


def _f32_inv(a: int) -> int:
    for x in range(1, 32):
        if _f32_mul(a, x) == 1:
            return x
    raise ValueError("not invertible")


def l2_32_generators(with_frobenius: bool = False) -> list[tuple[int, ...]]:
    """L2(32) on the 33 points of the projective line over F_32.

    Points are the field elements 0..31 plus infinity (point 32);
    generators are the translation x+1, the scaling by a primitive
    element, the inversion 1/x, and (optionally) the Frobenius x^2.
    """
    INF = 32

    def perm_from(f):
        return tuple(f(x) for x in range(33))

    out = [
        perm_from(lambda x: x ^ 1 if x != INF else INF),
        perm_from(lambda x: _f32_mul(2, x) if x != INF else INF),
        perm_from(lambda x: 0 if x == INF
                  else (INF if x == 0 else _f32_inv(x))),
    ]
    if with_frobenius:
        out.append(perm_from(lambda x: _f32_mul(x, x) if x != INF else INF))
    return out


# ---------------------------------------------------------------------------
# the shipped catalog


def _fmt(perms) -> list[str]:
    return [format_tuple(p) for p in perms]


def default_catalog() -> Catalog:
    cat = Catalog()
    cat.add(CatalogEntry("trivial", 1, []))
    for n in range(2, 13):
        cat.add(CatalogEntry(
            f"C{n}", n, _fmt(cyclic_group(n).gens),
            extension_base=None if n > 2 else "trivial"))
    cat.add(CatalogEntry("S3", 3, _fmt(dihedral_group(3).gens)))
    cat.add(CatalogEntry("D8", 4, _fmt(dihedral_group(4).gens)))
    cat.add(CatalogEntry("Q8", 8, _fmt(dicyclic_group(2).gens)))
    cat.add(CatalogEntry("D12", 6, _fmt(dihedral_group(6).gens)))
    cat.add(CatalogEntry("A4", 4, _fmt(alternating_group(4).gens)))
    cat.add(CatalogEntry("S4", 4, _fmt(symmetric_group(4).gens),
                         extension_base="A4"))
    gl = gl23_generators()
    cat.add(CatalogEntry("SL2(3)", 8, _fmt(gl[:2])))
    cat.add(CatalogEntry("GL2(3)", 8, _fmt(gl), extension_base="SL2(3)"))
    cat.add(CatalogEntry("A5", 5, _fmt(alternating_group(5).gens)))
    cat.add(CatalogEntry("S5", 5, _fmt(symmetric_group(5).gens),
                         extension_base="A5"))
    cat.add(CatalogEntry("A6", 6, _fmt(alternating_group(6).gens)))
    cat.add(CatalogEntry("S6", 6, _fmt(symmetric_group(6).gens),
                         extension_base="A6"))
    cat.add(CatalogEntry("L2(32)", 33, _fmt(l2_32_generators()),
                         search_ok=True))
    cat.add(CatalogEntry("L2(32):5", 33, _fmt(l2_32_generators(True)),
                         extension_base="L2(32)"))
    return cat


CATALOG = default_catalog()


# ---------------------------------------------------------------------------
# generated families for the property suite


def _partitions(n: int):
    if n == 0:
        yield ()
        return
    for first in range(n, 0, -1):
        for rest in _partitions(n - first):
            if not rest or rest[0] <= first:
                yield (first,) + rest


def abelian_types(order: int) -> list[tuple[int, ...]]:
    """All abelian isomorphism types of the given order, as tuples of
    prime-power cyclic factors."""
    factors = Counter(prime_factors(order))
    types = [()]
    for p, e in sorted(factors.items()):
        types = [t + tuple(p ** part for part in parts)
                 for t in types for parts in _partitions(e)]
    return types
