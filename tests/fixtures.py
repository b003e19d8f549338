"""Published ground-truth tables used as test fixtures.

FIG_A5 / FIG_S5 are the tables of marks of A5 and S5; FIG_S5 is given
in its original layout (classes in PAPER_S5_ORDER).  GL23_PANELS are
the intermediate tables along the composition series
1 < 2 < 4 < Q8 < SL2(3) < GL2(3).  ``relabeled`` makes seeded copies of
catalog groups on renamed points, and ``a5_c2_c2`` builds A5 x C2 x C2;
``spy_dress_builds`` records the Dress rows built, and
``property_suite`` lists the solvable groups of the property suite.
``conjugated`` and ``key_generators`` are reference helpers: a conjugate
handle built from scratch, and the generators of a class key, for
checking the kernel's key arithmetic against them.
"""

import random

from burnside import groups, marks
from burnside.catalog import (
    CATALOG,
    abelian_group,
    abelian_types,
    dicyclic_group,
    dihedral_group,
)
from burnside.groups import (
    PermGroup,
    Subgroup,
    close_elements,
)
from burnside.perms import conj, conj_by, parse_cycles

FIG_A5 = [
    [60],
    [30, 2],
    [20, 0, 2],
    [15, 3, 0, 3],
    [12, 0, 0, 0, 2],
    [10, 2, 1, 0, 0, 1],
    [6, 2, 0, 0, 1, 0, 1],
    [5, 1, 2, 1, 0, 0, 0, 1],
    [1, 1, 1, 1, 1, 1, 1, 1, 1],
]
A5_CLASS_ORDERS = [1, 2, 3, 4, 5, 6, 10, 12, 60]

# classes: 1, C2, C3, 2^2, C5, S3, D10, A4, A5 (inner block),
# then C2, C4, 2^2, S3, C6, D8, D12, 5:4, S4, S5 (outer block)
FIG_S5 = [
    [120],
    [60, 4],
    [40, 0, 4],
    [30, 6, 0, 6],
    [24, 0, 0, 0, 4],
    [20, 4, 2, 0, 0, 2],
    [12, 4, 0, 0, 2, 0, 2],
    [10, 2, 4, 2, 0, 0, 0, 2],
    [2, 2, 2, 2, 2, 2, 2, 2, 2],
    [60, 0, 0, 0, 0, 0, 0, 0, 0, 6],
    [30, 2, 0, 0, 0, 0, 0, 0, 0, 0, 2],
    [30, 2, 0, 0, 0, 0, 0, 0, 0, 6, 0, 2],
    [20, 0, 2, 0, 0, 0, 0, 0, 0, 6, 0, 0, 2],
    [20, 0, 2, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 2],
    [15, 3, 0, 3, 0, 0, 0, 0, 0, 3, 1, 1, 0, 0, 1],
    [10, 2, 1, 0, 0, 1, 0, 0, 0, 4, 0, 2, 1, 1, 0, 1],
    [6, 2, 0, 0, 1, 0, 1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 1],
    [5, 1, 2, 1, 0, 0, 0, 1, 0, 3, 1, 1, 2, 0, 1, 0, 0, 1],
    [1] * 19,
]
S5_PAPER_ORDERS = [1, 2, 3, 4, 5, 6, 10, 12, 60,
                   2, 4, 4, 6, 6, 8, 12, 20, 24, 120]

GL23_PANELS = [
    [[1]],
    [[2], [1, 1]],
    [[4], [2, 2], [1, 1, 1]],
    [[8], [4, 4], [2, 2, 2], [2, 2, 0, 2], [2, 2, 0, 0, 2],
     [1, 1, 1, 1, 1, 1]],
    [[24], [12, 12], [6, 6, 2], [3, 3, 3, 3], [8, 0, 0, 0, 2],
     [4, 4, 0, 0, 1, 1], [1, 1, 1, 1, 1, 1, 1]],
    [[48],
     [24, 24],
     [16, 0, 4],
     [12, 12, 0, 4],
     [8, 8, 2, 0, 2],
     [6, 6, 0, 6, 0, 6],
     [2, 2, 2, 2, 2, 2, 2],
     [24, 0, 0, 0, 0, 0, 0, 2],
     [12, 12, 0, 0, 0, 0, 0, 2, 2],
     [8, 0, 2, 0, 0, 0, 0, 2, 0, 2],
     [8, 0, 2, 0, 0, 0, 0, 2, 0, 0, 2],
     [6, 6, 0, 2, 0, 0, 0, 2, 2, 0, 0, 2],
     [6, 6, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 2],
     [4, 4, 1, 0, 1, 0, 0, 2, 2, 1, 1, 0, 0, 1],
     [3, 3, 0, 3, 0, 3, 0, 1, 1, 0, 0, 1, 1, 0, 1],
     [1] * 16],
]

# (A, S, classes of A, classes of S, probes, max probe) benchmark rows
BENCH_ROWS = {
    "S5": ("A5", 9, 19, 0, 0),
    "S6": ("A6", 22, 56, 2, 4),
    "S7": ("A7", 40, 96, 3, 20),
}


def relabeled(name, seed):
    """A fresh copy of a catalog group, named, or of a given group, with
    its points renamed by a seeded permutation (seed 0 keeps the
    labels)."""
    G = CATALOG.group(name) if isinstance(name, str) else name
    sigma = list(range(G.degree))
    random.Random(seed).shuffle(sigma)
    gens = [conj(g, tuple(sigma)) for g in G.gens] if seed else G.gens
    return PermGroup(gens, G.degree)


def property_suite() -> list:
    """(name, group) for the 240 solvable groups of the property suite:
    every abelian group of order 2 to 100, the dihedral groups D6 to
    D100, the dicyclic Q8 to Q64, A4, S4, SL2(3) and GL2(3)."""
    out = []
    for n in range(2, 101):
        for typ in abelian_types(n):
            out.append(("x".join(f"C{f}" for f in typ), abelian_group(typ)))
    for m in range(3, 51):
        out.append((f"D{2 * m}", dihedral_group(m)))
    for m in (2, 4, 8, 16):
        out.append((f"Q{4 * m}", dicyclic_group(m)))
    for name in ("A4", "S4", "SL2(3)", "GL2(3)"):
        out.append((name, CATALOG.group(name)))
    return out


def a5_c2_c2() -> PermGroup:
    """A5 x C2 x C2 on 9 points: A5 on 1..5, (6,7) and (8,9).  Its
    perfect residuum A5 has index 4, which is not prime."""
    a5 = CATALOG.group("A5")
    return PermGroup([g + (5, 6, 7, 8) for g in a5.gens]
                     + [parse_cycles(c, 9) for c in ("(6,7)", "(8,9)")], 9)


def spy_dress_builds(monkeypatch) -> list:
    """Record (group, class id) of every Dress row ``marks.dress_row``
    builds, as opposed to reading it off the class record."""
    built = []
    real = marks._class_dress

    def counted(S, cid, U):
        built.append((id(S), cid))
        return real(S, cid, U)

    monkeypatch.setattr(marks, "_class_dress", counted)
    return built


def conjugated(H, g):
    """H^g as a fresh handle: H's generators and, up to SET_CAP, its
    elements conjugated by g; above SET_CAP, a group of H's order on the
    conjugated generators."""
    c = conj_by(g)
    gens = [c(x) for x in H.gens]
    if H.order <= groups.SET_CAP:
        return Subgroup(H, gens, elems=map(c, H.elements()))
    return PermGroup(gens, H.degree).as_subgroup()


def key_generators(G, key):
    """Elements that generate the subgroup with this class key of G: a
    generator of each of its zuppos."""
    return [G._num().gen[z] for z in key]


def key_elements(G, key):
    """The elements of the subgroup with this class key of G: the
    closure of a generator of each of its zuppos."""
    return frozenset(close_elements(key_generators(G, key), G.degree))

