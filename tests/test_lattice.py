"""Brute-force oracle: enumeration, class structure, and comparisons."""

from dataclasses import dataclass

import pytest

from fixtures import A5_CLASS_ORDERS, FIG_A5, relabeled

from burnside import lattice
from burnside.catalog import CATALOG, abelian_group, cyclic_group
from burnside.groups import (
    CapExceededError,
    PermGroup,
    Subgroup,
    close_elements,
    join_normalizing,
    normalizer,
    orbit,
    subgroup_class_id,
    trivial_subgroup,
)
from burnside.lattice import (
    DEFAULT_CAP,
    all_subgroup_classes_brute,
    compare_patterns,
    subgroup_classes_search,
    table_of_marks_brute,
    zuppos,
)
from burnside.marks import validate_pattern
from burnside.perms import conj, conj_by, parse_cycles


@dataclass
class LatticeDump:
    """All subgroups of a group, partitioned into conjugacy classes."""

    subgroups: list[Subgroup]
    classes: list[list[int]]   # indices into subgroups, one list per class

    @property
    def class_count(self) -> int:
        return len(self.classes)


def all_subgroups_brute(G: PermGroup, cap: int = DEFAULT_CAP) -> LatticeDump:
    """Every subgroup exactly once, grouped into conjugacy classes: the
    oracle's class transversal expanded along each class orbit."""
    reps = all_subgroup_classes_brute(G, cap)
    subgroups: list[Subgroup] = []
    classes: list[list[int]] = []
    for rep in reps:
        cid = subgroup_class_id(G, rep)
        cls = G._sub_classes[cid]
        idxs = []
        for key in cls.tree:
            g = cls.conjugator(key, G.gens)
            idxs.append(len(subgroups))
            gens = tuple(conj(x, g) for x in cls.rep.gens)
            subgroups.append(Subgroup(G, gens, elems=G.elements_of(key)))
        classes.append(idxs)
    return LatticeDump(subgroups=subgroups, classes=classes)


def test_s4_counts(s4):
    dump = all_subgroups_brute(s4)
    assert len(dump.subgroups) == 30
    assert dump.class_count == 11


def test_c6_counts():
    dump = all_subgroups_brute(cyclic_group(6))
    assert len(dump.subgroups) == 4


def test_a5_counts(a5):
    dump = all_subgroups_brute(a5)
    assert len(dump.subgroups) == 59
    assert dump.class_count == 9


def test_class_equation(s4, a5):
    for G in (s4, a5):
        dump = all_subgroups_brute(G)
        assert sum(len(c) for c in dump.classes) == len(dump.subgroups)
        for cls in dump.classes:
            rep = dump.subgroups[cls[0]]
            from burnside.groups import normalizer
            assert len(cls) * normalizer(G, rep).order == G.order


def test_closure_under_conjugation(s4):
    dump = all_subgroups_brute(s4)
    fps = {s.elements() for s in dump.subgroups}
    for sub in dump.subgroups:
        for g in s4.gens:
            assert frozenset(conj(x, g) for x in sub.elements()) in fps


def test_idempotent_under_rejoin(s4):
    # adding any join <H, z> yields no new subgroup
    dump = all_subgroups_brute(s4)
    fps = {s.elements() for s in dump.subgroups}
    from burnside.groups import close_elements
    for sub in dump.subgroups[:12]:
        for z, _ in zuppos(s4):
            el = close_elements(sub.gens + (z,), 4, seed=sub.elements())
            assert frozenset(el) in fps


def test_cap(s5):
    with pytest.raises(CapExceededError):
        all_subgroups_brute(s5, cap=100)


def test_a5_table_is_figure(a5):
    pat = table_of_marks_brute(a5)
    assert pat.rows == FIG_A5
    assert pat.class_orders() == A5_CLASS_ORDERS
    assert not validate_pattern(pat)


def test_oracle_invariants_s4(s4):
    pat = table_of_marks_brute(s4)
    assert not validate_pattern(pat)


def test_compare_identity(a5_pattern):
    rep = compare_patterns(a5_pattern, a5_pattern)
    assert rep.matched and rep.permutation == list(range(9))


def test_compare_distinct_groups(s4):
    # non-isomorphic groups: a mismatch is reported, not an error
    d12 = table_of_marks_brute(CATALOG.group("D12"))
    ps4 = table_of_marks_brute(s4)
    rep = compare_patterns(ps4, d12)
    assert not rep.matched and rep.detail
    # same class count, different tables: C8 versus C4 x C2
    c8 = table_of_marks_brute(cyclic_group(8))
    a42 = table_of_marks_brute(abelian_group((4, 2)))
    assert not compare_patterns(c8, a42).matched


def test_compare_detects_cell_change(a5_pattern):
    from burnside.marks import SubgroupPattern
    rows = [list(r) for r in a5_pattern.rows]
    rows[5][1] += 2
    bad = SubgroupPattern(group=a5_pattern.group, classes=a5_pattern.classes,
                          rows=rows, stats=a5_pattern.stats)
    rep = compare_patterns(a5_pattern, bad)
    assert not rep.matched and "cell" in rep.detail


def test_subgroup_classes_search_matches_brute(s4, a5):
    for G in (s4, a5, CATALOG.group("SL2(3)")):
        brute = all_subgroup_classes_brute(G)
        search = subgroup_classes_search(G)
        assert [h.order for h in brute] == [h.order for h in search]
        bids = sorted(subgroup_class_id(G, h) for h in brute)
        sids = sorted(subgroup_class_id(G, h) for h in search)
        assert bids == sids


def test_zuppos_prime_power_only(s4):
    for x, elems in zuppos(s4):
        n = len(elems)
        assert n in (2, 3, 4)


def _conj_set(elems, c):
    # the former orbit action: a zuppo's whole element set through c
    return frozenset(map(c, elems))


def _partition(points, act, gens):
    out = set()
    for p in points:
        out.add(frozenset(orbit([p], gens, act)))
    return out


@pytest.mark.parametrize("G", [CATALOG.group("S5"), CATALOG.group("GL2(3)"),
                               relabeled("A6", 3)],
                         ids=["S5", "GL2(3)", "A6 relabeled"])
def test_zuppo_orbits_on_numbers_match_element_set_orbits(G):
    """The orbits walked on zuppo numbers are the orbits of the zuppo
    element sets under conjugation, for G and for the normalizer of
    every class representative."""
    zups = zuppos(G)
    act = lattice._zuppo_action(zups)
    actions = [G.gen_conj()] + [
        [conj_by(g) for g in normalizer(G, H).gens]
        for H in all_subgroup_classes_brute(G)]
    for gens in actions:
        want = _partition([zel for _, zel in zups], _conj_set, gens)
        got = {frozenset(zups[i][1] for i in numbered)
               for numbered in _partition(range(len(zups)), act, gens)}
        assert got == want


def test_trivial_group_table():
    pat = table_of_marks_brute(PermGroup([], 1))
    assert pat.rows == [[1]]
    assert not validate_pattern(pat)


def full_zuppo_loop(G):
    """The oracle's transversal without the orbit shortcut: every class
    representative joined with every zuppo outside it, each join closed
    from its generators."""
    triv = trivial_subgroup(G)
    reps = [triv]
    known = {subgroup_class_id(G, triv)}
    zups = zuppos(G)
    for H in reps:
        for x, _ in zups:
            if x in H:
                continue
            gens = H.gens + (x,)
            K = Subgroup(G, gens, elems=close_elements(
                gens, G.degree, seed=H.elements()))
            cid = subgroup_class_id(G, K)
            if cid not in known:
                known.add(cid)
                reps.append(K)
    reps.sort(key=lambda h: h.order)
    return [h.gens for h in reps]


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("name", ["S4", "A5", "S5", "GL2(3)", "A6"])
def test_one_join_per_orbit_keeps_the_full_loop_transversal(name, seed):
    """Joining one zuppo per N(H)-orbit finds every class by the same
    (H, z) pair as the full loop: same generators, same order."""
    want = full_zuppo_loop(relabeled(name, seed))
    got = all_subgroup_classes_brute(relabeled(name, seed))
    assert [h.gens for h in got] == want


def test_a_normalizer_that_does_not_normalize_falls_back(monkeypatch):
    """With the kernel's normalizer replaced by the whole group, the
    check fails for every non-normal H and the oracle joins every zuppo:
    still all 19 classes of S5, with the same representatives."""
    want = [h.gens for h in all_subgroup_classes_brute(relabeled("S5", 0))]
    asked = []

    def whole_group(G, H):
        asked.append(H)
        return G.as_subgroup()

    monkeypatch.setattr(lattice, "normalizer", whole_group)
    G = relabeled("S5", 0)
    got = all_subgroup_classes_brute(G)
    assert [h.gens for h in got] == want and len(got) == 19
    # S5 has three normal subgroups: 1, A5 and S5
    assert len(asked) == 16 and not any(H.is_normal_in(G) for H in asked)


def uncapped_loop(G):
    """The oracle's loop before the Lagrange cutoff: every join closed
    to the end and classified through a handle.  Returns the generators
    of the representatives and the number of joins tried."""
    triv = trivial_subgroup(G)
    reps = [triv]
    known = {subgroup_class_id(G, triv)}
    zups = zuppos(G)
    act = lattice._zuppo_action(zups)
    zclass: dict = {}
    for i in range(len(zups)):
        if i not in zclass:
            cls = tuple(orbit([i], G.gen_conj(), act))
            zclass.update(dict.fromkeys(cls, cls))
    joins = 0
    for H in reps:
        helems = H.elements()
        normal = H.is_normal_in(G)
        if not normal:
            N = normalizer(G, H)
            nconj = ([conj_by(g) for g in N.gens] if H.is_normal_in(N)
                     else ())
        seen: set = set()
        for i, (x, _) in enumerate(zups):
            if x in helems or i in seen:
                continue
            seen.update(zclass[i] if normal else orbit([i], nconj, act))
            joins += 1
            elems = join_normalizing(helems, H.gens, x)
            if elems is None:
                elems = close_elements(H.gens + (x,), G.degree, seed=helems)
            K = Subgroup(G, H.gens + (x,), elems=elems)
            cid = subgroup_class_id(G, K)
            if cid not in known:
                known.add(cid)
                reps.append(K)
    reps.sort(key=lambda h: h.order)
    return [h.gens for h in reps], joins


ORACLE_GROUPS = [e.name for e in CATALOG.entries.values()
                 if CATALOG.group(e.name).order <= DEFAULT_CAP]


@pytest.mark.parametrize(
    "name, conjugator",
    [(name, None) for name in ORACLE_GROUPS]
    + [("S6", "(1,4,2,6)"), ("S6", "(2,5)(3,6,4)")])
def test_lagrange_cutoff_keeps_the_uncapped_transversal(name, conjugator,
                                                         monkeypatch):
    """Closing joins only up to |G|/2 gives the uncapped loop's
    representatives, in the same order with the same generators, from
    the same joins: no closure the oracle keeps holds more than |G|/2
    elements, and every join is still tried once."""
    def build():
        G = CATALOG.get(name).build()
        if conjugator is None:
            return G
        p = parse_cycles(conjugator, G.degree)
        return PermGroup([conj(g, p) for g in G.gens], G.degree)

    want, want_joins = uncapped_loop(build())
    G = build()
    closed, joins = [], []

    def spy_close(*args, **kwargs):
        elems = close_elements(*args, **kwargs)
        closed.append(elems)
        return elems

    def spy_join(*args):
        joins.append(args)
        return join_normalizing(*args)

    monkeypatch.setattr(lattice, "close_elements", spy_close)
    monkeypatch.setattr(lattice, "join_normalizing", spy_join)
    got = all_subgroup_classes_brute(G)
    assert [h.gens for h in got] == want
    assert len(joins) == want_joins
    assert all(len(e) <= G.order // 2 for e in closed if e is not None)
    if G.order == 720:
        # S6 reaches its whole group by many closures, all cut short
        assert sum(e is None for e in closed) > 1
