"""Brute-force oracle: enumeration, class structure, and comparisons."""

import dataclasses
from dataclasses import dataclass

import pytest

from fixtures import (
    A5_CLASS_ORDERS,
    FIG_A5,
    a5_c2_c2,
    conjugated,
    key_elements,
    relabeled,
)

from burnside import groups, lattice
from burnside.catalog import CATALOG, abelian_group, cyclic_group
from burnside.groups import (
    CapExceededError,
    PermGroup,
    Subgroup,
    close_elements,
    is_solvable,
    join_normalizing,
    normalizer,
    orbit,
    subgroup_class_id,
    transversal,
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
from burnside.marks import (
    SubgroupPattern,
    extend_table_of_marks,
    solvable_pattern_chain,
    validate_pattern,
)
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
        for key, g in transversal(cls.tree, G.gens, G.identity).items():
            idxs.append(len(subgroups))
            gens = tuple(conj(x, g) for x in cls.rep.gens)
            subgroups.append(Subgroup(G, gens, elems=key_elements(G, key)))
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
    for x, z in zuppos(s4):
        n = len(key_elements(s4, frozenset([z])))
        assert n in (2, 3, 4)


def zuppo_action(G):
    """The oracle's conjugation on G's zuppo ids: act(z, c) is the id of
    the zuppo that c, a map x -> x^g, maps zuppo z's least generator
    into."""
    least = {z: x for x, z in zuppos(G)}
    return lambda z, c: G._num().number(c(least[z]))


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
    """The orbits walked on zuppo ids are the orbits of the zuppo
    element sets under conjugation, for G and for the normalizer of
    every class representative: by the zuppo action step by step, and
    by the oracle's permutations of the ids
    (``PermGroup.zuppo_permutation``)."""
    zel = {z: key_elements(G, frozenset([z])) for _, z in zuppos(G)}
    act = zuppo_action(G)
    actions = [G.gens] + [normalizer(G, H).gens
                          for H in all_subgroup_classes_brute(G)]
    for gens in actions:
        maps = [conj_by(g) for g in gens]
        want = _partition(zel.values(), _conj_set, maps)
        got = {frozenset(zel[z] for z in numbered)
               for numbered in _partition(zel, act, maps)}
        assert got == want
        perms = [G.zuppo_permutation(g) for g in gens]
        got = {frozenset(zel[z] for z in numbered)
               for numbered in _partition(zel, lambda u, p: p[u], perms)}
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


def oracle_group(name, seed):
    """A catalog group, or A5 x C2 x C2, relabeled by the seed."""
    return relabeled(a5_c2_c2() if name == "A5xC2xC2" else name, seed)


@pytest.mark.parametrize(
    "name, seed",
    [(name, seed) for name in ["S4", "A5", "S5", "GL2(3)", "A6"]
     for seed in (0, 3)] + [("A5xC2xC2", 0), ("S6", 0)])
def test_one_join_per_orbit_keeps_the_full_loop_transversal(name, seed):
    """Joining one zuppo per N(H)-orbit finds every class by the same
    (H, z) pair as the full loop: same generators, same order.  The
    residuum caps meet each branch: D = G (A5, A6), a D of prime index
    (S5, S6), a D of composite index (A5 x C2 x C2) and D = 1."""
    want = full_zuppo_loop(oracle_group(name, seed))
    got = all_subgroup_classes_brute(oracle_group(name, seed))
    assert [h.gens for h in got] == want


@pytest.mark.parametrize("name", ["A5", "S5", "A6", "S6", "A5xC2xC2"])
def test_every_oracle_class_above_a_fifth_contains_the_residuum(name):
    """The bound behind the oracle's caps: a subgroup of order above
    |G|/5 contains the perfect residuum D, since a perfect D > 1 has no
    proper subgroup of index below 5."""
    G = oracle_group(name, 0)
    D = groups.perfect_residuum(G)
    big = [H for H in all_subgroup_classes_brute(G) if 5 * H.order > G.order]
    assert big and D.order > 1
    assert all(H.contains(g) for H in big for g in D.gens)


def test_s6_oracle_closes_no_join_past_its_residuum_cap(monkeypatch):
    """In S6, D = A6 of index 2: a join inside A6 is closed up to
    |A6|/5 = 72 elements and any other up to |S6|/5 = 144, each cap
    chosen before its closure, and all 56 classes are still found."""
    G = relabeled("S6", 0)

    def even(g):   # the parity of g, counted from its cycles
        seen, cycles = set(), 0
        for x in range(len(g)):
            if x not in seen:
                cycles += 1
                while x not in seen:
                    seen.add(x)
                    x = g[x]
        return (len(g) - cycles) % 2 == 0

    caps = {True: [], False: []}

    def spy_close(gens, degree, **kwargs):
        caps[all(map(even, gens))].append(kwargs["cap"])
        return close_elements(gens, degree, **kwargs)

    monkeypatch.setattr(lattice, "close_elements", spy_close)
    got = all_subgroup_classes_brute(G)
    assert len(got) == 56
    assert set(caps[True]) == {72} and set(caps[False]) == {144}


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
    act = zuppo_action(G)
    zclass: dict = {}
    for _, z in zups:
        if z not in zclass:
            cls = tuple(orbit([z], G.gen_conj(), act))
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
        for x, z in zups:
            if x in helems or z in seen:
                continue
            seen.update(zclass[z] if normal else orbit([z], nconj, act))
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


@pytest.mark.parametrize("name, seed", [("A6", 0), ("S6", 0), ("S6", 1),
                                        ("S6", 2), ("S6", 3)])
def test_one_orbit_partition_per_distinct_normalizer(name, seed,
                                                     monkeypatch):
    """The oracle partitions the zuppo ids into N-orbits once per
    distinct normalizer key among its representatives, G's for the
    normal ones, and walks orbits only then, one walk per orbit, none
    per representative.  Each join is told whether its zuppo normalizes
    H, and the representatives are the uncapped loop's."""
    want, _ = uncapped_loop(relabeled(name, seed))
    G = relabeled(name, seed)
    partitions, walks, joins = [], [], []
    normalizer_leads, walk = lattice._normalizer_leads, lattice.orbit

    def spy_leads(G, zups, N):
        before = len(walks)
        leads = normalizer_leads(G, zups, N)
        partitions.append((G.subgroup_key(N), len(walks) - before,
                           len(leads)))
        return leads

    def spy_orbit(*args):
        walks.append(args)
        return walk(*args)

    def spy_join(*args):
        joins.append(args)
        return join_normalizing(*args)

    monkeypatch.setattr(lattice, "_normalizer_leads", spy_leads)
    monkeypatch.setattr(lattice, "orbit", spy_orbit)
    monkeypatch.setattr(lattice, "join_normalizing", spy_join)
    got = all_subgroup_classes_brute(G)
    assert [h.gens for h in got] == want
    keys = {G.subgroup_key(normalizer(G, H)) for H in got}
    assert G.subgroup_key(G.as_subgroup()) in keys
    assert len(partitions) == len(keys) == len({k for k, _, _ in partitions})
    assert {k for k, _, _ in partitions} == keys
    assert all(n == orbits for _, n, orbits in partitions)
    assert len(walks) == sum(n for _, n, _ in partitions)
    # G's partition aside, fewer partitions than non-normal reps
    assert len(keys) - 1 < sum(not H.is_normal_in(G) for H in got)
    assert joins and all(isinstance(args[3], bool) for args in joins)


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


# ---------------------------------------------------------------------------
# compare_patterns by class-id lookup against the bucketed pairing it
# replaced


def bucketed_compare_patterns(a, b):
    """compare_patterns as it paired classes before: candidates of b
    bucketed by (order, class length, diagonal, first column), and each
    class of a paired with the first unused one that
    ``are_conjugate_subgroups`` finds conjugate."""
    G = a.group
    if a.n != b.n:
        return lattice.MatchReport(False, None, "class counts differ")
    if a.group.order != b.group.order or a.group.degree != b.group.degree:
        return lattice.MatchReport(False, None, "ambient groups differ")
    if not all(G.contains(g) for g in b.group.gens):
        return lattice.MatchReport(False, None, "ambient groups differ")

    def key(p, i):
        c = p.classes[i]
        return (c.order, c.length, p.rows[i][i], p.rows[i][0])

    buckets = {}
    for j in range(b.n):
        buckets.setdefault(key(b, j), []).append(j)
    perm = [None] * a.n
    used = set()
    for i in range(a.n):
        found = next((j for j in buckets.get(key(a, i), [])
                      if j not in used
                      and groups.are_conjugate_subgroups(
                          G, a.classes[i].rep, b.classes[j].rep)
                      is not None), None)
        if found is None:
            return lattice.MatchReport(False, None, "no partner")
        perm[i] = found
        used.add(found)
    for i in range(a.n):
        for j in range(i + 1):
            if a.rows[i][j] != b.cell(perm[i], perm[j]):
                return lattice.MatchReport(False, None, "cell")
    return lattice.MatchReport(True, perm, "match")


def permuted(p, idx, classes=None):
    """p with its classes in the order idx, marks carried along."""
    return SubgroupPattern(
        group=p.group, classes=classes or [p.classes[k] for k in idx],
        rows=[[p.cell(idx[r], idx[c]) for c in range(r + 1)]
              for r in range(len(idx))])


def corrupted(p):
    """Four edits of p: two classes of one order swapped (with their
    marks, so the table still matches), a changed class length, a
    bumped cell, and a class replaced by a conjugate of another.  The
    swap and the duplicate need two classes of one order."""
    same = next((i for i in range(p.n - 1)
                 if p.classes[i].order == p.classes[i + 1].order), None)
    ident = list(range(p.n))
    out = {}
    if same is not None:
        swap = ident[:same] + [same + 1, same] + ident[same + 2:]
        out["swapped classes"] = permuted(p, swap)
        twin = dataclasses.replace(
            p.classes[same + 1],
            rep=conjugated(p.classes[same].rep, p.group.gens[0]))
        out["conjugate duplicate"] = permuted(
            p, ident, p.classes[:same + 1] + [twin] + p.classes[same + 2:])
    k = p.n - 1
    out["changed length"] = permuted(
        p, ident, p.classes[:k] + [dataclasses.replace(
            p.classes[k], length=p.classes[k].length + 1)])
    bumped = permuted(p, ident)
    bumped.rows[k][min(1, k)] += 1
    out["bumped cell"] = bumped
    return out


EXTENSION_VS_ORACLE = [
    entry.name for entry in CATALOG.entries.values()
    if CATALOG.group(entry.name).order <= DEFAULT_CAP
    and (entry.extension_base or is_solvable(CATALOG.group(entry.name)))]


@pytest.mark.parametrize("name", EXTENSION_VS_ORACLE)
def test_compare_patterns_by_lookup_matches_bucketed(name, monkeypatch):
    """Extension against oracle, and against four corruptions of the
    oracle, each way round: the same verdict and permutation as the
    bucketed pairing, with no are_conjugate_subgroups call inside
    compare_patterns."""
    G = CATALOG.group(name)
    entry = CATALOG.get(name)
    if is_solvable(G):
        ext = solvable_pattern_chain(G)[-1]
    else:
        ext = extend_table_of_marks(
            table_of_marks_brute(CATALOG.group(entry.extension_base)), G)
    oracle = table_of_marks_brute(G)
    cases = {"oracle": oracle, **corrupted(oracle)}
    verdicts = {}
    real = groups.are_conjugate_subgroups
    for what, case in cases.items():
        for a, b in ((ext, case), (case, ext)):
            calls = []
            with monkeypatch.context() as m:
                m.setattr(groups, "are_conjugate_subgroups",
                          lambda *args: calls.append(args) or real(*args))
                got = compare_patterns(a, b)
            assert not calls, what
            want = bucketed_compare_patterns(a, b)
            assert (got.matched, got.permutation) == \
                (want.matched, want.permutation), what
            verdicts.setdefault(what, set()).add(got.matched)
    assert verdicts.pop("oracle") == {True}
    assert verdicts.pop("swapped classes", {True}) == {True}
    assert all(v == {False} for v in verdicts.values())


def test_compare_refuses_two_classes_on_one_partner():
    """S3's table without C3 against the same table with C2 in C3's
    place: the marks agree cell by cell if both C2 classes of the first
    may share the one C2 of the second, and a pairing must not allow
    that."""
    oracle = table_of_marks_brute(CATALOG.group("S3"))
    assert [c.order for c in oracle.classes] == [1, 2, 3, 6]
    no_c3, c2_twice = permuted(oracle, [0, 1, 3]), permuted(oracle, [0, 1, 1])
    for a, b in ((c2_twice, no_c3), (no_c3, c2_twice)):
        assert not compare_patterns(a, b).matched
        assert not bucketed_compare_patterns(a, b).matched
