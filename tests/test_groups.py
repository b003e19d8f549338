"""Kernel tests; expected values come from brute-force scans done right
here in the test, independent of the library's own machinery."""

import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from fixtures import relabeled

import burnside
from burnside import groups
from burnside.catalog import CATALOG, abelian_group, cyclic_group
from burnside.groups import (
    CapExceededError,
    NotSolvableError,
    PermGroup,
    Subgroup,
    are_conjugate_subgroups,
    centralizer,
    composition_series,
    coset_action,
    derived_series,
    element_class_length,
    is_solvable,
    normalizer,
    orbit,
    prime_factors,
    quotient_group,
    subgroup_class_id,
    transversal,
    trivial_subgroup,
)
from burnside.lattice import all_subgroup_classes_brute, zuppos
from burnside.perms import conj, inv, mul, order_of, parse_cycles, power


def naive_closure(gens, degree):
    elems = {tuple(range(degree))}
    frontier = list(elems)
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = mul(x, g)
                if y not in elems:
                    elems.add(y)
                    new.append(y)
        frontier = new
    return elems


@pytest.mark.parametrize("name", ["trivial", "C2", "C6", "C12", "S3", "D8",
                                  "Q8", "D12", "A4", "S4"])
def test_order_matches_naive_closure(name):
    G = CATALOG.group(name)
    assert G.order == len(naive_closure(G.gens, G.degree))


def test_catalog_orders():
    expected = {"S5": 120, "A5": 60, "GL2(3)": 48, "SL2(3)": 24,
                "A6": 360, "S6": 720, "L2(32)": 32736, "L2(32):5": 163680}
    for name, order in expected.items():
        assert CATALOG.group(name).order == order


def test_membership(a5, s5):
    assert a5.contains(parse_cycles("(1,2)(3,4)", 5))
    assert not a5.contains(parse_cycles("(1,2)", 5))
    assert s5.contains(parse_cycles("(1,2)", 5))


def test_elements_deterministic(s4):
    e1 = PermGroup(s4.gens, 4).elements()
    e2 = PermGroup(s4.gens, 4).elements()
    assert e1 == e2
    assert len(set(e1)) == 24


def _class_lengths_by_scan(G):
    """Element -> the size of its conjugacy class, conjugating it by every
    element of G; and the number of classes."""
    elems = G.elements()
    classes = {frozenset(conj(x, g) for g in elems) for x in elems}
    return {x: len(c) for c in classes for x in c}, len(classes)


def test_element_classes_s4(s4):
    reps = [s4.identity] + [parse_cycles(c, 4) for c in (
        "(1,2)", "(1,2)(3,4)", "(1,2,3)", "(1,2,3,4)")]
    assert [element_class_length(s4, x) for x in reps] == [1, 6, 3, 8, 6]
    lengths, count = _class_lengths_by_scan(s4)
    assert count == len(reps)
    assert all(element_class_length(s4, x) == n for x, n in lengths.items())


def test_element_classes_trivial():
    G = PermGroup([], 3)
    assert element_class_length(G, (0, 1, 2)) == 1


def test_element_classes_a5(a5):
    """The 5-cycles split into two A5-classes of 12: a 5-cycle and its
    square are not conjugate in A5."""
    five = parse_cycles("(1,2,3,4,5)", 5)
    reps = [a5.identity, parse_cycles("(1,2)(3,4)", 5),
            parse_cycles("(1,2,3)", 5), five, mul(five, five)]
    assert [element_class_length(a5, x) for x in reps] == [1, 15, 20, 12, 12]
    lengths, count = _class_lengths_by_scan(a5)
    assert count == len(reps)
    assert all(element_class_length(a5, x) == n for x, n in lengths.items())


def test_normalizer_against_scan(s4):
    c4 = Subgroup(s4, [parse_cycles("(1,2,3,4)", 4)])
    want = [g for g in s4.elements()
            if {conj(x, g) for x in c4.elements()} == set(c4.elements())]
    n = normalizer(s4, c4)
    assert n.order == len(want) == 8
    assert set(n.elements()) == set(want)
    assert all(g in n for g in c4.gens)


def test_normalizer_whole_group(s4):
    a4 = Subgroup(s4, [parse_cycles("(1,2,3)", 4),
                       parse_cycles("(1,2)(3,4)", 4)])
    assert normalizer(s4, a4).order == 24


def test_centralizer_against_scan(s5):
    x = parse_cycles("(1,2)", 5)
    want = [g for g in s5.elements() if conj(x, g) == x]
    c = centralizer(s5, x)
    assert c.order == len(want) == 12
    assert x in c


def test_conjugate_subgroups(s5, s4):
    h = Subgroup(s5, [parse_cycles("(1,2)", 5)])
    k = Subgroup(s5, [parse_cycles("(4,5)", 5)])
    g = are_conjugate_subgroups(s5, h, k)
    assert g is not None
    assert {conj(x, g) for x in h.elements()} == set(k.elements())
    # symmetric
    g2 = are_conjugate_subgroups(s5, k, h)
    assert g2 is not None
    assert {conj(x, g2) for x in k.elements()} == set(h.elements())
    # distinct profiles reject
    h2 = Subgroup(s4, [parse_cycles("(1,2)", 4)])
    k2 = Subgroup(s4, [parse_cycles("(1,2)(3,4)", 4)])
    assert are_conjugate_subgroups(s4, h2, k2) is None
    # reflexive
    assert are_conjugate_subgroups(s4, h2, h2) == s4.identity


def coset_hom(H, reps):
    """The image of g in the action on the cosets H r, r in reps, one
    coset key per point: point i goes to the point of the coset of
    reps[i] g."""
    key = groups._coset_key(H, list(reps))
    label = {key(r): i for i, r in enumerate(reps)}
    return lambda g: tuple(label[key(mul(r, g))] for r in reps)


def test_coset_action_s4(s4):
    s3 = Subgroup(s4, [parse_cycles("(1,2)", 4), parse_cycles("(1,2,3)", 4)])
    img, reps = coset_action(s4, s3)
    assert img.degree == 4 and img.order == 24
    hom = coset_hom(s3, reps)
    assert img.gens == tuple(hom(g) for g in s4.gens)
    # point i is the coset of reps[i]
    assert [hom(r)[0] for r in reps] == list(range(4))
    # homomorphism
    for g in s4.gens:
        for h in s4.gens:
            assert hom(mul(g, h)) == mul(hom(g), hom(h))
    d8 = Subgroup(s4, [parse_cycles("(1,2,3,4)", 4), parse_cycles("(1,3)", 4)])
    img2, _ = coset_action(s4, d8)
    assert img2.degree == 3 and img2.order == 6
    whole = Subgroup(s4, s4.gens)
    img3, reps3 = coset_action(s4, whole)
    assert img3.degree == 1 and img3.order == 1 and len(reps3) == 1


@pytest.mark.parametrize("G", [CATALOG.group("S5"), CATALOG.group("GL2(3)"),
                               relabeled("A6", 3)],
                         ids=["S5", "GL2(3)", "A6 relabeled"])
def test_coset_action_reads_the_transversal_walk(G, monkeypatch):
    """For every class representative H, the action's generators are
    the images of the point-by-point coset map, its representatives are
    coset_transversal's, and one coset key is computed per tree edge:
    |G:H| |gens| keys, where a second pass over the transversal would
    take 2 |G:H| |gens| + |G:H|."""
    reps = all_subgroup_classes_brute(G)
    real = groups._coset_key
    evaluated = []

    def counted_key(H, known):
        key = real(H, known)
        return lambda g: evaluated.append(g) or key(g)

    monkeypatch.setattr(groups, "_coset_key", counted_key)
    for H in reps:
        index = G.order // H.order
        evaluated.clear()
        img, cosets = coset_action(G, H)
        assert len(evaluated) == index * len(G.gens)
        assert img.degree == index
        assert cosets == groups.coset_transversal(G, H)
        hom = coset_hom(H, cosets)
        assert img.gens == PermGroup([hom(g) for g in G.gens], index).gens


def test_quotient_group(s4):
    a4 = Subgroup(s4, [parse_cycles("(1,2,3)", 4),
                       parse_cycles("(1,2)(3,4)", 4)])
    W, lift = quotient_group(s4, a4)
    assert W.order == 2
    c4 = cyclic_group(4)
    half = Subgroup(c4, [parse_cycles("(1,3)(2,4)", 4)])
    W2, lift2 = quotient_group(c4, half)
    assert W2.order == 2
    nt = [w for w in W2.elements() if w != W2.identity][0]
    assert order_of(lift2(nt)) == 4
    assert lift2(W2.identity) in half
    # whole group quotient is trivial
    W3, _ = quotient_group(s4, Subgroup(s4, s4.gens))
    assert W3.order == 1


def test_quotient_requires_normal(s4):
    d8 = Subgroup(s4, [parse_cycles("(1,2,3,4)", 4), parse_cycles("(1,3)", 4)])
    with pytest.raises(ValueError):
        quotient_group(s4, d8)


def test_composition_series_s4(s4):
    ser = composition_series(s4)
    assert sorted(ser.indices) == [2, 2, 2, 3]
    orders = [t.order for t in ser.terms]
    assert orders[0] == 1 and orders[-1] == 24
    for a, b, p in zip(ser.terms, ser.terms[1:], ser.indices):
        assert b.order == a.order * p
        assert p in (2, 3)
        # normality of each step
        assert all(conj(x, g) in a for g in b.gens for x in a.gens)


def test_composition_series_gl23(gl23):
    ser = composition_series(gl23)
    assert ser.indices == [2, 2, 2, 3, 2]
    assert [t.order for t in ser.terms] == [1, 2, 4, 8, 24, 48]


@pytest.mark.parametrize("G", [CATALOG.group("GL2(3)"),
                               abelian_group((2,) * 5)],
                         ids=["GL2(3)", "C2^5"])
def test_composition_series_builds_every_term_by_a_join(G, monkeypatch):
    """Each term normalizes the one below, so joins take the coset union
    and the series makes no closure."""
    closures = []
    real = groups.close_elements

    def counted(*args, **kwargs):
        closures.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(groups, "close_elements", counted)
    ser = composition_series(G)
    assert ser.terms[-1].order == G.order and not closures


def test_not_solvable(a5):
    assert not is_solvable(a5)
    with pytest.raises(NotSolvableError):
        composition_series(a5)


def test_derived_series_s4(s4):
    ders = derived_series(s4)
    assert [d.order for d in ders] == [24, 12, 4, 1]


def test_big_group_chain():
    G = CATALOG.group("L2(32):5")
    assert G.order == 163680
    A = CATALOG.group("L2(32)")
    assert all(G.contains(g) for g in A.gens)


def test_elements_cap():
    G = CATALOG.group("L2(32):5")
    assert G.order < 250_000
    # A7-scale enumeration is allowed; just exercise the guard logic
    triv = trivial_subgroup(G)
    assert triv.order == 1


def test_subgroup_validation(s4):
    with pytest.raises(ValueError):
        Subgroup(s4, [parse_cycles("(1,2,3,4,5)", 5)])
    with pytest.raises(ValueError):
        Subgroup(CATALOG.group("A4"), [parse_cycles("(1,2)", 4)], check=True)


# ---------------------------------------------------------------------------
# class keys, conjugators and normalizers against a full conjugation scan


def scanned_class(G, rep):
    """Every member of rep's class, each found by conjugating with every
    element of G: element set -> generators of that member."""
    members = {}
    for g in G.elements():
        elems = frozenset(conj(x, g) for x in rep.elements())
        if elems not in members:
            members[elems] = [conj(x, g) for x in rep.gens]
    return members


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", ["S5", "A6", "GL2(3)"])
def test_class_members_conjugators_and_normalizers(name, seed):
    G = relabeled(name, seed)
    for rep in all_subgroup_classes_brute(G):
        members = scanned_class(G, rep)
        assert normalizer(G, rep).order == G.order // len(members)
        for gens in members.values():
            K = Subgroup(G, gens)
            g = are_conjugate_subgroups(G, rep, K)
            assert g is not None and G.contains(g)
            assert rep.conjugated(g).same_subgroup(K)


def test_subgroups_output_ignores_the_hash_seed():
    """Class listings, tables from the marks engine (S6 from A6, the
    C2^5 chain, SL2(3) with its p = 3 fusion step) and the oracle table
    of S6 are the same under two hash seeds, timings aside.  L2(32):5 is
    the p = 5 class step with A above SET_CAP."""
    src = str(Path(burnside.__file__).resolve().parents[1])
    c2x5 = [a for k in range(5) for a in ("--gens", f"({2*k+1},{2*k+2})")]
    cases = [(["subgroups", "S5"], 19), (["subgroups", "A6"], 22),
             (["subgroups", "S6"], 56), (["subgroups", "L2(32):5"], 30),
             (["tom", "SL2(3)", "--format", "json"], 7),
             (["tom", "S6", "--via", "extension", "--format", "json"], 56),
             (["tom", "S6", "--via", "oracle", "--format", "json"], 56),
             (["tom", "10", *c2x5, "--format", "json"], 374)]
    for argv, classes in cases:
        outs = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            run = subprocess.run(
                [sys.executable, "-m", "burnside.cli", *argv],
                env=env, capture_output=True, timeout=300)
            assert run.returncode == 0, run.stderr
            outs.append(re.sub(rb'"millis": \d+', b'"millis": 0', run.stdout))
        assert outs[0] == outs[1], argv
        found = (outs[0].count(b"\n") if argv[0] == "subgroups"
                 else len(json.loads(outs[0])["classes"]))
        assert found == classes, argv


def test_prime_factors_against_trial_division():
    for n in range(1, 400):
        got = prime_factors(n)
        assert got == sorted(got)
        assert all(p > 1 and all(p % d for d in range(2, p)) for p in got)
        prod = 1
        for p in got:
            prod *= p
        assert prod == n
    assert prime_factors(163680) == [2] * 5 + [3, 5, 11, 31]


def test_orbit_is_a_breadth_first_schreier_tree(s5):
    """Seeds first, then the points in breadth-first discovery order (the
    generators tried in the order given); every edge (parent, k)
    reproduces its point from an earlier one."""
    x = parse_cycles("(1,2)(3,4)", 5)
    seeds = [x, conj(x, s5.gens[1]), x]
    tree = orbit(seeds, s5.gens, conj)
    expected = list(dict.fromkeys(seeds))
    level = list(expected)
    while level:
        nxt = []
        for y in level:
            for g in s5.gens:
                z = conj(y, g)
                if z not in expected and z not in nxt:
                    nxt.append(z)
        expected += nxt
        level = nxt
    assert list(tree) == expected and len(tree) == 15
    pos = {y: i for i, y in enumerate(tree)}
    for y, edge in tree.items():
        if y in seeds:
            assert edge is None
            continue
        parent, k = edge
        assert conj(parent, s5.gens[k]) == y and pos[parent] < pos[y]
    # on points, the transversal takes the seed to each point
    points = orbit([2], s5.gens, lambda pt, s: s[pt])
    assert sorted(points) == list(range(5))
    reps = transversal(points, s5.gens, s5.identity)
    assert list(reps) == list(points)
    assert all(u[2] == pt for pt, u in reps.items())


def test_orbit_walk_stopped_early_is_a_prefix_of_the_orbit(s5):
    """Each point comes once its images are in the tree, so a walk
    stopped after k points holds the first points and edges of the whole
    orbit, in the same order."""
    x = parse_cycles("(1,2)(3,4)", 5)
    whole = list(orbit([x], s5.gens, conj).items())
    for k in range(1, len(whole) + 1):
        tree = {x: None}
        walk = groups.orbit_walk(tree, s5.gens, conj)
        got = [next(walk) for _ in range(k)]
        assert got == [y for y, _ in whole[:k]]
        assert all(conj(y, g) in tree for y in got for g in s5.gens)
        assert list(tree.items()) == whole[:len(tree)]


def scanned_rational_classes(W, q, skip=None):
    """(representative, size) pairs from the element scan: the order of
    every element scanned on each call, each class walked as an element
    orbit from the powers of its first element."""
    seen = set()
    out = []
    for w in W.sorted_elements():
        if w in seen or order_of(w) != q:
            continue
        if skip is not None and skip(w):
            continue
        members = orbit([power(w, k) for k in range(1, q)], W.gen_conj(),
                        lambda y, c: c(y))
        seen.update(members)
        out.append((w, len(members)))
    return out


def has_fixed_point(x):
    """A skip that is constant on rational classes in every group."""
    return any(i == j for i, j in enumerate(x))


@pytest.mark.parametrize("name", ["S5", "GL2(3)", "A6"])
def test_rational_classes_pairs(name, monkeypatch):
    """The pairs of the element scan, in its order, each size the one
    counted by conjugating its powers with every element; the sweep
    reads each element's order off its powers and calls no order_of."""
    G = relabeled(name, 3)
    D = groups.derived_subgroup(G)
    calls = []
    monkeypatch.setattr(groups, "order_of",
                        lambda x: calls.append(x) or order_of(x))
    for q in sorted(set(prime_factors(G.order))):
        for skip in (None, D.contains, has_fixed_point):
            got = groups.rational_classes(G, q, skip)
            assert got == scanned_rational_classes(G, q, skip)
            for w, size in got:
                members = {conj(power(w, k), g) for g in G.elements()
                           for k in range(1, q)}
                assert size == len(members)
        assert sum(size for _, size in groups.rational_classes(G, q)) \
            == sum(order_of(x) == q for x in G.elements())
    assert calls == []


def test_rational_classes_of_l2_32_match_the_element_scan():
    """On a relabelled L2(32), for q = 2, 3, 11 and 31, with and without
    a skip, the pairs are those of the element scan."""
    G = relabeled("L2(32)", 3)
    for q in (2, 3, 11, 31):
        for skip in (None, has_fixed_point):
            assert groups.rational_classes(G, q, skip) == \
                scanned_rational_classes(G, q, skip)


@pytest.mark.parametrize("name", ["S5", "GL2(3)", "A6"])
def test_rational_classes_walk_subgroup_classes_only(name, monkeypatch):
    """rational_classes walks no element orbit, only class orbits on
    index sets, and leaves the class of every <w> cached: identifying
    it afterwards walks nothing."""
    G = relabeled(name, 3)
    walked = []
    real_orbit, real_walk = groups.orbit, groups.orbit_walk

    def spied_orbit(seeds, gens, act):
        walked.extend(seeds)
        return real_orbit(seeds, gens, act)

    def spied_walk(tree, gens, act):
        walked.extend(tree)
        return real_walk(tree, gens, act)

    monkeypatch.setattr(groups, "orbit", spied_orbit)
    monkeypatch.setattr(groups, "orbit_walk", spied_walk)
    found = [w for q in sorted(set(prime_factors(G.order)))
             for w, _ in groups.rational_classes(G, q)]
    assert walked and all(isinstance(x, frozenset) for x in walked)
    classes = len(G._sub_classes)
    walked.clear()
    for w in found:
        subgroup_class_id(G, Subgroup(G, [w]))
    assert len(G._sub_classes) == classes and not walked


@pytest.mark.parametrize("name", ["S5", "GL2(3)"])
def test_join_matches_a_fresh_subgroup(name):
    """<H, t> for every class representative H and a fixed sample of t,
    normalizing or not: the generators H.gens + (t,), and the element
    set and order of the same subgroup built from scratch."""
    G = CATALOG.group(name)
    sample = random.Random(5).sample(G.sorted_elements(), 12)
    kinds = set()
    for H in all_subgroup_classes_brute(G):
        for t in sample:
            K = H.join(t)
            fresh = Subgroup(G, H.gens + (t,))
            if t != G.identity and t not in H.gens:
                assert K.gens == H.gens + (t,)
            assert K.gens == fresh.gens and K.degree == G.degree
            assert K.order == fresh.order
            assert K.elements() == fresh.elements()
            kinds.add(all(conj(g, t) in H for g in H.gens))
    assert kinds == {True, False}


def test_join_takes_the_coset_union_exactly_when_it_fits(monkeypatch):
    """The join of C2 with a 4-cycle squaring into it has order 4: with
    SET_CAP 5 it is the union of two cosets, with SET_CAP 3 it is known
    to be above the cap (|H| m = 4) and gets a stabilizer chain; neither
    runs a closure."""
    G = CATALOG.group("D8")
    c4 = next(x for x in G.sorted_elements() if order_of(x) == 4)
    H = Subgroup(G, [mul(c4, c4)])
    closures = []
    real = groups.close_elements

    def counted(*args, **kwargs):
        closures.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(groups, "close_elements", counted)
    monkeypatch.setattr(groups, "SET_CAP", 5)
    assert H.join(c4).order == 4 and not closures
    monkeypatch.setattr(groups, "SET_CAP", 3)
    joined = H.join(c4)
    assert joined.order == 4 and not closures
    assert joined.elements() == H.elements() | {mul(c4, x)
                                                for x in H.elements()}
    assert not closures


def test_big_joins_and_conjugates_run_no_closure(monkeypatch):
    """With SET_CAP 3, a C4 of S4 is above the cap: its conjugate and
    its join with a reflection get a stabilizer chain, and no element
    closure runs for them."""
    G = CATALOG.group("S4")
    c4 = Subgroup(G, [parse_cycles("(1,2,3,4)", 4)])
    t, r = parse_cycles("(1,2)", 4), parse_cycles("(1,3)", 4)
    closures = []
    real = groups.close_elements

    def counted(*args, **kwargs):
        closures.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(groups, "close_elements", counted)
    monkeypatch.setattr(groups, "SET_CAP", 3)
    conjugate, joined = c4.conjugated(t), c4.join(r)
    assert not closures
    assert conjugate.order == 4 and joined.order == 8
    assert conjugate.elements() == {conj(x, t) for x in c4.elements()}
    assert joined.elements() == frozenset(
        naive_closure(c4.gens + (r,), 4))


def test_class_keys_belong_to_the_classifying_group():
    """One subgroup as three handles: built in A5, in S5, and in a cold
    copy of S5.  S5 gives all three the same class id and normalizer
    order, and finds a conjugator from each of them to each handle of
    its conjugate by a transposition."""
    A, S = CATALOG.group("A5"), CATALOG.group("S5")
    t = parse_cycles("(1,2)", 5)
    for H in all_subgroup_classes_brute(A):
        cold = PermGroup(S.gens, S.degree)
        handles = [Subgroup(G, H.gens) for G in (A, S, cold)]
        conjugates = [h.conjugated(t) for h in handles]
        ids = {subgroup_class_id(S, h) for h in handles + conjugates}
        assert len(ids) == 1
        assert len({normalizer(S, h).order for h in handles}) == 1
        for h in handles:
            for k in conjugates:
                g = are_conjugate_subgroups(S, h, k)
                assert {conj(x, g) for x in h.elements()} == k.elements()


def test_quotient_by_the_trivial_group_is_the_group_itself(s4):
    W, lift = quotient_group(s4, trivial_subgroup(s4))
    assert W is s4
    assert all(lift(x) == x for x in s4.elements())


CLOSURE_GROUPS = ["S4", "A5", "S5", "GL2(3)"]


@pytest.mark.parametrize("name", CLOSURE_GROUPS)
def test_close_elements_matches_a_breadth_first_closure(name):
    """<H, z> for every class representative H and every zuppo z, closed
    by cosets from scratch and from H's element set, is the group the
    plain product closure finds."""
    G = CATALOG.group(name)
    zups = [x for x, _ in zuppos(G)]
    for H in all_subgroup_classes_brute(G):
        for z in zups:
            gens = H.gens + (z,)
            want = naive_closure(gens, G.degree)
            assert groups.close_elements(gens, G.degree) == want
            assert groups.close_elements(gens, G.degree,
                                         seed=H.elements()) == want


@pytest.mark.parametrize("name", CLOSURE_GROUPS)
def test_close_elements_cap_is_the_largest_order_returned(name):
    """A cap one below the order gives None, a cap equal to it the
    element set, with and without a seed (the cyclic subgroup of the
    first generator)."""
    G = CATALOG.group(name)
    for H in all_subgroup_classes_brute(G) + [Subgroup(G, G.gens)]:
        want = H.elements()
        for seed in (None, Subgroup(G, H.gens[:1]).elements()):
            for cap, result in ((H.order - 1, None), (H.order, want)):
                assert groups.close_elements(
                    H.gens, G.degree, cap=cap, seed=seed) == result


def _right_coset_close(gens, degree, *, cap=None, seed=None):
    # the former body of close_elements: Dimino on right cosets H r,
    # each new coset H y made by one mul per element of H
    idn = tuple(range(degree))
    elems = {idn}
    if seed is not None:
        elems.update(seed)
    gens = list(dict.fromkeys(g for g in gens if g != idn))
    steps = [gens] if seed is not None else [
        gens[:i + 1] for i in range(len(gens))]
    for step in steps:
        if all(s in elems for s in step):
            continue
        subgroup = list(elems)
        reps = [idn]
        for r in reps:
            for s in step:
                y = mul(r, s)
                if y not in elems:
                    elems.update([mul(h, y) for h in subgroup])
                    reps.append(y)
                    if cap is not None and len(elems) > cap:
                        return None
    return elems if cap is None or len(elems) <= cap else None


REFERENCE_GROUPS = [CATALOG.group("S5"), CATALOG.group("GL2(3)"),
                    relabeled("A6", 3)]
REFERENCE_IDS = ["S5", "GL2(3)", "A6 relabeled"]


@pytest.mark.parametrize("G", REFERENCE_GROUPS, ids=REFERENCE_IDS)
def test_left_coset_closure_matches_the_right_coset_closure(G):
    """Dimino on left cosets gives the element set of the former
    right-coset body, for <H, z> with every class representative H and
    seeded random z, closed from scratch and from H's element set, and
    gives None at exactly the same caps."""
    rng = random.Random(13)
    elems = G.sorted_elements()
    for H in all_subgroup_classes_brute(G):
        for z in rng.sample(elems, 3):
            gens = H.gens + (z,)
            want = _right_coset_close(gens, G.degree)
            order = len(want)
            caps = sorted({1, H.order - 1, H.order, order - 1, order,
                           rng.randrange(1, order + 1)})
            for seed in (None, H.elements()):
                got = groups.close_elements(gens, G.degree, seed=seed)
                assert got == want
                for cap in caps:
                    old = _right_coset_close(gens, G.degree, cap=cap,
                                             seed=seed)
                    new = groups.close_elements(gens, G.degree, cap=cap,
                                                seed=seed)
                    assert (new is None) == (old is None), cap
                    assert new == old


@pytest.mark.parametrize("G", [CATALOG.group("S5"), CATALOG.group("GL2(3)"),
                               CATALOG.group("A6")],
                         ids=["S5", "GL2(3)", "A6"])
def test_coset_keys_match_the_product_loop(G):
    """The gathered coset key is the former min(mul(h, g) for h in H)
    at random g, and coset_transversal is the one that key gives, for
    every class representative H."""
    rng = random.Random(17)
    elems = G.sorted_elements()
    for H in all_subgroup_classes_brute(G):
        helems = sorted(H.elements())

        def old_key(g):
            return min(mul(h, g) for h in helems)

        key = groups._coset_key(H, [])
        for g in rng.sample(elems, 20):
            assert key(g) == old_key(g)
        tree = orbit([G.identity], G.gens, lambda c, s: old_key(mul(c, s)))
        want = list(transversal(tree, G.gens, G.identity).values())
        assert groups.coset_transversal(G, H) == want


@pytest.mark.parametrize("G", [CATALOG.group("S5"), CATALOG.group("GL2(3)"),
                               relabeled("A6", 3)],
                         ids=["S5", "GL2(3)", "A6 relabeled"])
def test_conjugation_tables_match_tuple_conj(G):
    """Every generator's table, filled over the whole group by gathers,
    maps each index to the index of the conjugate by that generator."""
    idxs = G.index_set(G.elements())
    num = G._num()
    for k, s in enumerate(G.gens):
        image = G.conj_index_set(idxs, k)
        assert image == idxs
        tab, elts = num.tabs[k], num.elts
        assert len(elts) == G.order
        for i in range(G.order):
            assert elts[tab[i]] == conj(elts[i], s)


# ---------------------------------------------------------------------------
# the one normalizer routine against the two former walks


def _chain_rebuild_stabilizer_gens(G, nodes, rep_of, act, target, seed_gens):
    """The former stabilizer body: Schreier generators over the walk, each
    new one tested against and added to a fresh stabilizer chain."""
    gens = list(dict.fromkeys(seed_gens))
    sub = PermGroup(gens, G.degree)
    if sub.order == target:
        return gens
    for node in nodes:
        u = rep_of(node)
        for k, s in enumerate(G.gens):
            sg = mul(mul(u, s), inv(rep_of(act(node, k))))
            if not sub.contains(sg):
                gens.append(sg)
                sub = PermGroup(gens, G.degree)
                if sub.order == target:
                    return gens
    raise RuntimeError("stabilizer reconstruction failed")


def _full_walk_normalizer(G, H):
    """The former normalizer: H's whole class walked into G's cache, its
    Schreier tree re-rooted at H."""
    if H.is_normal_in(G):
        return G.as_subgroup()
    cls = G._sub_classes[subgroup_class_id(G, H)]
    g0inv = inv(cls.conjugator(G.subgroup_key(H), G.gens))
    gens = _chain_rebuild_stabilizer_gens(
        G, cls.tree, lambda key: mul(g0inv, cls.conjugator(key, G.gens)),
        G.conj_index_set, G.order // cls.size, H.gens)
    return Subgroup(G, gens)


def _stopped_walk_normalizer(G, H, order):
    """The former normalizer of known order: a walk of H's class from H,
    stopped once its Schreier generators span ``order``."""
    fp = G.subgroup_key(H)
    tree, known = {fp: None}, {fp: G.identity}
    gens = _chain_rebuild_stabilizer_gens(
        G, groups.orbit_walk(tree, range(len(G.gens)), G.conj_index_set),
        lambda key: groups.path_product(tree, key, G.gens, known),
        G.conj_index_set, order, H.gens)
    return Subgroup(G, gens)


@pytest.mark.parametrize("G", REFERENCE_GROUPS, ids=REFERENCE_IDS)
def test_normalizer_matches_the_full_and_the_stopped_walk(G):
    """For every class representative H, normalizer(G, H) and
    normalizer(G, H, |N|) have the order and element set of the former
    full-walk normalizer, and the second has the generators of the former
    stopped walk when H is not normal; with the order given, no class of
    G is cached."""
    reference = PermGroup(G.gens, G.degree)
    plain = PermGroup(G.gens, G.degree)
    ordered = PermGroup(G.gens, G.degree)
    for H in all_subgroup_classes_brute(G):
        want = _full_walk_normalizer(reference, H)
        stopped = _stopped_walk_normalizer(reference, H, want.order)
        got = normalizer(plain, H)
        got_ordered = normalizer(ordered, H, want.order)
        for N in (stopped, got, got_ordered):
            assert N.order == want.order
            assert N.elements() == want.elements()
        if want.order < G.order:
            assert got_ordered.gens == stopped.gens
    assert ordered._sub_classes == []


@pytest.mark.parametrize("G", [CATALOG.group("S5"), relabeled("A6", 3)],
                         ids=["S5", "A6 relabeled"])
def test_normalizers_build_no_chain_once_the_classes_are_walked(
        G, monkeypatch):
    """Stabilizers grow by joins of element sets, so once the classes of
    a fresh copy of G are walked, none of its normalizers runs
    Schreier-Sims."""
    fresh = PermGroup(G.gens, G.degree)
    reps = all_subgroup_classes_brute(G)
    for H in reps:
        subgroup_class_id(fresh, H)
    builds = []
    real = groups.build_chain
    monkeypatch.setattr(groups, "build_chain",
                        lambda *args: builds.append(args) or real(*args))
    orders = [normalizer(fresh, H).order for H in reps]
    assert builds == []
    assert [fresh.order // o for o in orders] == [
        fresh._sub_classes[subgroup_class_id(fresh, H)].size for H in reps]


# ---------------------------------------------------------------------------
# known-order chains and conjugation tables


def _levels(chain):
    """Everything a chain level holds, in its order, with each inverse
    checked against its transversal element."""
    for lv in chain:
        idn = tuple(range(len(lv["gens"][0])))
        assert all(mul(u, lv["inverse"][pt]) == idn
                   for pt, u in lv["orbit"].items())
    return [(lv["base"], lv["gens"], list(lv["orbit"].items()),
             list(lv["inverse"].items())) for lv in chain]


@pytest.mark.parametrize("name", sorted(CATALOG.entries))
def test_known_order_chain_of_catalog_group_equals_the_full_run(name):
    G = CATALOG.get(name).build()
    assert _levels(groups.build_chain(G.gens, G.degree, G.order)) == \
        _levels(G.chain)


@pytest.mark.parametrize("base,key", [("A5", "S5"), ("A6", "S6"),
                                      ("L2(32)", "L2(32):5")])
def test_known_order_chains_of_class_steps_equal_the_full_run(
        base, key, monkeypatch):
    """Every chain built with a known order, in the class search or
    oracle of A and in the class step to S, has the levels of the full
    Schreier-Sims run on the same generators.  The step builds its
    regular quotient images N_S(H)/H that way (degree = order), and the
    L2(32) search its normalizers with element sets."""
    from burnside import extension
    from burnside.lattice import subgroup_classes_search
    A, S = CATALOG.get(base).build(), CATALOG.get(key).build()
    real, calls = groups.build_chain, []

    def spy(gens, degree, order=None):
        if order is not None:
            calls.append((gens, degree, order))
        return real(gens, degree, order)

    monkeypatch.setattr(groups, "build_chain", spy)
    reps = (subgroup_classes_search(A) if base == "L2(32)"
            else all_subgroup_classes_brute(A))
    searched = len(calls)
    extension.extend_classes(extension.sort_class_reps(reps),
                             extension.ExtensionContext.create(S, A))
    assert any(degree == order for _, degree, order in calls[searched:])
    if base == "L2(32)":
        assert any(degree != order for _, degree, order in calls[:searched])
    for gens, degree, order in calls:
        assert _levels(real(gens, degree, order)) == \
            _levels(real(gens, degree))


def test_known_order_stop_checks_every_generator():
    """A run stopped at a wrong order is refused: (1,2,3) alone reaches
    order 3, and (1,2) then does not sift; an order never reached is
    refused too.  The right order gives the full run's levels."""
    s3 = [parse_cycles("(1,2,3)", 3), parse_cycles("(1,2)", 3)]
    for wrong in (3, 12):
        with pytest.raises(RuntimeError):
            groups.build_chain(s3, 3, wrong)
    assert _levels(groups.build_chain(s3, 3, 6)) == \
        _levels(groups.build_chain(s3, 3))


@pytest.mark.parametrize("make", [lambda: CATALOG.get("S5").build(),
                                  lambda: CATALOG.get("GL2(3)").build(),
                                  lambda: relabeled("A6", 3)],
                         ids=["S5", "GL2(3)", "A6 relabeled"])
def test_conjugation_tables_match_tuple_conjugation(make):
    """After the class walks of the whole lattice, and again once every
    entry is filled, each generator's table maps the index of x to the
    index of x^s computed by tuple conjugation; an involution fills the
    entry of x^s with x as it fills the entry of x."""
    G = make()
    all_subgroup_classes_brute(G)
    num = G._num()

    def check():
        for k, s in enumerate(G.gens):
            tab = num.tabs[k]
            assert all(j < 0 or j == num.index[conj(num.elts[i], s)]
                       for i, j in enumerate(tab))

    check()
    every = G.index_set(G.elements())
    for k in range(len(G.gens)):
        G.conj_index_set(every, k)
    check()
    assert all(len(tab) == G.order and min(tab) >= 0 for tab in num.tabs)
    # S5 and GL2(3) each have an involutory generator, A6 none
    assert num.involution == [order_of(s) == 2 for s in G.gens]
