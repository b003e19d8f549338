"""Kernel tests; expected values come from brute-force scans done right
here in the test, independent of the library's own machinery."""

import gc
import json
import os
import random
import re
import subprocess
import sys
import types
import weakref
from contextlib import contextmanager
from math import gcd
from pathlib import Path

import pytest

from fixtures import conjugated, key_elements, property_suite, relabeled

import burnside
from burnside import extension, groups, lattice, marks, patterns
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
    euler_phi,
    is_solvable,
    normalizer,
    orbit,
    perfect_residuum,
    prime_factors,
    quotient_group,
    subgroup_class_id,
    transversal,
    trivial_subgroup,
)
from burnside.lattice import (
    all_subgroup_classes_brute,
    subgroup_classes_search,
    zuppos,
)
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
    key = groups._coset_key(H)
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

    def counted_key(H):
        key = real(H)
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
    """The groups above the trivial one, bottom up, S4 itself on top;
    each is normal of prime index in the next."""
    ser = composition_series(s4)
    assert ser[-1] is s4
    orders = [1] + [t.order for t in ser]
    assert sorted(b // a for a, b in zip(orders, orders[1:])) == [2, 2, 2, 3]
    for a, b in zip(ser, ser[1:]):
        assert b.order // a.order in (2, 3)
        # normality of each step
        assert all(conj(x, g) in a for g in b.gens for x in a.gens)


def test_composition_series_gl23(gl23):
    ser = composition_series(gl23)
    assert [t.order for t in ser] == [2, 4, 8, 24, 48]
    assert ser[-1] is gl23


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
    assert ser[-1].order == G.order and not closures


def quotient_refined_series(G):
    """Reference composition series: each derived factor W = top/bottom
    built as a regular quotient (``quotient_group``) and peeled on W's
    generators, each step joining the current term with a lift."""
    dseries = derived_series(G)
    terms = [trivial_subgroup(G)]
    for step in range(len(dseries) - 1, 0, -1):
        W, lift = quotient_group(dseries[step - 1], terms[-1])
        for w in W.gens:
            while lift(w) not in terms[-1]:
                o, x = 1, w
                while lift(x) not in terms[-1]:
                    x, o = mul(x, w), o + 1
                p = prime_factors(o)[0]
                terms.append(terms[-1].join(lift(power(w, o // p))))
    return [G if term.order == G.order else term.as_group()
            for term in terms[1:]]


def test_composition_series_matches_the_quotient_refinement():
    """Refined on the top term's own generators, with no quotient, the
    series has the generators of the quotient refinement, term by term,
    on the property suite, C2^6 and S4 wr C2 x C2."""
    wreath = PermGroup([parse_cycles(c, 10) for c in (
        "(1,2,3,4)", "(1,2)", "(1,5)(2,6)(3,7)(4,8)", "(9,10)")], 10)
    cases = property_suite() + [("C2^6", abelian_group((2,) * 6)),
                                ("S4 wr C2 x C2", wreath)]
    for name, G in cases:
        want = [S.gens for S in quotient_refined_series(G)]
        G = PermGroup(G.gens, G.degree)   # no cache left by the reference
        assert [S.gens for S in composition_series(G)] == want, name


def test_not_solvable(a5):
    assert not is_solvable(a5)
    with pytest.raises(NotSolvableError):
        composition_series(a5)


def test_derived_series_s4(s4):
    ders = derived_series(s4)
    assert [d.order for d in ders] == [24, 12, 4, 1]


@pytest.mark.parametrize("name, order", [
    ("S6", 360), ("S5", 60), ("A5", 60), ("GL2(3)", 1), ("C2^5", 1)])
def test_perfect_residuum(name, order):
    """G^oo is A6 in S6, A5 in S5 and in A5, and trivial for the
    solvable GL2(3) and C2^5; a nontrivial one is its own derived
    subgroup and normal in G."""
    G = (abelian_group((2,) * 5) if name == "C2^5"
         else CATALOG.group(name))
    D = perfect_residuum(G)
    assert D.order == order
    if order > 1:
        assert groups.derived_subgroup(D).order == order
        assert all(conj(x, g) in D for x in D.gens for g in G.gens)


@pytest.mark.parametrize("name", [
    n for n in CATALOG.entries if CATALOG.group(n).order <= 2000]
    + ["C30", "S4xC5"])
def test_perfect_residuum_is_where_the_derived_series_stops(name):
    """The Burnside shortcut (order p^a q^b: trivial residuum) and the
    series agree: taking derived subgroups from G until they stop
    shrinking ends at the residuum, on every catalog group under the
    oracle cap and on two solvable groups of order with three primes."""
    if name == "C30":
        G = cyclic_group(30)
    elif name == "S4xC5":
        G = PermGroup([g + (4, 5, 6, 7, 8) for g in CATALOG.group("S4").gens]
                      + [parse_cycles("(5,6,7,8,9)", 9)], 9)
    else:
        G = CATALOG.group(name)
    D = G
    while groups.derived_subgroup(D).order < D.order:
        D = groups.derived_subgroup(D)
    assert perfect_residuum(G).order == D.order
    assert is_solvable(G) == (D.order == 1)


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
            assert conjugated(rep, g).same_subgroup(K)


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


def test_euler_phi_counts_the_generators_of_a_cyclic_group():
    """phi(n) is the number of k < n prime to n, and the number of
    generators among the positions of ``_cyclic_layout(n)``."""
    for n in range(1, 400):
        units = sum(gcd(k, n) == 1 for k in range(n))
        assert euler_phi(n) == units == len(groups._cyclic_layout(n)[-1][3])


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
    for w in sorted(W.elements()):
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
            got = [(w, size) for w, size in groups.rational_classes(G, q)
                   if skip is None or not skip(w)]
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
            assert [(w, size) for w, size in groups.rational_classes(G, q)
                    if skip is None or not skip(w)] == \
                scanned_rational_classes(G, q, skip)


@pytest.mark.parametrize("name", ["S5", "GL2(3)", "A6"])
def test_rational_classes_walk_subgroup_classes_only(name, monkeypatch):
    """rational_classes walks no element orbit, only class orbits on
    index sets, and leaves the class of every <w> cached: identifying
    it afterwards walks nothing."""
    G = relabeled(name, 3)
    walked = []
    real_orbit, real_walk = groups.orbit, groups.orbit_walk

    def spied_orbit(seeds, gens, act, involutions=()):
        walked.extend(seeds)
        return real_orbit(seeds, gens, act, involutions)

    def spied_walk(tree, gens, act, involutions=()):
        walked.extend(tree)
        return real_walk(tree, gens, act, involutions)

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


def first_sight_zuppos(G):
    """The former body of ``groups.zuppos``: (x, z) for each zuppo of G,
    in order of first sight over the sorted elements, x the element of
    first sight and z its id in G's numbering."""
    out, seen = [], {groups.NO_ZUPPO}
    for x in sorted(G.elements()):
        z = G._num().number(x)
        if z not in seen:
            seen.add(z)
            out.append((x, z))
    return out


def orbit_zuppo_classes(G, pairs):
    """The former zuppo-class loop of the oracle: zuppo id -> the ids of
    its G-class, each class walked as an orbit on ids, a step
    conjugating the zuppo's least generator (``pairs`` as
    ``first_sight_zuppos`` gives them)."""
    least = {z: x for x, z in pairs}

    def act(z, c):
        return G._num().number(c(least[z]))

    zclass = {}
    for _, z in pairs:
        if z not in zclass:
            cls = tuple(orbit([z], G.gen_conj(), act))
            zclass.update(dict.fromkeys(cls, cls))
    return zclass


def zuppo_walk_rational_classes(W, q):
    """The rational classes as the walk of W's zuppo list gave them: the
    first zuppo of order q not yet seen, in order of first sight over
    the sorted elements, reads the class of <x> and marks it seen."""
    size, seen, out = W._num().size, set(), []
    for x, z in first_sight_zuppos(W):
        if size[z] != q or z in seen:
            continue
        cyclic = Subgroup(W, [x], elems=groups._powers(x, W.identity))
        cls = W._sub_classes[subgroup_class_id(W, cyclic, frozenset([z]))]
        for key in cls.tree:   # the zuppo id of a conjugate
            seen.update(key)
        out.append((x, (q - 1) * cls.size))
    return out


def phi(d):
    return sum(gcd(k, d) == 1 for k in range(1, d + 1))


def scanned_cyclic_counts(G):
    """Order -> number of cyclic subgroups of G of that order above 1,
    told apart by their element sets."""
    subs = {frozenset(power(x, k) for k in range(order_of(x)))
            for x in G.elements()}
    counts = {}
    for c in subs:
        if len(c) > 1:
            counts[len(c)] = counts.get(len(c), 0) + 1
    return counts


SMALL_GROUPS = [e.name for e in CATALOG.entries.values()
                if CATALOG.group(e.name).order <= lattice.DEFAULT_CAP]


@pytest.mark.parametrize("set_cap", [groups.SET_CAP, 3])
@pytest.mark.parametrize("name", SMALL_GROUPS + ["A6 relabeled"])
def test_rational_classes_match_the_zuppo_walk(name, set_cap, monkeypatch):
    """For every prime, the pairs of the zuppo-list walk; the certified
    cyclic classes hold every cyclic subgroup once, so their generator
    counts and the identity sum to |W|, and each class's recorded
    generator generates one of its members.  At either cap every class
    is registered as a subgroup class of W, above the cap too."""
    def fresh():
        return (relabeled("A6", 3) if name == "A6 relabeled"
                else CATALOG.get(name).build())

    ref = fresh()
    want = {q: zuppo_walk_rational_classes(ref, q)
            for q in sorted(set(prime_factors(ref.order)))}
    counts = scanned_cyclic_counts(ref)
    monkeypatch.setattr(groups, "SET_CAP", set_cap)
    W = fresh()
    for q, pairs in want.items():
        assert groups.rational_classes(W, q) == pairs
    classes = groups._cyclic_classes(W)
    assert 1 + sum(phi(d) * len(keys) for d, keys, _ in classes) == W.order
    got = {}
    for d, keys, x in classes:
        got[d] = got.get(d, 0) + len(keys)
        assert W.elements_key([power(x, k) for k in range(d)]) in keys
    assert got == counts
    registered = {cls.rep.order for cls in W._sub_classes}
    assert registered == {d for d, _, _ in classes}


def test_rational_classes_of_l2_32_match_the_zuppo_walk():
    """On L2(32), for q = 2, 3, 11 and 31, the pairs of the zuppo-list
    walk, from cyclic classes whose counts sum to |L2(32)|."""
    ref = CATALOG.get("L2(32)").build()
    W = CATALOG.get("L2(32)").build()
    for q in (2, 3, 11, 31):
        assert groups.rational_classes(W, q) == \
            zuppo_walk_rational_classes(ref, q)
    classes = groups._cyclic_classes(W)
    assert sorted((d, len(keys)) for d, keys, _ in classes) == \
        [(2, 1023), (3, 496), (11, 496), (31, 528), (33, 496)]
    assert 1 + sum(phi(d) * len(keys) for d, keys, _ in classes) == W.order


def test_l2_32_class_search_lists_no_element_of_l2_32(monkeypatch):
    """The class search of L2(32) builds no element list and never
    makes the zuppo list."""
    calls = []

    def spied(G):
        calls.append(G)
        return zuppos(G)

    monkeypatch.setattr(groups, "zuppos", spied)
    monkeypatch.setattr(lattice, "zuppos", spied)
    G = CATALOG.get("L2(32)").build()
    assert len(subgroup_classes_search(G)) == 24
    assert G._elements is None
    assert calls == []


@pytest.mark.parametrize("name", ["S5", "GL2(3)"])
def test_join_matches_a_fresh_subgroup(name):
    """<H, t> for every class representative H and a fixed sample of t,
    normalizing or not: the generators H.gens + (t,), and the element
    set and order of the same subgroup built from scratch."""
    G = CATALOG.group(name)
    sample = random.Random(5).sample(sorted(G.elements()), 12)
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


@pytest.mark.parametrize("name", ["S5", "GL2(3)", "D12"])
def test_is_cyclic_matches_an_element_of_full_order(name):
    """A subgroup is cyclic exactly when one of its elements has its
    order: for every class representative, given by its generators and
    by all of its elements."""
    G = CATALOG.group(name)
    kinds = set()
    for H in all_subgroup_classes_brute(G):
        want = any(order_of(x) == H.order for x in H.elements())
        assert H.is_cyclic() == want
        assert Subgroup(G, sorted(H.elements())).is_cyclic() == want
        kinds.add(want)
    assert kinds == {True, False}


def test_join_takes_the_coset_union_exactly_when_it_fits(monkeypatch):
    """The join of C2 with a 4-cycle squaring into it has order 4: with
    SET_CAP 5 it is the union of two cosets, with SET_CAP 3 it is known
    to be above the cap (|H| m = 4) and gets a stabilizer chain; neither
    runs a closure."""
    G = CATALOG.group("D8")
    c4 = next(x for x in sorted(G.elements()) if order_of(x) == 4)
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
    conjugate, joined = conjugated(c4, t), c4.join(r)
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
        conjugates = [conjugated(h, t) for h in handles]
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
    zups = [x for x, _, _ in zuppos(G)]
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
    elems = sorted(G.elements())
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
    """The chain coset key is constant on each coset Hg and lies in it,
    H's key is the identity, and coset_transversal is the one that the
    former key min(mul(h, g) for h in H) gives, for every class
    representative H."""
    rng = random.Random(17)
    elems = sorted(G.elements())
    for H in all_subgroup_classes_brute(G):
        helems = sorted(H.elements())

        def old_key(g):
            return min(mul(h, g) for h in helems)

        key = groups._coset_key(H)
        assert key(G.identity) == G.identity
        for g in rng.sample(elems, 20):
            k = key(g)
            assert mul(k, inv(g)) in H
            assert all(key(mul(h, g)) == k for h in helems)
        tree = orbit([G.identity], G.gens, lambda c, s: old_key(mul(c, s)))
        want = list(transversal(tree, G.gens, G.identity).values())
        assert groups.coset_transversal(G, H) == want


@pytest.mark.parametrize("G", [CATALOG.group("S5"), CATALOG.group("GL2(3)"),
                               relabeled("A6", 3)],
                         ids=["S5", "GL2(3)", "A6 relabeled"])
def test_conjugation_tables_match_tuple_conj(G):
    """Every generator's table, filled over all of G's zuppos, maps each
    zuppo id to the id of the zuppo that the conjugate of its generator
    by that generator generates."""
    idxs = G.subgroup_key(G.as_subgroup())
    num = G._num()
    for k, s in enumerate(G.gens):
        image = G.conj_index_set(idxs, k)
        assert image == idxs
        tab, gen = num.tabs[k], num.gen
        assert len(gen) == len(idxs) and len(num.index) == G.order
        for i in range(len(gen)):
            assert tab[i] == num.index[conj(gen[i], s)]


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
    rep = transversal(cls.tree, G.gens, G.identity)
    g0inv = inv(rep[G.subgroup_key(H)])
    gens = _chain_rebuild_stabilizer_gens(
        G, cls.tree, lambda key: mul(g0inv, rep[key]),
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
    oracle of A, in the class step to S, and in the regular quotients
    N/H of the (N, H) pairs they hand to ``quotient_classes``, has the
    levels of the full Schreier-Sims run on the same generators.  The
    quotients of the step are regular images (degree = order), and the
    L2(32) search has normalizers with element sets, whose chains are
    built at their known order too."""
    from burnside import extension, lattice
    from burnside.lattice import subgroup_classes_search
    A, S = CATALOG.get(base).build(), CATALOG.get(key).build()
    real, calls = groups.build_chain, []
    real_classes, handed = groups.quotient_classes, []

    def spy(gens, degree, order=None):
        if order is not None:
            calls.append((gens, degree, order))
        return real(gens, degree, order)

    def spy_classes(N, H, primes):
        handed.append((N, H))
        return real_classes(N, H, primes)

    monkeypatch.setattr(groups, "build_chain", spy)
    monkeypatch.setattr(extension, "quotient_classes", spy_classes)
    monkeypatch.setattr(lattice, "quotient_classes", spy_classes)
    reps = (subgroup_classes_search(A) if base == "L2(32)"
            else all_subgroup_classes_brute(A))
    searched = len(handed)
    extension.extend_classes(extension.sort_class_reps(reps),
                             extension.ExtensionContext.create(S, A))
    quotients = []
    for i, (N, H) in enumerate(handed):
        start = len(calls)
        quotient_group(N.as_group(), H)
        quotients.append((i < searched, calls[start:]))
    assert any(degree == order for in_search, built in quotients
               if not in_search for _, degree, order in built)
    if base == "L2(32)":
        assert any(degree != order for in_search, built in quotients
                   if in_search for _, degree, order in built)
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
    entry is filled, each generator's table maps the id of a zuppo to
    the id of the conjugate of its generator by tuple conjugation; an
    involution fills the entry of Z^s with Z as it fills the entry of
    Z, so its table is its own inverse."""
    G = make()
    all_subgroup_classes_brute(G)
    num = G._num()

    def check():
        for k, s in enumerate(G.gens):
            tab = num.tabs[k]
            assert all(j < 0 or j == num.index[conj(num.gen[i], s)]
                       for i, j in enumerate(tab))
            if k in num.involutions:
                assert all(j < 0 or tab[j] == i for i, j in enumerate(tab))

    check()
    every = G.subgroup_key(G.as_subgroup())
    for k in range(len(G.gens)):
        G.conj_index_set(every, k)
    check()
    assert all(len(tab) == len(num.gen) and min(tab) >= 0
               for tab in num.tabs)
    # S5 and GL2(3) each have an involutory generator, A6 none
    assert num.involutions == {k for k, s in enumerate(G.gens)
                               if order_of(s) == 2}


# ---------------------------------------------------------------------------
# class keys on zuppos


def _every_subgroup(G):
    """Every subgroup of G once: the oracle's representatives and their
    conjugates, told apart by their element sets."""
    subs = {}
    for H in all_subgroup_classes_brute(G):
        for g in G.elements():
            K = conjugated(H, g)
            subs.setdefault(K.elements(), K)
    return list(subs.values())


@pytest.mark.parametrize("name, subgroups", [
    ("S4", _every_subgroup),
    ("GL2(3)", all_subgroup_classes_brute),
    ("A6 relabeled", all_subgroup_classes_brute)],
    ids=["S4", "GL2(3)", "A6 relabeled"])
def test_zuppo_keys_are_canonical_ordered_and_conjugation_invariant(
        name, subgroups):
    """A class key is the set of a subgroup's zuppo ids: equal keys are
    equal subgroups, inclusion of keys is inclusion of subgroups, a
    table conjugates a key as conjugation conjugates the subgroup, the
    closure of a key's generators is the subgroup, and an element t
    lies in K exactly when the key of <t>, the zuppos of its prime-power
    parts, lies in K's key."""
    G = (relabeled("A6", 3) if name == "A6 relabeled"
         else CATALOG.get(name).build())
    subs = subgroups(G)
    keys = [G.subgroup_key(H) for H in subs]
    for H, kh in zip(subs, keys):
        for K, kk in zip(subs, keys):
            assert (kh == kk) == (H.elements() == K.elements())
            assert (kh <= kk) == (H.elements() <= K.elements())
        for k, s in enumerate(G.gens):
            assert G.conj_index_set(kh, k) == \
                G.subgroup_key(conjugated(H, s))
        assert key_elements(G, kh) == H.elements()
    composite = [t for t in G.elements()
                 if len(set(prime_factors(order_of(t)))) > 1]
    # GL2(3) has elements of order 6; S4 and A6 have none
    assert bool(composite) == (name == "GL2(3)")
    for t in G.elements():
        parts = G.subgroup_key(Subgroup(G, [t]))
        for K, kk in zip(subs, keys):
            assert (t in K) == (parts <= kk)


def scanned_zuppos(G):
    """(x, elements) per cyclic subgroup of prime-power order, from a
    scan of the sorted elements: each new subgroup <x>, told apart by
    its element set, with its first generator x."""
    seen, out = set(), []
    for x in sorted(G.elements()):
        n = order_of(x)
        if len(set(prime_factors(n))) != 1:
            continue
        elems = frozenset(power(x, k) for k in range(n))
        if elems not in seen:
            seen.add(elems)
            out.append((x, elems))
    return out


@pytest.mark.parametrize("G", [CATALOG.group("S5"), CATALOG.group("GL2(3)"),
                               relabeled("A6", 3)],
                         ids=["S5", "GL2(3)", "A6 relabeled"])
def test_zuppo_list_matches_the_element_set_scan(G):
    """groups.zuppos lists each zuppo once, in the scan's order with the
    scan's generator, under its id in G's numbering; the oracle reads
    the same function, and a second call gives the same list."""
    zups = groups.zuppos(G)
    want = scanned_zuppos(G)
    assert [x for x, _, _ in zups] == [x for x, _ in want]
    assert len({z for _, z, _ in zups}) == len(zups)
    for (x, z, _), (_, elems) in zip(zups, want):
        assert G._num().number(x) == z
        assert key_elements(G, frozenset([z])) == elems
    assert lattice.zuppos is groups.zuppos
    assert groups.zuppos(G) == zups


@pytest.mark.parametrize("set_cap", [groups.SET_CAP, 3])
@pytest.mark.parametrize("name", SMALL_GROUPS + ["S6 relabeled"])
def test_zuppos_match_the_first_sight_scan_and_the_orbit_loop(
        name, set_cap, monkeypatch):
    """The zuppos read off the certified cyclic classes, made first on
    a fresh group, are the pairs of the former scan of the sorted
    elements, in its order, and each carries the G-class that the
    former orbit loop walks on ids, one tuple per class.  With SET_CAP
    3 the classes above the cap are keyed and walked alike."""
    monkeypatch.setattr(groups, "SET_CAP", set_cap)
    G = (relabeled("S6", 5) if name == "S6 relabeled"
         else CATALOG.get(name).build())
    zups = groups.zuppos(G)
    want = first_sight_zuppos(G)
    assert [(x, z) for x, z, _ in zups] == want
    zclass = orbit_zuppo_classes(G, want)
    shared = {}
    for _, z, cls in zups:
        assert sorted(cls) == sorted(zclass[z])
        assert shared.setdefault(frozenset(cls), cls) is cls


def test_l2_32_class_search_fills_each_table_entry_once():
    """The L2(32) class search numbers all 2 543 zuppos of L2(32) and
    conjugates at most one zuppo generator per table entry: at most
    2 543 entries for each of its three generators, where an element
    table had 32 736."""
    G = CATALOG.get("L2(32)").build()
    num = G._num()
    fills = []

    def counted(c):
        def conjugate(x):
            fills.append(x)
            return c(x)
        return conjugate

    num.conj = [counted(c) for c in num.conj]
    assert len(subgroup_classes_search(G)) == 24
    sizes = {}
    for n in num.size:
        sizes[n] = sizes.get(n, 0) + 1
    assert sizes == {2: 1023, 3: 496, 11: 496, 31: 528}
    assert len(num.gen) == 2543 and len(G.gens) == 3
    assert len(fills) <= 2543 * 3


def test_collector_paused_restores_the_collector_as_it_found_it():
    inside = []

    @groups.collector_paused
    def probe(fail=False):
        inside.append(gc.isenabled())
        if fail:
            raise KeyError("fail")

    was = gc.isenabled()
    try:
        gc.enable()
        probe()
        with pytest.raises(KeyError):
            probe(fail=True)
        after_enabled = gc.isenabled()
        gc.disable()
        probe()
        after_disabled = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert inside == [False, False, False]
    assert after_enabled and not after_disabled


def _package_collections(call) -> list[str]:
    """The package functions on the stack when an automatic collection
    starts during ``call()``, with every allocation due for one (the
    young threshold at 1); ``collector_paused``'s own frame does not
    count, since it allocates before it pauses."""
    package = os.path.dirname(burnside.__file__)
    wrapper = groups.collector_paused(len).__code__
    hits = []

    def seen(phase, info):
        frame = sys._getframe(1)
        while phase == "start" and frame is not None:
            code = frame.f_code
            if code.co_filename.startswith(package) and code is not wrapper:
                hits.append(code.co_name)
                return
            frame = frame.f_back

    threshold = gc.get_threshold()
    gc.callbacks.append(seen)
    gc.set_threshold(1)
    try:
        call()
    finally:
        gc.set_threshold(*threshold)
        gc.callbacks.remove(seen)
    return hits


def _s4_calls():
    """name -> a call of one of the package's whole computations on
    fresh copies of S4 and A4, its inputs built beforehand."""
    def fresh():
        return CATALOG.get("S4").build(), CATALOG.get("A4").build()

    S, A = fresh()
    pat_a = lattice.table_of_marks_brute(A)
    S2, A2 = fresh()
    pat_s = lattice.table_of_marks_brute(S2)
    text = patterns.pattern_to_json(pat_s, "S4")
    reps = lattice.all_subgroup_classes_brute(A2)
    ctx = extension.ExtensionContext.create(S2, A2)
    groups_ = {k: fresh() for k in range(6)}
    return {
        "all_subgroup_classes_brute":
            lambda: lattice.all_subgroup_classes_brute(groups_[0][0]),
        "table_of_marks_brute":
            lambda: lattice.table_of_marks_brute(groups_[1][0]),
        "subgroup_classes_search":
            lambda: lattice.subgroup_classes_search(groups_[2][0]),
        "compare_patterns": lambda: lattice.compare_patterns(pat_s, pat_s),
        "counted_pattern":
            lambda: marks.counted_pattern(groups_[3][1], [*reps]),
        "extend_table_of_marks":
            lambda: marks.extend_table_of_marks(pat_a, S),
        "solvable_pattern_chain":
            lambda: marks.solvable_pattern_chain(groups_[4][0]),
        "validate_pattern": lambda: marks.validate_pattern(pat_s),
        "ExtensionContext.create":
            lambda: extension.ExtensionContext.create(*groups_[5]),
        "extend_classes": lambda: extension.extend_classes(reps, ctx),
        "pattern_to_json": lambda: patterns.pattern_to_json(pat_s, "S4"),
        "pattern_from_json":
            lambda: patterns.pattern_from_json(text, pat_s.group),
        "pattern_from_dict": lambda: patterns.pattern_from_dict(
            json.loads(text), pat_s.group),
    }


@pytest.mark.parametrize("name", sorted(_s4_calls()))
def test_whole_computations_run_with_the_collector_paused(name):
    """No automatic collection starts inside the package's whole
    computations, even with every allocation due for one."""
    assert _package_collections(_s4_calls()[name]) == []


def test_kernel_calls_outside_the_whole_computations_see_collections():
    """The control of the test above: a normalizer, called on its own,
    runs with the collector on."""
    S = CATALOG.get("S4").build()
    H = Subgroup(S, [parse_cycles("(1,2)", 4)])
    assert _package_collections(lambda: normalizer(S, H))


@contextmanager
def _collector_on_with_no_automatic_collection():
    """The collector enabled, its thresholds out of reach, so every
    object stays in the generation it is put in; both restored after."""
    was, threshold = gc.isenabled(), gc.get_threshold()
    gc.enable()
    gc.set_threshold(10**9, 10**9, 10**9)
    try:
        yield
    finally:
        gc.set_threshold(*threshold)
        (gc.enable if was else gc.disable)()


def _generation(obj) -> int | None:
    """The collector generation that holds obj (None: frozen, or not
    tracked)."""
    for gen in range(3):
        if any(o is obj for o in gc.get_objects(gen)):
            return gen
    return None


@pytest.mark.parametrize("name", sorted(_s4_calls()))
def test_whole_computations_leave_their_objects_in_the_oldest_generation(
        name):
    """Right after a whole computation returns, what it returns (when
    tracked) and what was young when it started are in the oldest
    generation, so no young collection walks them again."""
    call = _s4_calls()[name]
    with _collector_on_with_no_automatic_collection():
        young = []
        result = call()
        probes = [young, result] if gc.is_tracked(result) else [young]
        gens = [_generation(obj) for obj in probes]
        count = gc.get_count()[0]
    assert gens == [2] * len(probes)
    assert count < 100


class _Node:
    pass


def test_a_cycle_made_in_a_whole_computation_dies_at_a_full_collection():
    """The moved objects are not frozen: a reference cycle made inside
    outlives a young collection and dies at the next full one."""
    @groups.collector_paused
    def make():
        node = _Node()
        node.me = node
        return weakref.ref(node)

    with _collector_on_with_no_automatic_collection():
        ref = make()
        gc.collect(1)
        after_young = ref() is not None
        gc.collect()
    assert after_young and ref() is None


def test_collector_paused_leaves_a_callers_frozen_objects_frozen():
    """With a nonzero freeze count the wrapper moves nothing: the count
    is unchanged and an object made after the caller froze stays
    young."""
    probe = groups.collector_paused(list)
    with _collector_on_with_no_automatic_collection():
        gc.freeze()
        try:
            count = gc.get_freeze_count()
            young = []
            probe()
            after = gc.get_freeze_count(), _generation(young)
        finally:
            gc.unfreeze()
    assert count > 0 and after == (count, 0)


def test_nested_or_paused_calls_move_nothing():
    """A call inside a whole computation, or under a caller that paused
    the collector itself, takes the early path and moves no object."""
    inner = groups.collector_paused(list)

    @groups.collector_paused
    def outer():
        young = []
        made = inner()
        return _generation(young), _generation(made)

    with _collector_on_with_no_automatic_collection():
        nested = outer()
        gc.disable()
        try:
            young = []
            paused = _generation(young), _generation(inner())
        finally:
            gc.enable()
    assert nested == paused == (0, 0)


def test_a_whole_computation_that_raises_moves_its_objects_too():
    @groups.collector_paused
    def fail(made):
        made.append([])
        raise KeyError("fail")

    with _collector_on_with_no_automatic_collection():
        made = []
        with pytest.raises(KeyError):
            fail(made)
        gens = _generation(made), _generation(made[0])
    assert gens == (2, 2)


@contextmanager
def _collector_off():
    """The collector off, after a full collection, so that a cycle made
    inside is found only by the next explicit ``gc.collect()``."""
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


def _package_garbage(call) -> list[str]:
    """The package's objects and functions among the cyclic garbage that
    ``call`` leaves once its result is dropped (the standard library's
    JSON encoder, for one, leaves closures of its own)."""
    with _collector_off():
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            call()
            gc.collect()
            found = [getattr(o, "__qualname__", type(o).__qualname__)
                     for o in gc.garbage
                     if getattr(o if isinstance(o, types.FunctionType)
                                else type(o), "__module__", "")
                     .startswith("burnside")]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
    return found


@pytest.mark.parametrize("name", sorted(_s4_calls()))
def test_whole_computations_leave_no_cyclic_garbage(name):
    """What a whole computation makes and its caller drops is freed by
    reference counting: no object or function of the package is in the
    cyclic garbage a full collection finds right after."""
    assert _package_garbage(_s4_calls()[name]) == []


def test_a_dropped_group_is_freed_by_reference_counting():
    """A group with its whole-group handle, class records, normalizers
    and numbering, and a join above SET_CAP, whose handle alone holds
    its group, die when their last holder drops them, with no
    collection.  While held, the whole-group handle is made once; once
    its group is dropped, it builds the group again."""
    c8, t = parse_cycles("(1,2,3,4,5,6,7,8)", 8), parse_cycles("(1,2)", 8)
    with _collector_off():
        G = CATALOG.get("S4").build()
        whole = G.as_subgroup()
        assert G.as_subgroup() is whole
        lattice.table_of_marks_brute(G)
        marks.solvable_pattern_chain(G)
        normalizer(G, Subgroup(G, [parse_cycles("(1,2)", 4)]))
        big = Subgroup(PermGroup([c8], 8), [c8]).join(t)
        assert big.order == 40320 > groups.SET_CAP
        assert PermGroup([c8, t], 8).as_subgroup().as_group().order == 40320
        refs = [weakref.ref(G), weakref.ref(big.as_group())]
        del G, whole, big   # a handle holds its group: both die here
        alive = [ref() is not None for ref in refs]
        found = gc.collect()
    assert alive == [False, False] and found == 0
