"""Orbit walks against the walks they replaced.

The references below are the breadth-first walk that acts by every
generator at every point, and the normalizer that walks H's class lazily
from H, conjugating each walked key once for the tree and again for the
stabilizer loop.  The kernel's walks skip the back edge of a point
reached by an involution, and its normalizer reads a cached class tree
rooted at H, or keeps the walk's images; trees, their order and the
Schreier generators must come out the same."""

import pytest

from fixtures import relabeled

from burnside import groups, lattice
from burnside.catalog import CATALOG
from burnside.extension import (
    ExtensionContext,
    extend_classes,
    sort_class_reps,
)
from burnside.groups import PermGroup, Subgroup, normalizer, orbit
from burnside.lattice import (
    DEFAULT_CAP,
    all_subgroup_classes_brute,
    subgroup_classes_search,
)
from burnside.perms import conj, inv, mul


def reference_walk(tree, gens, act, involutions=()):
    """The former ``orbit_walk``: every generator acts on every point;
    ``involutions`` is accepted and ignored."""
    queue = list(tree)
    for x in queue:
        for k, g in enumerate(gens):
            y = act(x, g)
            if y not in tree:
                tree[y] = (x, k)
                queue.append(y)
        yield x


def reference_orbit(seeds, gens, act, involutions=()):
    tree = dict.fromkeys(seeds)
    for _ in reference_walk(tree, gens, act):
        pass
    return tree


def reference_normalizer(G, H, order=None):
    """The former ``normalizer``: H sifted through G's chain, then H's
    class walked lazily from H, each key conjugated by the walk and again
    by the stabilizer loop, and each representative inverted per edge."""
    if not all(g in G for g in H.gens):
        raise ValueError("subgroup not inside the group")
    if order == G.order or (order is None and H.is_normal_in(G)):
        return G.as_subgroup()
    fp = G.subgroup_key(H)
    if order is None:
        order = G.order // len(reference_orbit(
            [fp], range(len(G.gens)), G.conj_index_set))
    tree, known = {fp: None}, {fp: G.identity}
    sub = H
    if sub.order == order:
        return sub
    for node in reference_walk(tree, range(len(G.gens)), G.conj_index_set):
        u = groups.path_product(tree, node, G.gens, known)
        for k, s in enumerate(G.gens):
            v = G.conj_index_set(node, k)
            if tree[v] == (node, k):
                continue
            sg = mul(mul(u, s),
                     inv(groups.path_product(tree, v, G.gens, known)))
            if sg not in sub:
                sub = sub.join(sg)
                if sub.order == order:
                    return sub
    raise RuntimeError("stabilizer reconstruction failed")


def fresh(G):
    return PermGroup(G.gens, G.degree)


ORACLE_GROUPS = [(e.name, 0) for e in CATALOG.entries.values()
                 if CATALOG.group(e.name).order <= DEFAULT_CAP]
WALKED = ORACLE_GROUPS + [("S6", 3), ("L2(32)", 0)]
WALKED_IDS = [f"{name} seed {seed}" for name, seed in WALKED]


def class_reps(G):
    """G's class representatives, each the root of its class cached on G:
    the oracle's below its cap, the class search's above it."""
    if G.order <= DEFAULT_CAP:
        return all_subgroup_classes_brute(G)
    return subgroup_classes_search(G)


@pytest.fixture(scope="module", params=WALKED, ids=WALKED_IDS)
def walked(request):
    """A group, its class representatives and its walked classes."""
    G = relabeled(*request.param)
    return G, class_reps(G)


def test_class_trees_match_the_walk_of_every_generator(walked):
    G, reps = walked
    assert len(G._sub_classes) >= len(reps)
    for record in G._sub_classes:
        root = next(iter(record.tree))
        want = reference_orbit([root], range(len(G.gens)), G.conj_index_set)
        assert list(record.tree.items()) == list(want.items())


def test_normalizers_match_the_former_lazy_walk(walked, monkeypatch):
    """Three paths give the generators of the former normalizer: the
    cached tree, in a copy of G whose classes H opened, which walks
    nothing; the lazy walk from H, in a copy of G with no class cached;
    and the lazy walk from a conjugate of H that is not its class's
    root."""
    G, reps = walked
    reference, cached, lazy = fresh(G), fresh(G), fresh(G)
    for H in reps:
        groups.subgroup_class_id(cached, H)
    walks = []
    real = groups.orbit_walk
    monkeypatch.setattr(groups, "orbit_walk",
                        lambda *args: walks.append(args) or real(*args))
    for H in reps:
        key = cached.subgroup_key(H)
        size = cached._sub_classes[cached._sub_class_of[key]].size
        order = G.order // size
        want = reference_normalizer(reference, H, order)
        walks.clear()
        assert normalizer(cached, H).gens == want.gens
        assert not walks
        assert normalizer(lazy, H, order).gens == want.gens
        assert bool(walks) == (size > 1)
        if size > 1:
            # H^g for a generator g moving H's key: a member, not the root
            g = next(g for k, g in enumerate(G.gens)
                     if cached.conj_index_set(key, k) != key)
            K = Subgroup(G, [conj(x, g) for x in H.gens])
            walks.clear()
            assert normalizer(cached, K, order).gens == reference_normalizer(
                reference, K, order).gens
            assert walks


@pytest.mark.parametrize("name, seed", ORACLE_GROUPS + [("S6", 3)],
                         ids=[f"{n} seed {s}" for n, s in ORACLE_GROUPS]
                         + ["S6 seed 3"])
def test_oracle_transversals_match_the_former_walks(name, seed,
                                                    monkeypatch):
    G = relabeled(name, seed)
    got = [H.gens for H in all_subgroup_classes_brute(fresh(G))]
    monkeypatch.setattr(lattice, "orbit", reference_orbit)
    monkeypatch.setattr(lattice, "normalizer", reference_normalizer)
    monkeypatch.setattr(groups, "orbit", reference_orbit)
    monkeypatch.setattr(groups, "orbit_walk", reference_walk)
    assert got == [H.gens for H in all_subgroup_classes_brute(fresh(G))]


def test_element_orbits_match_the_walk_of_every_generator():
    """Element classes and centralizer walks, by conjugation maps, with
    the involutions among S6's generators skipped on back edges."""
    G = relabeled("S6", 3)
    num = G._num()
    assert num.involutions
    for x in G.elements()[::37]:
        got = orbit([x], G.gen_conj(), groups._apply, num.involutions)
        want = reference_orbit([x], G.gen_conj(), groups._apply)
        assert list(got.items()) == list(want.items())


def test_l2_32_5_step_conjugates_each_key_once():
    """In the class step to L2(32):5 every (group, key, generator) pair
    goes through ``conj_index_set`` once: the normalizer walks keep their
    images for the stabilizer loop, and no walk acts on a back edge."""
    A, S = relabeled("L2(32)", 0), relabeled("L2(32):5", 0)
    a_classes = sort_class_reps(subgroup_classes_search(A))
    calls = []
    real = PermGroup.conj_index_set

    def spy(group, idxs, k):
        calls.append((group, idxs, k))   # holds the group: ids stay unique
        return real(group, idxs, k)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PermGroup, "conj_index_set", spy)
        step = extend_classes(a_classes, ExtensionContext.create(S, A))
    assert len(step.reps) == 30
    assert calls and len(calls) == len(set(calls))


def test_normalizer_sifts_only_an_unregistered_key(monkeypatch):
    """A registered key is the zuppo set of a subgroup of G, so H is not
    sifted; a handle outside G raises, with no key or an unregistered
    one."""
    G = PermGroup(CATALOG.group("A5").gens, 5)
    S5 = CATALOG.group("S5")
    reps = all_subgroup_classes_brute(G)
    outside = Subgroup(S5, [next(g for g in S5.gens if g not in G)])
    with pytest.raises(ValueError):
        normalizer(G, outside)
    with pytest.raises(ValueError):
        normalizer(G, outside, key=G.subgroup_key(outside))
    sifts = []
    real = PermGroup.__contains__
    monkeypatch.setattr(PermGroup, "__contains__",
                        lambda g, x: sifts.append(x) or real(g, x))
    want = [reference_normalizer(fresh(G), H).gens for H in reps]
    sifts.clear()
    got = [normalizer(G, H, key=G.subgroup_key(H)).gens for H in reps]
    assert got == want and not sifts


def test_a_handle_outside_g_registers_no_class():
    """Keying a handle made in S5 for its class in A5 sifts its
    generators and raises before any class opens, so a later normalizer
    call with its unregistered key sifts too and raises, where it once
    returned a group of order 6 holding odd permutations."""
    G = PermGroup(CATALOG.group("A5").gens, 5)
    S5 = CATALOG.group("S5")
    outside = Subgroup(S5, [next(g for g in S5.gens if g not in G)])
    with pytest.raises(ValueError):
        groups.subgroup_class_id(G, outside)
    key = G.subgroup_key(outside)
    assert G._sub_classes == [] and key not in G._sub_class_of
    with pytest.raises(ValueError):
        normalizer(G, outside, key=key)
