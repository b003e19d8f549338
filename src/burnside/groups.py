"""Permutation-group kernel: stabilizer chains, subgroups, conjugacy machinery.

Groups are given by generators.  A deterministic Schreier-Sims chain
(base points chosen smallest-moved-first, orbits in BFS discovery
order) backs order and membership, so every computation in the package
is reproducible run to run.  Each level keeps its transversal and the
inverses of its elements.  A caller that knows the group order exactly
(a handle with an element set, the regular quotient N/H, a conjugate
above SET_CAP) passes it, and Schreier-Sims stops once the orbit
lengths multiply to it, with the chain of the full run.

Every orbit is walked by one helper, ``orbit(seeds, gens, act)``: a
breadth-first walk that returns the Schreier tree in discovery order
(point -> None at a seed, or (parent, k) with point = act(parent,
gens[k])).  Chain levels, element class lengths, centralizers,
subgroup classes and cosets all use it; ``transversal`` and
``path_product`` multiply out the group elements along the tree.  Its
walk, ``orbit_walk``, also runs lazily, for a caller that may stop part
way.
Rational classes come from one sweep of the sorted elements, cached
on the group: the powers of an unseen element give its order, a
prime-order one is read off its subgroup class and marks its rational
class seen, a composite-order one marks the generators of its cyclic
subgroup.  A coset action is read off the tree edges of the walk that
gives its transversal.

A subgroup handle carries its generators, its degree and, whenever
the order is at most SET_CAP, its element set; it belongs to no
ambient group.  The group that classifies a handle keys it in its own
numbering (``PermGroup.subgroup_key``), so one handle can be classified
in A and in an overgroup S alike.  Conjugacy of subgroups is resolved
by orbit enumeration with per-class caches stored on that group.
A normalizer walks H's class from H only until its Schreier
generators, joined to H one at a time, span its order; a caller that
knows the order passes it, and no class is cached then.

Cyclic extensions are built here only: ``Subgroup.join(t)`` is <H, t>,
``cyclic_joins(N, H)`` gives one <H, a> per cyclic subgroup of N/H
from a walk of N's elements, and ``quotient_group(N, H)`` is N(H)/H
with a lift map, under the one cap on coset actions, QUOTIENT_CAP.

Each group numbers its elements on first sight (an index per element
tuple), ``elements()`` included, so its element list and its numbering
share one tuple per element.  It keeps one conjugation table per
generator, index to index, filled on demand by two gathers per entry
through the generator's inverse, which is computed once
(``perms.conj_by``); an involution's table fills the entries of x and
x^s together.  Index values and class-id order depend on what was seen
first and have no effect on any output.  The class key of
a subgroup of order at most SET_CAP is the frozenset of its element
indices in the classifying group's numbering, so a step of a class
orbit walk is one table gather per element instead of a permutation
conjugation.  A class stores its orbit as a Schreier tree (member key
-> parent key and generator index), and conjugating elements are
multiplied out only for the members asked for.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import chain
from math import gcd
from operator import methodcaller

from .perms import (
    conj,
    conj_by,
    identity_tuple,
    inv,
    left_mul_by,
    mul,
    order_of,
)
from .perms import power as perm_power

# subgroups up to this order keep an explicit element set (used for
# class keys, fast membership and coset canonicalisation)
SET_CAP = 5000

# elements() refuses beyond this, to keep accidental blowups loud
ELEMENTS_CAP = 250_000

# coset actions, so normalizer quotients N(H)/H, refuse a degree beyond this
QUOTIENT_CAP = 200_000


class NotSolvableError(ValueError):
    """Raised when a solvable-only algorithm meets a non-solvable group."""


class CapExceededError(ValueError):
    """A configured size cap was exceeded."""


# ---------------------------------------------------------------------------
# orbits


def orbit(seeds, gens, act) -> dict:
    """Breadth-first orbit of the seeds under gens, as a Schreier tree.

    Points come in discovery order, seeds first; each maps to None (a
    seed) or to (parent, k) with point == act(parent, gens[k]).
    """
    tree = dict.fromkeys(seeds)
    deque(orbit_walk(tree, gens, act), maxlen=0)
    return tree


def orbit_walk(tree: dict, gens, act):
    """The walk behind ``orbit``, grown lazily: starting from the points
    already in ``tree`` (the seeds, each mapped to None), yields the
    points in discovery order, each once its images under gens are in
    the tree, so a caller can stop the walk part way."""
    queue = list(tree)
    for x in queue:
        for k, g in enumerate(gens):
            y = act(x, g)
            if y not in tree:
                tree[y] = (x, k)
                queue.append(y)
        yield x


def transversal(tree: dict, gens, one) -> dict:
    """Point -> the product of the generators along its tree path, so
    rep[point] == mul(rep[parent], gens[k]); ``one`` at the seeds."""
    rep: dict = {}
    for x, edge in tree.items():
        rep[x] = one if edge is None else mul(rep[edge[0]], gens[edge[1]])
    return rep


def path_product(tree: dict, node, gens, known: dict):
    """The product of the generators along the tree path to node, from
    its nearest ancestor in ``known`` (point -> product, holding the
    seeds at least); the result is added to ``known``."""
    path = []
    x = node
    g = known.get(x)
    while g is None:
        x, k = tree[x]
        path.append(k)
        g = known.get(x)
    for k in reversed(path):
        g = mul(g, gens[k])
    known[node] = g
    return g


# ---------------------------------------------------------------------------
# stabilizer chain


def _orbit_rebuild(level: dict, degree: int) -> None:
    """The level's transversal, point -> u with base^u == point, and
    the inverses of its elements, both along one Schreier tree: the
    inverse at a point is inv(s) times the inverse at its parent."""
    gens, idn = level["gens"], identity_tuple(degree)
    tree = orbit([level["base"]], gens, lambda pt, s: s[pt])
    level["orbit"] = transversal(tree, gens, idn)
    invs = [inv(s) for s in gens]
    level["inverse"] = inverse = {}
    for x, edge in tree.items():
        inverse[x] = (idn if edge is None
                      else mul(invs[edge[1]], inverse[edge[0]]))


def _chain_sift(levels: list[dict], g: tuple[int, ...]) -> tuple[int, ...]:
    for lv in levels:
        u = lv["inverse"].get(g[lv["base"]])
        if u is None:
            return g
        g = mul(g, u)
    return g


def build_chain(gens, degree: int, order: int | None = None) -> list[dict]:
    """Deterministic Schreier-Sims; returns the list of chain levels.

    Level i holds the strong generators fixing the first i base points,
    so the generator lists are nested: a sifted residue is installed at
    every level from where it got stuck down to the first base it moves.

    ``order``, when the caller knows |<gens>| exactly, stops the run as
    soon as the orbit lengths multiply to it (the known-order shortcut,
    Seress, Permutation Group Algorithms, 2003): the orbits are then the
    basic orbits of a complete chain, every later Schreier generator
    sifts to the identity, and the levels are those of the full run.
    Every input generator is then checked to sift through the chain, and
    a chain of another order is refused.
    """
    idn = identity_tuple(degree)
    levels: list[dict] = []
    done = False   # the orbit lengths multiply to ``order``

    def sift_add(g: tuple[int, ...], i: int) -> None:
        # a residue stuck at some level moves its base point
        g = _chain_sift(levels[i:], g)
        if g != idn:
            add_gen(g)

    def add_gen(h: tuple[int, ...]) -> None:
        nonlocal done
        # h enters every level whose earlier bases it fixes
        m = 0
        while m < len(levels) and h[levels[m]["base"]] == levels[m]["base"]:
            m += 1
        if m == len(levels):
            base = min(x for x in range(degree) if h[x] != x)
            levels.append({"base": base, "gens": []})
        for i in range(m + 1):
            lv = levels[i]
            lv["gens"].append(h)
            _orbit_rebuild(lv, degree)
        if order is not None and _chain_order(levels) >= order:
            done = True
            return
        for i in range(m + 1):
            lv = levels[i]
            reps, inverse = lv["orbit"], lv["inverse"]
            for pt in list(reps):
                u = reps[pt]
                for s in lv["gens"]:
                    sg = mul(mul(u, s), inverse[s[pt]])
                    if sg != idn:
                        sift_add(sg, i + 1)
                        if done:
                            return

    for g in gens:
        if g != idn:
            sift_add(g, 0)
            if done:
                break
    if order is not None and (
            _chain_order(levels) != order
            or any(_chain_sift(levels, g) != idn for g in gens)):
        raise RuntimeError(f"generators span no group of order {order}")
    return levels


def _chain_order(levels: list[dict]) -> int:
    n = 1
    for lv in levels:
        n *= len(lv["orbit"])
    return n


def _chain_elements(levels: list[dict], degree: int) -> list[tuple[int, ...]]:
    elems = [identity_tuple(degree)]
    for lv in reversed(levels):
        reps = [lv["orbit"][pt] for pt in sorted(lv["orbit"])]
        elems = [mul(e, u) for u in reps for e in elems]
    return elems


# ---------------------------------------------------------------------------
# groups


def _clean_gens(gens, degree: int) -> tuple[tuple[int, ...], ...]:
    """The generators as tuples of the given degree, identities and
    repeats dropped, first occurrences in order."""
    idn = identity_tuple(degree)
    raw = []
    for g in gens:
        t = tuple(g)
        if len(t) != degree:
            raise ValueError("generator degree mismatch")
        if t != idn:
            raw.append(t)
    return tuple(dict.fromkeys(raw))


def _apply(x, f):
    """Orbit action through a map: the image of x under f."""
    return f(x)


class _Numbering:
    """Element indices of one group, assigned on first sight, one
    conjugation table per generator (index -> index, -1 while unfilled),
    the map x -> x^s of each generator s, which fills it, and whether s
    is an involution, whose table is its own inverse."""

    __slots__ = ("index", "elts", "tabs", "conj", "involution")

    def __init__(self, gens):
        self.index: dict = {}                  # element tuple -> index
        self.elts: list = []                   # index -> element tuple
        self.tabs: list[list[int]] = [[] for _ in gens]
        self.conj = [conj_by(s) for s in gens]
        self.involution = [mul(s, s) == identity_tuple(len(s)) for s in gens]

    def number(self, x: tuple[int, ...]) -> int:
        i = self.index.get(x)
        if i is None:
            i = self.index[x] = len(self.elts)
            self.elts.append(x)
        return i

    def number_all(self, xs: list) -> list:
        """Numbers the distinct elements xs not seen before, in order,
        and returns the numbering's tuple of each of xs."""
        index, elts = self.index, self.elts
        new = [x for x in xs if x not in index]
        index.update(zip(new, range(len(elts), len(elts) + len(new))))
        elts.extend(new)
        return list(map(elts.__getitem__, map(index.__getitem__, xs)))


class PermGroup:
    """A permutation group with a cached deterministic stabilizer chain.

    Immutable after construction; all per-group caches (elements,
    subgroup-class orbits, normalizers) are value-deterministic, so
    sharing instances across computations is safe and profitable.
    """

    def __init__(self, gens, degree: int, order: int | None = None):
        self.degree = degree
        self.gens: tuple[tuple[int, ...], ...] = _clean_gens(gens, degree)
        # ``order``, when known exactly, ends Schreier-Sims early
        self.chain = build_chain(self.gens, degree, order)
        self.order: int = _chain_order(self.chain)
        self._elements: list[tuple[int, ...]] | None = None
        self._sorted_elements: list[tuple[int, ...]] | None = None
        self._rational: dict | None = None  # prime -> rational classes
        self._numbering: _Numbering | None = None   # made on first use
        # subgroup conjugacy caches
        self._sub_class_of: dict = {}       # class key -> class id
        self._sub_classes: list = []        # class id -> _SubClass
        self._normalizers: dict = {}        # class key -> Subgroup

    # -- basics ------------------------------------------------------------

    @property
    def identity(self) -> tuple[int, ...]:
        return identity_tuple(self.degree)

    def contains(self, g) -> bool:
        t = tuple(g)
        if len(t) != self.degree:
            return False
        return _chain_sift(self.chain, t) == self.identity

    __contains__ = contains

    def elements(self) -> list[tuple[int, ...]]:
        """All elements, in deterministic chain order.  Each is numbered
        (``index_set``), and the list holds the numbering's tuple, so
        the two share one tuple per element."""
        if self._elements is None:
            if self.order > ELEMENTS_CAP:
                raise CapExceededError(
                    f"group of order {self.order} exceeds element cap")
            self._elements = self._num().number_all(
                _chain_elements(self.chain, self.degree))
        return self._elements

    def sorted_elements(self) -> list[tuple[int, ...]]:
        if self._sorted_elements is None:
            self._sorted_elements = sorted(self.elements())
        return self._sorted_elements

    # -- element numbering -------------------------------------------------

    def _num(self) -> "_Numbering":
        if self._numbering is None:
            self._numbering = _Numbering(self.gens)
        return self._numbering

    def gen_conj(self) -> list:
        """The maps x -> x^s of the generators s, in generator order."""
        return self._num().conj

    def index_set(self, elems) -> frozenset:
        """Frozenset of the indices of the given elements (a re-iterable
        collection), numbering the ones not seen before."""
        num = self._num()
        try:
            return frozenset(map(num.index.__getitem__, elems))
        except KeyError:
            return frozenset(map(num.number, elems))

    def elements_of(self, idxs) -> frozenset:
        """The element tuples with the given indices."""
        return frozenset(map(self._num().elts.__getitem__, idxs))

    def conj_index_set(self, idxs: frozenset, k: int) -> frozenset:
        """Index set of the conjugates x^s, x in idxs, s = gens[k]."""
        num = self._num()
        tab, elts = num.tabs[k], num.elts
        if len(tab) < len(elts):
            tab.extend([-1] * (len(elts) - len(tab)))
        out = frozenset(map(tab.__getitem__, idxs))
        if -1 not in out:
            return out
        c, involution = num.conj[k], num.involution[k]
        for i in idxs:
            if tab[i] < 0:
                j = tab[i] = num.number(c(elts[i]))
                if involution:   # x^s = y  <=>  y^s = x
                    if j >= len(tab):
                        tab.extend([-1] * (len(elts) - len(tab)))
                    tab[j] = i
        return frozenset(map(tab.__getitem__, idxs))

    def subgroup_key(self, H: "Subgroup"):
        """Hashable class key of a subgroup handle in this group: the
        index set of its elements in this group's numbering when the
        order is at most SET_CAP.

        Bigger subgroups get a key from their order and generators,
        which is only unique per handle; class identification treats
        them separately.
        """
        if H.order <= SET_CAP:
            return self.index_set(H.elements())
        return ("big", H.order, tuple(sorted(H.gens)))

    def key_generators(self, key):
        """Elements that generate the subgroup with this class key: its
        elements for an index set, its generators for a key above
        SET_CAP."""
        return key[2] if isinstance(key, tuple) else self.elements_of(key)

    def as_subgroup(self) -> "Subgroup":
        """The whole group as a subgroup handle, on this group's chain
        and element list."""
        return Subgroup(self, self.gens, group=self)

    def __repr__(self) -> str:
        return f"PermGroup(order={self.order}, degree={self.degree})"


class Subgroup:
    """A subgroup of a permutation group, given by generators.

    Carries the exact element set when the order is at most SET_CAP;
    otherwise membership falls back to a stabilizer chain.  G supplies
    the degree and, with ``check``, the membership test of the
    generators; the handle keeps no reference to it, and a group that
    classifies the handle keys it in its own numbering
    (``PermGroup.subgroup_key``).  ``group``, a PermGroup on the same
    generators, supplies the chain and the order instead of a closure.
    """

    __slots__ = ("degree", "gens", "order", "_elems", "_group", "_profile")

    def __init__(self, G, gens, *, elems=None, check=False, seed=None,
                 group: PermGroup | None = None):
        self.degree = G.degree
        self.gens = _clean_gens(gens, G.degree)
        if check:
            for t in self.gens:
                if not G.contains(t):
                    raise ValueError("generator outside the ambient group")
        self._group = group
        self._profile = None
        if elems is None and group is None:
            elems = close_elements(self.gens, G.degree, cap=SET_CAP,
                                   seed=seed)
        elif elems is None and group.order <= SET_CAP:
            elems = group.elements()
        self._elems = None if elems is None else frozenset(elems)
        self.order = (self.as_group().order if self._elems is None
                      else len(self._elems))

    def as_group(self) -> PermGroup:
        """The subgroup as a PermGroup; with an element set, its order
        is known and ends the chain's Schreier-Sims early."""
        if self._group is None:
            self._group = PermGroup(
                self.gens, self.degree,
                None if self._elems is None else len(self._elems))
        return self._group

    def elements(self) -> frozenset:
        if self._elems is None:
            self._elems = frozenset(self.as_group().elements())
        return self._elems

    def contains(self, g) -> bool:
        t = tuple(g)
        if self._elems is not None:
            return t in self._elems
        return self.as_group().contains(t)

    __contains__ = contains

    def order_profile(self):
        """Sorted multiset of element orders (small subgroups only)."""
        if self._profile is None:
            counts: dict[int, int] = {}
            for x in self.elements():
                o = order_of(x)
                counts[o] = counts.get(o, 0) + 1
            self._profile = tuple(sorted(counts.items()))
        return self._profile

    def is_subset_of(self, other: "Subgroup") -> bool:
        return all(g in other for g in self.gens)

    def same_subgroup(self, other: "Subgroup") -> bool:
        return (self.order == other.order
                and self.is_subset_of(other))

    def conjugated(self, g: tuple[int, ...]) -> "Subgroup":
        c = conj_by(g)
        gens = [c(x) for x in self.gens]
        if self.order <= SET_CAP:
            return Subgroup(self, gens, elems=map(c, self.elements()))
        return PermGroup(gens, self.degree, self.order).as_subgroup()

    def join(self, t: tuple[int, ...]) -> "Subgroup":
        """<H, t>, generated by H.gens + (t,).  When t normalizes H, and
        |H| m <= SET_CAP for the least m with t^m in H (m divides the
        order of t), the elements are the cosets H t^i (join_normalizing);
        otherwise they are closed by cosets from H's element set.  When
        |H| m > SET_CAP the join, which holds the |H| m elements of
        H<t>, is above the cap whether t normalizes H or not, and gets
        its stabilizer chain directly, with no closure."""
        gens = self.gens + (t,)
        w, m, n = t, 1, order_of(t)
        while self.order * n > SET_CAP >= self.order * m and w not in self:
            w, m = mul(w, t), m + 1
        if self.order * m > SET_CAP:
            return PermGroup(gens, self.degree).as_subgroup()
        elems = join_normalizing(self.elements(), self.gens, t)
        if elems is not None:
            return Subgroup(self, gens, elems=elems)
        return Subgroup(self, gens, seed=self.elements())

    def is_normal_in(self, other) -> bool:
        """True iff this subgroup is normalized by all generators of other."""
        return all(conj(x, g) in self for g in other.gens for x in self.gens)

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order}, degree={self.degree})"


def trivial_subgroup(G: PermGroup) -> Subgroup:
    return Subgroup(G, [], elems=[G.identity])


def close_elements(gens, degree, *, cap=None, seed=None):
    """The element set of the group the generators span, closed by
    cosets (Dimino's algorithm, on left cosets).

    A known subgroup H grows to <H, gens> as a union of left cosets
    r H: each coset representative r is multiplied on the left by every
    generator s, and a product y = s r outside the set brings its whole
    coset y H in; both products are gathers (``left_mul_by``), the one
    by y over all of H.  Without ``seed``, H starts trivial and the
    generators are added one at a time; ``seed`` must be the element set
    of a subgroup of the group the generators span, and is closed in one
    step.  Returns a set of tuples, or None exactly when the group order
    exceeds ``cap``.
    """
    idn = identity_tuple(degree)
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
        lefts = [left_mul_by(s) for s in step]
        reps = [idn]
        for r in reps:
            for left in lefts:
                y = left(r)
                if y not in elems:
                    elems.update(map(left_mul_by(y), subgroup))
                    reps.append(y)
                    if cap is not None and len(elems) > cap:
                        return None
    return elems if cap is None or len(elems) <= cap else None


def normalizing_cosets(h_elems: frozenset, z: tuple[int, ...]) -> list:
    """The cosets H z^i = z^i H of H in <H, z>, for z normalizing H, in
    order of i from H itself (i = 0) to m - 1, m the least with z^m in
    H: each coset is the gather by z (``left_mul_by``) of the one before.
    """
    lz = left_mul_by(z)
    cosets = [h_elems]
    w = z   # z^i, the image of the identity in H z^i
    while w not in h_elems:
        cosets.append(list(map(lz, cosets[-1])))
        w = lz(w)
    return cosets


def join_normalizing(h_elems: frozenset, h_gens, z: tuple[int, ...]):
    """Element set of <H, z> when z normalizes H, else None.

    With z normalizing H the join is the plain union of the cosets
    H z^i = z^i H (``normalizing_cosets``), which is much cheaper than a
    closure BFS.
    """
    if any(conj(g, z) not in h_elems for g in h_gens):
        return None
    out = set(h_elems)
    for coset in normalizing_cosets(h_elems, z)[1:]:
        out.update(coset)
    return frozenset(out)


def cyclic_joins(N: Subgroup, U: Subgroup):
    """(K, c) for each cyclic subgroup K/U of N/U, U normal in N with an
    element set: K = <U, a> for the first a of N's elements (in their
    set or chain order) that generates no earlier K modulo U, and c the
    number of cosets of U generating K/U.

    With m = |K:U| the cosets of U in K are U a^i, 0 <= i < m, and U a^i
    generates K/U exactly when i is prime to m.  Those cosets are marked
    covered, so every element of N is joined or covered once, and the
    counts c sum to |N:U|.  K is the union of those cosets, or
    ``U.join(a)`` when it is above SET_CAP.
    """
    # above SET_CAP, the chain's element list, with no frozenset copy
    elems = N.elements() if N.order <= SET_CAP else N.as_group().elements()
    u_elems = U.elements()
    covered: set = set()
    for a in elems:
        if a in covered:
            continue
        cosets = normalizing_cosets(u_elems, a)
        m = len(cosets)
        gen_cosets = [c for i, c in enumerate(cosets) if gcd(i, m) == 1]
        for c in gen_cosets:
            covered.update(c)
        yield (U.join(a) if U.order * m > SET_CAP else
               Subgroup(U, U.gens + (a,), elems=chain.from_iterable(cosets)),
               len(gen_cosets))


# ---------------------------------------------------------------------------
# orbit-stabilizer machinery


def _stabilizer_from_orbit(G: PermGroup, sub: Subgroup, nodes, rep_of, act,
                           order: int) -> Subgroup:
    """The stabilizer of a point, of the given order, grown from ``sub``
    (a subgroup of it) by one join per Schreier generator outside it.

    nodes: the orbit, starting at the point; rep_of(node) -> an element
    taking the point to node (identity at the point); act(node, k) -> the
    image of node under G.gens[k].  Each join is ``Subgroup.join``, so a
    stabilizer of order at most SET_CAP grows by cosets of its element
    set and no stabilizer chain is built.
    """
    if sub.order == order:
        return sub
    for node in nodes:
        u = rep_of(node)
        for k, s in enumerate(G.gens):
            sg = mul(mul(u, s), inv(rep_of(act(node, k))))
            if sg not in sub:
                sub = sub.join(sg)
                if sub.order == order:
                    return sub
    raise RuntimeError(f"stabilizer of order {sub.order}, expected {order}")


def centralizer(G: PermGroup, x) -> Subgroup:
    """Centralizer of an element of G, as a subgroup of G."""
    t = tuple(x)
    if not G.contains(t):
        raise ValueError("element outside the group")
    cg = G.gen_conj()
    reps = transversal(orbit([t], cg, _apply), G.gens, G.identity)
    return _stabilizer_from_orbit(
        G, Subgroup(G, [t]), reps, reps.__getitem__, lambda y, k: cg[k](y),
        G.order // len(reps))


def element_class_length(G: PermGroup, x) -> int:
    """|x^G|, the length of the conjugacy class of an element x of G:
    its orbit under conjugation by the generators."""
    return len(orbit([tuple(x)], G.gen_conj(), _apply))


@dataclass
class _SubClass:
    rep: Subgroup
    size: int
    # Schreier tree of the class orbit: member key -> (parent key,
    # generator index); None at the root and at aliases of rep
    tree: dict = field(default_factory=dict)
    # member key -> conjugator g with rep^g == member, for members asked for
    known: dict = field(default_factory=dict)
    # Dress row of the class, built once by ``marks.dress_row``: (class id
    # of <U, a> -> number of cosets Ua of U in N(U), |N(U):U|)
    dress: tuple | None = None

    def conjugator(self, key, gens) -> tuple[int, ...]:
        """An element g with rep^g the member with this key: the product
        of the generators along the tree path from the root."""
        return path_product(self.tree, key, gens, self.known)


def subgroup_class_id(G: PermGroup, H: Subgroup, key=None) -> int:
    """Conjugacy-class id of H in G, enumerating the class on first sight.

    The whole class orbit is cached on G, so later identifications of
    any member are dictionary lookups.  Each orbit step conjugates a
    member's index set by one generator through its conjugation table.
    ``key`` is H's ``G.subgroup_key``, for a caller that already has it.
    """
    fp = G.subgroup_key(H) if key is None else key
    cid = G._sub_class_of.get(fp)
    if cid is not None:
        return cid
    if H.order > SET_CAP:
        return _class_id_big(G, H, fp)
    cid = len(G._sub_classes)
    tree = orbit([fp], range(len(G.gens)), G.conj_index_set)
    G._sub_classes.append(
        _SubClass(rep=H, size=len(tree), tree=tree, known={fp: G.identity}))
    G._sub_class_of.update(dict.fromkeys(tree, cid))
    return cid


def _class_id_big(G: PermGroup, H: Subgroup, fp) -> int:
    """Class id for subgroups above SET_CAP (generator keys per handle).

    These are almost always normal at the scales this package targets;
    a non-normal big subgroup would need a guarded orbit walk, which is
    refused beyond a small bound.
    """
    for cid, cls in enumerate(G._sub_classes):
        if cls.rep.order == H.order and cls.rep.order > SET_CAP:
            if H.same_subgroup(cls.rep):
                G._sub_class_of[fp] = cid
                cls.tree[fp] = None
                cls.known[fp] = G.identity
                return cid
    if not H.is_normal_in(G):
        raise CapExceededError(
            "conjugacy-class enumeration of a non-normal subgroup of order "
            f"{H.order} is above the element-set cap")
    cid = len(G._sub_classes)
    cls = _SubClass(rep=H, size=1, tree={fp: None}, known={fp: G.identity})
    G._sub_classes.append(cls)
    G._sub_class_of[fp] = cid
    return cid


def are_conjugate_subgroups(G: PermGroup, H: Subgroup, K: Subgroup):
    """A conjugating element g with H^g = K, or None.

    Order and element-order-profile mismatches are rejected before any
    orbit enumeration.
    """
    if H.order != K.order:
        return None
    if H.same_subgroup(K):
        return G.identity
    if H.order <= SET_CAP and H.order_profile() != K.order_profile():
        return None
    kh, kk = G.subgroup_key(H), G.subgroup_key(K)
    ch = subgroup_class_id(G, H, kh)
    if ch != subgroup_class_id(G, K, kk):
        return None
    cls = G._sub_classes[ch]
    gh = cls.conjugator(kh, G.gens)
    gk = cls.conjugator(kk, G.gens)
    # rep^gh = H, rep^gk = K  =>  H^(gh^-1 gk) = K
    return mul(inv(gh), gk)


def normalizer(G: PermGroup, H: Subgroup,
               order: int | None = None) -> Subgroup:
    """Normalizer of H in G via orbit-stabilizer on H's class.

    The class is walked lazily from H, on index sets through the
    conjugation tables, and the Schreier generators over the walk grow H
    (``_stabilizer_from_orbit``) until the normalizer has ``order``; an
    element is multiplied out only for the members the walk visits.
    Without ``order`` it is |G| over H's class length, from G's class
    cache; a caller that passes it leaves that cache alone.  A
    non-normal subgroup above SET_CAP is refused by the class walk.
    """
    fp = G.subgroup_key(H)
    cached = G._normalizers.get(fp)
    if cached is not None:
        return cached
    if not all(g in G for g in H.gens):
        raise ValueError("subgroup not inside the group")
    if H.is_normal_in(G):
        result = G.as_subgroup()
    else:
        if order is None or H.order > SET_CAP:
            # H's class length; the class walk refuses a big H (not
            # normal here) with CapExceededError
            cid = subgroup_class_id(G, H, fp)
            order = G.order // G._sub_classes[cid].size
        tree, known = {fp: None}, {fp: G.identity}
        result = _stabilizer_from_orbit(
            G, H, orbit_walk(tree, range(len(G.gens)), G.conj_index_set),
            lambda key: path_product(tree, key, G.gens, known),
            G.conj_index_set, order)
    G._normalizers[fp] = result
    return result


# ---------------------------------------------------------------------------
# coset actions and quotients


def _coset_key(H: Subgroup, known: list):
    """The key of the right coset Hg, an element of it: its least element
    when H has an element set, the least of the gathers mul(h, g), h in
    H, through maps built once per key; above SET_CAP, the first of
    ``known`` in Hg, or g itself, appended to ``known``, when Hg is new."""
    if H.order <= SET_CAP:
        getters = [left_mul_by(h) for h in H.elements()]
        return lambda g: min(map(methodcaller("__call__", g), getters))

    def key(g):
        for r in known:
            if mul(g, inv(r)) in H:
                return r
        known.append(g)
        return g
    return key


def _coset_walk(G: PermGroup, H: Subgroup):
    """The right cosets Hg in breadth-first order from H: the Schreier
    tree over their keys (``_coset_key``), the transversal along it, and
    the key of every tree edge in walk order, edges[i * len(G.gens) + k]
    the key of the coset of node i times gens[k]."""
    # the identity is the least tuple, so it is its own coset's key
    key, edges = _coset_key(H, [G.identity]), []
    tree = orbit([G.identity], G.gens,
                 lambda c, s: edges.append(key(mul(c, s))) or edges[-1])
    reps = list(transversal(tree, G.gens, G.identity).values())
    if len(reps) != G.order // H.order:
        raise RuntimeError(f"{len(reps)} cosets found, expected "
                           f"{G.order // H.order}")
    return tree, reps, edges


def coset_transversal(G: PermGroup, H: Subgroup) -> list[tuple[int, ...]]:
    """Deterministic transversal of the right cosets Hg, identity first:
    the cosets in breadth-first order, each represented by the product
    of the generators along its tree path."""
    return [G.identity] if G.order == H.order else _coset_walk(G, H)[1]


def coset_action(G: PermGroup, H: Subgroup, order: int | None = None):
    """Action of G on the cosets of H.

    Returns (image group, reps): the image has degree |G:H|, at most
    QUOTIENT_CAP, and point i is the coset of reps[i]
    (``coset_transversal``).  The image of point i under gens[k] is read
    off the edge from node i by k of the walk that gives reps.
    ``order`` is the image's order, for a caller that knows it exactly.
    """
    index = G.order // H.order
    if index > QUOTIENT_CAP:
        raise CapExceededError(f"coset action degree {index} over the limit")
    tree, reps, edges = _coset_walk(G, H)
    label, n = dict(zip(tree, range(index))), len(G.gens)
    return PermGroup([tuple(map(label.__getitem__, edges[k::n]))
                      for k in range(n)], index, order), reps


def quotient_group(N: PermGroup, H: Subgroup):
    """Quotient W = N/H as a regular coset action, with a lift map.

    H must be normal in N.  Returns (W, lift) where lift maps a
    W-element tuple to a coset representative in N; lift of the
    identity is the identity (which lies in H).  N itself for a
    trivial H; otherwise |N:H| is at most QUOTIENT_CAP.  The image is
    regular, of the known order |N:H|.
    """
    if H.order == 1:
        return N, lambda w: w
    if not H.is_normal_in(N):
        raise ValueError("subgroup is not normal")
    W, reps = coset_action(N, H, N.order // H.order)

    def lift(w: tuple[int, ...]) -> tuple[int, ...]:
        return reps[w[0]]

    return W, lift


def _rational_sweep(W: PermGroup) -> dict:
    """Prime q -> one (representative, size) pair per rational class of
    order-q elements of W, the representative the first of its class in
    sorted element order: one sweep of W's sorted elements, cached on W.

    The powers of an unseen element x give its order n.  A prime n
    walks the class of <x> in W, which W caches, and marks the whole
    rational class seen: each member holds n - 1 of its elements.  A
    composite n marks only the generators of <x>, which have order n
    too.  No element order is computed with ``order_of``.
    """
    if W._rational is None:
        idn, elems = W.identity, W.sorted_elements()
        index = W._num().index   # elements() numbered every element
        seen = {index[idn]}      # element indices
        out: dict = {}
        for x in elems:
            if index[x] in seen:
                continue
            powers = [x]
            while powers[-1] != idn:
                powers.append(mul(powers[-1], x))
            n = len(powers)   # powers[k - 1] == x^k, powers[n - 1] == 1
            if prime_factors(n) == [n]:
                cyclic = Subgroup(W, [x], elems=powers)
                cls = W._sub_classes[subgroup_class_id(W, cyclic)]
                for key in cls.tree:   # the index set of a conjugate
                    seen.update(key)
                out.setdefault(n, []).append((x, (n - 1) * cls.size))
            else:
                seen.update(index[powers[k - 1]] for k in range(1, n)
                            if gcd(k, n) == 1)
        W._rational = out
    return W._rational


def rational_classes(W: PermGroup, q: int, skip=None) -> list:
    """One (representative, size) pair per rational class of order-q
    elements of W (q prime), the representative the first of its class
    in sorted element order (``_rational_sweep``).

    Rational class: closed under conjugacy and prime-to-q powers, so
    two elements are equivalent exactly when they generate conjugate
    subgroups of order q.  It is read off the class of <w> in W, which
    W caches: each member holds q - 1 of its elements.  ``skip``
    filters classes out by their representative; it must be constant on
    rational classes.
    """
    return [(w, size) for w, size in _rational_sweep(W).get(q, [])
            if skip is None or not skip(w)]


# ---------------------------------------------------------------------------
# primes, derived series, solvability, composition series


def prime_factors(n: int) -> list[int]:
    """Prime factors of n in ascending order, with multiplicity
    (empty for n < 2)."""
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def normal_closure(G: PermGroup, gens) -> list[tuple[int, ...]]:
    """Generators of the normal closure of <gens> in G."""
    out = list(dict.fromkeys(gens))
    sub = PermGroup(out, G.degree)
    changed = True
    while changed:
        changed = False
        for x in list(out):
            for g in G.gens:
                y = conj(x, g)
                if not sub.contains(y):
                    out.append(y)
                    sub = PermGroup(out, G.degree)
                    changed = True
    return out


def derived_subgroup(G: PermGroup) -> PermGroup:
    comms = []
    for a in G.gens:
        for b in G.gens:
            c = mul(mul(inv(a), inv(b)), mul(a, b))
            comms.append(c)
    gens = normal_closure(G, comms)
    return PermGroup(gens, G.degree)


def derived_series(G: PermGroup) -> list[PermGroup]:
    series = [G]
    while series[-1].order > 1:
        nxt = derived_subgroup(series[-1])
        if nxt.order == series[-1].order:
            raise NotSolvableError(
                f"group of order {G.order} is not solvable")
        series.append(nxt)
    return series


def is_solvable(G: PermGroup) -> bool:
    try:
        derived_series(G)
        return True
    except NotSolvableError:
        return False


@dataclass
class SeriesChain:
    """A chain of prime-index normal steps from the trivial group to G."""
    terms: list[Subgroup]
    indices: list[int]

    def __post_init__(self):
        for a, b, p in zip(self.terms, self.terms[1:], self.indices):
            if b.order != a.order * p:
                raise RuntimeError(
                    f"series step of index {b.order // a.order}, expected {p}")


def composition_series(G: PermGroup) -> SeriesChain:
    """Composition series 1 = G_0 < G_1 < ... < G_n = G with prime steps.

    Built by refining the derived series: each abelian factor W is
    peeled into prime-order steps (W's generators in order, smallest
    primes first), and each step is the join of the term below with a
    lifted element.  An element of W lies in the current term's image
    exactly when its lift lies in the current term, which contains the
    bottom of the factor.
    """
    dseries = derived_series(G)  # raises NotSolvableError if not solvable
    terms = [trivial_subgroup(G)]
    indices: list[int] = []
    for step in range(len(dseries) - 1, 0, -1):
        # extend from dseries[step] up to dseries[step-1]
        bottom = terms[-1]
        top = dseries[step - 1]
        if bottom.order != dseries[step].order:
            raise RuntimeError(
                f"refinement at order {bottom.order}, expected "
                f"{dseries[step].order}")
        W, lift = quotient_group(top, bottom)
        for w in W.gens:
            while not terms[-1].contains(lift(w)):
                o = 1
                x = w
                while not terms[-1].contains(lift(x)):
                    x = mul(x, w)
                    o += 1
                p = prime_factors(o)[0]
                new_term = terms[-1].join(lift(perm_power(w, o // p)))
                if new_term.order != terms[-1].order * p:
                    raise RuntimeError("prime refinement step failed")
                terms.append(new_term)
                indices.append(p)
        if terms[-1].order != top.order:
            raise RuntimeError("factor refinement incomplete")
    if terms[-1].order != G.order:
        raise RuntimeError("composition series does not reach the group")
    return SeriesChain(terms=terms, indices=indices)


def composition_steps(G: PermGroup) -> list[PermGroup]:
    """The groups of a composition series above the trivial one, bottom
    up, with G itself at the top: each is one extension step over the
    one before.  Raises NotSolvableError if G is not solvable."""
    return [G if term.order == G.order else term.as_group()
            for term in composition_series(G).terms[1:]]
