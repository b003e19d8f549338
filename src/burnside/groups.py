"""Permutation-group kernel: stabilizer chains, subgroups, conjugacy machinery.

Groups are given by generators.  A deterministic Schreier-Sims chain
(base points chosen smallest-moved-first, orbits in BFS discovery
order) backs order and membership, so every computation in the package
is reproducible run to run.  Each level keeps its transversal and the
inverses of its elements.  Every chain comes from one full run.

Every orbit is walked by one helper, ``orbit(seeds, gens, act)``: a
breadth-first walk that returns the Schreier tree in discovery order
(point -> None at a seed, or (parent, k) with point = act(parent,
gens[k])).  Chain levels, element class lengths, centralizers,
subgroup classes and cosets all use it; ``transversal`` and
``path_product`` multiply out the group elements along the tree.  Its
walk, ``orbit_walk``, also runs lazily, for a caller that may stop part
way.  A caller that names the involutions among the generators (the
numbering's flags, for class and element walks) saves the back edges:
a point reached from its parent by an involution is not acted on by it
again, since that image is the parent; the tree and its order do not
change.  One coset walk, ``_coset_walk``, gives the action of
``coset_action`` (off its tree edges), its transversal (the
representatives) and the order-q classes of ``quotient_classes``; a
coset Hg is keyed by the element of it with the least base images along
H's own stabilizer chain, one gather a level.

A subgroup handle carries its generators, its degree and, whenever
the order is at most SET_CAP, its element set; SET_CAP caps element
sets and nothing else.  No code outside the handle reads it: other
code asks the handle (``membership``, a set test or sifts;
``order_profile``, None above the cap).  A handle belongs to no
ambient group.  The group that classifies a handle keys it in its own
numbering (``PermGroup.subgroup_key``), so one handle can be
classified in A and in an overgroup S alike.  Conjugacy of subgroups
is resolved by orbit enumeration with per-class caches stored on that
group.
A normalizer takes the Schreier generators of H's class from H only
until, joined to H one at a time, they span its order: it walks the
class lazily from H, keeping each image the walk makes for the
stabilizer loop, so each key is conjugated once per generator.  A
caller that knows the order passes it, and no class is cached then;
a caller that has H's key passes it too, and a key G has registered
spares the sift of H's generators.  An order of |G| gives G itself,
with no walk and no normality test.

Cyclic extensions are built here only: ``Subgroup.join(t)`` is <H, t>,
``cyclic_joins(S, N, H)`` gives the class in S of one <H, a> per cyclic
subgroup of N/H, or per class of cyclic subgroups of N when N is above
SET_CAP, and ``quotient_classes(N, H, primes)`` gives the rational
classes of order-q elements of N/H, lifted to N: the class step and the
class search read their extensions <H, t> off it.  No computation
builds a quotient group; the composition series refines the derived
series on the generators of its terms.  ``quotient_group(N, H)``, N/H
as a regular group with a lift map, is kept as the tests' reference.

Each group numbers its zuppos, the cyclic subgroups of prime-power
order, on first sight: an element maps to the id of the zuppo it
generates, or to NO_ZUPPO (the identity, composite orders), and all
elements of a cyclic subgroup are classified together from the powers
of one of them.  A group over a normal subgroup A starts from a copy
of A's numbering (``number_from``), so A's zuppos keep their ids and
tuples and are not classified again.
The group keeps one conjugation table per generator, zuppo id to zuppo
id, filled on demand by conjugating one generator of the zuppo through
the generator's inverse, computed once (``perms.conj_by``); an
involution's table fills the entries of Z and Z^s together.  For any
other element g, ``zuppo_permutation(g)`` gives the whole table at once,
for the oracle's walks of a normalizer's zuppo orbits.  Id values
and class-id order depend on what was seen first and have no effect on
any output.  The class key of a subgroup, at every order, is the
frozenset of the ids of its zuppos in the classifying group's
numbering: read off its element set up to SET_CAP, and above it off
its own certified cyclic classes, mapped through one generator per
zuppo.  It is canonical (a subgroup is generated by its zuppos, since
each element is a product of powers of itself of prime-power order),
it commutes with conjugation, and H <= K exactly when key(H) is a
subset of key(K).  So a step of a class orbit walk is one table
gather per zuppo instead of a permutation conjugation per element.  A
class stores its orbit as a Schreier tree (member key -> parent key and
generator index), and conjugating elements are multiplied out only for
the members asked for.

Each group finds its classes of cyclic subgroups once, from a lazy
walk of its elements that stops when the class equation over cyclic
subgroups (the class lengths times phi of the orders, plus one, sum to
the group order) certifies it complete.  No element list is built,
and each class is registered as a subgroup class of the group.  Every
reader of cyclic subgroups takes them from these classes: the rational
classes of order q are the classes of order q, each represented by its
least element; ``zuppos(G)``, for the oracle, is the zuppos of the
classes of prime-power order, in order of least generator, read off
them on each call; and the key of a subgroup above SET_CAP is the
union of its member keys.

The package's whole computations (the class lists, tables of marks,
their checks and their JSON) run with Python's cyclic garbage
collector paused, under ``collector_paused``.  Their data, permutation
tuples, key frozensets and handles, holds no reference cycle (a group's
own handle holds it weakly), so refcounts free dropped results, yet an
automatic collection walks every young container whenever the count of
new ones passes a threshold, at points that move with the allocation
order and so with the hash seed.  After the outermost call, all objects
move to the oldest generation (O(1) on CPython 3.11).
"""

from __future__ import annotations

import gc
import weakref
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache, wraps
from itertools import chain, repeat
from math import gcd, lcm

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

# the zuppo id of an element that generates no zuppo: the identity and
# every element of composite order
NO_ZUPPO = -1
_NO_ZUPPOS = frozenset([NO_ZUPPO])


def collector_paused(fn):
    """``fn``, run with the cyclic garbage collector paused.  When it
    returns or raises, objects move to the oldest generation (unless a
    caller froze some) and the collector resumes, unless it was paused."""
    @wraps(fn)
    def run(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if not gc.get_freeze_count():
                gc.freeze()     # every tracked object to the oldest
                gc.unfreeze()   # generation, no young count left
            gc.enable()
    return run


class NotSolvableError(ValueError):
    """Raised when a solvable-only algorithm meets a non-solvable group."""


class CapExceededError(ValueError):
    """A configured size cap was exceeded."""


# ---------------------------------------------------------------------------
# orbits


def orbit(seeds, gens, act, involutions=()) -> dict:
    """Breadth-first orbit of the seeds under gens, as a Schreier tree.

    Points come in discovery order, seeds first; each maps to None (a
    seed) or to (parent, k) with point == act(parent, gens[k]).
    ``involutions`` holds the indices of generators of order two, whose
    back edges the walk skips (``orbit_walk``).
    """
    tree = dict.fromkeys(seeds)
    deque(orbit_walk(tree, gens, act, involutions), maxlen=0)
    return tree


def _edge_steps(gens, involutions) -> tuple[list, list]:
    """The (k, gens[k]) steps out of a point: all of them from a seed,
    and by the index k of the tree edge into any other point, all but
    the back edge k when gens[k] is an involution (the indices in
    ``involutions``), whose image is the point's parent."""
    steps = list(enumerate(gens))
    return steps, [[st for st in steps if st[0] != k]
                   if k in involutions else steps for k in range(len(steps))]


def orbit_walk(tree: dict, gens, act, involutions=()):
    """The walk behind ``orbit``, grown lazily: starting from the points
    already in ``tree`` (the seeds, each mapped to None), yields the
    points in discovery order, each once its images under gens are in
    the tree, so a caller can stop the walk part way.  A point reached
    from its parent by an involution gens[k] is not acted on by gens[k]
    again: act is a right action, so that image is the parent.  The
    tree and its order are those of the walk that acts by every
    generator."""
    steps, by_edge = _edge_steps(gens, involutions)
    queue = list(tree)
    push = queue.append
    for x in queue:
        edge = tree[x]
        for k, g in steps if edge is None else by_edge[edge[1]]:
            y = act(x, g)
            if y not in tree:
                tree[y] = (x, k)
                push(y)
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


def build_chain(gens, degree: int) -> list[dict]:
    """Deterministic Schreier-Sims; returns the list of chain levels.

    Level i holds the strong generators fixing the first i base points,
    so the generator lists are nested: a sifted residue is installed at
    every level from where it got stuck down to the first base it moves.
    """
    idn = identity_tuple(degree)
    levels: list[dict] = []

    def sift_add(g: tuple[int, ...], i: int) -> None:
        # a residue stuck at some level moves its base point
        g = _chain_sift(levels[i:], g)
        if g != idn:
            add_gen(g)

    def add_gen(h: tuple[int, ...]) -> None:
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
        for i in range(m + 1):
            lv = levels[i]
            reps, inverse = lv["orbit"], lv["inverse"]
            for pt in list(reps):
                u = reps[pt]
                for s in lv["gens"]:
                    sg = mul(mul(u, s), inverse[s[pt]])
                    if sg != idn:
                        sift_add(sg, i + 1)

    for g in gens:
        if g != idn:
            sift_add(g, 0)
    del sift_add, add_gen   # empty their cells: each closure holds the other
    return levels


def _chain_order(levels: list[dict]) -> int:
    n = 1
    for lv in levels:
        n *= len(lv["orbit"])
    return n


def _chain_elements(levels: list[dict], degree: int):
    """The group's elements, lazily, in chain order: the products
    u_k ... u_1 of one transversal element per level, each level's in
    sorted point order, the first level's varying slowest.  The
    stabilizer of the first base point is listed once, and each coset
    of it is yielded as the gather of that list by its u_1."""
    reps = [[lv["orbit"][pt] for pt in sorted(lv["orbit"])] for lv in levels]
    inner = [identity_tuple(degree)]
    for us in reversed(reps[1:]):
        inner = [mul(e, u) for u in us for e in inner]
    for u in reps[0] if reps else inner:
        yield from map(mul, inner, repeat(u))


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


@lru_cache(maxsize=None)
def _cyclic_layout(n: int) -> tuple:
    """The subgroups of a cyclic group <x> of order n, as positions in
    [x, x^2, ..., x^n]: for each divisor d of n, the position of x^(n/d),
    which generates the subgroup of order d, then d, whether d is a
    prime power above 1, and the positions of the generators x^(kn/d),
    k prime to d."""
    out = []
    for d in range(1, n + 1):
        if n % d == 0:
            step = n // d
            out.append((step - 1, d, len(set(prime_factors(d))) == 1,
                        tuple(k * step - 1 for k in range(1, d + 1)
                              if gcd(k, d) == 1)))
    return tuple(out)


def _powers(x: tuple[int, ...], idn: tuple[int, ...]) -> list:
    """The elements of <x> as [x, x^2, ..., x^n], x^n the identity:
    x^(k+1) = x x^k, a gather through one prebuilt map."""
    lx, powers = left_mul_by(x), [x]
    while powers[-1] != idn:
        powers.append(lx(powers[-1]))
    return powers


class _Numbering:
    """The zuppos of one group, its cyclic subgroups of prime-power
    order, numbered on first sight.

    ``index`` maps each element seen to the id of the zuppo it
    generates, or to NO_ZUPPO.  All elements of a cyclic subgroup
    <x> are classified together, from the powers of x, when the first
    of them is seen.  ``gen`` holds the least generator of each zuppo
    and ``size`` its order.  Each generator s of the group has a
    conjugation table (zuppo id -> zuppo id, one entry per zuppo, -1
    while unfilled), the map x -> x^s, which fills an entry by
    conjugating one generator of the zuppo; ``involutions`` holds the
    indices of the involutions s, whose tables are their own inverses."""

    __slots__ = ("index", "gen", "size", "tabs", "conj", "involutions",
                 "idn")

    def __init__(self, gens, degree: int, base: "_Numbering | None" = None):
        # a normal subgroup's numbering (``base``) is copied, tables aside
        self.index: dict = {} if base is None else dict(base.index)
        self.gen: list = [] if base is None else list(base.gen)
        self.size: list[int] = [] if base is None else list(base.size)
        self.tabs: list[list[int]] = [[-1] * len(self.gen) for _ in gens]
        self.conj = [conj_by(s) for s in gens]
        self.idn = identity_tuple(degree)
        self.involutions = frozenset(
            k for k, s in enumerate(gens) if mul(s, s) == self.idn)

    def number(self, x: tuple[int, ...]) -> int:
        z = self.index.get(x)
        if z is None:
            self._classify(x)
            z = self.index[x]
        return z

    def _classify(self, x: tuple[int, ...]) -> None:
        """Classifies every element of <x>, one subgroup of <x> at a
        time (``_cyclic_layout``); a subgroup found classified is
        classified whole."""
        index, powers = self.index, _powers(x, self.idn)
        for first, d, zuppo, positions in _cyclic_layout(len(powers)):
            if powers[first] in index:
                continue
            z = NO_ZUPPO
            if zuppo:
                z = len(self.gen)
                self.gen.append(min(map(powers.__getitem__, positions)))
                self.size.append(d)
                for tab in self.tabs:
                    tab.append(-1)
            index.update(dict.fromkeys(map(powers.__getitem__, positions), z))


class PermGroup:
    """A permutation group with a cached deterministic stabilizer chain.

    Immutable after construction; all per-group caches (elements,
    subgroup-class orbits, normalizers) are value-deterministic, so
    sharing instances across computations is safe and profitable.
    """

    def __init__(self, gens, degree: int):
        self.degree = degree
        self.gens: tuple[tuple[int, ...], ...] = _clean_gens(gens, degree)
        self.chain = build_chain(self.gens, degree)
        self.order: int = _chain_order(self.chain)
        self._elements: list[tuple[int, ...]] | None = None
        self._cyclic: list | None = None    # _cyclic_classes(self), made once
        self._numbering: _Numbering | None = None   # made on first use
        self._whole: Subgroup | None = None   # as_subgroup(), likewise
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
        """All elements, in deterministic chain order, made once."""
        if self._elements is None:
            if self.order > ELEMENTS_CAP:
                raise CapExceededError(
                    f"group of order {self.order} exceeds element cap")
            self._elements = list(_chain_elements(self.chain, self.degree))
        return self._elements

    # -- zuppo numbering ---------------------------------------------------

    def _num(self) -> "_Numbering":
        if self._numbering is None:
            self._numbering = _Numbering(self.gens, self.degree)
        return self._numbering

    def number_from(self, A: "PermGroup") -> None:
        """Start the numbering, if none yet, as a copy of normal A's."""
        if self._numbering is None:
            self._numbering = _Numbering(self.gens, self.degree, A._numbering)

    def gen_conj(self) -> list:
        """The maps x -> x^s of the generators s, in generator order."""
        return self._num().conj

    def zuppo_permutation(self, g: tuple[int, ...]) -> list[int]:
        """The conjugation by g, an element of this group, on the zuppo
        ids: the id of Z^g at the id of Z, one conjugation per zuppo,
        read through the numbering's index.  Every zuppo must be
        numbered, as ``zuppos`` leaves them."""
        num = self._num()
        return list(map(num.index.__getitem__, map(conj_by(g), num.gen)))

    def elements_key(self, elems) -> frozenset:
        """The class key of the subgroup with the given elements (a
        re-iterable collection): the ids of the zuppos among them.
        Each element is a product of powers of itself of prime-power
        order, so the subgroup is generated by its zuppos.  Each element
        is looked up in the numbering's index; once one is missing, each
        is numbered."""
        num = self._num()
        try:
            ids = frozenset(map(num.index.__getitem__, elems))
        except KeyError:
            ids = frozenset(map(num.number, elems))
        return ids - _NO_ZUPPOS

    def conj_index_set(self, idxs: frozenset, k: int) -> frozenset:
        """The zuppo ids of the conjugates Z^s, Z in idxs, s = gens[k];
        idxs come from this group's numbering, which therefore exists."""
        num = self._numbering
        tab = num.tabs[k]
        out = frozenset(map(tab.__getitem__, idxs))
        if -1 not in out:
            return out
        c, involution, gen = num.conj[k], k in num.involutions, num.gen
        for i in idxs:
            if tab[i] < 0:
                j = tab[i] = num.number(c(gen[i]))
                if involution:   # Z^s = Y  <=>  Y^s = Z
                    tab[j] = i
        return frozenset(map(tab.__getitem__, idxs))

    def subgroup_key(self, H: "Subgroup") -> frozenset:
        """The class key of a subgroup handle in this group: the ids of
        its zuppos in this group's numbering.  Keys commute with
        conjugation, and H <= K exactly when key(H) is a subset of
        key(K).

        Up to SET_CAP they are read off H's element set
        (``elements_key``).  Above it they are the union of the member
        keys of H's certified cyclic classes (``_cyclic_classes``) of
        prime-power order, which hold every zuppo, each mapped into
        this group's numbering through its generator; the whole group
        takes its own classes, unmapped.
        """
        if H.order <= SET_CAP:
            return self.elements_key(H.elements())
        own = self if H.order == self.order else H.as_group()
        ids = frozenset().union(*(
            key for d, members, _ in _cyclic_classes(own)
            if len(set(prime_factors(d))) == 1 for key in members))
        if own is self:
            return ids
        gen, number = own._num().gen, self._num().number
        return frozenset(number(gen[z]) for z in ids)

    def conjugate_key(self, key: frozenset, g: tuple[int, ...]) -> frozenset:
        """The class key of H^g for the subgroup H of this class key, g
        normalizing this group: the id of the conjugate by g of one
        generator of each zuppo."""
        num, c = self._num(), conj_by(g)
        return frozenset(num.number(c(num.gen[z])) for z in key)

    def as_subgroup(self) -> "Subgroup":
        """The whole group as a subgroup handle, on this group's chain
        and element list, made once; it holds the group weakly."""
        if self._whole is None:
            self._whole = Subgroup(self, self.gens, group=self)
            self._whole._group = weakref.ref(self)
        return self._whole

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

    __slots__ = ("degree", "gens", "order", "_elems", "_group")

    def __init__(self, G, gens, *, elems=None, check=False,
                 group: PermGroup | None = None):
        self.degree = G.degree
        self.gens = _clean_gens(gens, G.degree)
        if check:
            for t in self.gens:
                if not G.contains(t):
                    raise ValueError("generator outside the ambient group")
        self._group = group
        if elems is None and group is None:
            elems = close_elements(self.gens, G.degree, cap=SET_CAP)
        elif elems is None and group.order <= SET_CAP:
            elems = group.elements()
        self._elems = None if elems is None else frozenset(elems)
        self.order = (self.as_group().order if self._elems is None
                      else len(self._elems))

    def as_group(self) -> PermGroup:
        """The subgroup as a PermGroup, made once; a handle whose
        generators span a group of another order than its element set
        is refused."""
        group = self._group
        if isinstance(group, weakref.ref):   # a group's own handle
            group = group()
        if group is None:
            group = PermGroup(self.gens, self.degree)
            if self._elems is not None and group.order != len(self._elems):
                raise RuntimeError(f"generators span a group of order "
                                   f"{group.order}, not {len(self._elems)}")
            self._group = group
        return group

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

    def membership(self):
        """The test whether all of some tuples lie in the subgroup: the
        element set's C-level ``issuperset`` when the handle has it,
        else a sift of each through the stabilizer chain."""
        if self._elems is not None:
            return self._elems.issuperset
        G = self.as_group()
        return lambda elems: all(map(G.contains, elems))

    def order_profile(self):
        """Sorted multiset of element orders; None above SET_CAP."""
        if self.order > SET_CAP:
            return None
        counts: dict[int, int] = {}
        for x in self.elements():
            o = order_of(x)
            counts[o] = counts.get(o, 0) + 1
        return tuple(sorted(counts.items()))

    def is_abelian(self) -> bool:
        """True iff the subgroup is abelian: its generators commute."""
        gens = self.gens
        return all(mul(x, y) == mul(y, x) for k, x in enumerate(gens)
                   for y in gens[:k])

    def is_cyclic(self) -> bool:
        """True iff the subgroup is cyclic, with no element scan: it is
        abelian, and the lcm of its generators' orders is its order."""
        return (lcm(*map(order_of, self.gens)) == self.order
                and self.is_abelian())

    def join(self, t: tuple[int, ...]) -> "Subgroup":
        """<H, t>, generated by H.gens + (t,).  When t normalizes H, and
        |H| m <= SET_CAP for the least m with t^m in H (m divides the
        order of t), the elements are the cosets H t^i (join_normalizing);
        otherwise they are closed by cosets from H's element set.  When
        |H| m > SET_CAP the join, which holds the |H| m elements of
        H<t>, is above the cap whether t normalizes H or not, and gets
        its stabilizer chain directly, with no closure; so does a
        closure that passes the cap."""
        gens = self.gens + (t,)
        w, m, n = t, 1, order_of(t)
        while self.order * n > SET_CAP >= self.order * m and w not in self:
            w, m = mul(w, t), m + 1
        if self.order * m <= SET_CAP:
            elems = join_normalizing(self.elements(), self.gens, t)
            if elems is None:
                elems = close_elements(gens, self.degree, cap=SET_CAP,
                                       seed=self.elements())
            if elems is not None:
                return Subgroup(self, gens, elems=elems)
        return Subgroup(self, gens, group=PermGroup(gens, self.degree))

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


def join_normalizing(h_elems: frozenset, h_gens, z: tuple[int, ...],
                     normalizes: bool | None = None):
    """Element set of <H, z> when z normalizes H, else None.

    With z normalizing H the join is the plain union of the cosets
    H z^i = z^i H (``normalizing_cosets``), which is much cheaper than a
    closure BFS.  A caller that knows whether z normalizes H passes it
    as ``normalizes``, and H's generators are not conjugated then.
    """
    if normalizes is None:
        normalizes = all(conj(g, z) in h_elems for g in h_gens)
    if not normalizes:
        return None
    out = set(h_elems)
    for coset in normalizing_cosets(h_elems, z)[1:]:
        out.update(coset)
    return frozenset(out)


def cyclic_joins(S: PermGroup, N: Subgroup, U: Subgroup):
    """(class id in S, c) pairs for U normal in N <= S: the class of
    K = <U, a> for a coset Ua, and c the number of cosets Ub for which
    <U, b> is K, or conjugate to K in N.  The counts sum to |N:U|.

    Up to SET_CAP, one K per cyclic subgroup K/U of N/U: a walk of N's
    element set joins the first a that generates no earlier K modulo U.
    With m = |K:U| the cosets U a^i, i prime to m, generate K/U; they
    are marked covered, so every element of N is joined or covered
    once, and K is the union of the cosets U a^i, 0 <= i < m.  K is
    keyed from those elements (``S.elements_key``) and looked up among
    S's known classes; a handle is made only for a K of a class S has
    not seen.  Above it, N's elements x are counted by the class of
    K = <U, x>, constant on each class of cyclic subgroups <x> of N
    (``_cyclic_classes``, S's own when N is S): phi(d) times the class
    length for a class of order d, with K = U when x lies in U, and 1
    for the identity.  A coset Ua holds |U| elements, so each total
    over |U| is its count.  No element list or quotient is built.
    """
    if N.order > SET_CAP:
        uid = subgroup_class_id(S, U)
        totals = {uid: 1}
        for d, members, x in _cyclic_classes(N.as_group()):
            cid = uid if x in U else subgroup_class_id(S, U.join(x))
            totals[cid] = totals.get(cid, 0) + euler_phi(d) * len(members)
        for cid, total in totals.items():
            count, rest = divmod(total, U.order)
            if rest:
                raise RuntimeError(f"{total} elements are no cosets "
                                   f"of a group of order {U.order}")
            yield cid, count
        return
    u_elems = U.elements()
    known = S._sub_class_of
    covered: set = set()
    for a in N.elements():
        if a in covered:
            continue
        cosets = normalizing_cosets(u_elems, a)
        m = len(cosets)
        gen_cosets = [c for i, c in enumerate(cosets) if gcd(i, m) == 1]
        for c in gen_cosets:
            covered.update(c)
        elems = list(chain.from_iterable(cosets))
        key = S.elements_key(elems)
        cid = known.get(key)
        if cid is None:
            cid = subgroup_class_id(
                S, Subgroup(U, U.gens + (a,), elems=elems), key)
        yield cid, len(gen_cosets)


# ---------------------------------------------------------------------------
# orbit-stabilizer machinery


def _stabilizer_from_orbit(G: PermGroup, sub: Subgroup, nodes, tree: dict,
                           rep_of, act, order: int,
                           involutions=()) -> Subgroup:
    """The stabilizer of a point, of the given order, grown from ``sub``
    (a subgroup of it) by one join per Schreier generator outside it.

    nodes: the orbit, starting at the point, and tree its Schreier tree
    (``orbit``), holding each node's images once the node is reached;
    rep_of(node) -> an element taking the point to node (identity at the
    point); act(node, k) -> the image v of node under G.gens[k], asked
    once per pair.  Two edges give the identity and are skipped: a tree
    edge, tree[v] == (node, k), and the back edge of a node reached by an
    involution, the indices in ``involutions`` (``orbit_walk``), which
    is not acted on.
    Each join is ``Subgroup.join``, so a stabilizer of order at most
    SET_CAP grows by cosets of its element set and no stabilizer chain
    is built.
    """
    if sub.order == order:
        return sub
    steps, by_edge = _edge_steps(G.gens, involutions)
    for node in nodes:
        u, edge = rep_of(node), tree[node]
        for k, s in steps if edge is None else by_edge[edge[1]]:
            v = act(node, k)
            if tree[v] == (node, k):
                continue
            sg = mul(mul(u, s), inv(rep_of(v)))
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
    cg, invs = G.gen_conj(), G._num().involutions
    tree = orbit([t], cg, _apply, invs)
    reps = transversal(tree, G.gens, G.identity)
    return _stabilizer_from_orbit(
        G, Subgroup(G, [t]), tree, tree, reps.__getitem__,
        lambda y, k: cg[k](y), G.order // len(reps), invs)


def centralizer_order(G: PermGroup, t: tuple[int, ...]) -> int:
    """|C_G(t)| for a permutation t of G's degree, with no orbit walked:
    C_G(t) is spanned by the zuppos of G (``zuppos``) whose generator t
    centralizes, each element a product of prime-power powers of itself."""
    c = conj_by(t)
    return PermGroup([x for x, _ in zuppos(G) if c(x) == x], G.degree).order


def element_class_length(G: PermGroup, x) -> int:
    """|x^G|, the length of the conjugacy class of an element x of G:
    its orbit under conjugation by the generators."""
    return len(orbit([tuple(x)], G.gen_conj(), _apply,
                     G._num().involutions))


@dataclass
class _SubClass:
    rep: Subgroup
    size: int
    # Schreier tree of the class orbit: member key -> (parent key,
    # generator index); None at the root, rep's key
    tree: dict = field(default_factory=dict)
    # Dress row of the class, built once by ``marks.dress_row``: (class id
    # of <U, a> -> number of cosets Ua of U in N(U), |N(U):U|)
    dress: tuple | None = None


def subgroup_class_id(G: PermGroup, H: Subgroup, key=None) -> int:
    """Conjugacy-class id of H in G, enumerating the class on first sight.

    The whole class orbit is cached on G, so later identifications of
    any member are dictionary lookups.  Each orbit step conjugates a
    member's zuppo set by one generator through its conjugation table,
    at every order.  ``key`` is H's ``G.subgroup_key``, trusted from a
    caller that has it; a class that H keyed here would open opens only
    if H's generators sift through G's chain, else ``ValueError``.
    """
    fp = G.subgroup_key(H) if key is None else key
    cid = G._sub_class_of.get(fp)
    if cid is not None:
        return cid
    if key is None and not all(g in G for g in H.gens):
        raise ValueError("subgroup not inside the group")
    cid = len(G._sub_classes)
    tree = orbit([fp], range(len(G.gens)), G.conj_index_set,
                 G._num().involutions)
    G._sub_classes.append(_SubClass(rep=H, size=len(tree), tree=tree))
    G._sub_class_of.update(dict.fromkeys(tree, cid))
    return cid


def are_conjugate_subgroups(G: PermGroup, H: Subgroup, K: Subgroup):
    """A conjugating element g with H^g = K, or None: H and K are
    conjugate exactly when they have one class id in G.  Both handles'
    generators are sifted through G's chain before either is keyed,
    else ``ValueError``."""
    if not all(g in G for g in H.gens + K.gens):
        raise ValueError("subgroup not inside the group")
    kh, kk = G.subgroup_key(H), G.subgroup_key(K)
    ch = subgroup_class_id(G, H, kh)
    if ch != subgroup_class_id(G, K, kk):
        return None
    # the products along the class tree from its root: rep^gh = H and
    # rep^gk = K, so H^(gh^-1 gk) = K
    tree = G._sub_classes[ch].tree
    known = {next(iter(tree)): G.identity}   # the root
    gh = path_product(tree, kh, G.gens, known)
    return mul(inv(gh), path_product(tree, kk, G.gens, known))


def normalizer(G: PermGroup, H: Subgroup, order: int | None = None,
               key=None) -> Subgroup:
    """Normalizer of H in G via orbit-stabilizer on H's class.

    The Schreier generators over H's class, on zuppo sets through the
    conjugation tables, grow H (``_stabilizer_from_orbit``) until the
    normalizer has ``order``; an element is multiplied out only for the
    members visited.  The class is walked lazily from H, and each image
    the walk makes is kept for the stabilizer loop, so no key is
    conjugated twice.  Without ``order`` it is |G| over H's class
    length, from G's class cache; a caller that passes it leaves that
    cache alone.  ``key`` is H's ``G.subgroup_key``, for a caller that
    already has it; a key G has registered is the zuppo set of a
    subgroup of G, so H is then not sifted through G's chain.  A normal
    H is answered before it is keyed, so no key is made for it: by
    ``order`` = |G| with no conjugation, and without ``order`` by
    ``is_normal_in``.
    """
    if ((key is None or key not in G._sub_class_of)
            and not all(g in G for g in H.gens)):
        raise ValueError("subgroup not inside the group")
    if order == G.order or (order is None and H.is_normal_in(G)):
        return G.as_subgroup()
    fp = G.subgroup_key(H) if key is None else key
    cached = G._normalizers.get(fp)
    if cached is not None:
        return cached
    if order is None:
        cid = subgroup_class_id(G, H, fp)
        order = G.order // G._sub_classes[cid].size   # H's class length
    invs, conj_set = G._num().involutions, G.conj_index_set
    tree, images = {fp: None}, {}   # (node, k) -> its image

    def step(node, k):
        images[node, k] = image = conj_set(node, k)
        return image

    def act(node, k):
        return images.pop((node, k))
    nodes = orbit_walk(tree, range(len(G.gens)), step, invs)
    known = {fp: G.identity}
    result = _stabilizer_from_orbit(
        G, H, nodes, tree,
        lambda node: path_product(tree, node, G.gens, known), act, order,
        invs)
    G._normalizers[fp] = result
    return result


# ---------------------------------------------------------------------------
# coset actions and quotients


def _coset_key(H: Subgroup):
    """The key of the right coset Hg, an element of it, read off a
    stabilizer chain of H (Seress, Permutation Group Algorithms, 2003):
    level by level, the transversal element u that takes the base point
    to the orbit point of least image under x moves x to ux, so x ends
    as the element of Hg whose base images are least, in base order.
    That element is shifted by the inverse of H's own, so H's key is
    the identity.  The chain is H's own (``Subgroup.as_group``)."""
    levels = [{pt: left_mul_by(u) for pt, u in lv["orbit"].items()}
              for lv in H.as_group().chain]

    def least(x):
        for orb in levels:
            x = orb[min(orb, key=x.__getitem__)](x)
        return x
    shift = left_mul_by(inv(least(identity_tuple(H.degree))))
    return lambda g: shift(least(g))


def _coset_walk(G, H: Subgroup) -> tuple[dict, list[int]]:
    """The one breadth-first walk of the right cosets Hg of H in G (a
    group or a subgroup handle) from H, over G's generators in order,
    one coset key (``_coset_key``) per tree edge: (tree, steps), tree
    the Schreier tree on the keys, whose discovery order numbers the
    cosets 0, 1, ..., |G:H| - 1 (at most QUOTIENT_CAP), and steps[i n + k]
    the number of coset i times gens[k], n = len(gens)."""
    index = G.order // H.order
    if index > QUOTIENT_CAP:
        raise CapExceededError(f"coset action degree {index} over the limit")
    # H's key is the identity, the root of the walk
    key, edges = _coset_key(H), []
    tree = orbit([identity_tuple(G.degree)], G.gens,
                 lambda c, s: edges.append(key(mul(c, s))) or edges[-1])
    if len(tree) != index:
        raise RuntimeError(f"{len(tree)} cosets found, expected {index}")
    label = dict(zip(tree, range(index)))
    return tree, list(map(label.__getitem__, edges))


def coset_action(G: PermGroup, H: Subgroup):
    """Action of G on the right cosets Hg, as (image group, reps): the
    image has degree |G:H|, at most QUOTIENT_CAP, and point i is the
    coset of reps[i].  One coset walk (``_coset_walk``) gives both:
    reps, identity first, are the products of the generators along the
    tree paths, and point i goes under gens[k] to the coset of the edge
    from i by k.
    """
    tree, steps = _coset_walk(G, H)
    reps = list(transversal(tree, G.gens, G.identity).values())
    n = len(G.gens)
    return PermGroup([tuple(steps[k::n]) for k in range(n)], len(reps)), reps


def coset_transversal(G: PermGroup, H: Subgroup) -> list[tuple[int, ...]]:
    """The representatives of ``coset_action``: a deterministic
    transversal of the right cosets Hg, identity first."""
    return [G.identity] if G.order == H.order else coset_action(G, H)[1]


def quotient_group(N: PermGroup, H: Subgroup):
    """Quotient W = N/H as a regular coset action, with a lift map.

    H must be normal in N.  Returns (W, lift) where lift maps a
    W-element tuple to a coset representative in N; lift of the
    identity is the identity (which lies in H).  N itself for a
    trivial H; otherwise |N:H| is at most QUOTIENT_CAP, and the image
    is regular, of order |N:H|.
    """
    if H.order == 1:
        return N, lambda w: w
    if not H.is_normal_in(N):
        raise ValueError("subgroup is not normal")
    W, reps = coset_action(N, H)

    def lift(w: tuple[int, ...]) -> tuple[int, ...]:
        return reps[w[0]]

    return W, lift


def quotient_classes(N: Subgroup, H: Subgroup, primes) -> dict:
    """q -> [(t, size), ...] for each prime q of ``primes``: one pair
    per rational class of order-q elements of W = N/H, H normal in N
    (both subgroup handles), in order of the class's least element,
    t that element's lift to N and size the class size.  The pairs are
    ``rational_classes(W, q)`` lifted through ``quotient_group(N, H)``,
    and no W is built:

    * for a trivial H they are N's own (``rational_classes``);
    * otherwise they are read off the coset walk of ``coset_action``
      (``_coset_walk``), which numbers the cosets as W's regular image
      does, so W's element of least tuple in a class is the one of least
      coset number: the element Hr of coset i has order q when q steps
      of right multiplication by the tree path of r lead from H back to
      H (visiting its powers), and the classes are the orbits of the
      subgroups <Hr> under conjugation by N's generators, each subgroup
      named by the least coset of its q - 1 generators.
    """
    if H.order == 1:
        return {q: rational_classes(N.as_group(), q) for q in primes}
    if not H.is_normal_in(N):
        raise ValueError("subgroup is not normal")
    index = N.order // H.order
    out: dict = {q: [] for q in primes}
    steps = _coset_walk(N, H)[1]
    gens, n = N.gens, len(N.gens)
    # paths[j]: the generator indices along the tree path of coset j,
    # whose tree edge is the first step to it; back[k]: the coset
    # H gens[k]^-1, the one that gens[k] takes to H
    paths, back = {0: ()}, [0] * n
    for e, j in enumerate(steps):
        i, k = divmod(e, n)
        if j not in paths:
            paths[j] = paths[i] + (k,)
        if not j:
            back[k] = i

    def times(j: int, i: int) -> int:   # coset j times the rep of coset i
        for k in paths[i]:
            j = steps[j * n + k]
        return j

    def conjugate(i: int, k: int) -> int:   # Hr^gens[k], r the rep of i
        return steps[times(back[k], i) * n + k]

    for q in primes:
        name: dict = {}   # coset of order q -> the name of <Hr>
        for i in range(1, index):
            if i not in name:
                powers = [i]   # the cosets of Hr, (Hr)^2, ..., (Hr)^(q-1)
                while len(powers) < q - 1 and powers[-1]:
                    powers.append(times(powers[-1], i))
                if len(powers) == q - 1 and powers[-1] and not times(
                        powers[-1], i):
                    name.update(dict.fromkeys(powers, min(powers)))
        seen: set = set()
        for i in sorted(set(name.values())):
            if i not in seen:
                members = orbit([i], range(n),
                                lambda j, k: name[conjugate(j, k)])
                seen.update(members)
                t = identity_tuple(N.degree)
                for k in paths[i]:
                    t = mul(t, gens[k])
                out[q].append((t, (q - 1) * len(members)))
    return out


def zuppos(G: PermGroup) -> list:
    """The zuppos of G, its cyclic subgroups of prime-power order, as
    (x, z) pairs: z the zuppo's id in G's numbering and x its least
    generator.  They are read off the certified cyclic classes
    (``_cyclic_classes``): a member of a class of prime-power order d
    is keyed by the ids of its subgroups, and its own id is the one of
    order d.  The pairs come in order of least generator."""
    num, out = G._num(), []
    for d, members, _ in _cyclic_classes(G):
        if len(set(prime_factors(d))) == 1:
            out += [(num.gen[z], z) for key in members
                    for z in key if num.size[z] == d]
    out.sort()
    return out


def _cyclic_classes(W: PermGroup) -> list:
    """(d, member keys, g) for each class of cyclic subgroups of order
    d > 1 of W, cached on W.  W's elements are walked lazily in chain
    order; an x outside every <y> walked before opens the class of each
    subgroup of <x> in no class seen, keyed by its zuppo ids; g is the
    power of x that generates the member of order d (a representative
    registered earlier may have other generators).  Every element generates one cyclic
    subgroup, and each member of a class of order d has phi(d)
    generators, so the walk is complete once those counts and the
    identity sum to |W|.  Each class is W's subgroup class, its
    representative holding an element set up to SET_CAP."""
    if W._cyclic is None:
        idn, out, seen, done, count = W.identity, [], set(), set(), 1
        for x in _chain_elements(W.chain, W.degree):
            if count >= W.order:
                break
            if x in done:
                continue
            powers = _powers(x, idn)
            done.update(powers)
            # with <x> seen, so is each subgroup of it: its class opened
            # along with the subgroups of a conjugate of <x>
            if W.elements_key(powers) in seen:
                continue
            for first, d, _, positions in _cyclic_layout(len(powers))[1:]:
                elems = powers[first::first + 1]
                key = W.elements_key(elems)
                if key in seen:
                    continue
                rep = (Subgroup(W, [elems[0]], elems=elems) if d <= SET_CAP
                       else Subgroup(W, [elems[0]], group=PermGroup(
                           [elems[0]], W.degree)))
                members = W._sub_classes[subgroup_class_id(W, rep, key)].tree
                seen.update(members)
                count += len(positions) * len(members)
                out.append((d, members, elems[0]))
        if count != W.order:
            raise RuntimeError(f"cyclic classes cover {count} elements "
                               f"of a group of order {W.order}")
        W._cyclic = out
    return W._cyclic


def rational_classes(W: PermGroup, q: int) -> list:
    """One (representative, size) pair per rational class of order-q
    elements of W (q prime), in order of representative, each the least
    element of its class.

    Rational class: closed under conjugacy and prime-to-q powers, so
    two elements are equivalent exactly when they generate conjugate
    subgroups of order q: one class of cyclic subgroups of order q
    (``_cyclic_classes``), whose members are single zuppos.  Its least
    element is the least of their least generators, and each member
    holds q - 1 of its elements.
    """
    gen = W._num().gen
    return sorted((min(map(gen.__getitem__, chain.from_iterable(keys))),
                   (q - 1) * len(keys))
                  for d, keys, _ in _cyclic_classes(W) if d == q)


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


def euler_phi(n: int) -> int:
    """Euler's phi: the number of generators of a cyclic group of
    order n."""
    for p in set(prime_factors(n)):
        n = n // p * (p - 1)
    return n


def normal_closure(G: PermGroup, gens) -> list[tuple[int, ...]]:
    """Generators of the normal closure of <gens> in G."""
    out = list(dict.fromkeys(gens))
    sub = PermGroup(out, G.degree)
    for x in out:   # a worklist: each conjugate added is visited in turn
        for g in G.gens:
            y = conj(x, g)
            if not sub.contains(y):
                out.append(y)
                sub = PermGroup(out, G.degree)
    return out


def derived_subgroup(G: PermGroup) -> PermGroup:
    comms = []
    for a in G.gens:
        for b in G.gens:
            c = mul(mul(inv(a), inv(b)), mul(a, b))
            comms.append(c)
    gens = normal_closure(G, comms)
    return PermGroup(gens, G.degree)


def _derived_terms(G: PermGroup) -> list[PermGroup]:
    """G, G', G'', ... down to the first term that is its own derived
    subgroup: the trivial group for a solvable G, else the perfect
    residuum G^oo."""
    series = [G]
    while series[-1].order > 1:
        nxt = derived_subgroup(series[-1])
        if nxt.order == series[-1].order:
            break
        series.append(nxt)
    return series


def derived_series(G: PermGroup) -> list[PermGroup]:
    series = _derived_terms(G)
    if series[-1].order > 1:
        raise NotSolvableError(f"group of order {G.order} is not solvable")
    return series


def perfect_residuum(G: PermGroup) -> PermGroup:
    """G^oo, the last term of the derived series.  A group whose order
    has at most two prime divisors is solvable (Burnside's p^a q^b
    theorem), so its residuum is trivial with no series computed."""
    if len(set(prime_factors(G.order))) <= 2:
        return PermGroup([], G.degree)
    return _derived_terms(G)[-1]


def is_solvable(G: PermGroup) -> bool:
    return perfect_residuum(G).order == 1


def composition_series(G: PermGroup) -> list[PermGroup]:
    """The groups of a composition series 1 = G_0 < G_1 < ... < G_n = G
    above the trivial one, bottom up, with G itself at the top: each is
    one extension step of prime index over the one before.

    Built by refining the derived series (which raises NotSolvableError
    if G is not solvable): each abelian factor is peeled into
    prime-order steps on the upper term's own generators g, in order,
    smallest primes first.  With o the order of g modulo the current
    term (which contains the bottom of the factor), the step is the
    join of that term with g^(o/p); every group between two terms of
    the derived series is normal in the upper one, so no quotient is
    built.
    """
    dseries = derived_series(G)
    terms = [trivial_subgroup(G)]
    for step in range(len(dseries) - 1, 0, -1):
        # extend from dseries[step] up to dseries[step-1]
        top = dseries[step - 1]
        if terms[-1].order != dseries[step].order:
            raise RuntimeError(
                f"refinement at order {terms[-1].order}, expected "
                f"{dseries[step].order}")
        for g in top.gens:
            while g not in terms[-1]:
                o, x = 1, g
                while x not in terms[-1]:
                    x, o = mul(x, g), o + 1
                p = prime_factors(o)[0]
                new_term = terms[-1].join(perm_power(g, o // p))
                if new_term.order != terms[-1].order * p:
                    raise RuntimeError("prime refinement step failed")
                terms.append(new_term)
        if terms[-1].order != top.order:
            raise RuntimeError("factor refinement incomplete")
    if terms[-1].order != G.order:
        raise RuntimeError("composition series does not reach the group")
    return [G if term.order == G.order else term.as_group()
            for term in terms[1:]]
