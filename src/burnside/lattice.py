"""Brute-force ground truth: subgroup classes by join closure and direct
fixed-coset tables of marks for small groups.

Enumeration is bottom-up join closure: class representatives are
extended by cyclic subgroups of prime-power order (zuppos) and
deduplicated up to conjugacy.  A representative H is joined with one
zuppo per orbit of its normalizer N on the zuppos outside H, since
conjugate zuppos give conjugate joins.  The orbits are walked on zuppo
numbers: a step conjugates the zuppo's generator and looks the image
up among the generators of all zuppos, one conjugation per step rather
than one per element.  N comes from the kernel, so it is checked here
to normalize H; when it does not, H is joined with every zuppo, which
costs time but never a class.  A join <H, z> with z outside the
normalizer of H is closed only up to |G|/2 elements: past that it is G
by Lagrange, so no closure runs to the end to find G.
Each join is looked up by its key before a handle is made, and only a
join that opens a class gets one.  Every mark is counted from its
definition, independent of the extension engine: the cosets of K fixed
by H are |N(K):K| for each conjugate of K that contains H, and the
conjugates are the members of K's class orbit that the kernel keeps.

`subgroup_classes_search` extends the same idea to groups beyond the
brute cap whose proper subgroups are all solvable (e.g. L2(32)): every
proper subgroup is then reachable by prime-cyclic extensions inside
normalizers, and the group itself is appended at the end.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import (
    CapExceededError,
    PermGroup,
    Subgroup,
    close_elements,
    join_normalizing,
    normalizer,
    orbit,
    prime_factors,
    quotient_group,
    rational_classes,
    subgroup_class_id,
    trivial_subgroup,
    SET_CAP,
)
from .marks import (
    ConjugateDuplicatesError,
    PatternClass,
    PatternStats,
    SubgroupPattern,
    class_columns,
    mark_row,
)
from .perms import conj, conj_by, order_of, power

DEFAULT_CAP = 2000


def zuppos(G: PermGroup) -> list[tuple[tuple[int, ...], frozenset]]:
    """Cyclic subgroups of prime-power order, as (generator, elements)."""
    out = []
    seen = set()
    for x in G.sorted_elements():
        n = order_of(x)
        if len(set(prime_factors(n))) != 1:
            continue
        elems = frozenset(power(x, k) for k in range(n))
        if elems in seen:
            continue
        seen.add(elems)
        out.append((x, elems))
    return out


def _zuppo_action(zups):
    """Conjugation on zuppo numbers: act(i, c) is the number of the
    image of zups[i] under c, a map x -> x^g.  A conjugation maps a
    zuppo's generator to a generator of the conjugate zuppo, so every
    generator of every zuppo (its elements of full order) is looked up
    to its zuppo's number."""
    zid = {y: i for i, (_, zel) in enumerate(zups)
           for y in zel if order_of(y) == len(zel)}
    return lambda i, c: zid[c(zups[i][0])]


def all_subgroup_classes_brute(G: PermGroup,
                               cap: int = DEFAULT_CAP) -> list[Subgroup]:
    """Transversal of the subgroup classes by join closure with zuppos.

    Each class representative H is joined with the first zuppo, in
    zuppo order, of each N_G(H)-orbit outside H: <H, z^n> = <H, z>^n,
    so the rest of the orbit adds no class, and every class is found by
    the same (H, z) pair as with the full loop over the zuppos.

    A join <H, z> with z outside N_G(H) is closed with the cap |G|/2:
    a subgroup past it is all of G by Lagrange.  The first such
    join, while G's class is not yet found, stands for G with all of G's
    elements; every later one is dropped before it is keyed.  Any other
    join is keyed by its element indices, and a handle is made only for
    a join whose class is new, so the transversal is the full loop's.

    Deterministic; the result is sorted by subgroup order with
    first-construction tie-breaks.
    """
    if G.order > cap:
        raise CapExceededError(
            f"group order {G.order} exceeds the brute cap {cap}")
    triv = trivial_subgroup(G)
    reps = [triv]
    known = {subgroup_class_id(G, triv)}
    whole_known = False  # G's class is among the representatives
    zups = zuppos(G)
    act = _zuppo_action(zups)
    # zuppo number -> its class in G: the orbits for every H normal in G
    zclass: dict = {}
    for i in range(len(zups)):
        if i not in zclass:
            cls = tuple(orbit([i], G.gen_conj(), act))
            zclass.update(dict.fromkeys(cls, cls))
    qi = 0
    while qi < len(reps):
        H = reps[qi]
        qi += 1
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
            gens = H.gens + (x,)
            elems = join_normalizing(helems, H.gens, x)
            if elems is None:
                elems = close_elements(gens, G.degree, seed=helems,
                                       cap=G.order // 2)
                if elems is None:
                    # more than |G|/2 elements: the join is G (Lagrange)
                    if whole_known:
                        continue
                    whole_known = True
                    elems = G.elements()
            # the class key G.subgroup_key(K) up to SET_CAP; above it the
            # key comes from the handle
            key = G.index_set(elems) if len(elems) <= SET_CAP else None
            if G._sub_class_of.get(key) in known:
                continue
            K = Subgroup(G, gens, elems=elems)
            cid = subgroup_class_id(G, K, key)
            if cid not in known:
                known.add(cid)
                reps.append(K)
                whole_known = whole_known or K.order == G.order
    reps.sort(key=lambda h: h.order)
    return reps


def table_of_marks_brute(G: PermGroup,
                         cap: int = DEFAULT_CAP) -> SubgroupPattern:
    """Pattern of G with every entry counted by ``mark_row`` on the
    class orbit of its K (the package's independent oracle).  Each
    representative is keyed and classified once for the whole table."""
    reps = all_subgroup_classes_brute(G, cap)
    keys = [G.subgroup_key(rep) for rep in reps]
    cids = [subgroup_class_id(G, rep, key) for rep, key in zip(reps, keys)]
    classes = []
    for rep, cid in zip(reps, cids):
        length = G._sub_classes[cid].size
        classes.append(PatternClass(
            rep=rep, order=rep.order, length=length,
            normalizer_order=G.order // length))
    rows = [mark_row(G, rep, keys[:i + 1], cid)
            for i, (rep, cid) in enumerate(zip(reps, cids))]
    return SubgroupPattern(group=G, classes=classes, rows=rows,
                           stats=PatternStats())


# ---------------------------------------------------------------------------
# class-level search past the brute cap


def subgroup_classes_search(G: PermGroup) -> list[Subgroup]:
    """Transversal of the subgroup classes via prime-cyclic extensions.

    Grows every class upward inside normalizer quotients, one prime at
    a time, starting from the trivial subgroup; the whole group is
    appended at the end.  This reaches every subgroup with a normal
    subgroup of prime index, hence is complete whenever every proper
    subgroup of G is solvable (the intended use: groups like L2(32)
    whose lattice is far beyond the brute cap).
    """
    triv = trivial_subgroup(G)
    reps = [triv]
    known = {subgroup_class_id(G, triv)}
    qi = 0
    while qi < len(reps):
        H = reps[qi]
        qi += 1
        if H.order == G.order:
            continue
        N = normalizer(G, H)
        if N.order == H.order:
            continue
        W, lift = quotient_group(N.as_group(), H)
        for q in sorted(set(prime_factors(W.order))):
            for w, _ in rational_classes(W, q):
                t = lift(w)
                if any(conj(g, t) not in H for g in H.gens):
                    raise RuntimeError(
                        "lifted quotient element does not normalize")
                K = H.join(t)
                if K.order != q * H.order:
                    raise RuntimeError(
                        f"extension of order {K.order}, expected "
                        f"{q * H.order}")
                cid = subgroup_class_id(G, K)
                if cid not in known:
                    known.add(cid)
                    reps.append(K)
    if all(h.order != G.order for h in reps):
        whole = G.as_subgroup()
        known.add(subgroup_class_id(G, whole))
        reps.append(whole)
    reps.sort(key=lambda h: h.order)
    return reps


# ---------------------------------------------------------------------------
# pattern comparison


@dataclass
class MatchReport:
    matched: bool
    permutation: list[int] | None
    detail: str

    def __bool__(self) -> bool:
        return self.matched


def compare_patterns(a: SubgroupPattern, b: SubgroupPattern) -> MatchReport:
    """Match two patterns up to a permutation of classes.

    Succeeds when some permutation of b's classes makes the tables
    equal cell by cell with matched representatives conjugate in the
    common ambient group.  Each class of a is paired with the class of
    b that has its class id, from one ``class_columns`` over b's
    representatives; b with two conjugate representatives, a class of
    a with no partner or with the partner of another class, or a pair
    whose lengths or normalizer orders differ, is unmatched.
    """
    G = a.group
    if a.n != b.n:
        return MatchReport(False, None, f"class counts differ: {a.n} != {b.n}")
    if a.group.order != b.group.order or a.group.degree != b.group.degree:
        return MatchReport(False, None, "ambient groups differ")
    if not all(G.contains(g) for g in b.group.gens):
        return MatchReport(False, None, "ambient groups differ as sets")
    try:
        index_of_cid = class_columns(G, [c.rep for c in b.classes])
    except ConjugateDuplicatesError as exc:
        return MatchReport(False, None, str(exc))
    perm: list[int] = []
    for i, c in enumerate(a.classes):
        j = index_of_cid.get(subgroup_class_id(G, c.rep))
        if (j is None or j in perm
                or (c.length, c.normalizer_order)
                != (b.classes[j].length, b.classes[j].normalizer_order)):
            return MatchReport(False, None,
                               f"no conjugate partner for class {i}")
        perm.append(j)
    for i in range(a.n):
        for j in range(i + 1):
            if a.rows[i][j] != b.cell(perm[i], perm[j]):
                return MatchReport(
                    False, None,
                    f"cell ({i},{j}): {a.rows[i][j]} != "
                    f"{b.cell(perm[i], perm[j])}")
    return MatchReport(True, perm, "match")
