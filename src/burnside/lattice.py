"""Brute-force ground truth: subgroup classes by join closure and direct
fixed-coset tables of marks for small groups.

Enumeration is bottom-up join closure: class representatives are
extended by cyclic subgroups of prime-power order (zuppos) and
deduplicated up to conjugacy.  A representative H is joined with the
first zuppo, in zuppo order, of each orbit of its normalizer N on the
zuppos outside H, since conjugate zuppos give conjugate joins.  The
zuppos are the kernel's list (``groups.zuppos``), each with its
G-class, the orbit for every H normal in G.  Other N-orbits are found
once per distinct N, keyed by its class key, and walked on ints: each
generator of N permutes the zuppo ids, one conjugation per zuppo.  N
comes from the kernel, so it is checked here to normalize H; when it
does not, H is joined with every zuppo, which costs time but never a
class.  When it does, z normalizes H exactly when z lies in N, and the
join is told so.

A join <H, z> with z outside the normalizer of H is closed only up to
a cap chosen from the perfect residuum D = G^oo, once per call.  A
perfect D > 1 has no proper subgroup of index below 5 (acting on its
cosets, it would map into the solvable S_n, n <= 4), so a subgroup J
not containing D has |J| <= |J ∩ D| |G:D| <= |G|/5.  A join inside D
(H <= D, z in D, 1 < |D| < |G|) is capped at |D|/5 and past it is D;
any other, when D > 1 and |G:D| is 1 or prime, is capped at |G|/5 and
past it contains D but is not D, so it is G; otherwise the cap is
|G|/2 and past it the join is G by Lagrange.  Each join is looked up
by its key before a handle is made, and only a join that opens a class
gets one.  Every mark is counted from its definition, independent of
the extension engine (``counted_pattern``).

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
    collector_paused,
    join_normalizing,
    normalizer,
    orbit,
    perfect_residuum,
    prime_factors,
    quotient_classes,
    subgroup_class_id,
    trivial_subgroup,
    zuppos,
)
from .marks import (
    ConjugateDuplicatesError,
    SubgroupPattern,
    class_columns,
    counted_pattern,
)
from .perms import conj

DEFAULT_CAP = 2000


@collector_paused
def all_subgroup_classes_brute(G: PermGroup,
                               cap: int = DEFAULT_CAP) -> list[Subgroup]:
    """Transversal of the subgroup classes by join closure with zuppos.

    Each class representative H is joined with the first zuppo, in
    zuppo order, of each N_G(H)-orbit outside H: <H, z^n> = <H, z>^n,
    so the rest of the orbit adds no class, and every class is found by
    the same (H, z) pair as with the full loop over the zuppos.  The
    orbits are found once per distinct N_G(H) (``_normalizer_leads``).

    A join <H, z> with z outside N_G(H) is closed with a cap chosen
    from the perfect residuum D (module docstring), past which it is D
    or G.  Such a join is keyed by the key of D or G, computed once per
    call, and stands for that group with all of its elements.  Any
    other join is keyed by its zuppo ids.  A handle is made only for a
    join whose class is new, so the transversal is the full loop's.

    Deterministic; the result is sorted by subgroup order with
    first-construction tie-breaks.
    """
    if G.order > cap:
        raise CapExceededError(
            f"group order {G.order} exceeds the brute cap {cap}")
    triv = trivial_subgroup(G)
    reps = [triv]
    known = {subgroup_class_id(G, triv)}
    zups = zuppos(G)
    # the closure caps of non-normalizing joins (module docstring);
    # only a proper D > 1 has joins inside it
    D = perfect_residuum(G)
    delems = (frozenset(D.elements()) if 1 < D.order < G.order
              else frozenset())
    whole_cap = (G.order // 5 if D.order > 1
                 and len(prime_factors(G.order // D.order)) <= 1
                 else G.order // 2)
    # the elements and class key of D and of G, for a join past its cap
    d_named = delems, G.elements_key(delems)
    g_named = G.elements(), G.elements_key(G.elements())
    # N's key -> the zuppos first in their N-orbit; G's are its classes
    leads = {g_named[1]: _orbit_leads(zups, lambda z, zclass: zclass)}

    for H in reps:   # grows while it is walked
        helems = H.elements()
        normal = H.is_normal_in(G)
        h_in_d = delems.issuperset(H.gens)
        N = G.as_subgroup() if normal else normalizer(G, H)
        # z normalizes H exactly when it lies in N, unless the kernel's
        # N fails to normalize H: then every zuppo is joined and tested
        if normal or H.is_normal_in(N):
            nkey = g_named[1] if normal else G.subgroup_key(N)
            if nkey not in leads:
                leads[nkey] = _normalizer_leads(G, zups, N)
            lead, in_n = leads[nkey], N.elements().__contains__
        else:
            lead, in_n = frozenset(z for _, z, _ in zups), lambda x: None
        for x, z, _ in zups:
            if x in helems or z not in lead:
                continue
            gens = H.gens + (x,)
            elems, key = join_normalizing(helems, H.gens, x, in_n(x)), None
            if elems is None:
                inside = h_in_d and x in delems
                elems = close_elements(
                    gens, G.degree, seed=helems,
                    cap=D.order // 5 if inside else whole_cap)
                if elems is None:   # past its cap the join is D or G
                    elems, key = d_named if inside else g_named
            if key is None:
                # the class key G.subgroup_key(K), read off the elements
                key = G.elements_key(elems)
            if G._sub_class_of.get(key) in known:
                continue
            K = Subgroup(G, gens, elems=elems)
            cid = subgroup_class_id(G, K, key)
            if cid not in known:
                known.add(cid)
                reps.append(K)
    reps.sort(key=lambda h: h.order)
    return reps


@collector_paused
def table_of_marks_brute(G: PermGroup,
                         cap: int = DEFAULT_CAP) -> SubgroupPattern:
    """Pattern of G counted on the oracle's transversal
    (``marks.counted_pattern``): the package's independent oracle."""
    return counted_pattern(G, all_subgroup_classes_brute(G, cap))


def _orbit_leads(zups, orbit_of) -> frozenset:
    """The ids of the zuppos that come first, in zuppo order, in their
    orbit, ``orbit_of(z, zclass)`` the orbit of zuppo z."""
    seen, leads = set(), []
    for _, z, zclass in zups:
        if z not in seen:
            leads.append(z)
            seen.update(orbit_of(z, zclass))
    return frozenset(leads)


def _normalizer_leads(G: PermGroup, zups, N: Subgroup) -> frozenset:
    """``_orbit_leads`` under N, walked on ints: one permutation of the
    zuppo ids per generator of N (``PermGroup.zuppo_permutation``), and
    the back edges of a permutation of order two skipped."""
    perms = [G.zuppo_permutation(g) for g in N.gens]
    invs = [k for k, p in enumerate(perms)   # p p is the identity
            if list(map(p.__getitem__, p)) == list(range(len(p)))]
    return _orbit_leads(
        zups, lambda z, _: orbit([z], perms, lambda u, p: p[u], invs))


# ---------------------------------------------------------------------------
# class-level search past the brute cap


@collector_paused
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
    for H in reps:   # grows while it is walked
        if H.order == G.order:
            continue
        N = normalizer(G, H)
        if N.order == H.order:
            continue
        primes = sorted(set(prime_factors(N.order // H.order)))
        for q, pairs in quotient_classes(N, H, primes).items():
            for t, _ in pairs:
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


@collector_paused
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
