"""Conjugacy classes of subgroups of a group S from those of a normal
subgroup A of prime index p.

Subgroups of S split into the *inner* ones (contained in A) and the
*outer* ones (not contained in A).  An A-class is stable when the coset
element t maps it to itself up to A-conjugacy; it is then an S-class,
and otherwise p A-classes, conjugate under powers of t, fuse into one.
Outer classes correspond to classes of order-p subgroups of normalizer
quotients W = N_S(H)/H not contained in N_A(H)/H, one for each rational
class of order-p elements outside the A-part.  Those classes come from
``groups.quotient_classes``, lifted to N_S(H) and read off one coset
walk with no quotient group built, and each outer representative is
``H.join(t)``, the kernel's one construction of <H, t>.

Stability is decided once per class, by A-class ids, in
``split_inner_classes``; ``outer_classes`` and ``extension_elements``
take the stable classes of that split and decide nothing again.

Every S-normalizer of the step is derived from what A has cached
(Pfeiffer, Exp. Math. 6, 1997); no element class of S is walked, and
the only subgroup classes of S walked whole are those of the <t> of
order p outside A, for p dividing |A|:

* |N_S(H)| is p |N_A(H)| for a stable H and |N_A(H)| otherwise, read
  off H's A-class; a merged H has no extensions.
* For a stable H the group N_S(H) is needed for W.  It is
  ``normalizer(S, H, order)`` with that known order: H grows by its
  Schreier generators over a breadth-first walk of H's S-class from H,
  stopped once it reaches the order; the walk is not cached.
* |N_S(<H, t>)| is (p - 1) |N_S(H)| / R, with R the size of the
  rational class of t's image w in W, (p - 1) times the class length
  of <w> in W (the S-class of <t> for a trivial H).  For a trivial H
  with p not dividing |A|, <t> is a Sylow subgroup and N_S(<t>) is
  C_S(t) = <t> C_A(t), C_A(t) spanned by the zuppos of A that t
  centralizes (``centralizer_order``).

An A-class representative serves on the S side as it is: a subgroup
handle belongs to no ambient group, and S keys it in its numbering, a
copy of A's (``PermGroup.number_from``) that classifies no element of
A again.

Iterating the step along a composition series enumerates the classes
of any solvable group starting from the trivial one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import (
    PermGroup,
    Subgroup,
    centralizer_order,
    collector_paused,
    normalizer,
    prime_factors,
    quotient_classes,
    subgroup_class_id,
)
from .perms import order_of, power


class InconsistentTableError(RuntimeError):
    """The input is corrupt: a candidate set of the marks engine became
    empty, or two A-class representatives of a step are conjugate, or
    the A-classes do not fuse into S-classes, or the cyclic classes do
    not account for every element of A."""


@dataclass
class ExtensionContext:
    """The pair A normal-in S of prime index p, with a coset element t."""

    S: PermGroup
    A: PermGroup
    p: int
    t: tuple[int, ...]

    @classmethod
    @collector_paused
    def create(cls, S: PermGroup, A: PermGroup) -> "ExtensionContext":
        if S.degree != A.degree:
            raise ValueError("ambient and normal subgroup degrees differ")
        if S.order % A.order:
            raise ValueError("subgroup order does not divide the group order")
        p = S.order // A.order
        if prime_factors(p) != [p]:
            raise ValueError(f"index {p} is not prime")
        for a in A.gens:
            if not S.contains(a):
                raise ValueError("normal subgroup not inside the group")
        if not A.as_subgroup().is_normal_in(S):
            raise ValueError("subgroup is not normal")
        S.number_from(A)   # A's zuppos are S's, numbered once
        t = next((g for g in S.gens if not A.contains(g)), None)
        if t is None:
            raise RuntimeError("every generator lies in the subgroup")
        return cls(S=S, A=A, p=p, t=t)


@dataclass
class InnerClass:
    """One S-class of subgroups of A."""

    rep: Subgroup
    a_indices: tuple[int, ...]    # merged A-class indices (1 or p of them)
    normalizer_order: int         # |N_S(rep)|

    @property
    def stable(self) -> bool:
        return len(self.a_indices) == 1


@dataclass
class InnerSplit:
    classes: list[InnerClass]

    @property
    def raw_fused_count(self) -> int:
        """The number of A-classes sitting in merged classes."""
        return sum(len(c.a_indices) for c in self.merged_classes)

    @property
    def stable_classes(self) -> list[InnerClass]:
        return [c for c in self.classes if c.stable]

    @property
    def merged_classes(self) -> list[InnerClass]:
        return [c for c in self.classes if not c.stable]


def split_inner_classes(a_classes: list[Subgroup],
                        ctx: ExtensionContext) -> InnerSplit:
    """Fuse the A-classes into S-classes, deciding each class once.

    Each representative is keyed to its A-class id once.  A class is
    stable (kept as-is, |N_S(H)| = p |N_A(H)|) when H^t lies in H's
    A-class: one conjugation by t of H's key in A's numbering
    (``PermGroup.conjugate_key``), looked up among A's classes.
    Otherwise the A-classes of H^(t^k), 0 <= k < p, merge into one
    S-class with |N_S(H)| = |N_A(H)|, found by p - 1 conjugations of
    its first member's key.  Two conjugate
    representatives, or a transversal that misses a merged partner,
    raise InconsistentTableError.
    """
    A, p = ctx.A, ctx.p
    for H in a_classes:
        if not all(A.contains(g) for g in H.gens):
            raise ValueError("input class representative not inside A")
    keys = [A.subgroup_key(H) for H in a_classes]
    cids = [subgroup_class_id(A, H, key) for H, key in zip(a_classes, keys)]
    index_of: dict[int, int] = {}
    for i, cid in enumerate(cids):
        j = index_of.setdefault(cid, i)
        if j != i:
            raise InconsistentTableError(
                f"input classes {j} and {i} are conjugate in A")

    assigned: set[int] = set()
    classes: list[InnerClass] = []
    for i, H in enumerate(a_classes):
        if i in assigned:
            continue
        partners, key = [i], keys[i]
        for _ in range(p - 1):
            key = A.conjugate_key(key, ctx.t)   # the key of H^(t^k)
            j = index_of.get(A._sub_class_of.get(key))
            if j == i:   # at k = 1 only: t fixes H's A-class
                break
            if j is None:
                raise InconsistentTableError("inconsistent class fusion")
            partners.append(j)
        assigned.update(partners)
        order = A.order // A._sub_classes[cids[i]].size   # |N_A(H)|
        classes.append(InnerClass(
            rep=H, a_indices=tuple(partners),
            normalizer_order=p * order if len(partners) == 1 else order))
    return InnerSplit(classes=classes)


@dataclass
class OuterClass:
    """One S-class of subgroups not contained in A."""

    rep: Subgroup               # of order p * |base|
    base_index: int             # A-class index of rep's intersection with A
    gen_element: tuple[int, ...]  # coset element of p-power order
    normalizer_order: int


def extension_elements(ctx: ExtensionContext, c: InnerClass) -> list:
    """Coset elements t generating the index-p extensions of the
    representative H of an inner class c, each with the order of the
    S-normalizer of <H, t>.

    Each returned t normalizes H, has p-power order, lies outside A,
    and the subgroups <H, t> form a transversal of the S-classes of
    subgroups K with K intersect A equal to H (pairwise non-conjugate).
    Empty for a merged class, whose N_S(H) is contained in A; stability
    and |N_S(H)| are read off c, as ``split_inner_classes`` decided them.
    """
    S, A, p = ctx.S, ctx.A, ctx.p
    H, order = c.rep, c.normalizer_order
    if not all(A.contains(g) for g in H.gens):
        raise ValueError("subgroup not inside A")
    if not c.stable:
        return []
    if H.order == 1 and A.order % p:
        # Sylow case: the only order-p class; any p-element works, and
        # t has order divisible by p as it lies outside A.  A normalizer
        # of <t> meets A in C_A(t): it is C_S(t) = <t> C_A(t).
        t = power(ctx.t, order_of(ctx.t) // p)
        return [(t, p * centralizer_order(A, t))]
    N = normalizer(S, H, order)

    # A is normal, so lying in A is constant on rational classes.  The
    # rational class of w = H t0 in W = N_S(H)/H holds the p - 1
    # generators of each conjugate of <w>, so its size R gives
    # |N_W(<w>)| = (p - 1) |W| / R.
    out = []
    for t0, size in quotient_classes(N, H, (p,))[p]:
        if A.contains(t0):
            continue
        q = order_of(t0)
        while q % p == 0:
            q //= p
        t = power(t0, q)
        if A.contains(t):
            raise RuntimeError("extension element lies in A")
        out.append((t, (p - 1) * order // size))
    out.sort(key=lambda pair: order_of(pair[0]))
    return out


def outer_classes(inner: InnerSplit,
                  ctx: ExtensionContext) -> list[OuterClass]:
    """One representative per S-class of subgroups not contained in A,
    from the stable classes of the inner split."""
    out: list[OuterClass] = []
    for c in inner.stable_classes:
        H = c.rep
        for t, normalizer_order in extension_elements(ctx, c):
            K = H.join(t)
            # |K| = p|H| and t outside A force K meet A = H, normal in K
            if K.order != ctx.p * H.order:
                raise RuntimeError(
                    f"extension of order {K.order}, expected "
                    f"{ctx.p * H.order}")
            out.append(OuterClass(
                rep=K, base_index=c.a_indices[0], gen_element=t,
                normalizer_order=normalizer_order))
    out.sort(key=lambda o: o.rep.order)  # stable: keeps construction order
    return out


@dataclass
class StepClasses:
    """All S-classes produced by one extension step, inner block first."""

    inner: InnerSplit
    outer: list[OuterClass]

    @property
    def reps(self) -> list[Subgroup]:
        return ([c.rep for c in self.inner.classes]
                + [c.rep for c in self.outer])

    @property
    def normalizer_orders(self) -> list[int]:
        return ([c.normalizer_order for c in self.inner.classes]
                + [c.normalizer_order for c in self.outer])


@collector_paused
def extend_classes(a_classes: list[Subgroup],
                   ctx: ExtensionContext) -> StepClasses:
    """Classes of S from a transversal of the classes of A.

    The result lists the inner block first (in the order of the input
    classes, merged classes represented by their first member), then
    the outer block sorted by subgroup order with first-construction
    ties.
    """
    inner = split_inner_classes(a_classes, ctx)
    return StepClasses(inner=inner, outer=outer_classes(inner, ctx))


def sort_class_reps(reps: list[Subgroup]) -> list[Subgroup]:
    """Stable sort by subgroup order (first-seen ties preserved)."""
    return sorted(reps, key=lambda h: h.order)
