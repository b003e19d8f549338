"""Conjugacy classes of subgroups of a group S from those of a normal
subgroup A of prime index p.

Subgroups of S split into the *inner* ones (contained in A) and the
*outer* ones (not contained in A).  Inner S-classes are unions of one
or p A-classes, decided by whether the S-normalizer leaves A; outer
classes correspond to classes of order-p subgroups of normalizer
quotients N_S(H)/H not contained in N_A(H)/H, one for each rational
class of order-p elements outside the A-part.  The quotient comes from
``groups.quotient_group`` and each outer representative is
``H.join(t)``, the kernel's one construction of <H, t>.

Iterating the step along a composition series enumerates the classes
of any solvable group starting from the trivial one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import (
    PermGroup,
    Subgroup,
    normalizer,
    prime_factors,
    quotient_group,
    rational_classes,
    rewrap,
    subgroup_class_id,
)
from .perms import mul, order_of, power


@dataclass
class ExtensionContext:
    """The pair A normal-in S of prime index p, with a coset element t."""

    S: PermGroup
    A: PermGroup
    p: int
    t: tuple[int, ...]

    @classmethod
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
        if not rewrap(S, A).is_normal_in(S):
            raise ValueError("subgroup is not normal")
        t = next((g for g in S.gens if not A.contains(g)), None)
        if t is None:
            raise RuntimeError("every generator lies in the subgroup")
        return cls(S=S, A=A, p=p, t=t)


@dataclass
class InnerClass:
    """One S-class of subgroups of A."""

    rep: Subgroup                 # ambient S
    a_indices: tuple[int, ...]    # merged A-class indices (1 or p of them)
    normalizer_order: int         # |N_S(rep)|

    @property
    def stable(self) -> bool:
        return len(self.a_indices) == 1


@dataclass
class InnerSplit:
    classes: list[InnerClass]
    raw_fused_count: int          # number of A-classes sitting in merged classes

    @property
    def stable_classes(self) -> list[InnerClass]:
        return [c for c in self.classes if c.stable]

    @property
    def merged_classes(self) -> list[InnerClass]:
        return [c for c in self.classes if not c.stable]


def split_inner_classes(a_classes: list[Subgroup],
                        ctx: ExtensionContext) -> InnerSplit:
    """Fuse the A-classes into S-classes.

    A class is stable (kept as-is) when the S-normalizer of its
    representative is not contained in A; otherwise exactly p A-classes
    merge into one S-class, conjugate under powers of t.
    """
    S, A, p = ctx.S, ctx.A, ctx.p
    handles = []
    for H in a_classes:
        hs = rewrap(S, H)
        if not all(A.contains(g) for g in hs.gens):
            raise ValueError("input class representative not inside A")
        handles.append(hs)
    norms = [normalizer(S, hs) for hs in handles]
    stable = [any(not A.contains(g) for g in n.gens) for n in norms]

    # resolve merged classes by conjugating with powers of t
    unstable_idx = [i for i, s in enumerate(stable) if not s]
    a_cid_of = {}
    for i in unstable_idx:
        a_cid_of[subgroup_class_id(A, a_classes[i])] = i
    assigned: set[int] = set()
    classes: list[InnerClass] = []
    raw_fused = 0
    for i, hs in enumerate(handles):
        if stable[i]:
            classes.append(InnerClass(
                rep=hs, a_indices=(i,), normalizer_order=norms[i].order))
            continue
        if i in assigned:
            continue
        partners = [i]
        g = ctx.t
        for _ in range(p - 1):
            cid = subgroup_class_id(A, handles[i].conjugated(g))
            j = a_cid_of.get(cid)
            if j is None or j in assigned or j in partners:
                raise RuntimeError("inconsistent class fusion")
            partners.append(j)
            g = mul(g, ctx.t)
        assigned.update(partners)
        raw_fused += p
        classes.append(InnerClass(
            rep=hs, a_indices=tuple(partners),
            normalizer_order=norms[i].order))
    if raw_fused != p * sum(not c.stable for c in classes):
        raise RuntimeError("merged classes are not p A-classes each")
    return InnerSplit(classes=classes, raw_fused_count=raw_fused)


@dataclass
class OuterClass:
    """One S-class of subgroups not contained in A."""

    rep: Subgroup               # ambient S, of order p * |base|
    base_index: int             # A-class index of rep's intersection with A
    gen_element: tuple[int, ...]  # coset element of p-power order
    normalizer_order: int


def extension_elements(ctx: ExtensionContext, H: Subgroup):
    """Coset elements t generating the index-p extensions of H.

    Each returned t normalizes H, has p-power order, lies outside A,
    and the subgroups <H, t> form a transversal of the S-classes of
    subgroups K with K intersect A equal to H (pairwise non-conjugate).
    Empty when N_S(H) is contained in A.
    """
    S, A, p = ctx.S, ctx.A, ctx.p
    hs = rewrap(S, H)
    if not all(A.contains(g) for g in hs.gens):
        raise ValueError("subgroup not inside A")
    N = normalizer(S, hs)
    if all(A.contains(g) for g in N.gens):
        return []
    if hs.order == 1 and A.order % p:
        # Sylow case: the only order-p class; any p-element works, and
        # t has order divisible by p as it lies outside A
        return [power(ctx.t, order_of(ctx.t) // p)]
    W, lift = quotient_group(N.as_group(), hs)

    # A is normal, so lying in A is constant on rational classes
    out = []
    for w in rational_classes(W, p, lambda x: A.contains(lift(x))):
        t0 = lift(w)
        q = order_of(t0)
        while q % p == 0:
            q //= p
        t = power(t0, q)
        if A.contains(t):
            raise RuntimeError("extension element lies in A")
        out.append(t)
    out.sort(key=lambda t: order_of(t))
    return out


def outer_classes(a_classes: list[Subgroup],
                  ctx: ExtensionContext) -> list[OuterClass]:
    """One representative per S-class of subgroups not contained in A."""
    out: list[OuterClass] = []
    for i, H in enumerate(a_classes):
        hs = rewrap(ctx.S, H)
        for t in extension_elements(ctx, hs):
            K = hs.join(t)
            # |K| = p|H| and t outside A force K meet A = H, normal in K
            if K.order != ctx.p * hs.order:
                raise RuntimeError(
                    f"extension of order {K.order}, expected "
                    f"{ctx.p * hs.order}")
            out.append(OuterClass(
                rep=K, base_index=i, gen_element=t,
                normalizer_order=normalizer(ctx.S, K).order))
    out.sort(key=lambda c: c.rep.order)  # stable: keeps construction order
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


def extend_classes(a_classes: list[Subgroup],
                   ctx: ExtensionContext) -> StepClasses:
    """Classes of S from a transversal of the classes of A.

    The result lists the inner block first (in the order of the input
    classes, merged classes represented by their first member), then
    the outer block sorted by subgroup order with first-construction
    ties.
    """
    step = StepClasses(inner=split_inner_classes(a_classes, ctx),
                       outer=outer_classes(a_classes, ctx))
    if len({id(r) for r in step.reps}) != len(step.reps):
        raise RuntimeError("one representative stands for two classes")
    return step


def sort_class_reps(reps: list[Subgroup]) -> list[Subgroup]:
    """Stable sort by subgroup order (first-seen ties preserved)."""
    return sorted(reps, key=lambda h: h.order)
