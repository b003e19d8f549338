"""Class-level extension machinery: inner/outer splits, coset elements,
and the solvable driver, cross-checked against the brute oracle."""

import pytest

from burnside import groups
from burnside.catalog import CATALOG, abelian_group, dihedral_group
from burnside.cli import main
from burnside.extension import (
    ExtensionContext,
    extend_classes,
    extension_elements,
    outer_classes,
    rewrap,
    sort_class_reps,
    split_inner_classes,
)
from burnside.groups import (
    CapExceededError,
    PermGroup,
    Subgroup,
    composition_steps,
    normalizer,
    subgroup_class_id,
    trivial_subgroup,
)
from burnside.lattice import (
    all_subgroup_classes_brute,
    subgroup_classes_search,
)
from burnside.perms import conj, order_of, parse_cycles


@pytest.fixture(scope="module")
def s5_ctx(s5, a5):
    return ExtensionContext.create(s5, a5)


@pytest.fixture(scope="module")
def a5_classes(a5, s5):
    return all_subgroup_classes_brute(a5)


def test_context_validation(s5, a5, s4):
    ctx = ExtensionContext.create(s5, a5)
    assert ctx.p == 2
    assert not a5.contains(ctx.t)
    with pytest.raises(ValueError):
        ExtensionContext.create(s5, s5)  # index 1 is not prime
    d8 = CATALOG.group("D8")
    c4sub = PermGroup([parse_cycles("(1,2,3,4)", 4)], 4)
    assert ExtensionContext.create(d8, c4sub).p == 2
    # non-normal subgroup of prime index
    s3_in_s4 = PermGroup([parse_cycles("(1,2)", 4),
                          parse_cycles("(1,2,3)", 4)], 4)
    with pytest.raises(ValueError):
        ExtensionContext.create(s4, PermGroup(
            [parse_cycles("(1,2)", 4), parse_cycles("(1,2,3)", 4)], 4))


def test_split_inner_a5(s5_ctx, a5_classes):
    split = split_inner_classes(a5_classes, s5_ctx)
    assert len(split.classes) == 9
    assert all(c.stable for c in split.classes)
    assert split.raw_fused_count == 0


def test_split_inner_c3_in_s3():
    s3 = CATALOG.group("S3")
    c3 = PermGroup([parse_cycles("(1,2,3)", 3)], 3)
    ctx = ExtensionContext.create(s3, c3)
    classes = [trivial_subgroup(s3),
               Subgroup(s3, [parse_cycles("(1,2,3)", 3)])]
    split = split_inner_classes(classes, ctx)
    assert len(split.classes) == 2 and all(c.stable for c in split.classes)


def test_split_inner_fusion_q8():
    # the three C4 subgroups of Q8 fuse under the index-3 extension SL2(3)
    sl = CATALOG.group("SL2(3)")
    q8_group = None
    for rep in all_subgroup_classes_brute(sl):
        if rep.order == 8:
            q8_group = rep.as_group()
    ctx = ExtensionContext.create(sl, q8_group)
    assert ctx.p == 3
    q8_classes = all_subgroup_classes_brute(q8_group)
    assert len(q8_classes) == 6
    split = split_inner_classes(q8_classes, ctx)
    merged = split.merged_classes
    assert len(merged) == 1 and split.raw_fused_count == 3
    assert merged[0].rep.order == 4
    # the fused classes are pairwise non-conjugate in A but conjugate in S
    fused = [q8_classes[i] for i in merged[0].a_indices]
    from burnside.groups import are_conjugate_subgroups
    for i in range(3):
        for j in range(i + 1, 3):
            assert are_conjugate_subgroups(
                q8_group, rewrap(q8_group, fused[i]),
                rewrap(q8_group, fused[j])) is None
            assert are_conjugate_subgroups(
                sl, rewrap(sl, fused[i]), rewrap(sl, fused[j])) is not None


def test_dichotomy(s4, a4, s5, a5):
    # exactly one of |N_S(H)| = p|N_A(H)| or |[H]_S| = p|[H]_A| per class
    for S, A in ((s4, a4), (s5, a5)):
        ctx = ExtensionContext.create(S, A)
        for H in all_subgroup_classes_brute(A):
            hs = rewrap(S, H)
            ha = rewrap(A, H)
            ns = normalizer(S, hs).order
            na = normalizer(A, ha).order
            len_s = S.order // ns
            len_a = A.order // na
            first = ns == ctx.p * na and len_s == len_a
            second = ns == na and len_s == ctx.p * len_a
            assert first != second


def test_extension_elements_s5(s5_ctx, a5_classes, s5):
    triv = a5_classes[0]
    ts = extension_elements(s5_ctx, rewrap(s5, triv))
    assert len(ts) == 1
    assert order_of(ts[0]) == 2 and not s5_ctx.A.contains(ts[0])
    top = a5_classes[-1]
    assert top.order == 60
    ts_top = extension_elements(s5_ctx, rewrap(s5, top))
    assert len(ts_top) == 1


def test_extension_elements_postconditions(s5_ctx, a5_classes, s5):
    for H in a5_classes:
        hs = rewrap(s5, H)
        for t in extension_elements(s5_ctx, hs):
            assert not s5_ctx.A.contains(t)
            n = order_of(t)
            while n % 2 == 0:
                n //= 2
            assert n == 1, "coset element order is not a 2-power"
            assert all(conj(x, t) in hs for x in hs.gens)


def test_extension_elements_s4_klein(s4, a4):
    ctx = ExtensionContext.create(s4, a4)
    h = Subgroup(s4, [parse_cycles("(1,2)(3,4)", 4)])
    ts = extension_elements(ctx, h)
    assert len(ts) == 2
    orders = sorted(
        Subgroup(s4, h.gens + (t,)).order for t in ts)
    assert orders == [4, 4]


def test_extension_elements_requires_inner(s5_ctx, s5):
    outside = Subgroup(s5, [parse_cycles("(1,2)", 5)])
    with pytest.raises(ValueError):
        extension_elements(s5_ctx, outside)


def test_outer_classes_s5(s5_ctx, a5_classes):
    outs = outer_classes(a5_classes, s5_ctx)
    assert [o.rep.order for o in outs] == [2, 4, 4, 6, 6, 8, 12, 20, 24, 120]
    # intersection with A is the recorded base class
    for o in outs:
        base = a5_classes[o.base_index]
        assert o.rep.order == 2 * base.order
        inter = {x for x in o.rep.elements() if s5_ctx.A.contains(x)}
        assert inter == set(rewrap(s5_ctx.S, base).elements()) \
            or len(inter) == base.order


def test_outer_class_intersections_conjugate(s5_ctx, a5_classes, s5):
    # K cap A must be A-conjugate to the recorded base representative
    from burnside.groups import are_conjugate_subgroups
    for o in outer_classes(a5_classes, s5_ctx):
        inter = frozenset(
            x for x in o.rep.elements() if s5_ctx.A.contains(x))
        gens = sorted(inter)
        isub = Subgroup(s5_ctx.A, gens, elems=inter)
        base = rewrap(s5_ctx.A, a5_classes[o.base_index])
        assert are_conjugate_subgroups(s5_ctx.A, isub, base) is not None


def test_extension_counts_s5(s5_ctx, a5_classes, s5):
    step = extend_classes(a5_classes, s5_ctx)
    assert len(step.reps) == 19
    oracle = all_subgroup_classes_brute(s5)
    assert len(oracle) == 19
    assert sorted(r.order for r in step.reps) == \
        sorted(r.order for r in oracle)


def test_no_cross_color_conjugacy(s5_ctx, a5_classes, s5):
    from burnside.groups import are_conjugate_subgroups
    step = extend_classes(a5_classes, s5_ctx)
    inner = [c.rep for c in step.inner.classes]
    outer = [c.rep for c in step.outer]
    for hi in inner:
        for ko in outer:
            if hi.order == ko.order:
                assert are_conjugate_subgroups(s5, hi, ko) is None


def subgroup_classes_solvable(G):
    """Class transversal of a solvable G: the class step along a
    composition series, starting from the trivial group."""
    classes, A = [trivial_subgroup(G)], PermGroup([], G.degree)
    for S in composition_steps(G):
        classes = extend_classes(sort_class_reps(classes),
                                 ExtensionContext.create(S, A)).reps
        A = S
    return sort_class_reps(classes)


def test_solvable_classes_counts():
    assert len(subgroup_classes_solvable(CATALOG.group("S4"))) == 11
    assert len(subgroup_classes_solvable(CATALOG.group("GL2(3)"))) == 16
    assert len(subgroup_classes_solvable(PermGroup([], 1))) == 1
    assert len(subgroup_classes_solvable(CATALOG.group("C2"))) == 2


@pytest.mark.parametrize("name,want", [
    ("C6", 4), ("C12", 6), ("D8", 8), ("Q8", 6), ("D12", 10), ("A4", 5),
])
def test_solvable_vs_oracle_counts(name, want):
    G = CATALOG.group(name)
    reps = subgroup_classes_solvable(G)
    oracle = all_subgroup_classes_brute(G)
    assert len(reps) == len(oracle) == want
    key = lambda rs: sorted(
        (r.order, G._sub_classes[subgroup_class_id(G, r)].size) for r in rs)
    assert key(reps) == key(oracle)


def test_solvable_vs_oracle_medium():
    for G in (dihedral_group(15), abelian_group((4, 3, 2)),
              dicyclic := _dicyclic12()):
        reps = subgroup_classes_solvable(G)
        oracle = all_subgroup_classes_brute(G)
        key = lambda rs: sorted(
            (r.order, G._sub_classes[subgroup_class_id(G, r)].size)
            for r in rs)
        assert key(reps) == key(oracle)


def _dicyclic12():
    from burnside.catalog import dicyclic_group
    return dicyclic_group(3)


def test_rejects_non_prime_index(s4):
    v4 = PermGroup([parse_cycles("(1,2)(3,4)", 4),
                    parse_cycles("(1,3)(2,4)", 4)], 4)
    with pytest.raises(ValueError):
        ExtensionContext.create(s4, v4)  # index 6


def test_s7_class_counts_slow():
    from burnside.catalog import alternating_group, symmetric_group
    a7 = alternating_group(7)
    classes = all_subgroup_classes_brute(a7, cap=3000)
    assert len(classes) == 40
    s7 = symmetric_group(7)
    ctx = ExtensionContext.create(s7, a7)
    step = extend_classes(sort_class_reps(classes), ctx)
    assert len(step.reps) == 96


def test_one_quotient_cap_governs_the_step_and_the_search(
        s4, a4, monkeypatch, capsys):
    """|N(V4):V4| = 6 in S4: with groups.QUOTIENT_CAP at 3 the extension
    step from A4, the class search and the `subgroups S4` route all
    refuse it, the route with exit 3."""
    a4_classes = subgroup_classes_solvable(a4)
    ctx = ExtensionContext.create(s4, a4)
    monkeypatch.setattr(groups, "QUOTIENT_CAP", 3)
    with pytest.raises(CapExceededError):
        extend_classes(a4_classes, ctx)
    with pytest.raises(CapExceededError):
        subgroup_classes_search(s4)
    capsys.readouterr()
    assert main(["subgroups", "S4"]) == 3
    assert capsys.readouterr().err.startswith("error: ")
