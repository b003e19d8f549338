"""Class-level extension machinery: inner/outer splits, coset elements,
and the solvable driver, cross-checked against the brute oracle."""

import dataclasses

import pytest

from fixtures import conjugated, relabeled

from burnside import extension, groups, lattice
from burnside.catalog import CATALOG, abelian_group, dihedral_group
from burnside.cli import main
from burnside.extension import (
    ExtensionContext,
    InconsistentTableError,
    InnerClass,
    extend_classes,
    extension_elements,
    outer_classes,
    sort_class_reps,
    split_inner_classes,
)
from burnside.groups import (
    CapExceededError,
    PermGroup,
    Subgroup,
    centralizer,
    centralizer_order,
    composition_series,
    element_class_length,
    is_solvable,
    normalizer,
    subgroup_class_id,
    trivial_subgroup,
)
from burnside.lattice import (
    all_subgroup_classes_brute,
    subgroup_classes_search,
)
from burnside.marks import (
    SubgroupPattern,
    extend_table_of_marks,
    solvable_pattern_chain,
)
from burnside.perms import conj, inv, mul, order_of, parse_cycles, power


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


def test_a4_s4_step_above_a_small_cap_gets_every_closure_back(
        s4, a4, monkeypatch):
    """With SET_CAP 8, A4 itself is above the cap: the step conjugates
    its key and joins it to S4 by a chain, so no closure of the step comes
    back empty, and the 11 classes of S4 come out."""
    a_classes = all_subgroup_classes_brute(PermGroup(a4.gens, a4.degree))
    results = []
    real = groups.close_elements

    def spied(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(groups, "close_elements", spied)
    monkeypatch.setattr(groups, "SET_CAP", 8)
    ctx = ExtensionContext.create(PermGroup(s4.gens, s4.degree),
                                  PermGroup(a4.gens, a4.degree))
    step = extend_classes(a_classes, ctx)
    assert sorted(r.order for r in step.reps) == [
        1, 2, 2, 3, 4, 4, 4, 6, 8, 12, 24]
    assert None not in results


def test_a4_s4_step_at_set_cap_3_runs_no_closure(s4, a4, monkeypatch):
    """With SET_CAP 3 every join of the A4 -> S4 step is either a coset
    union of at most 3 elements or has |H| m > 3, so it is known to be
    above the cap and takes a stabilizer chain: the step runs no closure
    at all."""
    a_classes = all_subgroup_classes_brute(PermGroup(a4.gens, a4.degree))
    closures = []
    real = groups.close_elements

    def counted(*args, **kwargs):
        closures.append(real(*args, **kwargs))
        return closures[-1]

    monkeypatch.setattr(groups, "close_elements", counted)
    monkeypatch.setattr(groups, "SET_CAP", 3)
    ctx = ExtensionContext.create(PermGroup(s4.gens, s4.degree),
                                  PermGroup(a4.gens, a4.degree))
    step = extend_classes(a_classes, ctx)
    assert sorted(r.order for r in step.reps) == [
        1, 2, 2, 3, 4, 4, 4, 6, 8, 12, 24]
    assert not closures


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
                q8_group, fused[i], fused[j]) is None
            assert are_conjugate_subgroups(
                sl, fused[i], fused[j]) is not None


def test_dichotomy(s4, a4, s5, a5):
    # exactly one of |N_S(H)| = p|N_A(H)| or |[H]_S| = p|[H]_A| per class
    for S, A in ((s4, a4), (s5, a5)):
        ctx = ExtensionContext.create(S, A)
        for H in all_subgroup_classes_brute(A):
            ns = normalizer(S, H).order
            na = normalizer(A, H).order
            len_s = S.order // ns
            len_a = A.order // na
            first = ns == ctx.p * na and len_s == len_a
            second = ns == na and len_s == ctx.p * len_a
            assert first != second


def test_extension_elements_s5(s5_ctx, a5_classes, s5):
    split = split_inner_classes(a5_classes, s5_ctx)
    triv = split.classes[0]
    ts = extension_elements(s5_ctx, triv)
    assert len(ts) == 1
    assert order_of(ts[0][0]) == 2 and not s5_ctx.A.contains(ts[0][0])
    top = split.classes[-1]
    assert top.rep.order == 60
    ts_top = extension_elements(s5_ctx, top)
    assert len(ts_top) == 1 and ts_top[0][1] == 120


def test_extension_elements_postconditions(s5_ctx, a5_classes, s5):
    for c in split_inner_classes(a5_classes, s5_ctx).classes:
        hs = c.rep
        for t, normalizer_order in extension_elements(s5_ctx, c):
            assert not s5_ctx.A.contains(t)
            n = order_of(t)
            while n % 2 == 0:
                n //= 2
            assert n == 1, "coset element order is not a 2-power"
            assert all(conj(x, t) in hs for x in hs.gens)
            assert normalizer_order == normalizer(s5, hs.join(t)).order


def test_extension_elements_s4_klein(s4, a4):
    ctx = ExtensionContext.create(s4, a4)
    h = Subgroup(s4, [parse_cycles("(1,2)(3,4)", 4)])
    (c,) = split_inner_classes([h], ctx).classes
    ts = extension_elements(ctx, c)
    assert len(ts) == 2
    orders = sorted(
        Subgroup(s4, h.gens + (t,)).order for t, _ in ts)
    assert orders == [4, 4]
    # <(1,2)(3,4), (1,2)> and <(1,3,2,4)> both have a D8 as normalizer
    assert [n for _, n in ts] == [8, 8]


def test_extension_elements_requires_inner(s5_ctx, s5):
    outside = Subgroup(s5, [parse_cycles("(1,2)", 5)])
    with pytest.raises(ValueError):
        extension_elements(s5_ctx, InnerClass(
            rep=outside, a_indices=(0,), normalizer_order=12))


def test_outer_classes_s5(s5_ctx, a5_classes):
    outs = outer_classes(split_inner_classes(a5_classes, s5_ctx), s5_ctx)
    assert [o.rep.order for o in outs] == [2, 4, 4, 6, 6, 8, 12, 20, 24, 120]
    # intersection with A is the recorded base class
    for o in outs:
        base = a5_classes[o.base_index]
        assert o.rep.order == 2 * base.order
        inter = {x for x in o.rep.elements() if s5_ctx.A.contains(x)}
        assert inter == set(base.elements()) \
            or len(inter) == base.order


def test_outer_class_intersections_conjugate(s5_ctx, a5_classes, s5):
    # K cap A must be A-conjugate to the recorded base representative
    from burnside.groups import are_conjugate_subgroups
    for o in outer_classes(split_inner_classes(a5_classes, s5_ctx),
                           s5_ctx):
        inter = frozenset(
            x for x in o.rep.elements() if s5_ctx.A.contains(x))
        gens = sorted(inter)
        isub = Subgroup(s5_ctx.A, gens, elems=inter)
        base = a5_classes[o.base_index]
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
    for S in composition_series(G):
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


def test_a_transversal_missing_a_fused_partner_is_inconsistent():
    """Q8 -> SL2(3) fuses the three C4 classes; without one of them the
    other two have no partner in the transversal."""
    sl = relabeled("SL2(3)", 0)
    q8 = next(rep for rep in all_subgroup_classes_brute(sl)
              if rep.order == 8).as_group()
    ctx = ExtensionContext.create(sl, q8)
    q8_classes = all_subgroup_classes_brute(q8)
    (merged,) = split_inner_classes(q8_classes, ctx).merged_classes
    broken = [H for i, H in enumerate(q8_classes) if i != merged.a_indices[1]]
    with pytest.raises(InconsistentTableError,
                       match="inconsistent class fusion"):
        split_inner_classes(broken, ctx)


@pytest.mark.parametrize("same_handle", [True, False])
def test_conjugate_representatives_are_inconsistent(same_handle):
    """C2^2 -> C2^3 is all-normal, so only the split keys the A-classes:
    class 1 of the C2^2 pattern listed twice, as one handle or as two
    handles on one subgroup, is refused, not extended to 19 classes."""
    G = abelian_group((2, 2, 2))
    pa = solvable_pattern_chain(G)[-2]
    assert [c.order for c in pa.classes] == [1, 2, 2, 2, 4]
    c = pa.classes[1]
    twin = c if same_handle else dataclasses.replace(
        c, rep=Subgroup(pa.group, c.rep.gens))
    idx = [0, 1, 1, 2, 3, 4]
    doubled = SubgroupPattern(
        group=pa.group, classes=pa.classes[:2] + [twin] + pa.classes[2:],
        rows=[[pa.cell(idx[i], idx[j]) for j in range(i + 1)]
              for i in range(len(idx))])
    with pytest.raises(InconsistentTableError,
                       match="input classes 1 and 2 are conjugate in A"):
        extend_table_of_marks(doubled, G)


def test_missing_cyclic_class_is_inconsistent():
    """C2^2 -> C2^3 keys only the A-classes it is given, so the class
    step cannot see class 1 of the C2^2 pattern missing (it used to give
    13 classes of C2^3, not 16): the cyclic classes left hold 3 of the 4
    elements of C2^2, and the engine refuses the input."""
    G = abelian_group((2, 2, 2))
    pa = solvable_pattern_chain(G)[-2]
    idx = [0, 2, 3, 4]
    missing = SubgroupPattern(
        group=pa.group, classes=[pa.classes[i] for i in idx],
        rows=[[pa.cell(idx[i], idx[j]) for j in range(i + 1)]
              for i in range(len(idx))])
    assert len(extend_classes([c.rep for c in missing.classes],
                              ExtensionContext.create(G, pa.group)).reps) == 13
    with pytest.raises(InconsistentTableError,
                       match="cyclic classes hold 3 elements of A, not 4"):
        extend_table_of_marks(missing, G)


# ---------------------------------------------------------------------------
# S-normalizers of the class step against full walks of the classes of S


def full_walk_normalizer(S, H):
    """N_S(H) as the class step took it before it read orders off A:
    S itself for a normal H, else the whole class of H walked from H and
    the Schreier generators over that walk up to |S| / (class length).
    The class cache of S is not touched."""
    if H.is_normal_in(S):
        return S.as_subgroup()
    fp = S.subgroup_key(H)
    tree = groups.orbit([fp], range(len(S.gens)), S.conj_index_set)
    known = {fp: S.identity}
    target = S.order // len(tree)
    gens = list(H.gens)
    sub = PermGroup(gens, S.degree)
    for key in tree:
        if sub.order == target:
            break
        u = groups.path_product(tree, key, S.gens, known)
        for k, s in enumerate(S.gens):
            v = groups.path_product(
                tree, S.conj_index_set(key, k), S.gens, known)
            sg = mul(mul(u, s), inv(v))
            if not sub.contains(sg):
                gens.append(sg)
                sub = PermGroup(gens, S.degree)
                if sub.order == target:
                    break
    return Subgroup(S, gens)


def spied_step(A, S, a_classes):
    """The class step, and the generators of each N_S(H) it hands to
    quotient_classes, in call order."""
    handed = []
    real = extension.quotient_classes

    def spy(N, H, primes):
        handed.append(N.gens)
        return real(N, H, primes)

    extension.quotient_classes = spy
    try:
        step = extend_classes(a_classes, ExtensionContext.create(S, A))
    finally:
        extension.quotient_classes = real
    return step, handed


def check_against_full_walks(A, S, a_classes, step, handed):
    """Stable flags, inner and outer normalizer orders, and the
    generators handed to quotient_classes, as full walks give them."""
    p = S.order // A.order
    norms = [full_walk_normalizer(S, H) for H in a_classes]
    stable = [not all(A.contains(g) for g in N.gens) for N in norms]
    for c in step.inner.classes:
        assert [stable[i] for i in c.a_indices] == [c.stable] * len(
            c.a_indices)
        assert c.normalizer_order == norms[c.a_indices[0]].order
    assert sorted(i for c in step.inner.classes for i in c.a_indices) == \
        list(range(len(a_classes)))
    sylow = A.order % p != 0
    assert handed == [N.gens for H, N, s in zip(a_classes, norms, stable)
                      if s and not (sylow and H.order == 1)]
    for oc in step.outer:
        assert oc.normalizer_order == full_walk_normalizer(S, oc.rep).order
        if sylow and oc.rep.order == p:
            assert oc.normalizer_order == sylow_reference(S, oc.gen_element)


def sylow_reference(S, t):
    """|C_S(t)| as the step took it for the Sylow class <t> before it
    read C_A(t) off A's zuppos: |S| over the class of t walked in S."""
    return S.order // element_class_length(S, t)


def element_class_reps(G):
    """One element of each conjugacy class of G, by full element walks."""
    seen, reps = set(), []
    for x in G.elements():
        if x not in seen:
            reps.append(x)
            seen.update(groups.orbit([x], G.gen_conj(), groups._apply))
    return reps


@pytest.mark.parametrize("name", ["S4", "S5", "GL2(3)", "A6"])
def test_zuppos_centralized_by_x_span_its_centralizer(name):
    """The zuppos of G that x centralizes span C_G(x), for every class
    representative x: no coprimality of x to |G| is assumed.  The
    order is checked against ``centralizer`` and against a count."""
    G = CATALOG.group(name)
    for x in element_class_reps(G):
        want = sum(mul(x, y) == mul(y, x) for y in G.elements())
        assert centralizer_order(G, x) == centralizer(G, x).order == want


SOLVABLE = [entry.name for entry in CATALOG.entries.values()
            if CATALOG.group(entry.name).order <= 5000
            and is_solvable(CATALOG.group(entry.name))]


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("name", SOLVABLE)
def test_class_step_normalizers_match_full_walks_on_chains(name, seed):
    G = relabeled(name, seed)
    A, classes = PermGroup([], G.degree), [trivial_subgroup(G)]
    for S in composition_series(G):
        step, handed = spied_step(A, S, classes)
        check_against_full_walks(A, S, classes, step, handed)
        A, classes = S, sort_class_reps(step.reps)


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("a_name,s_name",
                         [("A4", "S4"), ("A5", "S5"), ("A6", "S6")])
def test_class_step_normalizers_match_full_walks(a_name, s_name, seed):
    A, S = relabeled(a_name, seed), relabeled(s_name, seed)
    a_classes = all_subgroup_classes_brute(A)
    check_against_full_walks(A, S, a_classes, *spied_step(A, S, a_classes))


@pytest.fixture(scope="module")
def l2_32_step():
    """The L2(32) class search, then the step to L2(32):5, with the class
    counts of both groups right after the step, the generator lists of
    the orbits the step walked (``element_class_length`` and
    ``centralizer`` walk by ``groups.orbit``), and the (numbering,
    element) pairs it classified."""
    A, S = relabeled("L2(32)", 0), relabeled("L2(32):5", 0)
    a_classes = sort_class_reps(subgroup_classes_search(A))
    searched = len(A._sub_classes)
    walked, classified = [], []
    real_orbit, real_classify = groups.orbit, groups._Numbering._classify

    def orbit_spy(seeds, gens, act, involutions=()):
        walked.append(gens)
        return real_orbit(seeds, gens, act, involutions)

    def classify_spy(num, x):
        classified.append((num, x))
        real_classify(num, x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groups, "orbit", orbit_spy)
        mp.setattr(groups._Numbering, "_classify", classify_spy)
        step, handed = spied_step(A, S, a_classes)
    counts = (searched, len(A._sub_classes), len(S._sub_classes))
    return A, S, a_classes, step, handed, counts, (walked, classified)


def test_l2_32_5_step_walks_no_class_of_s(l2_32_step):
    *_, step, _, (searched, after, s_classes), _ = l2_32_step
    assert len(step.reps) == 30
    assert (len(step.inner.classes), len(step.inner.stable_classes),
            step.inner.raw_fused_count) == (16, 14, 10)
    assert s_classes == 0 and after == searched == 24


def test_l2_32_5_step_walks_no_element_orbit_and_numbers_a_once(
        l2_32_step, monkeypatch):
    """The step conjugates no element of S around a class (the Sylow
    class's C_S(t) is read off A's zuppos), and S's numbering starts as
    a copy of A's: no element of A is classified again, each zuppo of A
    keeps its id, and numbering an element outside A leaves A's
    numbering as it was."""
    A, S, *_, (walked, classified) = l2_32_step
    num = S._numbering
    assert walked and all(gens is not num.conj for gens in walked)
    assert not [x for n, x in classified if n is num and A.contains(x)]
    again = []
    monkeypatch.setattr(groups._Numbering, "_classify",
                        lambda n, x: again.append(x))
    a_num = A._numbering
    assert all(num.number(x) == a_num.number(x) for x in a_num.gen)
    assert again == [] and num.index is not a_num.index
    monkeypatch.undo()
    before = dict(a_num.index), list(a_num.gen)
    t = next(g for g in S.gens if not A.contains(g))
    x = next(y for y in (mul(z, t) for z in a_num.gen)
             if y not in num.index)
    num.number(x)
    assert x in num.index and (a_num.index, a_num.gen) == before


def test_l2_32_5_step_normalizers_match_full_walks(l2_32_step):
    A, S, a_classes, step, handed, *_ = l2_32_step
    check_against_full_walks(A, S, a_classes, step, handed)


# ---------------------------------------------------------------------------
# the one-pass class step against the two-pass step it replaced, which
# decided the stability of each A-class in the split and again in
# extension_elements


def two_pass_inner_normalizer_order(ctx, H):
    """Whether H (inside A) is stable, and |N_S(H)|, from A's classes:
    H is stable when H^t lies in H's A-class, and N_S(H) then leaves A,
    of order p |N_A(H)|; otherwise N_S(H) is N_A(H)."""
    A = ctx.A
    cid = subgroup_class_id(A, H)
    order = A.order // A._sub_classes[cid].size
    if subgroup_class_id(A, conjugated(H, ctx.t)) == cid:
        return True, ctx.p * order
    return False, order


def two_pass_split(a_classes, ctx):
    A, p = ctx.A, ctx.p
    norms = [two_pass_inner_normalizer_order(ctx, H) for H in a_classes]
    unstable_idx = [i for i, (stable, _) in enumerate(norms) if not stable]
    a_cid_of = {subgroup_class_id(A, a_classes[i]): i for i in unstable_idx}
    assigned = set()
    classes = []
    for i, H in enumerate(a_classes):
        stable, order = norms[i]
        if stable:
            classes.append(InnerClass(
                rep=H, a_indices=(i,), normalizer_order=order))
            continue
        if i in assigned:
            continue
        partners = [i]
        g = ctx.t
        for _ in range(p - 1):
            cid = subgroup_class_id(A, conjugated(H, g))
            j = a_cid_of.get(cid)
            if j is None or j in assigned or j in partners:
                raise InconsistentTableError("inconsistent class fusion")
            partners.append(j)
            g = mul(g, ctx.t)
        assigned.update(partners)
        classes.append(InnerClass(
            rep=H, a_indices=tuple(partners), normalizer_order=order))
    return extension.InnerSplit(classes=classes)


def two_pass_extension_elements(ctx, H):
    S, A, p = ctx.S, ctx.A, ctx.p
    stable, order = two_pass_inner_normalizer_order(ctx, H)
    if not stable:
        return []
    if H.order == 1 and A.order % p:
        t = power(ctx.t, order_of(ctx.t) // p)
        return [(t, S.order // len(groups.orbit(
            [t], S.gen_conj(), lambda x, c: c(x))))]
    N = normalizer(S, H, order)
    W, lift = groups.quotient_group(N.as_group(), H)
    out = []
    for w, size in groups.rational_classes(W, p):
        if A.contains(lift(w)):
            continue
        t0 = lift(w)
        q = order_of(t0)
        while q % p == 0:
            q //= p
        out.append((power(t0, q), (p - 1) * order // size))
    out.sort(key=lambda pair: order_of(pair[0]))
    return out


def two_pass_step(a_classes, ctx):
    outer = [extension.OuterClass(rep=H.join(t), base_index=i,
                                  gen_element=t, normalizer_order=n)
             for i, H in enumerate(a_classes)
             for t, n in two_pass_extension_elements(ctx, H)]
    outer.sort(key=lambda o: o.rep.order)
    return extension.StepClasses(inner=two_pass_split(a_classes, ctx),
                                 outer=outer)


def step_fields(step):
    return ([(c.rep, c.a_indices, c.normalizer_order)
             for c in step.inner.classes],
            [(o.rep.gens, o.rep.order, o.base_index, o.gen_element,
              o.normalizer_order) for o in step.outer])


def counted_step(A, S, a_classes):
    """The class step, and the number of key conjugations
    (``PermGroup.conjugate_key``) it makes."""
    calls = []
    real = PermGroup.conjugate_key
    with pytest.MonkeyPatch.context() as m:
        m.setattr(PermGroup, "conjugate_key",
                  lambda G, key, g: calls.append(g) or real(G, key, g))
        step = extend_classes(a_classes, ExtensionContext.create(S, A))
    return step, len(calls)


def check_key_conjugation(ctx, a_classes):
    """For every A-class representative H and every t^k, 0 < k < p, the
    key conjugation in A's numbering gives the key of the handle H^(t^k)
    built from scratch."""
    A, g = ctx.A, ctx.t
    for _ in range(ctx.p - 1):
        for H in a_classes:
            assert A.conjugate_key(A.subgroup_key(H), g) == \
                A.subgroup_key(conjugated(H, g))
        g = mul(g, ctx.t)


def check_one_pass_step(A, S, a_classes):
    """The step equals the two-pass step field by field, in order, and
    conjugates a key once per stable class and p - 1 times per merged
    one; each key conjugation is the key of the conjugated handle."""
    step, conjugations = counted_step(A, S, a_classes)
    ctx = ExtensionContext.create(S, A)
    assert step_fields(step) == step_fields(two_pass_step(a_classes, ctx))
    check_key_conjugation(ctx, a_classes)
    inner = step.inner
    assert conjugations == (len(inner.stable_classes)
                            + (ctx.p - 1) * len(inner.merged_classes))
    return step


@pytest.mark.parametrize("G,shapes", [
    (relabeled("S4", 0), [(2, 0), (2, 0), (3, 1), (2, 0)]),
    (relabeled("GL2(3)", 0), [(2, 0), (2, 0), (2, 0), (3, 1), (2, 0)]),
    (relabeled("D12", 0), [(3, 0), (2, 0), (2, 0)]),
    (abelian_group((2, 2, 2, 2)), [(2, 0)] * 4),
    (relabeled("SL2(3)", 0), [(2, 0), (2, 0), (2, 0), (3, 1)])],
    ids=["S4", "GL2(3)", "D12", "C2^4", "SL2(3)"])
def test_one_pass_class_step_matches_two_pass_on_chains(G, shapes):
    """Every step of the chain; ``shapes`` lists (p, merged classes) per
    step, so V4 -> A4 and Q8 -> SL2(3) are steps with p = 3 and fusion."""
    A, classes = PermGroup([], G.degree), [trivial_subgroup(G)]
    seen = []
    for S in composition_series(G):
        step = check_one_pass_step(A, S, classes)
        seen.append((S.order // A.order, len(step.inner.merged_classes)))
        A, classes = S, sort_class_reps(step.reps)
    assert seen == shapes


@pytest.mark.parametrize("a_name,s_name", [("A5", "S5"), ("A6", "S6")])
def test_one_pass_class_step_matches_two_pass(a_name, s_name):
    A, S = relabeled(a_name, 0), relabeled(s_name, 0)
    check_one_pass_step(A, S, all_subgroup_classes_brute(A))


def test_one_pass_class_step_matches_two_pass_l2_32_5(l2_32_step):
    A, S, a_classes, *_ = l2_32_step
    step = check_one_pass_step(A, S, a_classes)
    assert len(step.inner.merged_classes) == 2


# ---------------------------------------------------------------------------
# the order-p classes of N/H, read off one coset walk, against the regular
# quotient W = N/H that quotient_group builds


def regular_quotient_classes(N, H, primes):
    """``quotient_classes`` as W gives it: the rational classes of the
    regular quotient ``quotient_group``, each lifted to N."""
    W, lift = groups.quotient_group(N.as_group(), H)
    return {q: [(lift(w), size) for w, size in groups.rational_classes(W, q)]
            for q in primes}


def chain_steps(G, series=None):
    """The class step along G's composition series (``series``, or one
    made here), from the trivial group."""
    A, classes = PermGroup([], G.degree), [trivial_subgroup(G)]
    for S in composition_series(G) if series is None else series:
        step = extend_classes(classes, ExtensionContext.create(S, A))
        A, classes = S, sort_class_reps(step.reps)


def searched_step(a_name, s_name, seed):
    """The class search (L2(32)) or oracle of A, then the class step."""
    A, S = relabeled(a_name, seed), relabeled(s_name, seed)
    a_classes = (subgroup_classes_search(A) if a_name == "L2(32)"
                 else all_subgroup_classes_brute(A))
    extend_classes(sort_class_reps(a_classes), ExtensionContext.create(S, A))


QUOTIENT_RUNS = (
    [(name, lambda seed, n=name: chain_steps(relabeled(n, seed)))
     for name in SOLVABLE]
    + [("C2^5", lambda seed: chain_steps(
        relabeled(abelian_group((2,) * 5), seed)))]
    + [(f"{a}->{s}", lambda seed, a=a, s=s: searched_step(a, s, seed))
       for a, s in [("A5", "S5"), ("A6", "S6"), ("L2(32)", "L2(32):5")]])


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("run", [run for _, run in QUOTIENT_RUNS],
                         ids=[name for name, _ in QUOTIENT_RUNS])
def test_quotient_classes_match_the_regular_quotient(run, seed, monkeypatch):
    """Every (N, H) that the class step and the class search hand to
    ``quotient_classes`` gets the lifted rational classes of the regular
    quotient, equal pairs in equal order, at every prime asked."""
    calls, real = [], groups.quotient_classes

    def spy(N, H, primes):
        out = real(N, H, primes)
        calls.append((N, H, tuple(primes), out))
        return out

    monkeypatch.setattr(extension, "quotient_classes", spy)
    monkeypatch.setattr(lattice, "quotient_classes", spy)
    run(seed)
    monkeypatch.undo()
    for N, H, primes, out in calls:
        assert out == regular_quotient_classes(N, H, primes)


@pytest.mark.parametrize("run", [run for name, run in QUOTIENT_RUNS
                                 if name in ("GL2(3)", "L2(32)->L2(32):5")],
                         ids=["GL2(3)", "L2(32)->L2(32):5"])
def test_quotient_classes_meet_every_case(run, monkeypatch):
    """The reference sweep above meets all three cases on the GL2(3)
    chain and on the L2(32) search and step: a trivial H, an H of prime
    index q in N, and the coset walk."""
    cases, real = [], groups.quotient_classes

    def spy(N, H, primes):
        cases.append("trivial" if H.order == 1 else "prime"
                     if N.order // H.order in primes else "walk")
        return real(N, H, primes)

    monkeypatch.setattr(extension, "quotient_classes", spy)
    monkeypatch.setattr(lattice, "quotient_classes", spy)
    run(0)
    assert {"trivial", "prime", "walk"} <= set(cases)


def test_quotient_classes_of_a_trivial_subgroup_are_the_groups_own(s4):
    """For a trivial H, W is N: the pairs are N's rational classes, the
    identity lift."""
    N, H = s4.as_subgroup(), trivial_subgroup(s4)
    got = groups.quotient_classes(N, H, (2, 3))
    assert got == {q: groups.rational_classes(s4, q) for q in (2, 3)}
    assert got == regular_quotient_classes(N, H, (2, 3))
    assert [size for _, size in got[2]] == [6, 3]
    assert [size for _, size in got[3]] == [8]


def test_quotient_classes_of_prime_index_are_one_class(s4):
    """|N:H| = q: W is cyclic of order q, one class of q - 1 elements
    lifted to N's first generator outside H, along which the coset walk
    leaves H first; a prime not dividing |N:H| has no class."""
    a4 = Subgroup(s4, [parse_cycles("(1,2,3)", 4),
                       parse_cycles("(1,2)(3,4)", 4)])
    v4 = Subgroup(s4, [parse_cycles("(1,2)(3,4)", 4),
                       parse_cycles("(1,3)(2,4)", 4)])
    cases = [(s4.as_subgroup(), a4, 2), (a4, v4, 3)]
    want = [regular_quotient_classes(N, H, (2, 3)) for N, H, _ in cases]
    for (N, H, q), pairs in zip(cases, want):
        got = groups.quotient_classes(N, H, (2, 3))
        t = next(g for g in N.gens if g not in H)
        assert got == pairs
        assert got[q] == [(t, q - 1)] and got[5 - q] == []


def test_quotient_classes_refuse_a_subgroup_that_is_not_normal(s4):
    d8 = Subgroup(s4, [parse_cycles("(1,2,3,4)", 4),
                       parse_cycles("(1,3)", 4)])
    with pytest.raises(ValueError):
        groups.quotient_classes(s4.as_subgroup(), d8, (2,))


def spied_coset_actions(monkeypatch) -> list:
    """Record every ``coset_action`` and ``quotient_group`` call, and
    count the coset walks (``_coset_walk``) under the name "walk"."""
    calls = []
    for name in ("coset_action", "quotient_group", "_coset_walk"):
        real = getattr(groups, name)

        def spy(*args, real=real, name=name):
            calls.append("walk" if name == "_coset_walk" else name)
            return real(*args)
        monkeypatch.setattr(groups, name, spy)
    return calls


@pytest.mark.parametrize("G", [CATALOG.group("GL2(3)"),
                               abelian_group((2,) * 5)],
                         ids=["GL2(3)", "C2^5"])
def test_the_chain_steps_build_no_coset_action(G, monkeypatch):
    """The composition series of the chain-c2x5 groups and their class
    steps build no coset action and no quotient group: the steps read
    the order-p classes off coset walks."""
    calls = spied_coset_actions(monkeypatch)
    chain_steps(G, composition_series(G))
    assert "walk" in calls and set(calls) == {"walk"}


def test_the_l2_32_search_and_step_build_no_coset_action(monkeypatch):
    A, S = relabeled("L2(32)", 0), relabeled("L2(32):5", 0)
    calls = spied_coset_actions(monkeypatch)
    a_classes = subgroup_classes_search(A)
    assert "walk" in calls and set(calls) == {"walk"}
    calls.clear()
    extend_classes(sort_class_reps(a_classes), ExtensionContext.create(S, A))
    assert "walk" in calls and set(calls) == {"walk"}
