"""Marks engine: the defining count, quarters, candidate propagation,
Dress machinery, incidence probes, and the assembled tables."""

import functools
import math
import random
import re
from collections import Counter
from itertools import product

import pytest

from fixtures import (
    BENCH_ROWS,
    FIG_A5,
    FIG_S5,
    GL23_PANELS,
    conjugated,
    key_elements,
    relabeled,
    spy_dress_builds,
)

from burnside import groups, lattice, marks
from burnside.catalog import (
    CATALOG,
    abelian_group,
    alternating_group,
    cyclic_group,
    l2_32_generators,
    symmetric_group,
)
from burnside.groups import (
    Subgroup,
    centralizer,
    coset_transversal,
    element_class_length,
    normalizer,
    orbit,
    path_product,
    trivial_subgroup,
)
from burnside.lattice import (
    DEFAULT_CAP,
    all_subgroup_classes_brute,
    compare_patterns,
    subgroup_classes_search,
    table_of_marks_brute,
)
from burnside.marks import (
    DressRow,
    InconsistentTableError,
    MarksExtender,
    RowState,
    SubgroupPattern,
    extend_table_of_marks,
    incidence_probe,
    mark_fixed_cosets,
    mark_row,
    solvable_pattern_chain,
    trivial_pattern,
    validate_pattern,
    verify_dress,
)
from burnside.perms import conj, conj_by, inv, parse_cycles


def _sub(G, *cycles):
    return Subgroup(G, [parse_cycles(c, G.degree) for c in cycles])


# ---------------------------------------------------------------------------
# the defining mark


def test_mark_whole_group(s4):
    whole = Subgroup(s4, s4.gens)
    for H in all_subgroup_classes_brute(s4):
        assert mark_fixed_cosets(s4, whole, H) == 1


def test_mark_regular(s4):
    triv = trivial_subgroup(s4)
    assert mark_fixed_cosets(s4, triv, triv) == 24


def test_mark_a5_d10_c5(a5):
    d10 = _sub(a5, "(1,2,3,4,5)", "(2,5)(3,4)")
    c5 = _sub(a5, "(1,2,3,4,5)")
    assert d10.order == 10 and c5.order == 5
    assert mark_fixed_cosets(a5, d10, c5) == 1


def test_mark_against_incidence_formula(s4):
    # |N(K):K| * #conjugates of K containing H, counted by brute force
    reps = all_subgroup_classes_brute(s4)
    from burnside.perms import conj
    for K in reps:
        conjugates = {frozenset(conj(x, g) for x in K.elements())
                      for g in s4.elements()}
        nk = normalizer(s4, K).order // K.order
        for H in reps:
            cnt = sum(1 for c in conjugates
                      if all(g in c for g in H.gens))
            assert mark_fixed_cosets(s4, K, H) == nk * cnt


def _keys(G, Hs):
    """The class keys ``mark_row`` takes for the subgroups ``Hs``."""
    return [G.subgroup_key(H) for H in Hs]


def _coset_count_row(G, K, Hs):
    """Reference marks of ``Hs`` on G/K, counted over an explicit coset
    transversal: a coset Kg is fixed by H exactly when g H g^-1 lies in
    K, tested on H's generators through one map x -> g x g^-1 per
    transversal element."""
    conjugators = [conj_by(inv(g)) for g in coset_transversal(G, K)]
    return [0 if K.order % H.order
            else sum(all(c(h) in K for h in H.gens) for c in conjugators)
            for H in Hs]


ORACLE_GROUPS = [name for name in (e.name for e in CATALOG.entries.values())
                 if CATALOG.group(name).order <= DEFAULT_CAP]


@pytest.mark.parametrize("name", ORACLE_GROUPS)
def test_mark_row_matches_each_cell(name, monkeypatch):
    """The oracle builds no coset transversal, and every cell of its
    table equals the coset count.  So do the full rows of a conjugate
    K^g against conjugates H^h, which are no class representatives
    wherever the class has other members."""
    G = CATALOG.get(name).build()
    built = []

    def counted(*args):
        built.append(args)
        return coset_transversal(*args)

    monkeypatch.setattr(groups, "coset_transversal", counted)
    pat = table_of_marks_brute(G)
    assert not built
    monkeypatch.undo()
    rng = random.Random(f"conjugates of {name}")
    elems = sorted(G.elements())

    def moved(H, length):
        Hg = conjugated(H, rng.choice(elems))
        while length > 1 and Hg.same_subgroup(H):
            Hg = conjugated(H, rng.choice(elems))
        return Hg

    Hs = [c.rep for c in pat.classes]
    Hh = [moved(c.rep, c.length) for c in pat.classes]
    for i, ki in enumerate(pat.classes):
        assert pat.rows[i] == _coset_count_row(G, ki.rep, Hs[:i + 1])
        Kg = moved(ki.rep, ki.length)
        assert mark_row(G, Kg, _keys(G, Hh)) == _coset_count_row(G, Kg, Hh)


def test_oracle_rows_key_each_class_a_bounded_number_of_times(monkeypatch):
    """The rows of the S6 oracle key each representative once for the
    table and look up the class of each K per row, not per cell: the
    keys made grow linearly with the class count, and every cell is the
    coset count."""
    G = CATALOG.get("S6").build()
    reps = all_subgroup_classes_brute(G)
    monkeypatch.setattr(lattice, "all_subgroup_classes_brute",
                        lambda G, cap: reps)
    keyed = []
    key = groups.PermGroup.subgroup_key

    def spy(self, H):
        keyed.append(H)
        return key(self, H)

    monkeypatch.setattr(groups.PermGroup, "subgroup_key", spy)
    pat = table_of_marks_brute(G)
    monkeypatch.undo()
    n = len(reps)
    assert n == pat.n == 56
    assert len(keyed) <= 3 * n
    for i, ki in enumerate(pat.classes):
        assert pat.rows[i] == _coset_count_row(
            G, ki.rep, [c.rep for c in pat.classes[:i + 1]])


def _class_id_calls(monkeypatch) -> list:
    """Every ``subgroup_class_id`` call the marks module makes."""
    calls = []
    real = marks.subgroup_class_id
    monkeypatch.setattr(marks, "subgroup_class_id",
                        lambda *args: calls.append(args) or real(*args))
    return calls


def test_mark_row_classifies_k_once_per_row(monkeypatch):
    """A row looks up K's class once, for its diagonal and its
    conjugates alike; given the class id it looks up nothing, and the
    oracle classifies each representative once for the whole table."""
    G = CATALOG.get("S5").build()
    reps = all_subgroup_classes_brute(G)
    keys = _keys(G, reps)
    calls = _class_id_calls(monkeypatch)
    rows = [mark_row(G, rep, keys[:i + 1]) for i, rep in enumerate(reps)]
    assert len(calls) == len(reps)
    cids = [groups.subgroup_class_id(G, rep) for rep in reps]
    calls.clear()
    assert [mark_row(G, rep, keys[:i + 1], cid)
            for i, (rep, cid) in enumerate(zip(reps, cids))] == rows
    assert calls == []
    monkeypatch.setattr(lattice, "all_subgroup_classes_brute",
                        lambda G, cap: reps)
    monkeypatch.setattr(lattice, "subgroup_class_id",
                        marks.subgroup_class_id)
    pat = table_of_marks_brute(G)
    assert len(calls) == len(reps) and pat.rows == rows


def test_probe_one_classifies_k_once_per_probe(monkeypatch):
    """S6 from the A6 oracle makes its four probes with one class
    lookup of K each, however many candidate columns it weighs."""
    base = table_of_marks_brute(CATALOG.group("A6"))
    calls = _class_id_calls(monkeypatch)
    per_probe = []
    real = MarksExtender.probe_one

    def probe(self, st):
        before = len(calls)
        real(self, st)
        per_probe.append(len(calls) - before)

    monkeypatch.setattr(MarksExtender, "probe_one", probe)
    pat = extend_table_of_marks(base, CATALOG.get("S6").build())
    assert pat.stats.probes == 4 and per_probe == [1] * 4


def test_mark_row_above_set_cap_in_l2_32_5():
    """L2(32) is above SET_CAP and normal in L2(32):5: its row is
    decided by containment, and its probes return it or nothing."""
    G = CATALOG.get("L2(32):5").build()
    K = Subgroup(G, CATALOG.group("L2(32)").gens)
    assert K.order == 32736
    assert mark_row(G, K, _keys(G, [trivial_subgroup(G), K])) == [5, 5]
    inside = K.gens[0]
    outside = next(g for g in G.gens if g not in K)
    assert incidence_probe(G, K, inside) == [G.subgroup_key(K)]
    assert incidence_probe(G, K, outside) == []


def _l2_32_counted_table():
    """The table of L2(32) counted by ``mark_row`` on the classes of the
    search."""
    A = CATALOG.get("L2(32)").build()
    return marks.counted_pattern(A, subgroup_classes_search(A))


def test_l2_32_5_marks_step_from_the_counted_table(monkeypatch):
    """The paper's largest example: L2(32):5 from the counted table of
    L2(32).  Its Dress rows include L2(32) itself, above SET_CAP, joined
    once per class of cyclic subgroups of S outside it.  Validating
    the result builds no row the step built: only those of the two inner
    classes merged from five classes of L2(32), which the step skips."""
    base = _l2_32_counted_table()
    assert base.n == 24
    S = CATALOG.get("L2(32):5").build()
    ext = MarksExtender(base, S)
    pat = ext.solve()
    assert pat.n == 30 and pat.stats.probes == 0
    built = spy_dress_builds(monkeypatch)
    assert validate_pattern(pat) == []
    merged = [c.rep for c in ext.inner if not c.stable]
    assert sorted(built) == sorted(
        (id(S), groups.subgroup_class_id(S, U)) for U in merged)
    assert len(merged) == 2


def test_c2_x_l2_32_central_row_builds_no_quotient(monkeypatch):
    """The central C2 of C2 x L2(32) (order 65 472) has N = S, and its
    32 736 cosets are counted by the class of the join with no quotient,
    whose regular coset action would hold over 16 GB: C2 x C for each
    class of cyclic subgroups C of L2(32), of orders 1, 2, 3, 11, 33
    and 31, phi(|C|) times the class length.  A coset action of a
    group above SET_CAP raises, so an |N:U|^2 path fails fast."""
    z = parse_cycles("(34,35)", 35)
    S = groups.PermGroup([g + (33, 34) for g in l2_32_generators()] + [z],
                         35)
    real = groups.coset_action

    def refused(G, H, order=None):
        if G.order > groups.SET_CAP:
            raise AssertionError(f"coset action of order {G.order}")
        return real(G, H, order)

    monkeypatch.setattr(groups, "coset_action", refused)
    counts = groups.cyclic_joins(S, S.as_subgroup(), Subgroup(S, [z]))
    assert S.order == 65472
    assert sorted(c for _, c in counts) == [
        1, 992, 1023, 4960, 9920, 15840]


def test_l2_32_5_step_lists_no_element_of_a_group_above_set_cap(
        monkeypatch):
    """The L2(32):5 step and the validation of its table build no
    element list of a group above SET_CAP and no coset transversal:
    the Dress rows of the trivial subgroup and of L2(32) both read the
    certified cyclic classes of S.  The rows are those of one join per
    element of S: the trivial row counts the elements of S by the class
    of the cyclic subgroup they generate, modulo |S|, and the row of
    L2(32) counts its own 32 736 elements and S's 130 944 others, over
    |L2(32)|: itself once and S four times, modulo 5."""
    base = _l2_32_counted_table()
    S = CATALOG.get("L2(32):5").build()
    listed, cosets = [], []
    real_elements = groups.PermGroup.elements

    def elements(G):
        if G.order > groups.SET_CAP:
            listed.append(G.order)
        return real_elements(G)

    def transversal(*args):
        cosets.append(args)
        return coset_transversal(*args)

    monkeypatch.setattr(groups.PermGroup, "elements", elements)
    monkeypatch.setattr(groups, "coset_transversal", transversal)
    pat = MarksExtender(base, S).solve()
    assert validate_pattern(pat) == []
    reps = [c.rep for c in pat.classes]
    cols = marks.class_columns(S, reps)
    rows = {reps[u].order: marks.dress_row(S, cols, cid, reps[u])
            for cid, u in cols.items() if reps[u].order in (1, 32736)}
    assert not listed and not cosets
    assert sorted(rows[1].coeffs.values()) == [
        1, 992, 1023, 4960, 9920, 15840, 21824, 43648, 65472]
    assert rows[1].modulus == S.order == 163680
    orders = [c.order for c in pat.classes]
    assert rows[32736].coeffs == {orders.index(32736): 1,
                                  orders.index(163680): 4}
    assert rows[32736].modulus == 5


def test_mark_row_above_a_small_set_cap(monkeypatch):
    """With SET_CAP 5 in S4, A4 is a normal K above the cap: its row is
    decided by containment against keys on both sides of the cap and
    equals the coset count, as does the row of a C3 below the cap.  A
    non-normal K above the cap (D8) is keyed by its zuppos like any
    other, and its row, counted on its class orbit of three members,
    equals the coset count too."""
    monkeypatch.setattr(groups, "SET_CAP", 5)
    G = symmetric_group(4)
    a4 = Subgroup(G, alternating_group(4).gens)
    Hs = [trivial_subgroup(G), _sub(G, "(1,2,3)"), _sub(G, "(1,2)"),
          _sub(G, "(1,2)(3,4)", "(1,3)(2,4)"), a4]
    assert mark_row(G, a4, _keys(G, Hs)) == [2, 2, 0, 2, 2] == (
        _coset_count_row(G, a4, Hs))
    # a K below the cap takes the key of A4 above it as a zero cell
    c3 = Hs[1]
    assert mark_row(G, c3, _keys(G, Hs)) == [8, 2, 0, 0, 0] == (
        _coset_count_row(G, c3, Hs))
    assert incidence_probe(G, a4, parse_cycles("(1,2,3)", 4)) == [
        G.subgroup_key(a4)]
    assert incidence_probe(G, a4, parse_cycles("(1,2)", 4)) == []
    d8 = _sub(G, "(1,2,3,4)", "(1,3)")
    Hs[-1] = d8
    assert mark_row(G, d8, _keys(G, Hs)) == [3, 0, 1, 3, 1] == (
        _coset_count_row(G, d8, Hs))
    assert G._sub_classes[groups.subgroup_class_id(G, d8)].size == 3


def _results_at_the_current_cap():
    """The oracle JSON, the class-search transversal (orders and
    generators), the chain JSON of S4 and GL2(3) and the A5 -> S5 step,
    each on fresh groups, millis masked; and, per oracle, whether every
    representative above SET_CAP has the key of its element list."""
    from burnside.patterns import pattern_to_json

    def fresh(name):
        return CATALOG.get(name).build()

    def text(pattern, name):
        return re.sub(r'"millis": \d+', '"millis": 0',
                      pattern_to_json(pattern, name))

    out, big = {}, []
    for name in ("S4", "GL2(3)", "S5", "A6"):
        G = fresh(name)
        pat = table_of_marks_brute(G)
        out[name, "oracle"] = text(pat, name)
        big += [G.subgroup_key(c.rep) ==
                G.elements_key(c.rep.as_group().elements())
                for c in pat.classes if c.order > groups.SET_CAP]
        out[name, "search"] = [(H.order, H.gens)
                               for H in subgroup_classes_search(fresh(name))]
    for name in ("S4", "GL2(3)"):
        out[name, "chain"] = [text(p, name)
                              for p in solvable_pattern_chain(fresh(name))]
    out["S5", "step"] = text(extend_table_of_marks(
        table_of_marks_brute(fresh("A5")), fresh("S5")), "S5")
    return out, big


def test_results_at_small_set_caps_equal_the_default_cap(monkeypatch):
    """With SET_CAP 5 and then 3, most subgroups of S4, GL2(3), S5 and A6
    are above the cap and keyed by their cyclic classes: the oracle,
    the class search, the chains of S4 and GL2(3) and the A5 -> S5 step
    give what they give at the default cap, and every key above the cap
    equals the key of the subgroup's element list."""
    want, big = _results_at_the_current_cap()
    assert big == []
    for cap in (5, 3):
        monkeypatch.setattr(groups, "SET_CAP", cap)
        got, big = _results_at_the_current_cap()
        assert big and all(big), cap
        for what in want:
            assert got[what] == want[what], (cap, what)


# ---------------------------------------------------------------------------
# quarters


@pytest.fixture(scope="module")
def s5_ext(a5_pattern, s5):
    ext = MarksExtender(a5_pattern, s5)
    ext.assemble_inner()
    return ext


def test_top_left_doubles_a5(s5_ext):
    # no fusion for A5 < S5, so the inner block is exactly twice M(A5)
    for i in range(9):
        assert s5_ext.rows[i] == [2 * v for v in FIG_A5[i]]


def test_top_left_merged_rows():
    # SL2(3) over Q8 fuses the three C4 classes: merged row sums A-rows
    sl = CATALOG.group("SL2(3)")
    q8 = None
    for rep in all_subgroup_classes_brute(sl):
        if rep.order == 8:
            q8 = rep.as_group()
    pq8 = table_of_marks_brute(q8)
    ext = MarksExtender(pq8, sl)
    ext.assemble_inner()
    merged_rows = [ext.top_left_row(bi)
                   for bi, c in enumerate(ext.inner) if not c.stable]
    assert merged_rows == [[6, 6, 2]]


def test_bottom_left_copies(s5_ext):
    # outer row of the order-2 class copies the A-row of the trivial group
    assert s5_ext.bottom_left_row(0) == [60, 0, 0, 0, 0, 0, 0, 0, 0]
    # D12 (order 12) copies the S3-row of M(A5)
    ri = next(i for i, oc in enumerate(s5_ext.outer) if oc.rep.order == 12)
    assert s5_ext.bottom_left_row(ri) == [10, 2, 1, 0, 0, 1, 0, 0, 0]
    # the top class copies the all-ones A5 row
    ri = next(i for i, oc in enumerate(s5_ext.outer) if oc.rep.order == 120)
    assert s5_ext.bottom_left_row(ri) == [1] * 9


def test_trivial_extension_quarters():
    # S = C_p over the trivial group: table [[p], [1, 1]]
    for p in (2, 3, 5):
        pat = extend_table_of_marks(trivial_pattern(p), cyclic_group(p))
        assert pat.rows == [[p], [1, 1]]


# ---------------------------------------------------------------------------
# candidate initialization and refinement


def _row_index(ext, order):
    return next(i for i, oc in enumerate(ext.outer) if oc.rep.order == order)


def _outer_col(ext, order, cyclic):
    for rj, oc in enumerate(ext.outer):
        if oc.rep.order != order:
            continue
        prof = dict(oc.rep.order_profile())
        if cyclic == bool(prof.get(order)):
            return ext.b + rj
    raise AssertionError("no such outer class")


def test_init_candidates_d12(s5_ext):
    ri = _row_index(s5_ext, 12)
    for rj in range(ri):
        st = s5_ext.solve_row(rj)
        s5_ext.rows.append([int(v) for v in st.values])
    st = s5_ext.init_row(ri)
    c4 = _outer_col(s5_ext, 4, True)
    v4 = _outer_col(s5_ext, 4, False)
    assert st.cand[c4] == (0, 2)
    assert st.cand[v4] == (0, 2)
    # ub = 0 cells are decided immediately
    d8 = _outer_col(s5_ext, 8, False)
    assert st.values[d8] == 0
    # ub = 1 cells are decided immediately (below the congruence modulus)
    c6_col = _outer_col(s5_ext, 6, True)
    assert st.values[c6_col] == 1


def test_dress_worked_example(s5_ext):
    """Row S5/D12, congruence of the inner involution class: the two
    undecided order-4 cells keep candidates {0, 2} but must sum to 2."""
    ext = MarksExtender(s5_ext.pa, s5_ext.S)
    ext.assemble_inner()
    ri = _row_index(ext, 12)
    for rj in range(ri):
        st = ext.solve_row(rj)
        ext.rows.append([int(v) for v in st.values])
    st = ext.init_row(ri)
    c4 = _outer_col(ext, 4, True)
    v4 = _outer_col(ext, 4, False)
    dr = next(d for d in ext.dress_rows() if d.u_index == 1)
    assert dr.inner_size == 2 and dr.modulus == 4
    und = [j for j in dr.coeffs if j in st.cand]
    assert set(und) == {c4, v4}
    targets, fixed = ext._dress_targets(st, dr, und)
    # o_B = 1, so o_R = 1 and the two cells must sum to exactly 2
    assert targets == [2] and fixed == 0
    feas = ext._dress_feasible(st, dr, und, targets, fixed)
    assert feas is not None
    assert ext._dress_single(st, dr) is False  # nothing prunable yet
    assert st.cand[c4] == (0, 2) and st.cand[v4] == (0, 2)
    # finish the row: the engine must resolve to (0, 2) without probing
    while st.cand:
        progress = ext.transitivity_pass(st)
        if st.cand and ext.dress_pass(st):
            progress = True
        if not progress and st.cand:
            ext.probe_one(st)
    assert st.values[c4] == 0 and st.values[v4] == 2
    assert ext.stats.probes == 0


def _feasible_by_enumeration(st, dr, und, targets, fixed):
    """Reference: walk the cross product of the scaled candidate sets."""
    scaled = [tuple(dr.coeffs[j] * y for y in st.cand[j]) for j in und]
    feas = [set() for _ in und]
    found = False
    for combo in product(*scaled):
        s = fixed + sum(combo)
        if targets is None:
            if s % dr.modulus:
                continue
        elif s not in targets:
            continue
        found = True
        for k, v in enumerate(combo):
            feas[k].add(v)
    return feas if found else None


def _row_state(cand):
    n = max(cand) + 1
    return RowState(index=n, ri=0, values=[None] * (n + 1), cand=cand,
                    decided_by={}, contained=set())


@pytest.mark.parametrize("inner", [False, True])
@pytest.mark.parametrize("cells", range(1, 15))
def test_dress_feasible_matches_enumeration(cells, inner):
    """The reachable-sums pass keeps exactly the values some admissible
    assignment uses, for both target kinds, on seeded random rows."""
    rng = random.Random(cells * 2 + inner)
    infeasible = 0
    for _ in range(12):
        while True:
            sizes = [rng.randint(1, 3) for _ in range(cells)]
            if math.prod(sizes) <= 4096:
                break
        und = list(range(10, 10 + cells))
        cand = {j: tuple(sorted(rng.sample(range(9), k)))
                for j, k in zip(und, sizes)}
        coeffs = {j: rng.randint(1, 3) for j in und}
        dr = DressRow(u_index=0, coeffs=coeffs, modulus=rng.randint(1, 6))
        fixed = rng.randint(0, 5)
        targets = None
        if inner:
            top = fixed + sum(coeffs[j] * cand[j][-1] for j in und)
            targets = sorted(rng.sample(range(top + 3),
                                        rng.randint(1, min(4, top + 3))))
        st = _row_state(cand)
        want = _feasible_by_enumeration(st, dr, und, targets, fixed)
        got = MarksExtender._dress_feasible(st, dr, und, targets, fixed)
        assert got == want
        infeasible += want is None
    assert infeasible < 12


def test_dress_single_decides_a_parity_cell_in_a_large_support(s5_ext):
    """Thirteen undecided cells under one congruence mod 2: twelve hold
    even candidates, so the odd candidate of the last cell can never be
    completed to an even sum, whatever the support size."""
    und = list(range(100, 113))
    cand = {j: (0, 2) for j in und[:-1]}
    cand[und[-1]] = (0, 1)
    st = _row_state(cand)
    dr = DressRow(u_index=7, coeffs=dict.fromkeys(und, 1), modulus=2)
    assert s5_ext._dress_single(st, dr) is True
    assert st.values[und[-1]] == 0
    assert st.decided_by == {und[-1]: "dress:7"}
    assert all(st.cand[j] == (0, 2) for j in und[:-1])


def test_dress_zero_inner_forces_zero(s5_ext):
    """o_B = 0 forces the supported outer cells to zero (row D12 at the
    elementary-abelian inner class)."""
    ext = MarksExtender(s5_ext.pa, s5_ext.S)
    pat = ext.solve()
    i = next(k for k in range(pat.n)
             if pat.classes[k].order == 12
             and pat.classes[k].gamma_index is not None)
    d8 = next(k for k in range(pat.n)
              if pat.classes[k].order == 8
              and pat.classes[k].gamma_index is not None)
    assert pat.cell(i, d8) == 0


def test_transitivity_noop(s5_ext):
    ext = MarksExtender(s5_ext.pa, s5_ext.S)
    ext.assemble_inner()
    st = ext.init_row(0)
    assert not st.cand  # first outer row has no undecided cells
    assert ext.transitivity_pass(st) is False


# ---------------------------------------------------------------------------
# dress coefficient rows


def test_dress_matrix_s5_first_rows(s5_ext, s5):
    ext = MarksExtender(s5_ext.pa, s5_ext.S)
    ext.assemble_inner()
    rows = ext.dress_rows()
    by_index = {dr.u_index: dr for dr in rows}
    # U = 1: coefficients on cyclic classes, modulus |S5| = 120
    dr1 = by_index[0]
    assert dr1.modulus == 120
    c2r = _outer_col(ext, 2, True)
    c4 = _outer_col(ext, 4, True)
    c6 = _outer_col(ext, 6, True)
    assert dr1.coeffs == {0: 1, 1: 15, 2: 20, 4: 24,
                          c2r: 10, c4: 30, c6: 20}
    # U = C2 (inner): coefficients 1,1,1,1 with modulus 4
    dr2 = by_index[1]
    v4r = _outer_col(ext, 4, False)
    assert dr2.modulus == 4
    assert dr2.coeffs == {1: 1, 3: 1, c4: 1, v4r: 1}


def _dress_rows(pattern):
    """The Dress rows of every class of the pattern, in class order."""
    S = pattern.group
    reps = [c.rep for c in pattern.classes]
    cols = marks.class_columns(S, reps)
    return [marks.dress_row(S, cols, cid, reps[u])
            for cid, u in cols.items()]


def test_dress_row_whole_group(s5_ext):
    ext = MarksExtender(s5_ext.pa, s5_ext.S)
    pat = ext.solve()
    rows = _dress_rows(pat)
    top = rows[-1]
    assert top.modulus == 1 and top.coeffs == {pat.n - 1: 1}


def _coset_loop_row(S, cols, U):
    """Reference Dress row of U: one join per coset of a transversal of
    U in N(U), counted by the class of the join."""
    coeffs = {}
    for a in coset_transversal(normalizer(S, U).as_group(), U):
        idx = cols[groups.subgroup_class_id(S, U.join(a))]
        coeffs[idx] = coeffs.get(idx, 0) + 1
    return coeffs


def _dress_rows_against_the_coset_loop(S, reps):
    cols = marks.class_columns(S, reps)
    for cid, u in cols.items():
        U = reps[u]
        dr = marks.dress_row(S, cols, cid, U)
        assert dr.coeffs == _coset_loop_row(S, cols, U), u
        assert dr.modulus == normalizer(S, U).order // U.order


@pytest.mark.parametrize("name", ORACLE_GROUPS)
def test_dress_rows_match_the_coset_loop(name):
    """One join per cyclic subgroup of N(U)/U gives the same class ->
    count map as one join per coset, for every class of the group."""
    G = CATALOG.get(name).build()
    _dress_rows_against_the_coset_loop(
        G, [c.rep for c in table_of_marks_brute(G).classes])


@pytest.mark.parametrize("name, cap, big", [
    ("S4", 8, 3), ("S5", 24, 2), ("S6", 100, 6), ("S6", 30, 34),
    ("A6", 50, 3), ("GL2(3)", 10, 13)])
def test_dress_rows_above_a_small_set_cap_match_the_coset_loop(
        name, cap, big, monkeypatch):
    """With SET_CAP below the order of the group, a row whose normalizer
    N(U) is above the cap joins U once per class of cyclic subgroups of
    N(U) (``big`` rows of a nontrivial U, and the trivial U), with no
    quotient group and no coset action; every other row walks N(U)'s
    elements.  Joins land on both sides of the cap.  All rows equal the
    coset loop's."""
    reps = [c.rep for c in
            table_of_marks_brute(CATALOG.get(name).build()).classes]
    monkeypatch.setattr(groups, "SET_CAP", cap)
    G = CATALOG.get(name).build()
    reps = [Subgroup(G, U.gens) for U in reps]
    above, built = [], []

    def joins(S, N, U):
        if N.order > cap and U.order > 1:
            above.append(U.order)
        return groups.cyclic_joins(S, N, U)

    def spy(name, real):
        def counted(*args):
            built.append(name)
            return real(*args)
        return counted

    monkeypatch.setattr(marks, "cyclic_joins", joins)
    for fn in ("quotient_group", "coset_action"):
        monkeypatch.setattr(groups, fn, spy(fn, getattr(groups, fn)))
    cols = marks.class_columns(G, reps)
    rows = [marks.dress_row(G, cols, cid, reps[u])
            for cid, u in cols.items()]
    assert not built
    assert sorted(above) == sorted(
        U.order for U in reps
        if U.order > 1 and normalizer(G, U).order > cap)
    assert len(above) == big
    for u, U in enumerate(reps):
        assert rows[u].coeffs == _coset_loop_row(G, cols, U), u


def test_dress_rows_below_set_cap_build_no_transversal_and_no_quotient(
        monkeypatch):
    """Every normalizer in S6 is below SET_CAP: its Dress rows make no
    coset transversal and no quotient group."""
    G = CATALOG.get("S6").build()
    pat = table_of_marks_brute(G)
    built = []

    def spy(name, real):
        def counted(*args):
            built.append(name)
            return real(*args)
        return counted

    monkeypatch.setattr(groups, "coset_transversal",
                        spy("coset_transversal", coset_transversal))
    monkeypatch.setattr(groups, "quotient_group",
                        spy("quotient_group", groups.quotient_group))
    rows = _dress_rows(pat)
    assert len(rows) == 56 and not built


def test_dress_rows_take_the_class_ids_of_class_columns(monkeypatch):
    """Validating the C2^4 chain table keys each representative once, in
    ``class_columns``: its Dress row takes that class id instead of
    keying the representative again, and each join of the row is keyed
    by its elements and found among the classes ``class_columns``
    registered, with no lookup call.  So the 67 representatives make the
    only 67 class lookups, where a lookup per join made 374 and a
    second key per row 441."""
    pat = solvable_pattern_chain(abelian_group((2,) * 4))[-1]
    real = groups.subgroup_class_id
    keyed = []

    def counted(S, H, key=None):
        keyed.append(H)
        return real(S, H, key)

    for module in (groups, marks):
        monkeypatch.setattr(module, "subgroup_class_id", counted)
    assert validate_pattern(pat) == []
    reps = [c.rep for c in pat.classes]
    assert sum(any(H is U for U in reps) for H in keyed) == pat.n == 67
    assert len(keyed) == 67


def test_validating_a_pattern_twice_builds_its_dress_rows_once(monkeypatch):
    """The A6 oracle table is validated, then written to JSON, read back
    onto the same group and validated again, as a benchmark item checks
    a stored base: A6's 22 Dress rows are built once, by the first
    check, and kept on A6's class records."""
    from burnside.patterns import pattern_from_json, pattern_to_json
    A6 = CATALOG.get("A6").build()
    pat = table_of_marks_brute(A6)
    built = spy_dress_builds(monkeypatch)
    assert validate_pattern(pat) == []
    assert len(built) == pat.n == 22
    loaded = pattern_from_json(pattern_to_json(pat, "A6"), A6)
    assert validate_pattern(loaded) == []
    assert len(built) == len(set(built)) == 22


# ---------------------------------------------------------------------------
# incidence probes


def test_incidence_probe_self(s5):
    k = _sub(s5, "(1,2)")
    t = parse_cycles("(1,2)", 5)
    members = incidence_probe(s5, k, t)
    assert [key_elements(s5, m) for m in members] == [k.elements()]


def test_incidence_probe_d8_s4(s4):
    d8 = _sub(s4, "(1,2,3,4)", "(1,3)")
    t = parse_cycles("(1,3)", 4)
    members = incidence_probe(s4, d8, t)
    assert len(members) == 1
    assert all(t in key_elements(s4, m) for m in members)


def test_incidence_probe_empty(s5):
    s4sub = _sub(s5, "(1,2)", "(1,2,3,4)")
    t = parse_cycles("(1,2,3,4,5)", 5)
    assert incidence_probe(s5, s4sub, t) == []


def _probe_mark(S, K, V, t):
    """|N(K):K| times the number of probe members (t in V) containing V."""
    hits = sum(1 for m in incidence_probe(S, K, t)
               if V.elements() <= key_elements(S, m))
    return normalizer(S, K).order // K.order * hits


def test_explicit_mark_values(s5):
    d8 = _sub(s5, "(1,2,3,4)", "(1,3)")
    c4 = _sub(s5, "(1,2,3,4)")
    assert _probe_mark(s5, d8, c4, parse_cycles("(1,2,3,4)", 5)) == 1
    d12 = _sub(s5, "(1,2,3)", "(4,5)", "(1,2)")
    assert d12.order == 12
    v4red = _sub(s5, "(1,2)", "(3,4)")
    assert _probe_mark(s5, d12, v4red, parse_cycles("(1,2)", 5)) == 2
    c4red = _sub(s5, "(1,2,3,4)")
    assert _probe_mark(s5, d12, c4red, parse_cycles("(1,2,3,4)", 5)) == 0


def _element_class(S, t):
    """The S-class of t: its orbit under conjugation by S's elements."""
    return {conj(t, g) for g in S.elements()}


def _probe_by_centralizer_orbits(S, K, t, tclass):
    """Reference probe: the classes of elements of K lying in ``tclass``,
    the S-class of t, are merged into N_S(K)-orbits; each orbit
    contributes the C_S(t)-orbit of one conjugate K^s with the orbit
    representative mapped onto t.  The identity is left out of K, so
    t = 1 gives []."""
    if K.is_normal_in(S):
        return [K.elements()] if t in K else []
    T = sorted(x for x in K.elements()
               if x != S.identity and x in tclass)
    N = normalizer(S, K)
    reps, seen = [], set()
    for x in T:
        if x not in seen:
            seen.update(orbit([x], N.gens, conj))
            reps.append(x)
    C = centralizer(S, t)
    kelems = K.elements()
    members = []
    for a in reps:
        s = path_product(orbit([a], S.gens, conj), t, S.gens,
                         {a: S.identity})
        members.extend(orbit([frozenset(conj(x, s) for x in kelems)], C.gens,
                             lambda m, g: frozenset(conj(x, g) for x in m)))
    return members


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("name", ["S5", "A6", "GL2(3)", "S6"])
def test_incidence_probe_matches_centralizer_orbits(name, seed):
    G = relabeled(name, seed)
    classes, seen = {}, {G.identity}
    for x in sorted(G.elements()):
        if x not in seen:
            classes[x] = _element_class(G, x)
            seen |= classes[x]
    for K in all_subgroup_classes_brute(G):
        for t, tclass in classes.items():
            want = _probe_by_centralizer_orbits(G, K, t, tclass)
            got = [key_elements(G, m) for m in incidence_probe(G, K, t)]
            assert len(got) == len(want) == len(set(want))
            assert set(got) == set(want)
        # every conjugate contains the identity
        conjugates = G.order // normalizer(G, K).order
        assert len(incidence_probe(G, K, G.identity)) == conjugates


# ---------------------------------------------------------------------------
# assembled tables


def s5_paper_permutation(pat):
    """Map paper positions of the S5 table onto the pattern's classes.

    Paper layout: inner block 1, C2, C3, 2^2, C5, S3, D10, A4, A5, then
    outer C2, C4, 2^2, S3, C6, D8, D12, 5:4, S4, S5.  Equal-order pairs
    are told apart by cyclicity.
    """
    spec = [(1, None, "inner"), (2, None, "inner"), (3, None, "inner"),
            (4, None, "inner"), (5, None, "inner"), (6, None, "inner"),
            (10, None, "inner"), (12, None, "inner"), (60, None, "inner"),
            (2, None, "outer"), (4, True, "outer"), (4, False, "outer"),
            (6, False, "outer"), (6, True, "outer"), (8, None, "outer"),
            (12, None, "outer"), (20, None, "outer"), (24, None, "outer"),
            (120, None, "outer")]
    perm = []
    for order, cyclic, kind in spec:
        for k, c in enumerate(pat.classes):
            outer = c.gamma_index is not None
            if c.order != order or outer != (kind == "outer") or k in perm:
                continue
            if cyclic is not None:
                prof = dict(c.rep.order_profile())
                if bool(prof.get(order)) != cyclic:
                    continue
            perm.append(k)
            break
        else:
            raise AssertionError(f"no class for {order}, {cyclic}, {kind}")
    return perm


def test_s5_table_matches_figure(a5_pattern, s5):
    pat = extend_table_of_marks(a5_pattern, s5)
    assert pat.stats.probes == 0
    assert compare_patterns(pat, table_of_marks_brute(s5)).matched
    # rearrange into the published layout and compare cell by cell
    perm = s5_paper_permutation(pat)
    rearranged = [[pat.cell(perm[i], perm[j]) for j in range(i + 1)]
                  for i in range(pat.n)]
    assert rearranged == FIG_S5


def test_gl23_chain_panels(gl23):
    chain = solvable_pattern_chain(gl23)
    assert [p.rows for p in chain] == GL23_PANELS


def test_s4_solvable_matches_oracle(s4):
    pe = solvable_pattern_chain(s4)[-1]
    po = table_of_marks_brute(s4)
    assert compare_patterns(pe, po).matched
    assert not validate_pattern(pe)


def test_pattern_sorted_ascending(a5_pattern, s5):
    pat = extend_table_of_marks(a5_pattern, s5)
    srt = pat.sorted_ascending()
    orders = srt.class_orders()
    assert orders == sorted(orders)
    assert not validate_pattern(srt)
    # gamma links survive the sort
    for j, c in enumerate(srt.classes):
        if c.gamma_index is not None:
            assert srt.classes[c.gamma_index].order * 2 == c.order


# ---------------------------------------------------------------------------
# verification


def test_verify_dress_passes(a5_pattern):
    ok, violations = verify_dress(a5_pattern)
    assert ok and not violations


def test_verify_dress_catches_perturbation(a5_pattern, s5):
    pat = extend_table_of_marks(a5_pattern, s5)
    ok, _ = verify_dress(pat)
    assert ok
    # perturb the D12-row entry in the cyclic order-4 column by +1
    i = next(k for k in range(pat.n)
             if pat.classes[k].order == 12
             and pat.classes[k].gamma_index is not None)
    ext = MarksExtender(a5_pattern, s5)
    j = _outer_col(ext, 4, True)
    rows = [list(r) for r in pat.rows]
    rows[i][j] += 1
    bad = SubgroupPattern(group=pat.group, classes=pat.classes, rows=rows,
                          stats=pat.stats)
    ok2, violations = verify_dress(bad)
    assert not ok2
    assert any(f"row {i}" in v for v in violations)


def test_verify_trivial_pattern():
    ok, violations = verify_dress(trivial_pattern())
    assert ok and not violations


def test_validate_pattern_catches_bad_diag(a5_pattern):
    rows = [list(r) for r in a5_pattern.rows]
    rows[3][3] += 1
    bad = SubgroupPattern(group=a5_pattern.group, classes=a5_pattern.classes,
                          rows=rows, stats=a5_pattern.stats)
    problems = validate_pattern(bad)
    assert problems


def test_inconsistent_input_detected(a5_pattern, s5):
    # corrupt one mark of the base pattern; the engine must notice
    rows = [list(r) for r in a5_pattern.rows]
    rows[5][1] += 2  # S3-row, C2-column
    bad = SubgroupPattern(group=a5_pattern.group, classes=a5_pattern.classes,
                          rows=rows, stats=a5_pattern.stats)
    with pytest.raises((InconsistentTableError, AssertionError)):
        extend_table_of_marks(bad, s5)


def _extension_steps(name):
    """(base pattern, S) of every extension step that builds the named
    group: one step from the A5 oracle for S5, else its solvable chain."""
    if name == "S5":
        return [(table_of_marks_brute(CATALOG.group("A5")),
                 CATALOG.group("S5"))]
    G = (abelian_group((2,) * 4) if name == "C2^4"
         else abelian_group((4, 2, 2)) if name == "C4xC2xC2"
         else CATALOG.group(name))
    chain = solvable_pattern_chain(G)
    return [(chain[k - 1], chain[k].group) for k in range(1, len(chain))]


@pytest.mark.parametrize(
    "name", ["C2^4", "C4xC2xC2", "Q8", "D8", "GL2(3)", "S4", "S5"])
def test_normal_rows_are_decided_by_containment(name):
    """Every outer row of a normal K equals mark_row cell by cell, and
    its outer cells are all decided by Lagrange or by the bounds pass,
    so no transitivity, Dress or probe touched them."""
    seen = 0
    for base, S in _extension_steps(name):
        ext = MarksExtender(base, S)
        ext.assemble_inner()
        for ri, oc in enumerate(ext.outer):
            st = ext.solve_row(ri)
            if oc.normalizer_order == S.order:
                seen += 1
                assert oc.rep.is_normal_in(S)
                reps = ext.class_reps[:st.index + 1]
                assert st.values == mark_row(S, oc.rep, _keys(S, reps))
                assert set(st.decided_by.values()) <= {"bounds", "lagrange"}
            ext.rows.append([int(v) for v in st.values])
    assert seen


def _copied_tags(base, S):
    """The engine's rows and (row, column) -> tag map, solved row by row
    with every decided cell's tag copied into one dict, as ``solve`` once
    did."""
    ext = MarksExtender(base, S)
    ext.assemble_inner()
    tags = {}
    for ri in range(len(ext.outer)):
        st = ext.solve_row(ri)
        ext.rows.append([int(v) for v in st.values])
        for j, tag in st.decided_by.items():
            tags[(st.index, j)] = tag
    return ext.rows, tags


@pytest.mark.parametrize("name", ["S5", "S6", "GL2(3)", "C2^4"])
def test_decided_by_is_the_copied_tag_map(name):
    """``PatternStats.decided_by``, built on read from the rows' own tag
    dicts, equals the per-cell copy key for key and in order, with the
    same histogram of rules; the rows are plain ints.  S5 and S6 from
    the oracle of A5 and A6 reach Dress and, in S6, transitivity and
    probes."""
    if name == "S6":
        steps = [(table_of_marks_brute(CATALOG.group("A6")),
                  CATALOG.group("S6"))]
    else:
        steps = _extension_steps(name)
    rules = Counter()
    for base, S in steps:
        rows, copied = _copied_tags(base, S)
        pat = extend_table_of_marks(base, S)
        assert pat.rows == rows
        assert all(type(v) is int for row in pat.rows for v in row)
        assert list(pat.stats.decided_by.items()) == list(copied.items())
        got = Counter(t.split(":")[0] for t in pat.stats.decided_by.values())
        assert got == Counter(t.split(":")[0] for t in copied.values())
        rules += got
    if name in ("S5", "S6"):
        assert rules["dress"]
    if name == "S6":
        assert rules["transitivity"] and rules["probe"]


class _SetRelationExtender(MarksExtender):
    """The engine with subconjugacy kept in per-class sets beside the
    table, as it once was: each completed row is copied into the classes
    below it and, for each of them, the completed classes above."""

    def __init__(self, pattern_A, S):
        super().__init__(pattern_A, S)
        self.below, self.above = [], []

    def register_completed(self, i):
        row = self.rows[i]
        below = {j for j in range(i + 1) if row[j] > 0}
        assert len(self.below) == i
        self.below.append(below)
        while len(self.above) <= i:
            self.above.append(set())
        for j in below:
            if j != i:
                self.above[j].add(i)

    def transitivity_pass(self, st):
        changed = False
        i = st.index
        lo, hi = {}, {}
        for j in list(st.cand):
            opts = st.cand[j]
            lob, hib = opts[0], opts[-1]
            for v in self.below[j]:
                m = st.values[v] if v not in st.cand else st.cand[v][-1]
                if m is not None and m < hib:
                    hib = m
            for v in self.above[j]:
                if v >= i:
                    continue
                m = st.values[v] if v not in st.cand else st.cand[v][0]
                if m is not None and m > lob:
                    lob = m
            lo[j], hi[j] = lob, hib
        K_order = self.outer[st.ri].rep.order
        certified = set(st.contained)
        for j in range(self.b, i):
            v = st.values[j]
            if v is not None and v > 0:
                certified.add(j)
        for v in certified:
            ratio = K_order // self.class_reps[v].order
            for j in st.cand:
                if j == v or j not in self.below[v]:
                    continue
                bound = -(-self.rows[v][j] // ratio)
                if bound > lo.get(j, 0):
                    lo[j] = bound
        for j in list(st.cand):
            opts = tuple(m for m in st.cand[j]
                         if lo.get(j, 0) <= m <= hi.get(j, m))
            if opts != st.cand[j]:
                changed = True
                if not opts:
                    raise InconsistentTableError("transitivity emptied a cell")
                if len(opts) == 1:
                    st.decide(j, opts[0], "transitivity")
                else:
                    st.cand[j] = opts
        return changed


# 2^4:D12, transitive of degree 8.  In its chain's step to the subgroup
# of order 96 (35 classes), cell (30, 24) has candidates {2, 4}, and the
# last completed row, 29, is the only class above column 24 whose mark
# lifts that lower bound, to 4
TWO4_D12 = ("(1,4,2,6,8,3)(5,7)", "(1,5,8,6)(2,4,7,3)")


@functools.lru_cache(maxsize=None)
def _a7_table():
    """The oracle table of A7 (40 classes), counted once per session."""
    return table_of_marks_brute(alternating_group(7), cap=6000)


def _reference_steps(name):
    """(base pattern, S) of the steps the reference engines drive: S4,
    S5, S6 and S7 from the oracles of A4, A5, A6 and A7, or the chain of
    GL2(3) or of 2^4:D12."""
    if name == "S7":
        return [(_a7_table(), symmetric_group(7))]
    if name == "GL2(3)":
        return _extension_steps(name)
    if name == "2^4:D12":
        chain = solvable_pattern_chain(
            groups.PermGroup([parse_cycles(c, 8) for c in TWO4_D12], 8))
        return [(chain[k - 1], chain[k].group)
                for k in range(1, len(chain))]
    A = CATALOG.group({"S4": "A4", "S5": "A5", "S6": "A6"}[name])
    return [(table_of_marks_brute(A), CATALOG.group(name))]


@pytest.mark.parametrize("name", ["S4", "S5", "S6", "GL2(3)", "2^4:D12"])
def test_transitivity_reads_subconjugacy_like_the_set_reference(name):
    """The engine, reading subconjugacy from its completed rows, and the
    reference keeping it in per-class sets are driven row by row in
    lockstep, as ``solve_row`` drives one: after every transitivity pass
    both hold the same candidates and values.  The rows, tags and probe
    counts then equal each other and ``extend_table_of_marks``."""
    rules = Counter()
    for base, S in _reference_steps(name):
        ext, ref = MarksExtender(base, S), _SetRelationExtender(base, S)
        ext.assemble_inner()
        ref.assemble_inner()
        for i in range(ref.b):
            ref.register_completed(i)
        tags, ref_tags = {}, {}
        for ri in range(len(ext.outer)):
            st, rst = ext.init_row(ri), ref.init_row(ri)
            while st.cand:
                progress = True
                while progress and st.cand:
                    progress = ext.transitivity_pass(st)
                    assert ref.transitivity_pass(rst) == progress
                    assert (st.cand, st.values) == (rst.cand, rst.values)
                    if st.cand:
                        dressed = ext.dress_pass(st)
                        assert ref.dress_pass(rst) == dressed
                        progress = progress or dressed
                if st.cand:
                    ext.probe_one(st)
                    ref.probe_one(rst)
            ext.rows.append(st.values)
            ref.rows.append(rst.values)
            ref.register_completed(rst.index)
            tags[st.index], ref_tags[rst.index] = st.decided_by, rst.decided_by
        assert ext.rows == ref.rows
        assert tags == ref_tags
        assert [list(t.items()) for t in tags.values()] == \
            [list(t.items()) for t in ref_tags.values()]
        assert (ext.stats.probes, ext.stats.max_probe) == \
            (ref.stats.probes, ref.stats.max_probe)
        pat = extend_table_of_marks(base, S)
        assert pat.rows == ext.rows and pat.stats.row_tags == tags
        assert (pat.stats.probes, pat.stats.max_probe) == \
            (ext.stats.probes, ext.stats.max_probe)
        rules.update(t.split(":")[0] for row in tags.values()
                     for t in row.values())
    if name == "S6":
        assert rules["transitivity"] and rules["probe"]


class _ChangeLog(dict):
    """Candidate sets that log each column set or deleted since the log
    was last cleared; ``fresh`` until the first Dress pass of the row."""

    def __init__(self, cand):
        super().__init__(cand)
        self.changed, self.fresh = set(), True

    def __setitem__(self, j, opts):
        super().__setitem__(j, opts)
        self.changed.add(j)

    def __delitem__(self, j):
        super().__delitem__(j)
        self.changed.add(j)


class _FilteredProbeExtender(MarksExtender):
    """The engine with the bookkeeping it once had.  A Dress pass visits
    only the congruences touching an undecided cell on its first pass,
    and on later passes only those whose support changed since the last
    visit.  A probe picks t by a partition of S's elements into classes
    and counts each probed cell on the element sets of the conjugates of
    K containing t."""

    def __init__(self, pattern_A, S):
        super().__init__(pattern_A, S)
        self.supporters = None
        self.class_of = {}
        for x in S.elements():
            if x not in self.class_of:
                cls = orbit([x], S.gen_conj(), lambda y, c: c(y))
                self.class_of.update(dict.fromkeys(cls, len(self.class_of)))

    def init_row(self, ri):
        st = super().init_row(ri)
        st.cand = _ChangeLog(st.cand)
        return st

    def dress_pass(self, st):
        rows = self.dress_rows()
        if self.supporters is None:
            self.supporters = {}
            for k, dr in enumerate(rows):
                for j in dr.coeffs:
                    if j >= self.b:
                        self.supporters.setdefault(j, []).append(k)
        log = st.cand
        source = list(log) if log.fresh else list(log.changed)
        log.fresh = False
        hit = set()
        for j in source:
            hit.update(self.supporters.get(j, ()))
        log.changed.clear()
        changed = False
        for k in sorted(hit):
            if self._dress_single(st, rows[k]):
                changed = True
            if not st.cand:
                break
        return changed

    def probe_one(self, st):
        i = st.index
        K = self.outer[st.ri].rep
        kcls = [self.class_of[x] for x in K.elements()]
        best = None
        for j in sorted(st.cand):
            t = self.outer[j - self.b].gen_element
            est = kcls.count(self.class_of[t])
            if best is None or est < best[0]:
                best = (est, j, t)
        _, j0, t = best
        members = [key_elements(self.S, m)
                   for m in incidence_probe(self.S, K, t)]
        self.stats.probes += 1
        self.stats.max_probe = max(self.stats.max_probe, len(members))
        for j in sorted(st.cand):
            V = self.outer[j - self.b]
            if j != j0 and t not in V.rep.elements():
                continue
            val = st.values[st.index] * sum(
                1 for m in members if all(g in m for g in V.rep.gens))
            if val not in st.cand[j]:
                raise InconsistentTableError(
                    f"explicit mark {val} outside candidates at ({i},{j})")
            st.decide(j, val, "probe")


def _settle(engine, st):
    """Transitivity and Dress passes until neither decides more, as
    ``solve_row`` runs them before each probe."""
    progress = True
    while progress and st.cand:
        progress = engine.transitivity_pass(st)
        if st.cand and engine.dress_pass(st):
            progress = True


# (order of S, row, column) -> (the reference's tag, the engine's tag) of
# the two cells, both in the top step of the 2^4:D12 chain, that the
# engine decides by another rule: its Dress pass reaches them one pass
# before the reference's
RETAGGED = {("2^4:D12", 192, 86, 39): ("dress:2", "dress:39"),
            ("2^4:D12", 192, 86, 41): ("transitivity", "dress:41")}


@pytest.mark.parametrize("name", ["S5", "S6", "S7", "GL2(3)", "2^4:D12"])
def test_unfiltered_dress_and_class_tree_probes_decide_like_the_reference(
        name):
    """The engine, whose Dress pass visits every congruence and whose
    probes count on K's class tree, and the reference, which filters the
    congruences by change and probes on S's element classes and element
    sets, are driven row by row in lockstep: after the bounds, after the
    propagation settles before each probe, and after each probe, both
    hold the same candidates and values, and the same tags in the same
    order.  At the end the probes and the largest probe are equal, and
    the rows and tags equal ``extend_table_of_marks``.

    The engine may decide a cell a Dress pass earlier: a congruence whose
    support an earlier congruence of the same pass changed is visited in
    that pass, where the reference waits for its next pass.  Then
    transitivity may not get to decide it first, or another congruence
    may; the tags of ``RETAGGED`` differ so, and no others."""
    probes, retagged = 0, {}
    for base, S in _reference_steps(name):
        ext, ref = MarksExtender(base, S), _FilteredProbeExtender(base, S)
        ext.assemble_inner()
        ref.assemble_inner()

        def same(st, rst):
            assert (st.cand, st.values) == (rst.cand, rst.values)
            assert st.decided_by.keys() == rst.decided_by.keys()
            diff = {(name, S.order, st.index, j): (rst.decided_by[j], tag)
                    for j, tag in st.decided_by.items()
                    if rst.decided_by[j] != tag}
            if not diff:
                assert list(st.decided_by.items()) == \
                    list(rst.decided_by.items())
            retagged.update(diff)

        for ri in range(len(ext.outer)):
            st, rst = ext.init_row(ri), ref.init_row(ri)
            same(st, rst)
            while st.cand:
                _settle(ext, st)
                _settle(ref, rst)
                same(st, rst)
                if st.cand:
                    ext.probe_one(st)
                    ref.probe_one(rst)
                    same(st, rst)
            ext.rows.append(st.values)
            ref.rows.append(rst.values)
            ext.stats.row_tags[st.index] = st.decided_by
        assert (ext.stats.probes, ext.stats.max_probe) == \
            (ref.stats.probes, ref.stats.max_probe)
        pat = extend_table_of_marks(base, S)
        assert pat.rows == ext.rows == ref.rows
        assert pat.stats.row_tags == ext.stats.row_tags
        assert (pat.stats.probes, pat.stats.max_probe) == \
            (ext.stats.probes, ext.stats.max_probe)
        probes += pat.stats.probes
    assert retagged == {k: v for k, v in RETAGGED.items() if k[0] == name}
    if name in ("S6", "S7"):
        assert probes


@pytest.mark.parametrize("name", ["S5", "S6", "S7"])
def test_probe_estimate_counts_pairs_both_ways(name):
    """For every pair of outer classes (K, t) of the step, t the coset
    element of its class: |t^S| c(t) = |K ∩ t^S| |K^S|, where c(t)
    counts the conjugates of K containing t (``incidence_probe``), and
    t^S is an element orbit walked here by conjugating t with every
    element of S."""
    base, S = _reference_steps(name)[0]
    ext = MarksExtender(base, S)
    for oc_t in ext.outer:
        t = oc_t.gen_element
        tclass = _element_class(S, t)
        assert element_class_length(S, t) == len(tclass)
        for oc in ext.outer:
            K = oc.rep
            meet = sum(1 for x in K.elements() if x in tclass)
            conjugates = S.order // oc.normalizer_order
            assert len(tclass) * len(incidence_probe(S, K, t)) == \
                meet * conjugates


@pytest.mark.parametrize("name", ["S5", "S6"])
def test_incidence_probe_is_the_conjugates_holding_t(name):
    """For every outer generator t and outer K of the step, the probe
    gives exactly the conjugates K^g that hold t, each once: the
    conjugates are K's element set walked under conjugation, and t is
    looked up in each.  The step to S6 still makes 4 probes, the largest
    with 4 members."""
    base, S = _reference_steps(name)[0]
    ext = MarksExtender(base, S)
    for oc in ext.outer:
        conjugates = orbit([oc.rep.elements()], S.gens,
                           lambda m, g: frozenset(conj(x, g) for x in m))
        assert len(conjugates) == S.order // oc.normalizer_order
        for oc_t in ext.outer:
            t = oc_t.gen_element
            got = [key_elements(S, m)
                   for m in incidence_probe(S, oc.rep, t)]
            assert len(got) == len(set(got))
            assert set(got) == {m for m in conjugates if t in m}
    stats = ext.solve().stats
    if name == "S6":
        assert (stats.probes, stats.max_probe) == (4, 4)


def test_s7_from_the_a7_oracle_against_the_bench_row():
    """The probe path where it does the most work: S7 from the A7 oracle
    through the engine makes 11 probes, the largest of 8 conjugates,
    where the paper reports 3 probe sets of at most 20
    (``BENCH_ROWS["S7"]``, whose probe sets count differently).  The
    table equals the S7 oracle."""
    name_a, n_a, n_s, paper_probes, paper_max = BENCH_ROWS["S7"]
    base = _a7_table()
    assert name_a == "A7" and base.n == n_a
    pat = extend_table_of_marks(base, symmetric_group(7))
    assert pat.n == n_s
    assert validate_pattern(pat) == []
    stats = (pat.stats.probes, pat.stats.max_probe)
    assert stats == (11, 8)
    print(f"S7: probes={stats[0]} max={stats[1]} "
          f"(paper: {paper_probes}, {paper_max})")
    oracle = table_of_marks_brute(symmetric_group(7), cap=6000)
    assert compare_patterns(pat, oracle).matched


def test_inner_block_is_gathered_without_cell_calls(monkeypatch):
    """``assemble_inner`` and ``init_row`` read the A-table's rows
    directly: a spy on ``SubgroupPattern.cell`` sees no call from them
    on S6 from the A6 oracle or on any step of the C2^5 chain, while the
    results still equal the oracle and the chain's rows."""
    steps = [(table_of_marks_brute(CATALOG.group("A6")),
              CATALOG.group("S6"))]
    chain = solvable_pattern_chain(abelian_group((2,) * 5))
    steps += [(chain[k - 1], chain[k].group) for k in range(1, len(chain))]
    inside, calls = [], []
    real_cell = SubgroupPattern.cell

    def spied_cell(self, i, j):
        if inside:
            calls.append((i, j))
        return real_cell(self, i, j)

    def watched(name):
        real = getattr(MarksExtender, name)

        def run(self, *args):
            inside.append(name)
            try:
                return real(self, *args)
            finally:
                inside.pop()
        return run

    monkeypatch.setattr(SubgroupPattern, "cell", spied_cell)
    for name in ("assemble_inner", "init_row"):
        monkeypatch.setattr(MarksExtender, name, watched(name))
    pats = [extend_table_of_marks(base, S) for base, S in steps]
    assert not calls
    assert compare_patterns(
        pats[0], table_of_marks_brute(CATALOG.group("S6"))).matched
    assert [p.rows for p in pats[1:]] == [p.rows for p in chain[1:]]


@pytest.mark.parametrize("name, cap", [("C2^4", 4), ("S4", 8)])
def test_normal_rows_above_a_small_set_cap(name, cap, monkeypatch):
    """With SET_CAP below some normal K, the normal rows of the chain
    still equal mark_row cell by cell, and no K above the cap gets its
    element set built while its row is decided."""
    monkeypatch.setattr(groups, "SET_CAP", cap)
    G = (abelian_group((2,) * 4) if name == "C2^4"
         else CATALOG.get(name).build())
    chain = solvable_pattern_chain(G)
    real_elements = Subgroup.elements
    built = []
    watching = []

    def spied_elements(self):
        if watching and self._elems is None and self.order > cap:
            built.append(self.order)
        return real_elements(self)

    monkeypatch.setattr(Subgroup, "elements", spied_elements)
    big = 0
    for k in range(1, len(chain)):
        S = chain[k].group
        ext = MarksExtender(chain[k - 1], S)
        ext.assemble_inner()
        for ri, oc in enumerate(ext.outer):
            normal = oc.normalizer_order == S.order
            watching.append(normal)
            st = ext.init_row(ri) if normal else ext.solve_row(ri)
            watching.pop()
            if normal:
                big += oc.rep.order > cap
                reps = ext.class_reps[:st.index + 1]
                assert not st.cand
                assert st.values == mark_row(S, oc.rep, _keys(S, reps))
            ext.rows.append(st.values)
        assert ext.rows == chain[k].rows
    assert big and not built


def _reference_init_row(ext, ri):
    """The bounds pass as two loops decided it, one for a normal K and
    one for any other (values, candidates, tags, contained columns):
    the reference for ``MarksExtender.init_row``.  V <= K is a set test
    of V's generators against K's element set up to ``groups.SET_CAP``,
    and a membership test of each generator above it."""
    oc, i, p = ext.outer[ri], ext.b + ri, ext.p
    K = oc.rep
    if K.order <= groups.SET_CAP:
        elems = K.elements()
        inside = lambda V: elems.issuperset(V.gens)
    else:
        inside = lambda V: all(g in K for g in V.gens)
    diag = oc.normalizer_order // K.order
    values = ext.bottom_left_row(ri) + [None] * (ri + 1)
    values[i] = diag
    cand, decided_by, contained = {}, {}, set()
    cells = [(c.rep.order, c.rep, ext.col_of_a_index[c.base_index])
             for c in ext.outer[:ri]]
    if oc.normalizer_order == ext.S.order:
        for j, (order, rep, col) in enumerate(cells, ext.b):
            if K.order % order:
                values[j] = 0
                decided_by[j] = "lagrange"
                continue
            ub = values[col]
            m = diag if inside(rep) else 0
            if m > ub or (ub - m) % p:
                raise InconsistentTableError(
                    f"normal mark {m} off the inner bound {ub} at ({i},{j})")
            values[j] = m
            decided_by[j] = "bounds"
        return values, cand, decided_by, contained
    for j, (order, rep, col) in enumerate(cells, ext.b):
        if K.order % order:
            values[j] = 0
            decided_by[j] = "lagrange"
            continue
        ub = values[col]
        opts = tuple(m for m in range(ub % p, ub + 1, p) if m % diag == 0)
        if not opts:
            raise InconsistentTableError(f"no candidate for cell ({i},{j})")
        if inside(rep):
            contained.add(j)
            opts = tuple(m for m in opts if m >= diag)
            if not opts:
                raise InconsistentTableError(
                    f"contained subgroup got zero bound at ({i},{j})")
        if len(opts) == 1:
            values[j] = opts[0]
            decided_by[j] = "bounds"
        else:
            cand[j] = opts
    return values, cand, decided_by, contained


SOLVABLE_CATALOG = [e.name for e in CATALOG.entries.values()
                    if groups.is_solvable(CATALOG.group(e.name))]


@pytest.mark.parametrize("name, cap", [
    *((name, None) for name in SOLVABLE_CATALOG + ["C2^5"]),
    ("S5", None), ("S6", None), ("L2(32):5", None),
    ("S4", 5), ("C2^4", 5)])
def test_init_row_decides_like_the_two_loop_reference(
        name, cap, monkeypatch):
    """One loop decides the bounds of every outer row as the two loops
    did, a normal K's cells and any other row's candidates: the same
    values, candidates, tags in the same order and contained columns,
    on every outer row of each solvable catalog chain and of C2^5, of
    the S5 and S6 steps from the oracles of A5 and A6, of the L2(32):5
    step (whose last row, S itself, is a normal K above SET_CAP), and of
    the chains of S4 and C2^4 with SET_CAP 5."""
    if cap is not None:
        monkeypatch.setattr(groups, "SET_CAP", cap)
    if name == "L2(32):5":
        steps = [(_l2_32_counted_table(), CATALOG.get(name).build())]
    elif name in ("S5", "S6"):
        base = table_of_marks_brute(CATALOG.get(f"A{name[1]}").build())
        steps = [(base, CATALOG.get(name).build())]
    else:
        G = (abelian_group((2,) * int(name[-1])) if name.startswith("C2^")
             else CATALOG.get(name).build())
        chain = solvable_pattern_chain(G)
        steps = [(chain[k - 1], chain[k].group)
                 for k in range(1, len(chain))]
    normal_above = 0
    for base, S in steps:
        ext = MarksExtender(base, S)
        for ri, oc in enumerate(ext.outer):
            st = ext.init_row(ri)
            values, cand, tags, contained = _reference_init_row(ext, ri)
            assert (st.values, st.cand, list(st.decided_by.items()),
                    st.contained) == (values, cand, list(tags.items()),
                                      contained), (S.order, ri)
            normal_above += (oc.normalizer_order == S.order
                             and oc.rep.order > groups.SET_CAP)
    if name == "L2(32):5":
        assert ext.outer[-1].rep.order == S.order and normal_above == 1
    if cap is not None:
        assert normal_above


def test_all_normal_chain_runs_no_transitivity_and_no_identifier(
        monkeypatch):
    """In C2^4 every class is normal: the chain's extension steps make no
    transitivity pass, build no Dress rows and identify no transversal
    (``class_columns``)."""
    calls = []
    real_pass, real_rows, real_cols = (MarksExtender.transitivity_pass,
                                       MarksExtender.dress_rows,
                                       marks.class_columns)

    def spied_pass(self, st):
        calls.append("transitivity_pass")
        return real_pass(self, st)

    def spied_rows(self):
        calls.append("dress_rows")
        return real_rows(self)

    def spied_cols(*args):
        calls.append("class_columns")
        return real_cols(*args)

    monkeypatch.setattr(MarksExtender, "transitivity_pass", spied_pass)
    monkeypatch.setattr(MarksExtender, "dress_rows", spied_rows)
    monkeypatch.setattr(marks, "class_columns", spied_cols)
    chain = solvable_pattern_chain(abelian_group((2,) * 4))
    assert chain[-1].n == 67 and not calls
    assert chain[-1].stats.probes == 0


@pytest.mark.parametrize("name", ["C2^4", "Q8"])
def test_inconsistent_normal_row_detected(name):
    """Bumping the inner-bound cell of a normal outer row in the base
    table puts the row's containment mark off the bound's progression
    mod p: the step raises instead of writing the row."""
    base, S = _extension_steps(name)[-1]
    base = base.sorted_ascending()
    ext = MarksExtender(base, S)
    cell = next(
        (oc.base_index, V.base_index)
        for ri, oc in enumerate(ext.outer)
        if oc.normalizer_order == S.order
        for V in ext.outer[:ri]
        if V.rep.is_subset_of(oc.rep))
    rows = [list(r) for r in base.rows]
    rows[cell[0]][cell[1]] += 1
    bad = SubgroupPattern(group=base.group, classes=base.classes, rows=rows,
                          stats=base.stats)
    with pytest.raises(InconsistentTableError, match="normal mark"):
        extend_table_of_marks(bad, S)


def _dress_violations_by_ints(pattern):
    """verify_dress's violation list, recomputed with Python integers."""
    out = []
    for dr in _dress_rows(pattern):
        for i in range(pattern.n):
            s = sum(n * pattern.cell(i, j) for j, n in dr.coeffs.items())
            if s % dr.modulus:
                out.append(f"row {i}: congruence of class {dr.u_index} "
                           f"fails (sum {s} mod {dr.modulus})")
    return out


def test_column_congruence_violations_match_the_cell_loop():
    """On the C2^5 table with cells bumped, one of them on the diagonal
    at a column that is some class's gamma_index, validate_pattern
    reports the mod-p column congruence violations of the loop over
    every row by ``cell``, in the same words and order."""
    pat = solvable_pattern_chain(abelian_group((2,) * 5))[-1]
    rows = [list(r) for r in pat.rows]
    g0 = next(c.gamma_index for c in pat.classes if c.gamma_index)
    for i, j in [(200, 37), (373, 0), (120, 120), (90, 2), (g0, g0)]:
        rows[i][j] += 1
    bad = SubgroupPattern(group=pat.group, classes=pat.classes, rows=rows,
                          stats=pat.stats)
    p = pat.stats.extension_p
    want = [f"column congruence mod {p} fails at row {i}, columns ({g},{j})"
            for j, g in enumerate(c.gamma_index for c in bad.classes)
            if g is not None
            for i in range(bad.n) if (bad.cell(i, j) - bad.cell(i, g)) % p]
    assert len(want) >= 3
    got = [v for v in validate_pattern(bad) if v.startswith("column")]
    assert got == want


@pytest.mark.parametrize("bump", [1, 2 ** 64 + 1])
def test_verify_dress_matches_python_ints(bump):
    """On the 374-class C2^5 table with one cell bumped (past int64 for
    the second bump), verify_dress reports exactly the violations that
    Python integer sums give, in the same words and order."""
    pat = solvable_pattern_chain(abelian_group((2,) * 5))[-1]
    assert pat.n == 374
    rows = [list(r) for r in pat.rows]
    rows[200][37] += bump
    bad = SubgroupPattern(group=pat.group, classes=pat.classes, rows=rows,
                          stats=pat.stats)
    want = _dress_violations_by_ints(bad)
    assert want and all("row 200:" in v for v in want)
    assert verify_dress(bad) == (False, want)


# ---------------------------------------------------------------------------
# validation against the dense loops


def _dense_validation(pattern):
    """validate_pattern by its dense loops, as it was before it visited
    only nonzero cells: the sign, Lagrange and divisibility checks over
    every cell, the column congruence over every row from the first of
    the two columns, and the Dress sums over columns listed by a scan of
    every cell."""
    out = []
    n = pattern.n
    G = pattern.group
    for i, row in enumerate(pattern.rows):
        if len(row) != i + 1:
            out.append(f"row {i} has length {len(row)}")
    orders = pattern.class_orders()
    for i in range(n):
        ci = pattern.classes[i]
        if ci.length * ci.normalizer_order != G.order:
            out.append(f"class {i}: length {ci.length} x normalizer "
                       f"{ci.normalizer_order} is not the group order "
                       f"{G.order}")
        if pattern.rows[i][i] != ci.normalizer_order // ci.order:
            out.append(f"diagonal {i} is not the normalizer index")
        if pattern.rows[i][0] != G.order // ci.order:
            out.append(f"first column of row {i} is not the group index")
        diag = pattern.rows[i][i]
        for j in range(i + 1):
            v = pattern.rows[i][j]
            if v < 0:
                out.append(f"negative mark at ({i},{j})")
            if v and orders[i] % orders[j]:
                out.append(f"nonzero mark at ({i},{j}) violates Lagrange")
            if diag and v % diag:
                out.append(f"mark at ({i},{j}) not divisible by diagonal")
    if orders[-1] != G.order or any(v != 1 for v in pattern.rows[-1]):
        out.append("last row is not the all-ones row of the whole group")
    p = pattern.stats.extension_p
    if p:
        for j, c in enumerate(pattern.classes):
            if c.gamma_index is None:
                continue
            g = c.gamma_index
            for i in range(min(g, j), n):
                row = pattern.rows[i]
                if ((row[j] if j <= i else 0)
                        - (row[g] if g <= i else 0)) % p:
                    out.append(
                        f"column congruence mod {p} fails at row {i}, "
                        f"columns ({g},{j})")
    columns = [[] for _ in range(n)]
    for i, row in enumerate(pattern.rows):
        for j, v in enumerate(row):
            if v:
                columns[j].append((i, v))
    for dr in _dress_rows(pattern):
        sums = {}
        for j, k in dr.coeffs.items():
            for i, v in columns[j]:
                sums[i] = sums.get(i, 0) + k * v
        for i in sorted(sums):
            if sums[i] % dr.modulus:
                out.append(f"row {i}: congruence of class {dr.u_index} "
                           f"fails (sum {sums[i]} mod {dr.modulus})")
    return out


@functools.lru_cache(maxsize=None)
def _validated_table(name):
    """The GL2(3) and C2^5 chain tables, and S6 from the A6 oracle."""
    if name == "S6":
        return extend_table_of_marks(
            table_of_marks_brute(CATALOG.group("A6")), CATALOG.group("S6"))
    G = abelian_group((2,) * 5) if name == "C2^5" else CATALOG.group(name)
    return solvable_pattern_chain(G)[-1]


def _corrupted(pat):
    """A copy of the table with five cells broken, each in its own row:
    a mark negated, a mark where Lagrange forbids one, a mark one more
    than a multiple of its diagonal 2 or more, a cell of a gamma-linked
    column bumped by p times its diagonal plus one, and a mark raised
    by twice its diagonal (a Dress break that keeps every cell check)."""
    rows = [list(r) for r in pat.rows]
    orders = pat.class_orders()
    p = pat.stats.extension_p
    used = {0, pat.n - 1}

    def cell(ok):
        i, j = next((i, j) for i in range(pat.n) if i not in used
                    for j in range(1, i) if ok(i, j))
        used.add(i)
        return i, j

    i, j = cell(lambda i, j: rows[i][j])
    rows[i][j] = -rows[i][j]
    i, j = cell(lambda i, j: orders[i] % orders[j])
    rows[i][j] = rows[i][i]
    i, j = cell(lambda i, j: rows[i][i] > 1 and not orders[i] % orders[j])
    rows[i][j] += 1
    i, j = next((i, j) for j, c in enumerate(pat.classes)
                if c.gamma_index is not None
                for i in range(j, pat.n) if i not in used)
    used.add(i)
    rows[i][j] += p * rows[i][i] + 1
    i, j = cell(lambda i, j: rows[i][j] and not orders[i] % orders[j])
    rows[i][j] += 2 * rows[i][i]
    return SubgroupPattern(group=pat.group, classes=pat.classes, rows=rows,
                           stats=pat.stats)


@pytest.mark.parametrize("name", ["GL2(3)", "C2^5", "S6"])
def test_sparse_validation_matches_the_dense_loops(name):
    """On a table with a negative mark, a Lagrange break, a mark not
    divisible by its diagonal, a column-congruence break and a Dress
    break, validate_pattern reports what the dense loops over every
    cell and every row report, in the same words and order; on the
    table itself both report nothing."""
    pat = _validated_table(name)
    assert validate_pattern(pat) == _dense_validation(pat) == []
    bad = _corrupted(pat)
    want = _dense_validation(bad)
    for text in ("negative mark", "violates Lagrange",
                 "not divisible by diagonal", "column congruence mod",
                 "congruence of class"):
        assert any(text in v for v in want), text
    assert validate_pattern(bad) == want


@pytest.mark.parametrize("shape", ["short", "long", "long last", "missing"])
def test_ragged_table_gets_only_its_shape_violations(shape, s4):
    """A row of the S4 oracle table one cell short, or one cell long with
    a nonzero extra cell (the last row's past every column), or a row
    missing: validate_pattern returns the shape lines and nothing else,
    where the cell loops raised IndexError."""
    pat = table_of_marks_brute(s4)
    rows = [list(r) for r in pat.rows]
    i = pat.n - 1 if shape == "long last" else 5
    if shape == "short":
        rows[i].pop()
    elif shape == "missing":
        rows.pop()
    else:
        rows[i].append(3)
    bad = SubgroupPattern(group=pat.group, classes=pat.classes, rows=rows,
                          stats=pat.stats)
    want = ([f"table has {pat.n - 1} rows for {pat.n} classes"]
            if shape == "missing" else
            [f"row {i} has length {len(rows[i])}"])
    assert validate_pattern(bad) == want


def test_dress_rows_of_the_c2x5_table_build_no_join_and_no_normality_test(
        monkeypatch):
    """Validating the C2^5 chain table builds its 374 Dress rows, 2 451
    joins (one per cyclic subgroup of each C2^5/U), on classes ``class_columns`` registered: no join gets a
    Subgroup handle, since each is keyed by its elements and found, and
    no row tests U for normality, since |N(U)| = |S| says N(U) is S.
    No handle is made at all: N(U) is S's one whole-group handle, which
    the chain already made."""
    pat = solvable_pattern_chain(abelian_group((2,) * 5))[-1]
    S = pat.group
    built, normal_tests = [], []
    real_init = Subgroup.__init__

    def counted_init(self, G, gens, **kw):
        built.append(kw.get("group"))
        real_init(self, G, gens, **kw)

    def counted_normal(self, other):
        normal_tests.append(self)
        return True

    monkeypatch.setattr(Subgroup, "__init__", counted_init)
    monkeypatch.setattr(Subgroup, "is_normal_in", counted_normal)
    joins = []
    real_joins = groups.cyclic_joins

    def counted_joins(*args):
        for pair in real_joins(*args):
            joins.append(pair)
            yield pair
    monkeypatch.setattr(marks, "cyclic_joins", counted_joins)
    assert validate_pattern(pat) == []
    assert pat.n == 374 and len(joins) == 2451
    assert normal_tests == []
    assert built == [] and S._whole is not None
