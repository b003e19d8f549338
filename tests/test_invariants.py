"""Cross-cutting invariants from the contract: propagation soundness in
a slow debug mode, centralizer/normalizer containments, block structure."""

import pytest

from burnside.catalog import CATALOG, abelian_group, dihedral_group
from burnside.groups import centralizer, normalizer
from burnside.lattice import (
    all_subgroup_classes_brute,
    compare_patterns,
    table_of_marks_brute,
)
from burnside.marks import MarksExtender, extend_table_of_marks
from burnside.perms import conj


def test_normalizer_contains_subgroup(s4, s5):
    for G in (s4, s5):
        for rep in all_subgroup_classes_brute(G):
            N = normalizer(G, rep)
            assert all(g in N for g in rep.gens)


def test_centralizer_contains_element_and_center():
    d8 = CATALOG.group("D8")
    center = [x for x in d8.elements()
              if all(conj(x, g) == x for g in d8.gens)]
    assert len(center) == 2
    for x in d8.elements():
        c = centralizer(d8, x)
        assert x in c
        assert all(z in c for z in center)


def test_top_right_block_is_zero(a5_pattern, s5):
    pat = extend_table_of_marks(a5_pattern, s5)
    inner = [i for i, c in enumerate(pat.classes) if c.gamma_index is None]
    outer = [j for j, c in enumerate(pat.classes)
             if c.gamma_index is not None]
    for i in inner:
        for j in outer:
            assert pat.cell(i, j) == 0


def test_column_congruence_pairs(a5_pattern, s5):
    pat = extend_table_of_marks(a5_pattern, s5)
    p = pat.stats.extension_p
    for j, c in enumerate(pat.classes):
        if c.gamma_index is None:
            continue
        for i in range(pat.n):
            assert (pat.cell(i, j) - pat.cell(i, c.gamma_index)) % p == 0


@pytest.mark.parametrize("name", ["S4", "GL2(3)", "D12", "Q8", "D8"])
def test_propagation_soundness_debug(name):
    """Slow debug mode: at every intermediate state of every outer row,
    the true (oracle) value of each undecided cell is in its candidate
    set."""
    G = CATALOG.group(name)
    oracle = table_of_marks_brute(G)
    # drive the last extension step by hand
    from burnside.groups import composition_series
    A = composition_series(G)[-2]
    from burnside.marks import solvable_pattern_chain
    base = solvable_pattern_chain(A)[-1] if A.order > 1 else None
    if base is None:
        from burnside.marks import trivial_pattern
        base = trivial_pattern(G.degree)
    ext = MarksExtender(base, G)
    ext.assemble_inner()
    # true value per (row class, col class) via conjugacy matching
    from burnside.groups import subgroup_class_id
    oracle_idx = {}
    for k, c in enumerate(oracle.classes):
        oracle_idx[subgroup_class_id(G, c.rep)] = k

    def truth(i, j):
        oi = oracle_idx[subgroup_class_id(G, ext.class_reps[i])]
        oj = oracle_idx[subgroup_class_id(G, ext.class_reps[j])]
        return oracle.cell(oi, oj)

    def check(st):
        for j, opts in st.cand.items():
            assert truth(st.index, j) in opts, \
                f"row {st.index} col {j}: truth {truth(st.index, j)} " \
                f"not in {opts}"

    for ri in range(len(ext.outer)):
        st = ext.init_row(ri)
        check(st)
        while st.cand:
            progress = ext.transitivity_pass(st)
            check(st)
            if st.cand and ext.dress_pass(st):
                progress = True
            check(st)
            if not progress and st.cand:
                ext.probe_one(st)
                check(st)
        for j in range(ext.b, st.index + 1):
            assert st.values[j] == truth(st.index, j)
        ext.rows.append([int(v) for v in st.values])


def test_extension_matches_oracle_spot_checks():
    for G in (dihedral_group(9), abelian_group((9, 3)),
              abelian_group((8, 2))):
        from burnside.marks import solvable_pattern_chain
        assert compare_patterns(solvable_pattern_chain(G)[-1],
                                table_of_marks_brute(G)).matched
