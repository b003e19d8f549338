"""Serialization round-trips, golden text output, and the CLI surface."""

import json
import io
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from fixtures import spy_dress_builds

import burnside
from burnside import cli
from burnside.catalog import CATALOG, abelian_group
from burnside.extension import InconsistentTableError
from burnside.cli import main
from burnside.groups import PermGroup
from burnside.lattice import DEFAULT_CAP, table_of_marks_brute
from burnside.marks import (
    counted_pattern,
    extend_table_of_marks,
    solvable_pattern_chain,
    trivial_pattern,
)
from burnside.naming import subgroup_name
from burnside.patterns import (
    PatternFormatError,
    pattern_from_dict,
    pattern_from_json,
    pattern_to_dict,
    pattern_to_json,
    render_text,
)
from burnside.perms import parse_cycles

GOLDEN = Path(__file__).parent / "golden"


def _capture(argv):
    out = io.StringIO()
    old = sys.stdout
    sys.stdout = out
    try:
        code = main(argv)
    finally:
        sys.stdout = old
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# serialization


def test_json_schema_keys(a5_pattern):
    doc = pattern_to_dict(a5_pattern, "A5")
    assert set(doc) == {"group", "degree", "classes", "marks", "stats"}
    assert doc["group"] == "A5" and doc["degree"] == 5
    assert set(doc["classes"][0]) == {"order", "length", "normalizer",
                                      "generators"}
    assert set(doc["stats"]) == {"probes", "max_probe", "millis"}
    assert [len(r) for r in doc["marks"]] == list(range(1, 10))


def test_json_round_trip(a5_pattern, a5):
    text = pattern_to_json(a5_pattern, "A5")
    back = pattern_from_json(text, a5)
    assert back.rows == a5_pattern.rows
    assert [c.order for c in back.classes] == \
        [c.order for c in a5_pattern.classes]
    assert [c.normalizer_order for c in back.classes] == \
        [c.normalizer_order for c in a5_pattern.classes]
    # representatives generate conjugate subgroups
    from burnside.groups import are_conjugate_subgroups
    for c1, c2 in zip(a5_pattern.classes, back.classes):
        assert are_conjugate_subgroups(a5, c1.rep, c2.rep) is not None


def _assert_json_is_reference(pattern, name):
    """``pattern_to_json`` equals ``json.dumps(..., indent=1)`` of the
    document; a mismatch names the first differing offset (a diff of the
    whole text would take minutes)."""
    got = pattern_to_json(pattern, name)
    ref = json.dumps(pattern_to_dict(pattern, name), indent=1)
    if got != ref:
        at = next((k for k, (a, b) in enumerate(zip(got, ref)) if a != b),
                  min(len(got), len(ref)))
        pytest.fail(f"{name}: differs at {at}: {got[at - 40:at + 40]!r} "
                    f"!= {ref[at - 40:at + 40]!r}")


def test_json_writer_matches_json_dumps_on_every_catalog_oracle():
    """The marks written row by row give the bytes of ``json.dumps`` with
    ``indent=1`` on the oracle pattern of every catalog group under the
    cap (the trivial group among them, whose class has no generators)."""
    seen = 0
    for entry in CATALOG.entries.values():
        G = CATALOG.group(entry.name)
        if G.order > DEFAULT_CAP:
            continue
        _assert_json_is_reference(table_of_marks_brute(G), entry.name)
        seen += 1
    assert seen == len(CATALOG.entries) - 2   # all but L2(32), L2(32):5


def test_json_writer_matches_json_dumps_on_chains_and_edge_cases(a5_pattern):
    """Byte equality on the C2^5 chain's top pattern, the trivial pattern
    (``"generators": []``), and group names that need escapes or are not
    ASCII."""
    top = solvable_pattern_chain(abelian_group((2,) * 5))[-1]
    assert top.n == 374
    triv = trivial_pattern()
    assert '"generators": []' in pattern_to_json(triv, "trivial")
    cases = [(top, "C2^5"), (triv, "trivial")]
    cases += [(a5_pattern, name)
              for name in ("<10>", 'a "quoted" \\ name', "A\u2085 \u00e9")]
    for pat, name in cases:
        _assert_json_is_reference(pat, name)


def test_json_rejects_wrong_order(a5_pattern, a5):
    doc = pattern_to_dict(a5_pattern, "A5")
    doc["classes"][1]["order"] = 3
    with pytest.raises(PatternFormatError):
        pattern_from_json(json.dumps(doc), a5)


def test_json_rejects_bad_shape(a5_pattern, a5):
    doc = pattern_to_dict(a5_pattern, "A5")
    doc["marks"][2] = [1, 2, 3, 4, 5]
    with pytest.raises(PatternFormatError):
        pattern_from_json(json.dumps(doc), a5)


def test_determinism_byte_identical(a5):
    """Two runs serialize identically (timing normalized)."""
    def one():
        pat = table_of_marks_brute(
            CATALOG.entries[[k for k in CATALOG.entries
                             if CATALOG.entries[k].name == "A5"][0]].build())
        doc = pattern_to_dict(pat, "A5")
        doc["stats"]["millis"] = 0
        return json.dumps(doc, sort_keys=True)
    assert one() == one()


def test_determinism_extension(s5, a5_pattern):
    d1 = pattern_to_dict(extend_table_of_marks(a5_pattern, s5), "S5")
    d2 = pattern_to_dict(extend_table_of_marks(a5_pattern, s5), "S5")
    d1["stats"]["millis"] = d2["stats"]["millis"] = 0
    assert json.dumps(d1) == json.dumps(d2)


# ---------------------------------------------------------------------------
# golden text


def test_text_golden_a5(a5_pattern):
    want = (GOLDEN / "a5.txt").read_text()
    assert render_text(a5_pattern, "A5") == want


def test_text_golden_s5(a5_pattern, s5):
    pat = extend_table_of_marks(a5_pattern, s5)
    want = (GOLDEN / "s5.txt").read_text()
    assert render_text(pat, "S5") == want


def test_text_zeros_are_dots(a5_pattern):
    text = render_text(a5_pattern, "A5")
    body = [ln for ln in text.splitlines() if ln.startswith("A5/")]
    assert any(" ." in ln for ln in body)
    cells = [c for ln in body for c in ln.split()[1:]]
    assert "0" not in cells


# ---------------------------------------------------------------------------
# CLI


def test_cli_subgroups_s4():
    code, out = _capture(["subgroups", "S4"])
    assert code == 0
    assert len(out.strip().splitlines()) == 11


def test_cli_subgroups_gl23():
    code, out = _capture(["subgroups", "GL23"])
    assert code == 0
    assert len(out.strip().splitlines()) == 16


def test_cli_subgroups_inline_gens():
    code, out = _capture(["subgroups", "--gens", "(1,2,3)", "3"])
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def test_cli_unknown_group():
    code, _ = _capture(["subgroups", "NOSUCH"])
    assert code == 2


def test_cli_nonsolvable_inline_small_uses_oracle():
    # a small non-solvable inline group falls back to the brute oracle
    code, out = _capture(["subgroups", "--gens", "(1,2,3)", "--gens",
                          "(3,4,5)", "5"])
    assert code == 0
    assert len(out.strip().splitlines()) == 9


def test_cli_nonsolvable_beyond_cap_exits_3(monkeypatch):
    monkeypatch.setenv("MARKS_MAX_ORDER", "50")
    code, _ = _capture(["subgroups", "--gens", "(1,2,3)", "--gens",
                        "(3,4,5)", "5"])
    assert code == 3


def test_cli_tom_text_matches_golden(tmp_path):
    code, out = _capture(["tom", "A5", "--via", "oracle"])
    assert code == 0
    assert out == (GOLDEN / "a5.txt").read_text()


def test_cli_subgroups_l2_32_5_matches_golden():
    """The class search of L2(32), then one class step whose normalizer
    orders are derived from the classes of L2(32): 30 classes with their
    orders, lengths and normalizer orders."""
    code, out = _capture(["subgroups", "L2(32):5"])
    assert code == 0
    assert out == (GOLDEN / "l2_32_5_subgroups.txt").read_text()


@pytest.fixture(scope="module")
def l2_32_5_file(tmp_path_factory):
    """``tom L2(32):5 --format json``: the class search of L2(32), its
    counted table, then one marks step."""
    path = tmp_path_factory.mktemp("l2325") / "l2325.json"
    code, _ = _capture(["tom", "L2(32):5", "--format", "json",
                        "--out", str(path)])
    assert code == 0
    return path


def test_cli_tom_l2_32_5_verifies(l2_32_5_file):
    code, out = _capture(["verify", str(l2_32_5_file)])
    assert code == 0 and out == "ok: 30 classes, all invariants hold\n"


def test_cli_tom_l2_32_5_has_the_golden_class_orders(l2_32_5_file):
    doc = json.loads(l2_32_5_file.read_text())
    golden = [int(line.split()[2]) for line in
              (GOLDEN / "l2_32_5_subgroups.txt").read_text().splitlines()]
    assert sorted(c["order"] for c in doc["classes"]) == golden
    assert doc["stats"]["probes"] == 0


def test_cli_tom_l2_32_5_json_matches_golden(l2_32_5_file):
    """The paper's largest example, whole: every class's generators,
    orders and table row are pinned, millis masked."""
    assert _mask_millis(l2_32_5_file.read_text()) == (
        GOLDEN / "l2_32_5.json").read_text()


def test_cli_tom_l2_32_5_equals_a_fresh_count(l2_32_5_file):
    """The engine's table equals the table counted by ``mark_row`` on a
    fresh L2(32):5 (reading the file classifies nothing) from the same
    representatives."""
    S = CATALOG.get("L2(32):5").build()
    pat = pattern_from_json(l2_32_5_file.read_text(), S).sorted_ascending()
    assert counted_pattern(S, [c.rep for c in pat.classes]).rows == pat.rows


def test_cli_bench_l2_32_5_row():
    row = cli._bench_row("L2(32):5")
    assert row[:5] == ("L2(32):5", 24, 30, 0, 0)


def test_cli_names_a_cyclic_group_above_set_cap():
    """Four disjoint cycles of lengths 5, 7, 11 and 13 generate C5005,
    above SET_CAP, where no order profile is read: its name comes from
    its commuting generators, and every subgroup is named C<order>."""
    cycles = "".join(
        "(" + ",".join(map(str, range(a, b))) + ")"
        for a, b in ((1, 6), (6, 13), (13, 24), (24, 37)))
    code, out = _capture(["subgroups", "36", "--gens", cycles])
    assert code == 0
    lines = [line.split() for line in out.splitlines()]
    assert [words[2] for words in lines][-1] == "5005" and len(lines) == 16
    assert [words[-1] for words in lines] == \
        ["1"] + [f"C{words[2]}" for words in lines[1:]]


def test_subgroup_names_above_set_cap():
    """Above SET_CAP a cyclic group is C<order>, whatever its generators;
    a group whose order is in the name table gets that name, and any
    other group G<order>."""
    def handle(degree, *cycles):
        return PermGroup([parse_cycles(c, degree) for c in cycles],
                         degree).as_subgroup()

    def cycle(a, b):
        return "(" + ",".join(map(str, range(a, b))) + ")"

    c5005 = handle(36, cycle(1, 6) + cycle(6, 13),
                   cycle(13, 24) + cycle(24, 37))
    c71_2 = handle(142, cycle(1, 72), cycle(72, 143))
    l2_32 = CATALOG.group("L2(32)").as_subgroup()
    assert [H.order for H in (c5005, c71_2, l2_32)] == [5005, 5041, 32736]
    assert [H.is_cyclic() for H in (c5005, c71_2, l2_32)] == \
        [True, False, False]
    assert [subgroup_name(H) for H in (c5005, c71_2, l2_32)] == \
        ["C5005", "G5041", "L2(32)"]


def test_order_only_names_above_set_cap_need_a_non_abelian_group():
    """The name table's entry for order 32 736 names L2(32), whose
    generators do not all commute, and not the non-cyclic abelian group
    C2 x C16 x C3 x C11 x C31 (C2 x C16368) of the same order, which is
    G32736."""
    abelian = abelian_group((2, 16, 3, 11, 31)).as_subgroup()
    l2_32 = CATALOG.group("L2(32)").as_subgroup()
    assert abelian.order == l2_32.order == 32736
    assert [H.is_abelian() for H in (abelian, l2_32)] == [True, False]
    assert subgroup_name(abelian) == "G32736"
    assert subgroup_name(l2_32) == "L2(32)"


def test_cli_inconsistent_step_exits_4(monkeypatch, capsys):
    """A class step that finds its input inconsistent ends the command
    with exit 4 and an error line, not a traceback."""
    def inconsistent(*args):
        raise InconsistentTableError("inconsistent class fusion")

    monkeypatch.setattr(cli, "extend_classes", inconsistent)
    assert main(["subgroups", "S4"]) == 4
    assert capsys.readouterr().err == "error: inconsistent class fusion\n"


def test_cli_tom_json_round_trip(tmp_path, s5):
    path = tmp_path / "s5.json"
    code, _ = _capture(["tom", "S5", "--out", str(path), "--format", "json"])
    assert code == 0
    pat = pattern_from_json(path.read_text(), s5)
    assert pat.n == 19


def test_cli_tom_with_base(tmp_path):
    base = tmp_path / "a5.pattern.json"
    code, _ = _capture(["tom", "A5", "--via", "oracle", "--format", "json",
                        "--out", str(base)])
    assert code == 0
    code, out = _capture(["tom", "S5", "--via", "extension", "--base",
                          str(base)])
    assert code == 0
    assert out == (GOLDEN / "s5.txt").read_text()


def test_tom_with_base_builds_each_dress_row_once(tmp_path, monkeypatch):
    """``tom S6 --base`` validates the A6 file, extends it and validates
    the result.  Each (group, class) Dress row is built once, 78 in all:
    A6's 22 by the check of the file, S6's 56 by the engine, whose rows
    the check of the result reads.  The table is the one of the
    catalog's route from A6."""
    a6 = tmp_path / "a6.json"
    code, _ = _capture(["tom", "A6", "--via", "oracle", "--format", "json",
                        "--out", str(a6)])
    assert code == 0
    # fresh catalog groups, with no row kept from an earlier test
    monkeypatch.setattr(CATALOG, "_built", {})
    built = spy_dress_builds(monkeypatch)
    code, out = _capture(["tom", "S6", "--base", str(a6)])
    assert code == 0
    assert len(built) == len(set(built)) == 78
    assert _capture(["tom", "S6", "--via", "extension"]) == (0, out)


def test_cli_verify_pass_and_fail(tmp_path):
    good = tmp_path / "a5.json"
    code, _ = _capture(["tom", "A5", "--via", "oracle", "--format", "json",
                        "--out", str(good)])
    assert code == 0
    code, out = _capture(["verify", str(good)])
    assert code == 0 and "ok" in out
    doc = json.loads(good.read_text())
    doc["marks"][6][1] += 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out = _capture(["verify", str(bad)])
    assert code == 4
    assert "congruence" in out or "FAIL" in out


INLINE_A4 = ["tom", "4", "--gens", "(1,2,3)", "--gens", "(1,2)(3,4)"]
INLINE_S4 = ["tom", "4", "--gens", "(1,2,3,4)", "--gens", "(1,2)"]
NO_GROUP = "the last class gives no group"


def test_cli_inline_group_file_reads_back(tmp_path):
    """A table written by ``tom 4 --gens`` names its group ``<4>``; it is
    read onto the group its last class spans, so ``verify`` accepts it,
    and as the base of S4 it gives the table of S4's own route."""
    a4 = tmp_path / "a4.json"
    assert _capture(INLINE_A4 + ["--format", "json", "--out", str(a4)]) == (
        0, "")
    assert json.loads(a4.read_text())["group"] == "<4>"
    assert _capture(["verify", str(a4)]) == (
        0, "ok: 5 classes, all invariants hold\n")
    code, out = _capture(INLINE_S4 + ["--base", str(a4)])
    assert code == 0 and "classes: 11" in out
    assert _capture(INLINE_S4) == (0, out)


@pytest.mark.parametrize("fields, message", [
    ({"group": "<5>"}, "unknown group '<5>'"),
    ({"group": "<4> "}, "unknown group '<4> '"),
    ({"group": "4"}, "unknown group '4'"),
    ({"degree": "4"}, "unknown group '<4>'"),
    ({"classes": []}, NO_GROUP),
    ({"classes": [{"order": 1}]}, NO_GROUP),
    ({"classes": [{"generators": ["(1,5)"]}]}, NO_GROUP),
])
def test_cli_inline_group_file_needs_its_degree_and_generators(
        fields, message, tmp_path, capsys):
    """Only a name ``<d>`` with d the file's integer degree reads a file
    onto the group of its last class; any other unknown name, or a last
    class with no usable generators, exits 2."""
    a4 = tmp_path / "a4.json"
    assert _capture(INLINE_A4 + ["--format", "json", "--out", str(a4)])[0] == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**json.loads(a4.read_text()), **fields}))
    capsys.readouterr()
    for argv in (["verify", str(bad)], INLINE_S4 + ["--base", str(bad)]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and message in err, argv


@pytest.mark.parametrize("command", ["tom", "verify"])
def test_cli_refuses_a_huge_degree(command, tmp_path):
    """A degree above ``cli.MAX_DEGREE``, inline or in a file naming
    ``<d>``, exits 2 before any tuple of that degree is built.  The
    file's last class has no generators, so its group would start from
    the identity.  The child's address space is capped at 2 GB, so such
    a tuple dies of a MemoryError instead of filling the machine."""
    degree = 10 ** 13
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"group": f"<{degree}>", "degree": degree,
                                "classes": [{"generators": []}]}))
    argv = (["tom", str(degree), "--gens", "(1,2)"] if command == "tom"
            else ["verify", str(path)])
    run = subprocess.run(
        [sys.executable, "-m", "burnside.cli", *argv],
        env=dict(os.environ, PYTHONPATH=str(
            Path(burnside.__file__).resolve().parents[1])),
        capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(
            resource.RLIMIT_AS, (2 * 10 ** 9, 2 * 10 ** 9)))
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr == (f"error: degree {degree} is above the limit "
                          f"{cli.MAX_DEGREE}\n")


def test_cli_out_of_memory_exits_3():
    """A computation that runs out of memory exits 3 with one error
    line and no traceback.  The chain of an 8000-cycle holds two
    8000 x 8000 tables of element tuples, which a child whose address
    space is capped at 500 MB cannot build."""
    degree = 8000
    cycle = "(" + ",".join(map(str, range(1, degree + 1))) + ")"
    run = subprocess.run(
        [sys.executable, "-m", "burnside.cli", "tom", str(degree),
         "--gens", cycle],
        env=dict(os.environ, PYTHONPATH=str(
            Path(burnside.__file__).resolve().parents[1])),
        capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(
            resource.RLIMIT_AS, (5 * 10 ** 8, 5 * 10 ** 8)))
    assert (run.returncode, run.stdout) == (3, "")
    assert run.stderr == "error: out of memory\n"


def test_cli_verify_parse_failure(tmp_path):
    f = tmp_path / "junk.json"
    f.write_text("{not json")
    code, _ = _capture(["verify", str(f)])
    assert code == 2


@pytest.mark.parametrize("where", ["missing directory", "a directory"])
def test_cli_tom_unwritable_out_exits_2(where, tmp_path, capsys):
    out = (tmp_path / "missing" / "x.json" if where == "missing directory"
           else tmp_path)
    capsys.readouterr()
    assert main(["tom", "S4", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert captured.out == ""


def test_cli_verify_trivial(tmp_path):
    code, _ = _capture(["tom", "trivial", "--format", "json", "--out",
                        str(tmp_path / "t.json")])
    assert code == 0
    code, out = _capture(["verify", str(tmp_path / "t.json")])
    assert code == 0


def _a5_raise_mark(doc):
    doc["marks"][6][1] += 1


def _a5_mark_an_absent_subgroup(doc):
    # A4 (class 7) has no S3 (class 5); 2 x diagonal keeps every check of
    # the file itself, but the S5 table extended from it breaks Dress
    doc["marks"][7][5] += 2 * doc["marks"][5][5]


def _a5_double_length_of_class_2(doc):
    # C3 has 10 conjugates in A5, not 20; its normalizer order stays 6
    assert doc["classes"][2]["length"] == 10
    doc["classes"][2]["length"] = 20


def test_cli_bad_base_fails_validation(tmp_path):
    good = tmp_path / "a5.json"
    _capture(["tom", "A5", "--via", "oracle", "--format", "json",
              "--out", str(good)])
    for corrupt in (_a5_raise_mark, _a5_mark_an_absent_subgroup,
                    _a5_double_length_of_class_2):
        doc = json.loads(good.read_text())
        corrupt(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out = _capture(["tom", "S5", "--via", "extension", "--base",
                              str(bad)])
        assert (code, out) == (4, ""), corrupt.__name__


def test_cli_bench_rows():
    code, out = _capture(["bench", "C2", "S5"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "group,classes-in,classes-out,probes,max-probe,millis"
    c2 = lines[1].split(",")
    assert c2[:5] == ["C2", "1", "2", "0", "0"]
    s5row = lines[2].split(",")
    assert s5row[:5] == ["S5", "9", "19", "0", "0"]


def _s5_repeat_class_1(doc):
    # class 2 repeats the class-1 generators (both order 2 in S5)
    assert doc["classes"][1]["order"] == doc["classes"][2]["order"] == 2
    doc["classes"][2]["generators"] = doc["classes"][1]["generators"]


def _a4_drop_order_3(doc):
    # the order-3 class goes, with its row and its column
    k = [c["order"] for c in doc["classes"]].index(3)
    del doc["classes"][k]
    doc["marks"] = [row[:k] + row[k + 1:]
                    for i, row in enumerate(doc["marks"]) if i != k]


def test_cli_conjugate_representatives_fail_validation(tmp_path):
    """A pattern file whose transversal repeats a class or misses one, or
    whose class length disagrees with its normalizer, is a validation
    failure, for verify and for --base."""
    for group, target, corrupt, fail in [
        ("S5", "S5", _s5_repeat_class_1,
         "FAIL: transversal contains conjugate duplicates"),
        ("A4", "S4", _a4_drop_order_3,
         "FAIL: generated subgroup matches no class of the transversal"),
        ("A5", "S5", _a5_double_length_of_class_2,
         "FAIL: class 2: length 20 x normalizer 6 is not the group order"),
    ]:
        good = tmp_path / "good.json"
        code, _ = _capture(["tom", group, "--via", "oracle", "--format",
                            "json", "--out", str(good)])
        assert code == 0
        doc = json.loads(good.read_text())
        corrupt(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out = _capture(["verify", str(bad)])
        assert code == 4 and fail in out, out
        code, _ = _capture(["tom", target, "--via", "extension", "--base",
                            str(bad)])
        assert code == 4, corrupt.__name__


def test_cli_bench_millis_is_the_whole_chain(monkeypatch):
    """The solvable row times the whole chain, not its last step: with a
    clock that ticks one second per reading, the row spans every reading
    while the last step's own stats span one tick."""
    import burnside.cli as cli

    ticks = []

    def clock():
        ticks.append(len(ticks))
        return float(len(ticks))

    monkeypatch.setattr(cli.time, "monotonic", clock)
    row = cli._bench_row("C4")
    assert row[:3] == ("C4", 2, 3)
    # cli start, two readings per extension step, cli end
    assert len(ticks) == 2 + 2 * 2
    assert row[5] == (len(ticks) - 1) * 1000


@pytest.fixture(scope="module")
def base_files(tmp_path_factory):
    """Oracle pattern files of A4, D8 and A5, by name."""
    d = tmp_path_factory.mktemp("bases")
    paths = {}
    for name in ("A4", "D8", "A5"):
        paths[name] = str(d / f"{name}.json")
        code, _ = _capture(["tom", name, "--via", "oracle", "--format",
                            "json", "--out", paths[name]])
        assert code == 0
    return paths


HEADER = "group,classes-in,classes-out,probes,max-probe,millis"


ROUTES = [
    # a base file that is not a normal prime-index subgroup
    (["subgroups", "S5", "--base", "A4"], {}, 4, ""),
    (["subgroups", "S4", "--base", "D8"], {}, 4, ""),
    (["tom", "S4", "--via", "extension", "--base", "D8"], {}, 4, ""),
    (["tom", "S5", "--base", "A4"], {}, 4, ""),
    (["tom", "A5", "--base", "A5"], {}, 4, ""),
    # no route
    (["tom", "L2(32)", "--via", "extension"], {}, 3, ""),
    (["tom", "L2(32)", "--via", "oracle"], {}, 3, ""),
    (["bench", "A5"], {}, 3, HEADER),
    (["tom", "A5", "--via", "extension"], {}, 3, ""),
    (["subgroups", "--gens", "(1,2,3)", "--gens", "(3,4,5)", "5"],
     {"MARKS_MAX_ORDER": "50"}, 3, ""),
    # working routes
    (["subgroups", "S4"], {},
     0, "   1  order      1  length      1  normalizer     24  1"),
    (["subgroups", "S5", "--base", "A5"], {},
     0, "   1  order      1  length      1  normalizer    120  1"),
    (["subgroups", "--gens", "(1,2,3)", "--gens", "(3,4,5)", "5"], {},
     0, "   1  order      1  length      1  normalizer     60  1"),
    (["tom", "S5", "--base", "A5"], {}, 0, "S5/1   120"),
    (["tom", "S5", "--via", "oracle", "--base", "A4"], {}, 0, "S5/1   120"),
    (["tom", "GL23", "--via", "extension"], {}, 0, "GL2(3)/1            48"),
    (["tom", "trivial"], {}, 0, "trivial/1  1"),
    (["bench", "C2"], {}, 0, HEADER),
    # the class search of L2(32), its table counted, and one step above
    (["tom", "L2(32)"], {}, 0, "L2(32)/1         32736"),
    (["tom", "L2(32):5"], {}, 0, "L2(32):5/1          163680"),
    (["tom", "L2(32):5", "--via", "extension"], {}, 0,
     "L2(32):5/1          163680"),
    (["bench", "L2(32):5"], {}, 0, HEADER),
]


@pytest.mark.parametrize("argv, env, code, first", ROUTES,
                         ids=[" ".join([f"{k}={v}" for k, v in r[1].items()]
                                       + r[0]) for r in ROUTES])
def test_cli_routes(argv, env, code, first, base_files, monkeypatch,
                    capsys):
    """Exit code and first stdout line of every route; a failing route
    prints an error line, never a traceback."""
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    argv = [base_files.get(a, a) if argv[i - 1] == "--base" else a
            for i, a in enumerate(argv)]
    capsys.readouterr()
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert (out.splitlines() or [""])[0] == first
    if code:
        assert err.startswith("error: ")


BAD_PATTERN_FILES = {
    "not utf-8": b"\xff\xfe{}",
    "no generators": {"group": "A5", "degree": 5, "classes": [
        {"order": 1, "length": 1, "normalizer": 60}], "marks": [[60]]},
    "no length": {"group": "A5", "degree": 5, "classes": [
        {"order": 1, "normalizer": 60, "generators": []}], "marks": [[60]]},
    "class not an object": {"group": "A5", "degree": 5, "classes": [7],
                            "marks": [[60]]},
    "group not a string": {"group": 5, "degree": 5, "classes": [
        {"order": 1, "length": 1, "normalizer": 60, "generators": []}],
        "marks": [[60]]},
}
A5_TRIVIAL = {"group": "A5", "degree": 5, "classes": [
    {"order": 1, "length": 1, "normalizer": 60, "generators": []}],
    "marks": [[60]]}
# a malformed field of an otherwise valid file -> the error names it
BAD_FIELDS = {
    "generator not a string": ({"classes": [
        {"order": 1, "length": 1, "normalizer": 60, "generators": [7]}]},
        "class 0: bad generators"),
    "classes not a list": ({"classes": 5}, "classes is not a list"),
    "marks not a list": ({"marks": 5}, "marks is not a list"),
    "mark not an integer": ({"marks": [["x"]]},
                            "mark (0,0) is not an integer"),
    "stats not an object": ({"stats": 3}, "stats is not an object"),
    "probes a string": ({"stats": {"probes": "x"}},
                        "stats: probes is not an integer"),
    "max_probe a float": ({"stats": {"max_probe": 1.5}},
                          "stats: max_probe is not an integer"),
    "millis a bool": ({"stats": {"millis": True}},
                      "stats: millis is not an integer"),
    "degree a string": ({"degree": "5"}, "degree is not an integer"),
    "no classes": ({"classes": [], "marks": []}, "classes is empty"),
}
BAD_PATTERN_FILES.update(
    {k: {**A5_TRIVIAL, **v} for k, (v, _) in BAD_FIELDS.items()})


@pytest.mark.parametrize("content", BAD_PATTERN_FILES.values(),
                         ids=BAD_PATTERN_FILES.keys())
def test_cli_verify_malformed_pattern_file_exits_2(content, tmp_path, capsys):
    path = tmp_path / "pattern.json"
    if isinstance(content, dict):
        content = json.dumps(content).encode()
    path.write_bytes(content)
    capsys.readouterr()
    assert main(["verify", str(path)]) == 2
    _, err = capsys.readouterr()
    assert err.startswith("error: ")


@pytest.mark.parametrize("fields,word", BAD_FIELDS.values(),
                         ids=BAD_FIELDS.keys())
def test_pattern_from_dict_names_the_malformed_field(fields, word):
    with pytest.raises(PatternFormatError, match=re.escape(word)):
        pattern_from_dict({**A5_TRIVIAL, **fields}, CATALOG.group("A5"))


def _mask_millis(text: str) -> str:
    return re.sub(r'"millis": \d+', '"millis": 0', text)


@pytest.mark.parametrize("where", ["in-process", "python -O"])
def test_cli_tom_gl23_json_matches_golden(where):
    """The generator strings of every class are pinned, not only the
    class names the text goldens print."""
    argv = ["tom", "GL23", "--format", "json"]
    if where == "in-process":
        code, out = _capture(argv)
    else:
        src = str(Path(burnside.__file__).resolve().parents[1])
        run = subprocess.run(
            [sys.executable, "-O", "-m", "burnside.cli", *argv],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=300)
        code, out = run.returncode, run.stdout
    assert code == 0
    assert _mask_millis(out) == _mask_millis(
        (GOLDEN / "gl23.json").read_text())


def test_cli_tom_s6_oracle_json_matches_golden():
    """The oracle's transversal and counted table of S6, whose perfect
    residuum A6 lies strictly between 1 and S6, so both of the oracle's
    residuum caps (|A6|/5 inside A6, |S6|/5 outside) cut its joins."""
    code, out = _capture(["tom", "S6", "--via", "oracle", "--format", "json"])
    assert code == 0
    assert _mask_millis(out) == (GOLDEN / "s6_oracle.json").read_text()
