"""Serialization of subgroup patterns: machine-readable JSON and the
classic text triangle (zeros printed as dots).

The JSON schema is frozen:

    {"group": str, "degree": int,
     "classes": [{"order": int, "length": int, "normalizer": int,
                  "generators": [str]}],
     "marks": [[int], ...],           # lower-triangular, row i has i+1 cells
     "stats": {"probes": int, "max_probe": int, "millis": int}}

Loading a document needs the ambient group, resolved by name from the
catalog (or supplied directly); representatives are rebuilt from their
generator strings and cross-checked against the stored orders.
"""

from __future__ import annotations

import json

from .groups import PermGroup, Subgroup, collector_paused
from .marks import PatternClass, PatternStats, SubgroupPattern
from .naming import subgroup_name
from .perms import format_tuple, parse_cycles


class PatternFormatError(ValueError):
    """The document does not follow the schema or contradicts itself."""


def _head(pattern: SubgroupPattern, name: str) -> dict:
    """The document's fields before ``marks``."""
    return {
        "group": name,
        "degree": pattern.group.degree,
        "classes": [
            {
                "order": c.order,
                "length": c.length,
                "normalizer": c.normalizer_order,
                "generators": [format_tuple(g) for g in c.rep.gens],
            }
            for c in pattern.classes
        ],
    }


def _stats(pattern: SubgroupPattern) -> dict:
    return {
        "probes": pattern.stats.probes,
        "max_probe": pattern.stats.max_probe,
        "millis": pattern.stats.millis,
    }


def pattern_to_dict(pattern: SubgroupPattern, name: str) -> dict:
    doc = _head(pattern, name)
    doc["marks"] = [list(map(int, row)) for row in pattern.rows]
    doc["stats"] = _stats(pattern)
    return doc


def _json_rows(rows) -> str:
    """The marks at depth 1 of an ``indent=1`` document, laid out as
    ``json.dumps`` lays out a non-empty list of non-empty rows: one
    number per line."""
    return "[\n  " + ",\n  ".join(
        "[\n   " + ",\n   ".join(map(int.__repr__, row)) + "\n  ]"
        for row in rows) + "\n ]"


@collector_paused
def pattern_to_json(pattern: SubgroupPattern, name: str) -> str:
    """``json.dumps(pattern_to_dict(pattern, name), indent=1)``, with the
    marks written row by row by ``str.join``; every string and the rest
    of the document still go through ``json.dumps``."""
    head = json.dumps(_head(pattern, name), indent=1)
    tail = json.dumps({"stats": _stats(pattern)}, indent=1)
    # head ends with "\n}", tail starts with "{": splice the marks between
    return (head[:-2] + ',\n "marks": ' + _json_rows(pattern.rows) + ","
            + tail[1:])


_KINDS = {int: "an integer", list: "a list", dict: "an object"}


def _expect(value, kind: type, what: str):
    """The value, if it is of the kind (a bool is not an integer)."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise PatternFormatError(f"{what} is not {_KINDS[kind]}: {value!r}")
    return value


@collector_paused
def pattern_from_dict(doc: dict, group: PermGroup) -> SubgroupPattern:
    try:
        degree = doc["degree"]
        raw_classes = doc["classes"]
        marks = doc["marks"]
        stats = doc.get("stats", {})
    except (KeyError, TypeError) as exc:
        raise PatternFormatError(f"missing field: {exc}") from exc
    if _expect(degree, int, "degree") != group.degree:
        raise PatternFormatError(
            f"degree {degree} does not match the group's {group.degree}")
    if not _expect(raw_classes, list, "classes"):
        raise PatternFormatError("classes is empty")
    classes = []
    for k, rc in enumerate(raw_classes):
        _expect(rc, dict, f"class {k}")
        try:
            order, length = rc["order"], rc["length"]
            normalizer_order, gen_strings = rc["normalizer"], rc["generators"]
        except KeyError as exc:
            raise PatternFormatError(
                f"class {k}: missing field {exc}") from exc
        for key in ("order", "length", "normalizer"):
            _expect(rc[key], int, f"class {k}: {key}")
        try:
            gens = [parse_cycles(s, degree) for s in gen_strings]
            rep = Subgroup(group, gens, check=True)
        except (ValueError, TypeError) as exc:
            raise PatternFormatError(
                f"class {k}: bad generators ({exc})") from exc
        if rep.order != order:
            raise PatternFormatError(
                f"class {k}: generators span order {rep.order}, "
                f"stated {order}")
        classes.append(PatternClass(
            rep=rep, order=order, length=length,
            normalizer_order=normalizer_order))
    if len(_expect(marks, list, "marks")) != len(classes):
        raise PatternFormatError("marks row count differs from class count")
    for i, row in enumerate(marks):
        if len(_expect(row, list, f"marks row {i}")) != i + 1:
            raise PatternFormatError(f"marks row {i} is not lower-triangular")
        for j, v in enumerate(row):
            _expect(v, int, f"mark ({i},{j})")
    _expect(stats, dict, "stats")
    st = PatternStats(**{
        key: _expect(stats.get(key, 0), int, f"stats: {key}")
        for key in ("probes", "max_probe", "millis")})
    return SubgroupPattern(group=group, classes=classes,
                           rows=[list(r) for r in marks], stats=st)


@collector_paused
def pattern_from_json(text: str, group: PermGroup) -> SubgroupPattern:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PatternFormatError(f"not valid JSON: {exc}") from exc
    return pattern_from_dict(doc, group)


def render_text(pattern: SubgroupPattern, name: str) -> str:
    """Text triangle: rows labeled name/H, zeros as dots, and a
    footer line with the class labels."""
    labels = [subgroup_name(c.rep) for c in pattern.classes]
    row_labels = [f"{name}/{lbl}" for lbl in labels]
    lw = max(len(r) for r in row_labels)
    cells = [[(str(v) if v else ".") for v in row] for row in pattern.rows]
    cw = max(2, max(len(c) for row in cells for c in row),
             max(len(lbl) for lbl in labels))
    lines = []
    for rl, row in zip(row_labels, cells):
        lines.append(rl.ljust(lw) + " " +
                     " ".join(c.rjust(cw) for c in row))
    lines.append("-" * lw + " " +
                 " ".join(lbl.rjust(cw) for lbl in labels))
    stats = pattern.stats
    lines.append(f"classes: {pattern.n}  probes: {stats.probes}  "
                 f"max probe: {stats.max_probe}")
    return "\n".join(lines) + "\n"


def render_class_listing(pattern_classes) -> str:
    """One line per class: index, order, class length, normalizer order."""
    lines = []
    for i, c in enumerate(pattern_classes):
        lines.append(f"{i + 1:4d}  order {c.order:>6d}  length "
                     f"{c.length:>6d}  normalizer {c.normalizer_order:>6d}  "
                     f"{subgroup_name(c.rep)}")
    return "\n".join(lines) + "\n"
