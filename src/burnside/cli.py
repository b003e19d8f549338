"""Command-line frontend.

Subcommands:

* ``subgroups`` - conjugacy classes of subgroups of a catalog group or
  an inline generator list,
* ``tom`` - the subgroup pattern (table of marks), via the extension
  engine or the brute-force oracle, as text or JSON,
* ``verify`` - run the invariant suite on a stored pattern file,
* ``bench`` - timing/statistics rows for extension steps.

Exit codes: 0 ok, 2 input error, 3 unsupported computation path,
4 validation failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .catalog import CATALOG, CatalogEntry
from .extension import (
    ExtensionContext,
    extend_classes,
    sort_class_reps,
    subgroup_classes_solvable,
)
from .groups import (
    CapExceededError,
    NotSolvableError,
    PermGroup,
    is_solvable,
    normalizer,
)
from .lattice import (
    DEFAULT_CAP,
    all_subgroup_classes_brute,
    subgroup_classes_search,
    table_of_marks_brute,
)
from .marks import (
    PatternClass,
    SubgroupPattern,
    extend_table_of_marks,
    solvable_pattern_chain,
    validate_pattern,
)
from .patterns import (
    PatternFormatError,
    pattern_from_json,
    pattern_to_json,
    render_class_listing,
    render_text,
)
from .perms import CycleParseError, parse_cycles

OK, INPUT_ERROR, UNSUPPORTED, VALIDATION_FAILURE = 0, 2, 3, 4


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _oracle_cap() -> int:
    value = os.environ.get("MARKS_MAX_ORDER")
    if value:
        try:
            return int(value)
        except ValueError:
            raise CliError(INPUT_ERROR,
                           f"bad MARKS_MAX_ORDER value {value!r}")
    return DEFAULT_CAP


def _resolve_group(args) -> tuple[str, PermGroup, CatalogEntry | None]:
    if getattr(args, "gens", None):
        try:
            degree = int(args.group)
        except ValueError:
            raise CliError(INPUT_ERROR,
                           "with --gens the positional argument is the degree")
        try:
            gens = [parse_cycles(s, degree) for s in args.gens]
        except CycleParseError as exc:
            raise CliError(INPUT_ERROR, str(exc))
        return f"<{degree}>", PermGroup(gens, degree), None
    entry = CATALOG.get(args.group)
    if entry is None:
        raise CliError(INPUT_ERROR, f"unknown group {args.group!r}")
    return entry.name, CATALOG.group(entry.name), entry


def _load_base_pattern(path: str) -> SubgroupPattern:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(INPUT_ERROR, f"cannot read {path}: {exc}")
    import json
    try:
        doc = json.loads(text)
        name = doc["group"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise CliError(INPUT_ERROR, f"bad pattern file {path}: {exc}")
    entry = CATALOG.get(name)
    if entry is None:
        raise CliError(INPUT_ERROR,
                       f"pattern file names unknown group {name!r}")
    try:
        pattern = pattern_from_json(text, CATALOG.group(entry.name))
    except PatternFormatError as exc:
        raise CliError(INPUT_ERROR, f"bad pattern file {path}: {exc}")
    problems = validate_pattern(pattern)
    if problems:
        raise CliError(VALIDATION_FAILURE,
                       "base pattern fails validation: " + problems[0])
    return pattern


def _classes_of(name: str, G: PermGroup, entry: CatalogEntry | None,
                base: SubgroupPattern | None):
    """Class transversal of G with normalizer orders, by the best route."""
    if base is not None:
        ctx = ExtensionContext.create(G, base.group)
        step = extend_classes(sort_class_reps(
            [c.rep for c in base.sorted_ascending().classes]), ctx)
        classes = [
            PatternClass(rep=r, order=r.order, length=G.order // no,
                         normalizer_order=no)
            for r, no in zip(step.reps, step.normalizer_orders)]
        classes.sort(key=lambda c: c.order)
        return classes
    if is_solvable(G):
        reps = subgroup_classes_solvable(G)
    elif entry is not None and entry.search_ok:
        reps = subgroup_classes_search(G)
    elif G.order <= _oracle_cap():
        reps = all_subgroup_classes_brute(G, cap=_oracle_cap())
    elif entry is not None and entry.extension_base:
        base_entry = CATALOG.get(entry.extension_base)
        base_group = CATALOG.group(base_entry.name)
        base_classes = _classes_of(base_entry.name, base_group,
                                   base_entry, None)
        ctx = ExtensionContext.create(G, base_group)
        step = extend_classes(sort_class_reps(
            [c.rep for c in base_classes]), ctx)
        classes = [
            PatternClass(rep=r, order=r.order, length=G.order // no,
                         normalizer_order=no)
            for r, no in zip(step.reps, step.normalizer_orders)]
        classes.sort(key=lambda c: c.order)
        return classes
    else:
        raise CliError(
            UNSUPPORTED,
            f"{name} is not solvable and no base pattern was supplied; "
            "pass --base <pattern.json> for a normal prime-index subgroup")
    out = []
    for rep in reps:
        n_order = normalizer(G, rep).order
        out.append(PatternClass(rep=rep, order=rep.order,
                                length=G.order // n_order,
                                normalizer_order=n_order))
    return out


def cmd_subgroups(args) -> int:
    name, G, entry = _resolve_group(args)
    base = _load_base_pattern(args.base) if args.base else None
    try:
        classes = _classes_of(name, G, entry, base)
    except NotSolvableError as exc:
        raise CliError(UNSUPPORTED, str(exc))
    except CapExceededError as exc:
        raise CliError(UNSUPPORTED, str(exc))
    sys.stdout.write(render_class_listing(classes))
    return OK


def _tom_pattern(name: str, G: PermGroup, entry: CatalogEntry | None,
                 args) -> SubgroupPattern:
    via = args.via
    base = _load_base_pattern(args.base) if args.base else None
    if via == "auto":
        if base is not None:
            via = "extension"
        elif is_solvable(G):
            via = "extension"
        else:
            via = "oracle"
    if via == "oracle":
        if G.order > _oracle_cap():
            raise CliError(
                UNSUPPORTED,
                f"group order {G.order} exceeds the oracle cap; "
                "set MARKS_MAX_ORDER to raise it")
        return table_of_marks_brute(G, cap=_oracle_cap())
    # extension route
    if base is not None:
        if G.order % base.group.order or \
                not all(G.contains(g) for g in base.group.gens):
            raise CliError(VALIDATION_FAILURE,
                           "base pattern group is not a subgroup")
        return extend_table_of_marks(base, G)
    if is_solvable(G):
        chain = solvable_pattern_chain(G)
        return chain[-1]
    if entry is not None and entry.extension_base:
        base_entry = CATALOG.get(entry.extension_base)
        base_group = CATALOG.group(base_entry.name)
        if base_group.order > _oracle_cap():
            raise CliError(
                UNSUPPORTED,
                f"base group {base_entry.name} is beyond the oracle cap; "
                "supply --base with a precomputed pattern")
        base_pattern = table_of_marks_brute(base_group, cap=_oracle_cap())
        return extend_table_of_marks(base_pattern, G)
    raise CliError(
        UNSUPPORTED,
        f"{name} is not solvable and no base pattern was supplied")


def cmd_tom(args) -> int:
    name, G, entry = _resolve_group(args)
    try:
        pattern = _tom_pattern(name, G, entry, args)
    except NotSolvableError as exc:
        raise CliError(UNSUPPORTED, str(exc))
    except CapExceededError as exc:
        raise CliError(UNSUPPORTED, str(exc))
    if args.format == "json":
        text = pattern_to_json(pattern, name) + "\n"
    else:
        text = render_text(pattern, name)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return OK


def cmd_verify(args) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(INPUT_ERROR, f"cannot read {args.file}: {exc}")
    import json
    try:
        doc = json.loads(text)
        name = doc["group"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise CliError(INPUT_ERROR, f"parse failure: {exc}")
    entry = CATALOG.get(name)
    if entry is None:
        raise CliError(INPUT_ERROR, f"unknown group {name!r} in pattern file")
    try:
        pattern = pattern_from_json(text, CATALOG.group(entry.name))
    except PatternFormatError as exc:
        raise CliError(INPUT_ERROR, f"parse failure: {exc}")
    problems = validate_pattern(pattern)
    if problems:
        for line in problems:
            print("FAIL:", line)
        return VALIDATION_FAILURE
    print(f"ok: {pattern.n} classes, all invariants hold")
    return OK


def _bench_row(name: str) -> tuple:
    """One CSV row; millis is the measured time of the whole solvable
    chain, or of the single extension step from the oracle base."""
    entry = CATALOG.get(name)
    if entry is None:
        raise CliError(INPUT_ERROR, f"unknown group {name!r}")
    G = CATALOG.group(entry.name)
    if is_solvable(G):
        start = time.monotonic()
        chain = solvable_pattern_chain(G)
        millis = int((time.monotonic() - start) * 1000)
        if len(chain) == 1:
            return (entry.name, 1, 1, 0, 0, millis)
        final = chain[-1]
        return (entry.name, chain[-2].n, final.n, final.stats.probes,
                final.stats.max_probe, millis)
    if not entry.extension_base:
        raise CliError(UNSUPPORTED,
                       f"no extension route for {entry.name}")
    base_entry = CATALOG.get(entry.extension_base)
    base_group = CATALOG.group(base_entry.name)
    if base_group.order > _oracle_cap():
        raise CliError(UNSUPPORTED,
                       f"base group {base_entry.name} beyond the oracle cap")
    base_pattern = table_of_marks_brute(base_group, cap=_oracle_cap())
    start = time.monotonic()
    pattern = extend_table_of_marks(base_pattern, G)
    millis = int((time.monotonic() - start) * 1000)
    return (entry.name, base_pattern.n, pattern.n, pattern.stats.probes,
            pattern.stats.max_probe, millis)


def cmd_bench(args) -> int:
    print("group,classes-in,classes-out,probes,max-probe,millis")
    for name in args.groups:
        row = _bench_row(name)
        print(",".join(str(x) for x in row))
    return OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="burnside",
        description="subgroup patterns and tables of marks of finite "
                    "permutation groups")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("subgroups",
                        help="list conjugacy classes of subgroups")
    sp.add_argument("group", help="catalog name, or the degree with --gens")
    sp.add_argument("--gens", action="append",
                    help="generator in cycle notation (repeatable)")
    sp.add_argument("--base", help="pattern file of a normal prime-index "
                                   "subgroup (extension route)")
    sp.set_defaults(func=cmd_subgroups)

    tp = sub.add_parser("tom", help="compute the table of marks")
    tp.add_argument("group", help="catalog name, or the degree with --gens")
    tp.add_argument("--gens", action="append",
                    help="generator in cycle notation (repeatable)")
    tp.add_argument("--via", choices=["extension", "oracle", "auto"],
                    default="auto")
    tp.add_argument("--base", help="pattern file of a normal prime-index "
                                   "subgroup")
    tp.add_argument("--format", choices=["text", "json"], default="text")
    tp.add_argument("--out", help="write to a file instead of stdout")
    tp.set_defaults(func=cmd_tom)

    vp = sub.add_parser("verify", help="validate a stored pattern file")
    vp.add_argument("file")
    vp.set_defaults(func=cmd_verify)

    bp = sub.add_parser("bench", help="extension statistics as CSV")
    bp.add_argument("groups", nargs="+")
    bp.set_defaults(func=cmd_bench)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
