"""Command-line frontend.

Subcommands:

* ``subgroups`` - conjugacy classes of subgroups of a catalog group or
  an inline generator list,
* ``tom`` - the subgroup pattern (table of marks), via the extension
  engine or the brute-force oracle, as text or JSON,
* ``verify`` - run the invariant suite on a stored pattern file,
* ``bench`` - timing/statistics rows for extension steps.

One route function (``_route``) decides, for every command, where the
bottom of the computation comes from and which extension steps run on
top.  The command says what it needs: ``subgroups`` a class listing,
``tom`` a table by its ``--via`` choice, ``bench`` a table through an
extension.  The rules, in order:

* ``--via oracle``: the brute-force oracle, if the group is within the
  cap (``MARKS_MAX_ORDER``, default 2000);
* a ``--base`` file: one extension step from its pattern; its group
  must be a normal subgroup of prime index, else exit 4;
* a solvable group: the trivial group, then one step to each group of
  a composition series;
* a class listing or an ``auto`` table of a catalog group whose class
  search is complete (L2(32)): the class search, its table counted;
* a class listing or an ``auto`` table: the oracle, up to the cap;
* a catalog group with an extension base (S5 on A5, L2(32):5 on
  L2(32)): the base group's own route, then one step, for ``--via
  extension`` and above the cap alike;
* anything else exits 3.

A ``--base`` file is read and validated whenever it is given, and a
table computed from it is validated again before it is printed.

Exit codes: 0 ok, 2 input error, 3 unsupported computation path,
4 validation failure (a base pattern that makes the extension step
inconsistent included).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field

from .catalog import CATALOG, CatalogEntry
from .extension import (
    ExtensionContext,
    InconsistentTableError,
    extend_classes,
    sort_class_reps,
)
from .groups import (
    CapExceededError,
    NotSolvableError,
    PermGroup,
    composition_series,
)
from .lattice import (
    DEFAULT_CAP,
    all_subgroup_classes_brute,
    subgroup_classes_search,
)
from .marks import (
    PatternClass,
    SubgroupPattern,
    class_records,
    counted_pattern,
    extend_table_of_marks,
    trivial_pattern,
    validate_pattern,
)
from .patterns import (
    PatternFormatError,
    pattern_from_dict,
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


def _file_group(name: str, doc: dict) -> PermGroup:
    """The group a pattern file names: a catalog group, or, for a name
    ``<d>`` with d the file's degree (what ``tom d --gens`` writes), the
    group that the generators of its last class, the whole group, span.
    Any other name is an input error."""
    entry = CATALOG.get(name)
    if entry is not None:
        return CATALOG.group(entry.name)
    degree = doc.get("degree")
    if (not isinstance(degree, int) or isinstance(degree, bool)
            or name != f"<{degree}>"):
        raise CliError(INPUT_ERROR,
                       f"pattern file names unknown group {name!r}")
    try:
        gens = doc["classes"][-1]["generators"]
        return PermGroup([parse_cycles(s, degree) for s in gens], degree)
    except (LookupError, TypeError, ValueError) as exc:
        raise PatternFormatError(
            f"the last class gives no group: {exc!r}") from exc


def _read_pattern(path: str) -> SubgroupPattern:
    """Load a pattern file onto the group it names (``_file_group``)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        name = doc["group"]
        if not isinstance(name, str):
            raise TypeError(f"group is not a string: {name!r}")
    except OSError as exc:
        raise CliError(INPUT_ERROR, f"cannot read {path}: {exc}")
    except (ValueError, KeyError, TypeError) as exc:
        raise CliError(INPUT_ERROR, f"bad pattern file {path}: {exc}")
    try:
        return pattern_from_dict(doc, _file_group(name, doc))
    except PatternFormatError as exc:
        raise CliError(INPUT_ERROR, f"bad pattern file {path}: {exc}")


@dataclass
class Route:
    """How a command gets its result: a base source for ``group``, then
    one extension step to each group of ``steps``, bottom up.

    The source is ``"pattern"`` (a known pattern: a --base file's, or
    the trivial group's below a composition series), ``"oracle"`` (the
    brute-force lattice, up to ``cap``) or ``"search"`` (the class
    search); it gives the transversal of ``group`` (``_transversal``).
    """

    source: str
    group: PermGroup
    steps: list[PermGroup] = field(default_factory=list)
    pattern: SubgroupPattern | None = None
    cap: int = DEFAULT_CAP


def _route(name: str, G: PermGroup, entry: CatalogEntry | None,
           base_path: str | None, need: str) -> Route:
    """The one place that decides how a command computes its result.

    ``need`` is ``"classes"`` for a class listing, or the --via choice
    (``"auto"``, ``"oracle"``, ``"extension"``) for a table.  A --base
    file is read and validated whenever it is given; a route that uses
    it requires its group to be a normal subgroup of G of prime index
    (exit 4).  A catalog entry with an ``extension_base`` plans that
    group here too, as a class listing or as an ``"auto"`` table, and
    adds one step to G: for ``"extension"``, else above the cap.
    """
    base = _read_pattern(base_path) if base_path else None
    problems = validate_pattern(base) if base is not None else []
    if problems:
        raise CliError(VALIDATION_FAILURE,
                       "base pattern fails validation: " + problems[0])
    if need != "oracle":
        if base is not None:
            try:
                ExtensionContext.create(G, base.group)
            except ValueError as exc:
                raise CliError(
                    VALIDATION_FAILURE,
                    "base pattern group is not a normal prime-index "
                    f"subgroup of {name}: {exc}")
            return Route("pattern", base.group, [G], pattern=base)
        try:
            steps = composition_series(G)
        except NotSolvableError:
            steps = None
        if steps is not None:
            trivial = trivial_pattern(G.degree)
            return Route("pattern", trivial.group, steps, pattern=trivial)
        if need != "extension" and entry is not None and entry.search_ok:
            return Route("search", G)
    extends = entry is not None and bool(entry.extension_base)
    if need != "extension":
        value = os.environ.get("MARKS_MAX_ORDER")
        try:
            cap = int(value) if value else DEFAULT_CAP
        except ValueError:
            raise CliError(INPUT_ERROR,
                           f"bad MARKS_MAX_ORDER value {value!r}")
        if G.order <= cap:
            return Route("oracle", G, cap=cap)
        if need == "oracle" or (need == "auto" and not extends):
            raise CliError(
                UNSUPPORTED,
                f"{name}: group order {G.order} exceeds the oracle cap; "
                "set MARKS_MAX_ORDER to raise it")
    if extends:
        base_entry = CATALOG.get(entry.extension_base)
        route = _route(base_entry.name, CATALOG.group(base_entry.name),
                       base_entry, None,
                       "classes" if need == "classes" else "auto")
        route.steps.append(G)
        return route
    raise CliError(
        UNSUPPORTED,
        f"{name} is not solvable and no base pattern was supplied; "
        "pass --base <pattern.json> for a normal prime-index subgroup")


def _transversal(route: Route) -> list:
    """The class representatives of the route's base group: its
    pattern's, the class search's or the oracle's."""
    if route.source == "pattern":
        return [c.rep for c in route.pattern.classes]
    if route.source == "search":
        return subgroup_classes_search(route.group)
    return all_subgroup_classes_brute(route.group, cap=route.cap)


def _class_listing(route: Route) -> list[PatternClass]:
    """Class transversal with normalizer orders, sorted by order."""
    G, reps = route.group, _transversal(route)
    if route.steps:
        for S in route.steps:
            step = extend_classes(sort_class_reps(reps),
                                  ExtensionContext.create(S, G))
            reps, G = step.reps, S
        classes = [PatternClass(rep=rep, order=rep.order,
                                length=G.order // no, normalizer_order=no)
                   for rep, no in zip(reps, step.normalizer_orders)]
    else:
        classes = class_records(G, reps, map(G.subgroup_key, reps))
    classes.sort(key=lambda c: c.order)
    return classes


def _patterns(route: Route) -> tuple[list[SubgroupPattern], int]:
    """Patterns along the route, bottom up, and the milliseconds of its
    extension work: the steps above the base (not the oracle or a base
    file), which for a solvable group is its whole chain.  A route with
    no pattern counts its base table on its transversal."""
    chain = [route.pattern or counted_pattern(route.group,
                                              _transversal(route))]
    start = time.monotonic()
    for S in route.steps:
        chain.append(extend_table_of_marks(chain[-1], S))
    return chain, int((time.monotonic() - start) * 1000)


def cmd_subgroups(args) -> int:
    name, G, entry = _resolve_group(args)
    route = _route(name, G, entry, args.base, "classes")
    sys.stdout.write(render_class_listing(_class_listing(route)))
    return OK


def cmd_tom(args) -> int:
    name, G, entry = _resolve_group(args)
    route = _route(name, G, entry, args.base, args.via)
    chain, _ = _patterns(route)
    if args.base and route.source == "pattern":
        # a base that passes its own checks can still extend to a bad table
        problems = validate_pattern(chain[-1])
        if problems:
            raise CliError(VALIDATION_FAILURE,
                           "result fails validation: " + problems[0])
    if args.format == "json":
        text = pattern_to_json(chain[-1], name) + "\n"
    else:
        text = render_text(chain[-1], name)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(INPUT_ERROR, f"cannot write {args.out}: {exc}")
    else:
        sys.stdout.write(text)
    return OK


def cmd_verify(args) -> int:
    pattern = _read_pattern(args.file)
    problems = validate_pattern(pattern)
    if problems:
        for line in problems:
            print("FAIL:", line)
        return VALIDATION_FAILURE
    print(f"ok: {pattern.n} classes, all invariants hold")
    return OK


def _bench_row(name: str) -> tuple:
    """One CSV row; millis is the extension work of the route (see
    ``_patterns``), classes-in the class count of the pattern below."""
    entry = CATALOG.get(name)
    if entry is None:
        raise CliError(INPUT_ERROR, f"unknown group {name!r}")
    G = CATALOG.group(entry.name)
    chain, millis = _patterns(_route(entry.name, G, entry, None, "extension"))
    final = chain[-1]
    below = chain[-2].n if len(chain) > 1 else 1
    return (entry.name, below, final.n, final.stats.probes,
            final.stats.max_probe, millis)


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
    except (NotSolvableError, CapExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return UNSUPPORTED
    except InconsistentTableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VALIDATION_FAILURE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
