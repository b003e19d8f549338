"""The benchmark's workloads: input groups made from a seed, and the items
one pass computes and checks.

A seed conjugates every input group's generators by a seeded permutation
of its points (one permutation per degree, so a normal subgroup and its
overgroup stay compatible); seed 0 keeps the catalog's own labeling.  The
library receives only the generators.

Every check uses facts that do not depend on the labeling: class counts,
the class-step fusion counts, extension == oracle, and the invariant
suite of ``validate_pattern``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable

from burnside import extension, lattice, marks, patterns
from burnside.catalog import CATALOG, abelian_group
from burnside.groups import PermGroup
from burnside.perms import conj, parse_cycles


class CheckFailed(Exception):
    """An output of the program is wrong."""


@dataclass
class Item:
    """One unit of work: ``compute`` calls the library (reading and
    extending the pass context), ``check`` verifies its output and
    returns the number of subgroup classes in the tables and transversals
    it produced."""

    name: str
    compute: Callable[[dict], object]
    check: Callable[[object], int]


@dataclass
class Workload:
    groups: dict[str, PermGroup]
    items: list[Item]


@dataclass
class PassResult:
    attempted: int = 0
    failed: int = 0
    classes: int = 0
    failures: list[str] = field(default_factory=list)
    items: list[dict] = field(default_factory=list)
    # (group, probes, max_probe) of every extension step the pass ran
    extensions: list[tuple[str, int, int]] = field(default_factory=list)


def relabeled(gens, degree: int, seed: int) -> PermGroup:
    """The group generated by ``gens`` with its points renamed by the
    seed's permutation of ``degree`` points."""
    if seed:
        sigma = list(range(degree))
        random.Random(seed * 1009 + degree).shuffle(sigma)
        gens = [conj(g, tuple(sigma)) for g in gens]
    return PermGroup(gens, degree)


def catalog_group(name: str, seed: int) -> PermGroup:
    entry = CATALOG.get(name)
    gens = [parse_cycles(s, entry.degree) for s in entry.generators]
    return relabeled(gens, entry.degree, seed)


def abelian(factors: tuple[int, ...], seed: int) -> PermGroup:
    G = abelian_group(factors)
    return relabeled(G.gens, G.degree, seed)


def run_pass(workload: Workload) -> PassResult:
    """Run every item once, in order; an item that raises or fails its
    check counts as failed and the pass goes on."""
    ctx: dict = {"groups": workload.groups, "extensions": []}
    res = PassResult()
    for item in workload.items:
        res.attempted += 1
        start = time.perf_counter()
        try:
            n = item.check(item.compute(ctx))
        except Exception as exc:  # an item failure must not end the run
            res.failed += 1
            res.failures.append(f"{item.name}: {type(exc).__name__}: {exc}")
            n, ok = 0, False
        else:
            res.classes += n
            ok = True
        res.items.append({"name": item.name, "s": time.perf_counter() - start,
                          "classes": n, "ok": ok})
    res.extensions = ctx["extensions"]
    return res


# ---------------------------------------------------------------------------
# checks


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def checked_table(pattern, n: int) -> int:
    expect(pattern.n == n, f"{pattern.n} classes, expected {n}")
    problems = marks.validate_pattern(pattern)
    expect(not problems, "; ".join(problems[:3]))
    return n


def checked_chain(chain, orders: list[int], n: int) -> int:
    expect([p.group.order for p in chain] == orders,
           f"chain orders {[p.group.order for p in chain]}")
    expect(chain[-1].n == n, f"{chain[-1].n} classes, expected {n}")
    return sum(p.n for p in chain)


# ---------------------------------------------------------------------------
# item builders


def oracle_item(key: str, n: int) -> Item:
    """Brute-force table of marks of group ``key``."""
    def compute(ctx):
        ctx[key] = lattice.table_of_marks_brute(ctx["groups"][key])
        return ctx[key]
    return Item(f"{key} oracle", compute, lambda pat: checked_table(pat, n))


def extension_item(base: str, key: str, n: int) -> Item:
    """Pattern of ``key`` from the stored pattern of ``base``, after a
    JSON round trip and validation of the base, as ``tom --base`` does."""
    def compute(ctx):
        G = ctx["groups"]
        text = patterns.pattern_to_json(ctx[base], base)
        loaded = patterns.pattern_from_json(text, G[base])
        problems = marks.validate_pattern(loaded)
        expect(not problems, f"base {base} fails validation: {problems[:1]}")
        pat = marks.extend_table_of_marks(loaded, G[key])
        ctx[f"{key} ext"] = pat
        ctx["extensions"].append((key, pat.stats.probes, pat.stats.max_probe))
        return pat
    return Item(f"{key} extension", compute,
                lambda pat: checked_table(pat, n))


def crosscheck_item(key: str, n: int) -> Item:
    """Oracle table of ``key``, which must match the extension's."""
    def compute(ctx):
        oracle = lattice.table_of_marks_brute(ctx["groups"][key])
        return oracle, ctx[f"{key} ext"]

    def check(out):
        oracle, ext = out
        expect(oracle.n == n, f"oracle has {oracle.n} classes, expected {n}")
        report = lattice.compare_patterns(ext, oracle)
        expect(report.matched, f"extension != oracle: {report.detail}")
        return n
    return Item(f"{key} oracle crosscheck", compute, check)


def chain_items(key: str, orders: list[int], n: int) -> list[Item]:
    """Composition-series chain of ``key``, then validation and
    serialization of its final table, each as its own item."""
    def compute(ctx):
        ctx[f"{key} chain"] = marks.solvable_pattern_chain(ctx["groups"][key])
        return ctx[f"{key} chain"]

    def validate(ctx):
        return marks.validate_pattern(ctx[f"{key} chain"][-1])

    def no_problems(problems):
        expect(not problems, "; ".join(problems[:3]))
        return 0

    def serialize(ctx):
        return patterns.pattern_to_json(ctx[f"{key} chain"][-1], key)

    def serialized(text):
        count = text.count('"order"')
        expect(count == n, f"JSON has {count} classes, expected {n}")
        return 0

    return [Item(f"{key} chain", compute,
                 lambda chain: checked_chain(chain, orders, n)),
            Item(f"{key} validate", validate, no_problems),
            Item(f"{key} JSON", serialize, serialized)]


def class_step_items(base: str, key: str, n_base: int, n: int,
                     fusion: tuple[int, int, int]) -> list[Item]:
    """Class search of ``base``, then the class step to ``key``;
    ``fusion`` is (inner, stable, raw-fused) of the step."""
    def search(ctx):
        ctx[f"{base} classes"] = lattice.subgroup_classes_search(
            ctx["groups"][base])
        return ctx[f"{base} classes"]

    def searched(reps):
        expect(len(reps) == n_base, f"{len(reps)} classes, expected {n_base}")
        return n_base

    def step(ctx):
        G = ctx["groups"]
        ectx = extension.ExtensionContext.create(G[key], G[base])
        return extension.extend_classes(
            extension.sort_class_reps(ctx[f"{base} classes"]), ectx)

    def stepped(st):
        got = (len(st.inner.classes), len(st.inner.stable_classes),
               st.inner.raw_fused_count)
        expect(got == fusion, f"inner/stable/raw-fused {got}, "
                              f"expected {fusion}")
        expect(len(st.reps) == n, f"{len(st.reps)} classes, expected {n}")
        return n

    return [Item(f"{base} class search", search, searched),
            Item(f"{key} class step", step, stepped)]


# ---------------------------------------------------------------------------
# the workloads


def crosscheck_s6(seed: int) -> Workload:
    """Oracle -> extension -> oracle crosscheck for A5/S5 and A6/S6: mostly
    oracle closure and coset counting; the only explicit probes."""
    groups = {k: catalog_group(k, seed) for k in ("A5", "S5", "A6", "S6")}
    return Workload(groups, [
        oracle_item("A5", 9), extension_item("A5", "S5", 19),
        crosscheck_item("S5", 19),
        oracle_item("A6", 22), extension_item("A6", "S6", 56),
        crosscheck_item("S6", 56)])


def chain_c2x5(seed: int) -> Workload:
    """Composition-series chains: mostly the marks engine, and the sparse
    Dress path in validation.  C2^5 rather than C2^6: a C2^6 pass takes
    about 50 s and 900 MB, more than a run of this benchmark can spend."""
    groups = {"GL2(3)": catalog_group("GL2(3)", seed),
              "C2^5": abelian((2,) * 5, seed)}
    return Workload(groups, [
        *chain_items("GL2(3)", [1, 2, 4, 8, 24, 48], 16),
        *chain_items("C2^5", [1, 2, 4, 8, 16, 32], 374)])


def classes_l2_32(seed: int) -> Workload:
    """Class search and class step: kernel class ids and normalizers, no
    marks engine."""
    groups = {k: catalog_group(k, seed) for k in ("L2(32)", "L2(32):5")}
    return Workload(groups, class_step_items(
        "L2(32)", "L2(32):5", 24, 30, (16, 14, 10)))


# tiny inputs with the same item kinds, for the benchmark's smoke test
def tiny_s4(seed: int) -> Workload:
    groups = {k: catalog_group(k, seed) for k in ("A4", "S4")}
    return Workload(groups, [oracle_item("A4", 5),
                             extension_item("A4", "S4", 11),
                             crosscheck_item("S4", 11)])


def tiny_c2x3(seed: int) -> Workload:
    return Workload({"C2^3": abelian((2,) * 3, seed)},
                    chain_items("C2^3", [1, 2, 4, 8], 16))


WORKLOADS: dict[str, Callable[[int], Workload]] = {
    "crosscheck-s6": crosscheck_s6,
    "chain-c2x5": chain_c2x5,
    "classes-l2_32": classes_l2_32,
    "tiny-s4": tiny_s4,
    "tiny-c2x3": tiny_c2x3,
}
