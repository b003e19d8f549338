"""Per-layer tracing from outside the program.

The tracer wraps the public functions of each burnside module.  A name
imported with ``from .groups import normalizer`` is a second binding of
the same function, so every module attribute that holds a traced function
is replaced, and ``MarksExtender`` methods are replaced on the class.
Nothing is wrapped until ``installed()`` is entered, and everything is
restored when it exits.

A traced function is a span: its calls, its total time (outermost calls
only, so recursion is not counted twice) and its self time (the span
minus the time of the spans it called directly).  The perms primitives
run millions of times and are only counted.  A few counters are read from
return values at the layer boundary: candidate sets from the ``RowState``
that ``init_row`` returns, the deciding-rule histogram from
``PatternStats.decided_by``, probe sizes, and the lattice's join yield.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

from burnside import marks

# module -> functions timed as spans; MarksExtender methods are listed
# under marks and found on the class
SPANS = {
    "groups": ("build_chain", "composition_series", "close_elements",
               "join_normalizing", "normalizer", "centralizer",
               "subgroup_class_id", "are_conjugate_subgroups",
               "coset_transversal", "quotient_group"),
    "extension": ("split_inner_classes", "outer_classes",
                  "extension_elements"),
    "marks": ("solvable_pattern_chain", "extend_table_of_marks",
              "assemble_inner", "init_row", "transitivity_pass",
              "dress_pass", "dress_rows", "probe_one", "incidence_probe",
              "mark_fixed_cosets", "validate_pattern", "verify_dress"),
    "lattice": ("zuppos", "all_subgroup_classes_brute",
                "table_of_marks_brute", "subgroup_classes_search",
                "compare_patterns"),
    "patterns": ("pattern_to_json", "pattern_from_json"),
}
COUNTED = {"perms": ("mul", "inv", "conj")}
METHODS = {"assemble_inner", "init_row", "transitivity_pass", "dress_pass",
           "dress_rows", "probe_one"}
DECIDING_RULES = ("bounds", "lagrange", "transitivity", "dress", "probe")

# (name, unit, better) of every counter the tracer reports, after the spans
COUNTERS = (
    [("marks.init_cand_cells", "count", "lower"),
     ("marks.init_cand_values", "count", "lower")]
    + [(f"marks.decided.{rule}", "count",
        "higher" if rule in ("bounds", "lagrange", "transitivity")
        else "lower") for rule in DECIDING_RULES]
    + [("marks.probe_members", "count", "lower"),
       ("marks.probes", "count", "lower"),
       ("marks.max_probe", "count", "lower"),
       ("chain.step_millis_s", "s", "lower"),
       ("chain.bench_millis_s", "s", "lower"),
       ("lattice.joins", "count", "lower"),
       ("lattice.classes_found", "count", "higher"),
       ("lattice.join_yield", "ratio", "higher"),
       ("trace.unattributed_s", "s", "lower")])


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced pass reports."""
    out = []
    for module, names in COUNTED.items():
        out += [(f"{module}.{n}.calls", "count", "lower") for n in names]
    for module, names in SPANS.items():
        for n in names:
            out += [(f"{module}.{n}.calls", "count", "lower"),
                    (f"{module}.{n}.total_s", "s", "lower"),
                    (f"{module}.{n}.self_s", "s", "lower")]
    return out + COUNTERS


class Tracer:
    def __init__(self):
        # span name -> [calls, total_s, self_s, active depth]
        self.spans: dict[str, list] = {}
        self.calls: dict[str, list] = {}
        self.counts = {name: 0 for name, _, _ in COUNTERS}
        # one record per extend_table_of_marks call
        self.steps: list[dict] = []
        self.top_level_s = 0.0
        self._stack: list[list[float]] = []

    # -- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn):
        rec = self.spans.setdefault(name, [0, 0.0, 0.0, 0])
        stack, clock = self._stack, time.perf_counter
        observe = getattr(self, "_observe_" + name.split(".")[-1], None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            rec[3] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - start
                stack.pop()
                rec[3] -= 1
                rec[0] += 1
                if not rec[3]:
                    rec[1] += dt
                rec[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                else:
                    self.top_level_s += dt
            if observe is not None:
                observe(result, dt)
            return result
        return wrapper

    def _counted(self, name: str, fn):
        rec = self.calls.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args):
            rec[0] += 1
            return fn(*args)
        return wrapper

    def _counting(self, counter: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- counters read at the layer boundary ----------------------------------
    # _span calls _observe_<function>(result, span seconds) when it exists

    def _observe_init_row(self, st, dt):
        self.counts["marks.init_cand_cells"] += len(st.cand)
        self.counts["marks.init_cand_values"] += sum(
            len(v) for v in st.cand.values())

    def _observe_extend_table_of_marks(self, pattern, dt):
        stats = pattern.stats
        for tag in stats.decided_by.values():
            self.counts["marks.decided." + tag.split(":")[0]] += 1
        self.counts["marks.probes"] += stats.probes
        self.counts["marks.max_probe"] = max(self.counts["marks.max_probe"],
                                             stats.max_probe)
        self.counts["chain.step_millis_s"] += stats.millis / 1000
        self.steps.append({"order": pattern.group.order, "classes": pattern.n,
                           "span_s": dt, "millis": stats.millis})

    def _observe_solvable_pattern_chain(self, chain, dt):
        # `burnside bench` reports only the final step's millis of a chain
        self.counts["chain.bench_millis_s"] += chain[-1].stats.millis / 1000

    def _observe_incidence_probe(self, members, dt):
        self.counts["marks.probe_members"] += len(members)

    def _observe_all_subgroup_classes_brute(self, reps, dt):
        self.counts["lattice.classes_found"] += len(reps)

    _observe_subgroup_classes_search = _observe_all_subgroup_classes_brute

    # -- installation ---------------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap every binding of the traced functions; restore on exit."""
        wrappers = {}
        for module, names in COUNTED.items():
            mod = importlib.import_module(f"burnside.{module}")
            for n in names:
                fn = getattr(mod, n)
                wrappers[id(fn)] = self._counted(f"{module}.{n}", fn)
        for module, names in SPANS.items():
            mod = importlib.import_module(f"burnside.{module}")
            for n in names:
                if n in METHODS:
                    continue
                fn = getattr(mod, n)
                wrappers[id(fn)] = self._span(f"{module}.{n}", fn)
        undo = []
        bound = [m for k, m in list(sys.modules.items())
                 if k == "burnside" or k.startswith("burnside.")]
        for mod in bound:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    undo.append((mod, attr, value))
        for n in sorted(METHODS):
            fn = vars(marks.MarksExtender)[n]
            setattr(marks.MarksExtender, n, self._span(f"marks.{n}", fn))
            undo.append((marks.MarksExtender, n, fn))
        # joins the lattice attempts: its own binding of join_normalizing
        lattice = importlib.import_module("burnside.lattice")
        undo.append((lattice, "join_normalizing", lattice.join_normalizing))
        lattice.join_normalizing = self._counting(
            "lattice.joins", lattice.join_normalizing)
        try:
            yield self
        finally:
            for obj, attr, value in reversed(undo):
                setattr(obj, attr, value)

    # -- report ---------------------------------------------------------------

    def metrics(self, traced_s: float) -> dict[str, float]:
        """Every metric of ``metric_specs()``; ``traced_s`` is the wall time
        of the traced part, of which spans do not cover
        ``trace.unattributed_s``."""
        out = {f"{name}.calls": rec[0] for name, rec in self.calls.items()}
        for name, (calls, total, self_s, _) in self.spans.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total
            out[f"{name}.self_s"] = self_s
        out.update(self.counts)
        joins = self.counts["lattice.joins"]
        out["lattice.join_yield"] = (
            self.counts["lattice.classes_found"] / joins if joins else 0.0)
        out["trace.unattributed_s"] = traced_s - self.top_level_s
        return out
