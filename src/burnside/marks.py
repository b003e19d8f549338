"""Tables of marks and subgroup patterns.

The mark of a subgroup H on the coset space G/K is the number of
cosets fixed by H; the square lower-triangular matrix of all marks
over a transversal of subgroup classes, together with the transversal,
is the *subgroup pattern* of G.

This module assembles the pattern of S from the pattern of a normal
subgroup A of prime index p.  Rows and columns split into the inner
block (classes of subgroups inside A) and the outer block:

* inner-by-inner marks come from the A-table (row sums over merged
  classes, or a p-multiple for stable ones);
* outer rows restricted to inner columns copy the A-row of the
  intersection with A;
* inner columns of outer subgroups are zero;
* an outer row whose class is normal in S (class length 1) is decided
  by containment: |S:K| on each V <= K and 0 elsewhere, each value
  checked against the inner bound;
* the other outer-by-outer marks are decided on candidate sets: upper bounds
  from the inner part, congruences modulo p down each column pair,
  divisibility by the diagonal, transitivity bounds, the congruences
  from the rows of the Dress matrix, and, as a last resort, a probe: a
  fixed element t is chosen by counting the conjugates of K that
  contain it on K's class tree, and the cells of the classes holding t
  take their marks from ``mark_row``, the one mark formula of the
  module.  Each Dress pass visits every congruence; each is decided
  exactly, whatever the number of undecided cells it touches: one pass
  over the reachable partial sums of the row keeps the values that some
  admissible assignment uses.

The transitivity bounds read subconjugacy from the completed rows of
the table itself: V lies in a conjugate of K exactly when the mark of
V on S/K is nonzero.

A Dress row n(U, -) counts the cosets Ua of U in N(U) by the class of
<U, a>, which depends only on the class of the cyclic subgroup <Ua> of
W = N(U)/U.  So U is joined once per cyclic subgroup of W, or once
per class of them, and the cosets generating each are counted with
it; the kernel chooses which, and how each join is keyed and looked up
(``groups.cyclic_joins``).  |N(U)| is |S| over U's class length, so a
normal U needs no normality test.
The row depends only on S and U's class, so it is built once per
group and class, kept on the class record, and shared by the engine
and the validation of a table.

Validation visits only the nonzero cells, listed by one ``compress``
pass over each row: every cell check can fail only at a nonzero cell,
and the same cells, gathered by column, serve the mod-p column
congruence and the Dress sums.

Everything is deterministic; per-row decisions are tagged for
diagnostics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import compress

from .extension import (
    ExtensionContext,
    InconsistentTableError,
    StepClasses,
    extend_classes,
)
from .groups import (
    PermGroup,
    Subgroup,
    collector_paused,
    composition_series,
    cyclic_joins,
    element_class_length,
    euler_phi,
    normalizer,
    subgroup_class_id,
    trivial_subgroup,
)

# ---------------------------------------------------------------------------
# pattern containers


@dataclass
class PatternClass:
    rep: Subgroup
    order: int
    length: int
    normalizer_order: int
    gamma_index: int | None = None   # column of rep∩A's class (outer only)


@dataclass
class PatternStats:
    """Counters of one extension step.

    ``row_tags`` maps each outer row index to the ``RowState.decided_by``
    dict of that row (column -> deciding rule: ``bounds``, ``lagrange``,
    ``transitivity``, ``dress:<class of U>`` or ``probe``), kept by
    reference as the row was solved.  ``decided_by`` is built from it on
    read: one ``(row, column) -> tag`` entry per decided outer cell, rows
    in solving order."""

    probes: int = 0
    max_probe: int = 0
    millis: int = 0
    extension_p: int | None = None
    row_tags: dict = field(default_factory=dict)

    @property
    def decided_by(self) -> dict:
        return {(i, j): tag for i, tags in self.row_tags.items()
                for j, tag in tags.items()}


@dataclass
class SubgroupPattern:
    """A class transversal with its lower-triangular table of marks."""

    group: PermGroup
    classes: list[PatternClass]
    rows: list[list[int]]
    stats: PatternStats = field(default_factory=PatternStats)

    @property
    def n(self) -> int:
        return len(self.classes)

    def cell(self, i: int, j: int) -> int:
        return self.rows[i][j] if j <= i else 0

    def class_orders(self) -> list[int]:
        return [c.order for c in self.classes]

    def sorted_ascending(self) -> "SubgroupPattern":
        """Copy with classes stably re-sorted by subgroup order."""
        perm = sorted(range(self.n), key=lambda i: self.classes[i].order)
        if perm == list(range(self.n)):
            return self
        pos = {old: new for new, old in enumerate(perm)}
        classes = []
        for old in perm:
            c = self.classes[old]
            gi = pos[c.gamma_index] if c.gamma_index is not None else None
            classes.append(PatternClass(
                rep=c.rep, order=c.order, length=c.length,
                normalizer_order=c.normalizer_order, gamma_index=gi))
        rows = [[self.cell(perm[i], perm[j]) for j in range(i + 1)]
                for i in range(self.n)]
        return SubgroupPattern(group=self.group, classes=classes,
                               rows=rows, stats=self.stats)


def trivial_pattern(degree: int = 1) -> SubgroupPattern:
    G = PermGroup([], degree)
    cls = PatternClass(rep=trivial_subgroup(G), order=1, length=1,
                       normalizer_order=1)
    return SubgroupPattern(group=G, classes=[cls], rows=[[1]])


# ---------------------------------------------------------------------------
# the defining mark, counted on the class orbit of K (the oracle side
# and the probes use only this)


def conjugates_containing(G: PermGroup, K: Subgroup, keys,
                          cid: int | None = None) -> list:
    """For each of ``keys``, the member keys of K's class tree in G that
    contain it: the conjugates of K holding it.  A key is the class key
    ``G.subgroup_key(H)`` of a subgroup H; K's class is looked up once
    for all of them, or not at all when the caller passes its id
    ``cid``.  Keys are zuppo sets at every order, so a conjugate holds
    H exactly when its key holds H's.
    """
    if cid is None:
        cid = subgroup_class_id(G, K)
    tree = G._sub_classes[cid].tree
    return [[m for m in tree if key <= m] for key in keys]


def mark_row(G: PermGroup, K: Subgroup, keys,
             cid: int | None = None) -> list[int]:
    """Marks on G/K of the subgroups H with the given class keys
    ``G.subgroup_key(H)``: the number of cosets of K fixed by H in the
    action of G on G/K.

    A coset Kg is fixed by H exactly when H lies in K^g, and the
    |N(K):K| cosets of K in N(K)g give the same conjugate, so a mark is
    |N(K):K| times the number of conjugates of K that contain H (none
    when |H| does not divide |K|).  K's class is looked up once per
    row, not per cell, or not at all when the caller passes its id
    ``cid``, and no H is keyed here: a caller that asks for many rows
    keys each H once.
    """
    if cid is None:
        cid = subgroup_class_id(G, K)
    diag = G.order // (G._sub_classes[cid].size * K.order)
    return [diag * len(ms) for ms in conjugates_containing(G, K, keys, cid)]


def mark_fixed_cosets(G: PermGroup, K: Subgroup, H: Subgroup) -> int:
    """The mark of H on G/K: ``mark_row`` of a one-cell row."""
    return mark_row(G, K, [G.subgroup_key(H)])[0]


# ---------------------------------------------------------------------------
# identification of subgroups against a fixed transversal


class ConjugateDuplicatesError(ValueError):
    """Two representatives of a class transversal are conjugate."""


def class_columns(S: PermGroup, reps: list[Subgroup]) -> dict[int, int]:
    """The class id in S of each of ``reps`` -> its index in ``reps``,
    in the order of ``reps``."""
    cols: dict[int, int] = {}
    for i, rep in enumerate(reps):
        cid = subgroup_class_id(S, rep)
        if cid in cols:
            raise ConjugateDuplicatesError(
                "transversal contains conjugate duplicates: classes "
                f"{cols[cid]} and {i}")
        cols[cid] = i
    return cols


def class_records(G: PermGroup, reps, keys) -> list[PatternClass]:
    """The PatternClass of each of ``reps``, whose class keys in G are
    ``keys``: its length read off its class record in G, and |G| over
    the length as its normalizer order."""
    classes = []
    for rep, key in zip(reps, keys):
        length = G._sub_classes[subgroup_class_id(G, rep, key)].size
        classes.append(PatternClass(rep=rep, order=rep.order, length=length,
                                    normalizer_order=G.order // length))
    return classes


@collector_paused
def counted_pattern(G: PermGroup, reps) -> SubgroupPattern:
    """Pattern of G on its class transversal ``reps``, sorted by order,
    every row counted by ``mark_row``; each rep is keyed once."""
    keys = [G.subgroup_key(rep) for rep in reps]
    classes = class_records(G, reps, keys)
    rows = [mark_row(G, rep, keys[:i + 1], G._sub_class_of[key])
            for i, (rep, key) in enumerate(zip(reps, keys))]
    return SubgroupPattern(group=G, classes=classes, rows=rows)


# ---------------------------------------------------------------------------
# Dress congruence rows


@dataclass
class DressRow:
    """Coefficients n(U, -): cosets Ua of U in its normalizer, counted by
    the class of <U, a>; the row congruence is sum(n * y) = 0 mod |N(U):U|.
    A row is a class -> count map; ``dress_row`` builds it.

    For inner U the congruence refines into the orbit-count split: the
    inner part determines o_B and the outer part must realize a count
    o_R with o_R = -o_B (mod p) and o_R <= (p-1) o_B.
    """

    u_index: int
    coeffs: dict[int, int]
    modulus: int
    inner_size: int | None = None   # |N_A(U):U| when U is inner


def _class_dress(S: PermGroup, cid: int,
                 U: Subgroup) -> tuple[dict[int, int], int]:
    """The Dress row of U's class ``cid`` in S: the class id of each join
    <U, a> -> the number of cosets Ua giving it, and |N(U):U|, from one
    join per cyclic subgroup of N(U)/U, or per class of them
    (``groups.cyclic_joins``), each join's class looked up by its key.
    |N(U)| is |S| over the class length, so the normalizer is S itself
    for a normal U, with no conjugation.  U's key spares the sift of its
    generators through S's chain."""
    N = normalizer(S, U, S.order // S._sub_classes[cid].size,
                   S.subgroup_key(U))
    counts: dict[int, int] = {}
    for jid, count in cyclic_joins(S, N, U):
        counts[jid] = counts.get(jid, 0) + count
    return counts, N.order // U.order


def dress_row(S: PermGroup, cols: dict[int, int], cid: int, U: Subgroup,
              *, inner_size: int | None = None) -> DressRow:
    """The Dress row of U in S, U of class ``cid`` and its classes mapped
    to columns by ``cols`` (``class_columns``), the row's own column
    ``cols[cid]``.  The row depends only on U's class, so it is built
    once per group and class (``_class_dress``) and kept on the class
    record."""
    u_index = cols[cid]
    record = S._sub_classes[cid]
    if record.dress is None:
        record.dress = _class_dress(S, cid, U)
    counts, modulus = record.dress
    coeffs: dict[int, int] = {}
    for cid, count in counts.items():
        idx = cols.get(cid)
        if idx is None:
            raise InconsistentTableError(
                "generated subgroup matches no class of the transversal")
        coeffs[idx] = count
    if sum(coeffs.values()) != modulus:
        raise RuntimeError(f"Dress row of class {u_index} misses cosets")
    return DressRow(u_index=u_index, coeffs=coeffs, modulus=modulus,
                    inner_size=inner_size)


# ---------------------------------------------------------------------------
# explicit incidence counting


def incidence_probe(S: PermGroup, K: Subgroup, t: tuple[int, ...],
                    cid: int | None = None) -> list:
    """The class keys of the conjugates of K that contain t: the members
    of K's class tree whose keys hold the key of <t>, the zuppos of t's
    prime-power parts (``conjugates_containing``; ``cid`` is K's class
    id, when known).
    """
    [members] = conjugates_containing(
        S, K, [S.subgroup_key(Subgroup(S, [t]))], cid)
    return members


# ---------------------------------------------------------------------------
# the extension engine


class MarksExtender:
    """Assembles the pattern of S from the pattern of A (prime index p)."""

    def __init__(self, pattern_A: SubgroupPattern, S: PermGroup):
        pa = pattern_A.sorted_ascending()
        self.pa = pa
        self.S = S
        self.ctx = ExtensionContext.create(S, pa.group)
        self.p = self.ctx.p
        self.step: StepClasses = extend_classes(
            [c.rep for c in pa.classes], self.ctx)
        self.inner = self.step.inner.classes
        self._check_cyclic_classes()
        self.outer = self.step.outer
        self.b = len(self.inner)
        self.class_reps = self.step.reps
        # blue column of each A-class index
        self.col_of_a_index = {}
        for bi, c in enumerate(self.inner):
            for ai in c.a_indices:
                self.col_of_a_index[ai] = bi
        # A-column read for each blue column
        self._a_cols = [c.a_indices[0] for c in self.inner]
        # per outer class: |V|, V's generators, column of V's inner bound
        self._outer_cells = [
            (oc.rep.order, oc.rep.gens, self.col_of_a_index[oc.base_index])
            for oc in self.outer]
        self.rows: list[list[int]] = []
        self.stats = PatternStats(extension_p=self.p)
        self._dress: list[DressRow] | None = None

    def _check_cyclic_classes(self) -> None:
        """Every element of A generates one cyclic subgroup, which has
        phi(|V|) generators, so a complete transversal of A's classes has
        sum phi(|V|) length(V) = |A| over its cyclic classes V (length in
        S, which counts the p A-classes of a merged class), read with no
        element scan (``Subgroup.is_cyclic``).  A missing non-cyclic
        class is not seen here."""
        total = 0
        for c in self.inner:
            V = c.rep
            if V.is_cyclic():
                total += (euler_phi(V.order)
                          * (self.S.order // c.normalizer_order))
        if total != self.ctx.A.order:
            raise InconsistentTableError(
                f"the input's cyclic classes hold {total} elements of A, "
                f"not {self.ctx.A.order}: the transversal misses a class")

    # -- quarters ---------------------------------------------------------

    def _a_row(self, ai: int, cols: list[int]) -> list[int]:
        """A-row ai at the A-columns ``cols``, 0 past the end of the row."""
        row = self.pa.rows[ai]
        return [row[c] if c <= ai else 0 for c in cols]

    def top_left_row(self, bi: int) -> list[int]:
        """Inner row: p-multiple of the A-row, or the merged-row sum."""
        c = self.inner[bi]
        factor = self.p // len(c.a_indices)
        cols = self._a_cols[:bi + 1]
        return [factor * sum(vals) for vals in
                zip(*(self._a_row(ai, cols) for ai in c.a_indices))]

    def bottom_left_row(self, ri: int) -> list[int]:
        """Inner columns of an outer row: copy of the A-row of rep∩A."""
        return self._a_row(self.outer[ri].base_index, self._a_cols)

    def assemble_inner(self) -> None:
        for bi in range(self.b):
            self.rows.append(self.top_left_row(bi))

    # -- lazily built engine tables ----------------------------------------

    def dress_rows(self) -> list[DressRow]:
        """Dress rows whose congruences involve outer columns.

        Stable inner classes contribute the refined orbit-count form;
        outer classes contribute plain congruences mod |N(U):U| (their
        coefficients live entirely on outer columns).  Merged inner
        classes have no outer cosets and are skipped.
        """
        if self._dress is None:
            cols = class_columns(self.S, self.step.reps)
            cids = list(cols)   # in column order
            rows = []
            for bi, c in enumerate(self.inner):
                if not c.stable:
                    continue
                inner_size = c.normalizer_order // self.p // c.rep.order
                rows.append(dress_row(self.S, cols, cids[bi], c.rep,
                                      inner_size=inner_size))
            for rj, oc in enumerate(self.outer):
                dr = dress_row(self.S, cols, cids[self.b + rj], oc.rep)
                if dr.modulus > 1:
                    rows.append(dr)
            self._dress = rows
        return self._dress

    # -- row state ----------------------------------------------------------

    def init_row(self, ri: int) -> "RowState":
        """Bounds pass: bottom-left copy, diagonal, then one loop over the
        outer cells: the Lagrange zeros, and for a normal K each cell
        |S:K| (the diagonal) when V <= K and 0 otherwise, checked against
        the inner bound's progression (at most the bound, congruent to it
        mod p); any other row gets candidate ranges, congruent to the
        inner bound mod p, divisible by the diagonal and at least it when
        V <= K.  V <= K is one test of V's generators, ``K.membership()``."""
        oc = self.outer[ri]
        i, K, p = self.b + ri, oc.rep, self.p
        inside, korder = K.membership(), K.order
        normal = oc.normalizer_order == self.S.order
        diag = oc.normalizer_order // korder
        values: list = self.bottom_left_row(ri) + [None] * (ri + 1)
        values[i] = diag
        cand, decided_by, contained = {}, {}, set()
        for j, (order, gens, col) in enumerate(self._outer_cells[:ri],
                                               self.b):
            if korder % order:
                values[j] = 0
                decided_by[j] = "lagrange"
                continue
            ub = values[col]
            if normal:
                m = diag if inside(gens) else 0
                if m > ub or (ub - m) % p:
                    raise InconsistentTableError(
                        f"normal mark {m} off the inner bound {ub} "
                        f"at ({i},{j})")
                values[j] = m
                decided_by[j] = "bounds"
                continue
            opts = tuple(m for m in range(ub % p, ub + 1, p)
                         if m % diag == 0)
            if not opts:
                raise InconsistentTableError(
                    f"no candidate for cell ({i},{j})")
            if inside(gens):
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
        return RowState(index=i, ri=ri, values=values, cand=cand,
                        decided_by=decided_by, contained=contained)

    # -- refinement passes ---------------------------------------------------

    def transitivity_pass(self, st: "RowState") -> bool:
        """Bound propagation along certified subconjugacy chains.

        Upper bounds flow up containment (a bigger subgroup fixes no
        more cosets); lower bounds flow down, including the quotient
        bound row(V)/|K:V| for classes V certified below the row class.

        Subconjugacy is read from the completed rows (V is subconjugate
        to W exactly when the mark of V on S/W is nonzero): the classes
        below column j are the nonzero cells of row j, the completed
        classes above it the rows v < i nonzero in column j.
        """
        changed = False
        i = st.index
        rows = self.rows
        lo: dict[int, int] = {}
        hi: dict[int, int] = {}
        for j in list(st.cand):
            opts = st.cand[j]
            lob, hib = opts[0], opts[-1]
            for v, mark in enumerate(rows[j]):
                if not mark:
                    continue
                m = st.values[v] if v not in st.cand else st.cand[v][-1]
                if m is not None and m < hib:
                    hib = m
            for v in range(j + 1, i):
                if not rows[v][j]:
                    continue
                m = st.values[v] if v not in st.cand else st.cand[v][0]
                if m is not None and m > lob:
                    lob = m
            lo[j], hi[j] = lob, hib
        # quotient bound from certified contained classes
        K_order = self.outer[st.ri].rep.order
        certified = set(st.contained)
        for j in range(self.b, i):
            v = st.values[j]
            if v is not None and v > 0:
                certified.add(j)
        for v in certified:
            ratio = K_order // self.class_reps[v].order
            for j in st.cand:
                if not (j < v and rows[v][j]):
                    continue
                bound = -(-rows[v][j] // ratio)  # ceil division
                if bound > lo.get(j, 0):
                    lo[j] = bound
        for j in list(st.cand):
            opts = tuple(m for m in st.cand[j]
                         if lo.get(j, 0) <= m <= hi.get(j, m))
            if opts != st.cand[j]:
                changed = True
                if not opts:
                    raise InconsistentTableError(
                        f"transitivity emptied cell ({i},{j})")
                if len(opts) == 1:
                    st.decide(j, opts[0], "transitivity")
                else:
                    st.cand[j] = opts
        return changed

    def dress_pass(self, st: "RowState") -> bool:
        """Prune candidates by the congruence and bound each stable inner
        class U imposes on the outer part of the row, then by the plain
        congruences of outer classes.  Each congruence keeps exactly the
        candidates some admissible assignment of its support uses.

        Every congruence is visited, in order; one whose support holds no
        undecided cell returns at once (``_dress_single``)."""
        changed = False
        for dr in self.dress_rows():
            if self._dress_single(st, dr):
                changed = True
            if not st.cand:
                break
        return changed

    def _dress_single(self, st: "RowState", dr: DressRow) -> bool:
        """Prune the undecided cells of one congruence to the values that
        some admissible assignment of its whole support uses.

        Exact for every support size, with no cap: the feasible values
        come from one pass over reachable sums (``_dress_feasible``)."""
        i = st.index
        und = [j for j in dr.coeffs if j in st.cand]
        if not und:
            return False
        targets, fixed = self._dress_targets(st, dr, und)
        if targets is not None and not targets:
            raise InconsistentTableError(
                f"no admissible target sum for the congruence at class "
                f"{dr.u_index} in row {i}")
        feasible = self._dress_feasible(st, dr, und, targets, fixed)
        if feasible is None:
            raise InconsistentTableError(
                f"no feasible assignment for the congruence at class "
                f"{dr.u_index} in row {i}")
        changed = False
        for k, j in enumerate(und):
            n = dr.coeffs[j]
            vals = tuple(v // n for v in sorted(feasible[k]))
            if vals != st.cand[j]:
                changed = True
                if len(vals) == 1:
                    st.decide(j, vals[0], f"dress:{dr.u_index}")
                else:
                    st.cand[j] = vals
        return changed

    def _dress_targets(self, st: "RowState", dr: DressRow, und: list[int]):
        """Admissible values of the outer coefficient sum, and the decided
        part of that sum.

        For inner U the sum must equal |B| * o_R for an orbit count o_R
        with o_R = -o_B (mod p), 0 <= o_R <= (p-1) o_B; for outer U any
        sum with total = 0 mod |N(U):U| is admissible (returned as None,
        meaning "all residues fixed+s = 0 mod modulus").
        """
        i = st.index
        fixed = 0
        inner_sum = 0
        for j, njj in dr.coeffs.items():
            if j in und:
                continue
            if j < self.b:
                inner_sum += njj * st.values[j]
            elif j <= i:
                v = st.values[j]
                if v is None:
                    raise RuntimeError(f"cell ({i},{j}) is undecided")
                fixed += njj * v
            # columns past the row contribute 0
        if dr.inner_size is None:
            if inner_sum:
                raise InconsistentTableError(
                    "outer congruence row has inner coefficients")
            return None, fixed
        bsize = dr.inner_size
        if bsize <= 0:
            raise RuntimeError(f"class {dr.u_index} has inner size {bsize}")
        if inner_sum % bsize:
            raise InconsistentTableError(
                "inner orbit count is not integral: corrupt input pattern")
        o_b = inner_sum // bsize
        p = self.p
        targets = [bsize * o_r for o_r in range((p - 1) * o_b + 1)
                   if (o_r + o_b) % p == 0]
        return targets, fixed

    @staticmethod
    def _dress_feasible(st: "RowState", dr: DressRow, und: list[int],
                        targets, fixed: int):
        """Per-cell sets of feasible scaled values (None if infeasible).

        Forward, the sums reachable after each cell, starting from
        ``fixed``: residues mod the modulus for outer U (``targets`` is
        None), exact sums for inner U, where the admissible totals are
        ``targets``; marks are non-negative, so a sum past the largest
        target is dropped.  Backward from the admissible totals, a value
        is feasible when some reachable prefix carries it to a sum that
        still reaches one of them.
        """
        scaled = [tuple(dr.coeffs[j] * y for y in st.cand[j]) for j in und]
        if targets is None:
            mod = dr.modulus
            norm = lambda s: s % mod
            goal = {0}
        else:
            top = max(targets)
            norm = lambda s: s if s <= top else None
            goal = set(targets)
        reach = [{fixed}]
        for vals in scaled:
            reach.append({norm(s + v) for s in reach[-1] for v in vals}
                         - {None})
        goal &= reach[-1]
        if not goal:
            return None
        feas = []
        for k in range(len(und) - 1, -1, -1):
            cell, back = set(), set()
            for s in reach[k]:
                for v in scaled[k]:
                    if norm(s + v) in goal:
                        cell.add(v)
                        back.add(s)
            feas.append(cell)
            goal = back
        return feas[::-1]

    # -- explicit probes -----------------------------------------------------

    def probe_one(self, st: "RowState") -> None:
        """Explicit counting with a single t: one probe decides the cell
        of t's column and every undecided cell whose class representative
        contains t, each by ``mark_row``.

        The t is the coset element of the candidate column with the
        fewest elements in K ∩ t^S.  Counting the pairs (x, K^g) with x
        in K^g ∩ t^S both ways, that number is |t^S| c(t) / |K^S|, where
        c(t) is the number of conjugates of K containing t
        (``incidence_probe``).
        """
        S, i = self.S, st.index
        oc = self.outer[st.ri]
        K = oc.rep
        conjugates = S.order // oc.normalizer_order
        cid = subgroup_class_id(S, K)   # once per probe
        best = None
        for j in sorted(st.cand):
            t = self.outer[j - self.b].gen_element
            members = incidence_probe(S, K, t, cid)
            est = element_class_length(S, t) * len(members) // conjugates
            if best is None or est < best[0]:
                best = (est, j, t, members)
        _, j0, t, members = best
        self.stats.probes += 1
        self.stats.max_probe = max(self.stats.max_probe, len(members))
        cols = [j for j in sorted(st.cand)
                if j == j0 or t in self.class_reps[j]]
        vals = mark_row(S, K, [S.subgroup_key(self.class_reps[j])
                               for j in cols], cid)
        for j, val in zip(cols, vals):
            if val not in st.cand[j]:
                raise InconsistentTableError(
                    f"explicit mark {val} outside candidates at ({i},{j})")
            st.decide(j, val, "probe")

    # -- driver ----------------------------------------------------------------

    def solve_row(self, ri: int) -> "RowState":
        st = self.init_row(ri)
        while st.cand:
            progress = True
            while progress and st.cand:
                progress = self.transitivity_pass(st)
                if st.cand and self.dress_pass(st):
                    progress = True
            if st.cand:
                self.probe_one(st)
        return st

    def solve(self) -> SubgroupPattern:
        start = time.monotonic()
        self.assemble_inner()
        for ri in range(len(self.outer)):
            st = self.solve_row(ri)
            if None in st.values:
                raise RuntimeError(f"row {st.index} left undecided")
            self.rows.append(st.values)
            self.stats.row_tags[st.index] = st.decided_by
        self.stats.millis = int((time.monotonic() - start) * 1000)
        return self._pattern()

    def _pattern(self) -> SubgroupPattern:
        classes = []
        for c in self.inner:
            classes.append(PatternClass(
                rep=c.rep, order=c.rep.order,
                length=self.S.order // c.normalizer_order,
                normalizer_order=c.normalizer_order))
        for oc in self.outer:
            classes.append(PatternClass(
                rep=oc.rep, order=oc.rep.order,
                length=self.S.order // oc.normalizer_order,
                normalizer_order=oc.normalizer_order,
                gamma_index=self.col_of_a_index[oc.base_index]))
        return SubgroupPattern(group=self.S, classes=classes,
                               rows=self.rows, stats=self.stats)


@dataclass
class RowState:
    """Mutable solving state of one outer row."""

    index: int
    ri: int
    values: list
    cand: dict[int, tuple]
    decided_by: dict[int, str]
    contained: set[int]

    def decide(self, j: int, val: int, tag: str) -> None:
        self.values[j] = val
        self.decided_by[j] = tag
        del self.cand[j]


@collector_paused
def extend_table_of_marks(pattern_A: SubgroupPattern,
                          S: PermGroup) -> SubgroupPattern:
    """Subgroup pattern of S from the pattern of a normal prime-index A."""
    return MarksExtender(pattern_A, S).solve()


@collector_paused
def solvable_pattern_chain(G: PermGroup) -> list[SubgroupPattern]:
    """Patterns of every term of a composition series of G, bottom up.

    The first entry is the trivial pattern; every later entry is the
    raw output of one extension step (inner block first).  Inputs of
    each step are re-sorted by ascending subgroup order.
    """
    chain = [trivial_pattern(G.degree)]
    for S in composition_series(G):
        chain.append(extend_table_of_marks(chain[-1], S))
    return chain


# ---------------------------------------------------------------------------
# verification


def verify_dress(pattern: SubgroupPattern, columns=None):
    """Check every row of the table against every Dress congruence.

    Returns (ok, violations); each violation names the offending row,
    the class U whose congruence fails, and the row's sum modulo
    |N(U):U|, row by row within each congruence.  Sums are accumulated
    over the nonzero cells of each coefficient column only: a row whose
    sum never gets a term sums to zero, which every congruence admits.
    ``columns`` holds those cells, (i, v) in each column with rows
    ascending, for a caller that has listed them already
    (``validate_pattern``); otherwise one ``compress`` pass over each
    row lists them.
    """
    if columns is None:
        columns = [[] for _ in range(pattern.n)]
        for i, row in enumerate(pattern.rows):
            for j in compress(range(len(row)), row):
                columns[j].append((i, row[j]))
    S = pattern.group
    reps = [c.rep for c in pattern.classes]
    cols = class_columns(S, reps)
    violations = []
    for cid, u in cols.items():
        dr = dress_row(S, cols, cid, reps[u])
        sums: dict[int, int] = {}
        get = sums.get
        for j, n in dr.coeffs.items():
            for i, v in columns[j]:
                sums[i] = get(i, 0) + n * v
        for i in sorted(sums):
            if sums[i] % dr.modulus:
                violations.append(
                    f"row {i}: congruence of class {dr.u_index} fails "
                    f"(sum {sums[i]} mod {dr.modulus})")
    return not violations, violations


@collector_paused
def validate_pattern(pattern: SubgroupPattern) -> list[str]:
    """Structural invariant suite; returns a list of violations.

    A table whose row count is not its class count, or whose row i
    does not hold i + 1 cells, gets only those shape violations.
    Otherwise the checks are class length x normalizer order = group
    order, order divisibility at nonzero cells, diagonal = normalizer
    index, first column = group index, last row of ones, row
    divisibility by the diagonal, the mod-p column
    congruence for recorded (rep∩A, rep) pairs, and the
    Dress congruences, which also reject conjugate representatives and
    a transversal that misses a class.

    Every cell check reports only at a nonzero cell (a zero mark is
    non-negative, breaks no Lagrange bound and is divisible by any
    diagonal), so the cells each row lists by one ``compress`` pass are
    the only ones visited, and the same lists, gathered by column, feed
    the column congruence and the Dress sums: a column pair can break
    its congruence only in a row nonzero in one of the two.
    """
    n = pattern.n
    G = pattern.group
    rows = pattern.rows
    out = [f"row {i} has length {len(row)}"
           for i, row in enumerate(rows) if len(row) != i + 1]
    if len(rows) != n:
        out.append(f"table has {len(rows)} rows for {n} classes")
    if out:
        return out
    orders = pattern.class_orders()
    columns: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, (ci, row) in enumerate(zip(pattern.classes, rows)):
        if ci.length * ci.normalizer_order != G.order:
            out.append(f"class {i}: length {ci.length} x normalizer "
                       f"{ci.normalizer_order} is not the group order "
                       f"{G.order}")
        if row[i] != ci.normalizer_order // ci.order:
            out.append(f"diagonal {i} is not the normalizer index")
        if row[0] != G.order // ci.order:
            out.append(f"first column of row {i} is not the group index")
        diag, order = row[i], orders[i]
        for j in compress(range(i + 1), row):
            v = row[j]
            columns[j].append((i, v))
            if v < 0:
                out.append(f"negative mark at ({i},{j})")
            if order % orders[j]:
                out.append(f"nonzero mark at ({i},{j}) violates Lagrange")
            if diag and v % diag:
                out.append(f"mark at ({i},{j}) not divisible by diagonal")
    if orders[-1] != G.order or any(v != 1 for v in rows[-1]):
        out.append("last row is not the all-ones row of the whole group")
    p = pattern.stats.extension_p
    if p:
        for j, c in enumerate(pattern.classes):
            g = c.gamma_index
            if g is None:
                continue
            at_j, at_g = dict(columns[j]), dict(columns[g])
            for i in sorted(at_j.keys() | at_g.keys()):
                if (at_j.get(i, 0) - at_g.get(i, 0)) % p:
                    out.append(
                        f"column congruence mod {p} fails at row {i}, "
                        f"columns ({g},{j})")
    try:
        _, viol = verify_dress(pattern, columns)
    except (ConjugateDuplicatesError, InconsistentTableError) as exc:
        viol = [str(exc)]
    out.extend(viol)
    return out
