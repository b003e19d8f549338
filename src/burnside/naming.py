"""Readable structure names for small subgroups (display only).

Covers the families that show up in desk-scale tables: cyclic,
elementary abelian, dihedral, (generalized) quaternion, a few named
groups recognized by their element-order profile, and an elementary
split extension p^k:Cq.  Everything else falls back to G<order>.
A subgroup with no order profile (the kernel reads none for a large
one) is named without one: a cyclic group is C<order>
(``Subgroup.is_cyclic``), another abelian one G<order>, and a
non-abelian one is named by its order alone.
"""

from __future__ import annotations

from .groups import Subgroup, prime_factors

# (order, order profile) -> name, fed by the catalog and by hand
_PROFILE_NAMES: dict = {}


def register_profile(name: str, order: int, profile) -> None:
    _PROFILE_NAMES[(order, tuple(profile))] = name


def subgroup_name(sub: Subgroup) -> str:
    """Best-effort structure name of a small subgroup."""
    n = sub.order
    if n == 1:
        return "1"
    prof = sub.order_profile()
    if prof is None:
        if sub.is_cyclic():
            return f"C{n}"
        if sub.is_abelian():
            return f"G{n}"
        return _PROFILE_NAMES.get((n, None), f"G{n}")
    prof = dict(prof)
    named = _PROFILE_NAMES.get((n, tuple(sorted(prof.items()))))
    if named:
        return named
    if prof.get(n):
        return f"C{n}"
    factors = prime_factors(n)
    if len(set(factors)) == 1 and prof.get(factors[0], 0) == n - 1:
        return f"{factors[0]}^{len(factors)}"
    # dihedral: n = 2m, a cyclic half plus m reflections
    if n % 2 == 0:
        m = n // 2
        if m > 2 and prof.get(2, 0) >= m and _has_cyclic(prof, m):
            return "S3" if n == 6 else f"D{n}"
        # generalized quaternion: unique involution, element of order m
        if n >= 8 and n % 4 == 0 and prof.get(2, 0) == 1 \
                and prof.get(n // 2, 0) and len(set(factors)) == 1:
            return f"Q{n}"
    # split extension p^k : Cq with q prime
    pq = _split_elementary(prof, n)
    if pq:
        p, k, q = pq
        return f"{p}^{k}:C{q}"
    return f"G{n}"


def _has_cyclic(prof: dict, m: int) -> bool:
    return any(o % m == 0 for o in prof if prof[o])


def _split_elementary(prof: dict, n: int):
    for q in sorted(prof):
        if prime_factors(q) != [q] or n % q:
            continue
        rest = n // q
        factors = prime_factors(rest)
        if len(set(factors)) != 1 or factors[0] == q:
            continue
        p, k = factors[0], len(factors)
        # all non-identity orders are p or q exactly
        if set(o for o in prof if prof[o] and o > 1) <= {p, q} \
                and prof.get(p, 0) == rest - 1:
            return p, k, q
    return None


def _seed_names() -> None:
    register_profile("S4", 24, ((1, 1), (2, 9), (3, 8), (4, 6)))
    register_profile("SL(2,3)", 24, ((1, 1), (2, 1), (3, 8), (4, 6), (6, 8)))
    register_profile("GL(2,3)", 48, ((1, 1), (2, 13), (3, 8), (4, 6),
                                     (6, 8), (8, 12)))
    register_profile("A4", 12, ((1, 1), (2, 3), (3, 8)))
    register_profile("5:4", 20, ((1, 1), (2, 5), (4, 10), (5, 4)))
    register_profile("SD16", 16, ((1, 1), (2, 5), (4, 6), (8, 4)))
    register_profile("A5", 60, ((1, 1), (2, 15), (3, 20), (5, 24)))
    register_profile("S5", 120, ((1, 1), (2, 25), (3, 20), (4, 30),
                                 (5, 24), (6, 20)))
    register_profile("A6", 360, ((1, 1), (2, 45), (3, 80), (4, 90),
                                 (5, 144)))
    register_profile("S6", 720, ((1, 1), (2, 75), (3, 80), (4, 180),
                                 (5, 144), (6, 240)))
    _PROFILE_NAMES[(32736, None)] = "L2(32)"
    _PROFILE_NAMES[(163680, None)] = "L2(32):5"


_seed_names()
