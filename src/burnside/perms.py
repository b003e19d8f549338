"""Permutations of a finite point set, with cycle-notation I/O.

Conventions used throughout the package:

* points are 0-based internally; cycle notation is 1-based (the only
  place where 1-based labels appear),
* a permutation is a tuple ``images`` of length ``degree`` with
  ``images[x] = x.g``; tuples are the only representation, and input
  from outside enters through :func:`parse_cycles`,
* permutations act on the right and compose left-to-right, so
  ``mul(g, h)[x] == h[g[x]]``.

The hot primitives are gathers, so that their loop over the points runs
in C (``operator.itemgetter``): a product ``mul(a, b)`` gathers b at
the points of a; ``left_mul_by(y)`` is the map h -> mul(y, h), one
prebuilt gather per element, for a left coset y H or for many products
with one left factor; ``conj_by(g)`` is the map x -> x^g for
conjugating many elements by one g, two gathers per element through
one inverse of g, computed once.  ``inv`` keeps its Python loop: an
inverse is a scatter, not a gather, and its C-level forms (a sort, a
dict) measure slower than the loop.  The one-shot ``conj(a, g)`` keeps
its loop too: by gathers it would first have to invert g, which costs
most of what the whole ``conj`` loop does.
"""

from __future__ import annotations

import re
from math import lcm
from operator import itemgetter


class CycleParseError(ValueError):
    """Malformed cycle expression, or a point outside 1..degree."""


def identity_tuple(degree: int) -> tuple[int, ...]:
    return tuple(range(degree))


def mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Product `a then b` (left-to-right composition)."""
    if len(a) > 1:
        return itemgetter(*a)(b)
    # a one-index itemgetter returns the item, not a 1-tuple
    return tuple(map(b.__getitem__, a))


def left_mul_by(y: tuple[int, ...]):
    """The map h -> mul(y, h): a gather of h at the points of y."""
    if len(y) > 1:
        return itemgetter(*y)
    # a one-index itemgetter returns the item, not a 1-tuple; below
    # degree 2 the identity is the only permutation
    return tuple


def inv(a: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def conj(a: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """Conjugate g^-1 * a * g."""
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[g[i]] = g[x]
    return tuple(out)


def conj_by(g: tuple[int, ...]):
    """The map x -> g^-1 * x * g, for conjugating many elements by one g.

    x^g maps g[i] to g[x[i]], so x^g == g[x[g^-1]]: a gather of x at
    the points of g^-1, then a gather of g at those.
    """
    if len(g) < 2:
        return tuple  # the identity is the only permutation
    at_inverse = itemgetter(*inv(g))
    return lambda x: itemgetter(*at_inverse(x))(g)


def power(a: tuple[int, ...], n: int) -> tuple[int, ...]:
    if n < 0:
        return power(inv(a), -n)
    out = identity_tuple(len(a))
    base = a
    while n:
        if n & 1:
            out = mul(out, base)
        base = mul(base, base)
        n >>= 1
    return out


def order_of(a: tuple[int, ...]) -> int:
    """Order of a permutation: lcm of its cycle lengths."""
    n = len(a)
    seen = [False] * n
    result = 1
    for i in range(n):
        if seen[i] or a[i] == i:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = a[j]
            length += 1
        result = lcm(result, length)
    return result


def cycles_of(a: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Nontrivial cycles, 0-based, each rotated to start at its minimum."""
    n = len(a)
    seen = [False] * n
    out = []
    for i in range(n):
        if seen[i] or a[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = a[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = a[j]
        out.append(tuple(cyc))
    return out


def format_tuple(a: tuple[int, ...]) -> str:
    cycs = cycles_of(a)
    if not cycs:
        return "()"
    return "".join("(" + ",".join(str(x + 1) for x in c) + ")" for c in cycs)


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int) -> tuple[int, ...]:
    """Parse a product of disjoint cycles like ``(1,2,3)(4,5)`` into a tuple.

    The empty string and ``()`` denote the identity.  Whitespace is
    ignored.  Raises CycleParseError on malformed input, points outside
    1..degree, or a repeated point.
    """
    if degree < 1:
        raise CycleParseError(f"degree must be >= 1, got {degree}")
    stripped = re.sub(r"\s+", "", text)
    images = list(range(degree))
    consumed = 0
    seen: set[int] = set()
    for m in _CYCLE_RE.finditer(stripped):
        consumed += len(m.group(0))
        body = m.group(1)
        if not body:
            continue
        try:
            points = [int(tok) for tok in body.split(",")]
        except ValueError as exc:
            raise CycleParseError(f"bad cycle {m.group(0)!r}") from exc
        for p in points:
            if not 1 <= p <= degree:
                raise CycleParseError(
                    f"point {p} out of range 1..{degree} in {text!r}")
            if p - 1 in seen:
                raise CycleParseError(f"repeated point {p} in {text!r}")
            seen.add(p - 1)
        for x, y in zip(points, points[1:]):
            images[x - 1] = y - 1
        images[points[-1] - 1] = points[0] - 1
    if consumed != len(stripped):
        raise CycleParseError(f"malformed cycle expression {text!r}")
    return tuple(images)
