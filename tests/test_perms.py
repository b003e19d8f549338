import random

import pytest

from burnside.perms import (
    CycleParseError,
    conj,
    conj_by,
    format_tuple,
    identity_tuple,
    inv,
    left_mul_by,
    mul,
    order_of,
    parse_cycles,
    power,
)


def test_parse_basic():
    p = parse_cycles("(1,2)(3,4)", 4)
    assert p == (1, 0, 3, 2)
    assert parse_cycles("()", 3) == identity_tuple(3)
    assert parse_cycles("", 3) == identity_tuple(3)
    assert parse_cycles(" (1, 2) ( 3 ,4) ", 4) == (1, 0, 3, 2)


def test_parse_unmentioned_points_fixed():
    p = parse_cycles("(2,3)", 5)
    assert p == (0, 2, 1, 3, 4)


@pytest.mark.parametrize("text", ["(1,2,7)", "(0,1)", "(1,1)", "(1,2)(2,3)",
                                  "(1,2", "1,2)", "(1,,2)", "(a,b)"])
def test_parse_errors(text):
    with pytest.raises(CycleParseError):
        parse_cycles(text, 4)


def test_parse_degree_validation():
    with pytest.raises(CycleParseError):
        parse_cycles("()", 0)


def test_compose_convention():
    # left-to-right: apply g, then h
    g = parse_cycles("(1,2,3)", 3)
    h = parse_cycles("(1,2)", 3)
    assert mul(g, h) == parse_cycles("(2,3)", 3)
    assert mul(g, identity_tuple(3)) == g
    assert inv(parse_cycles("(1,2,3)", 3)) == parse_cycles("(1,3,2)", 3)


def test_act_homomorphism():
    g = parse_cycles("(1,2,3,4,5)", 5)
    h = parse_cycles("(1,2)", 5)
    for x in range(5):
        assert mul(g, h)[x] == h[g[x]]


def test_act_associativity_random():
    rng = random.Random(17)
    n = 8
    for _ in range(1000):
        g = list(range(n)); rng.shuffle(g)
        h = list(range(n)); rng.shuffle(h)
        k = list(range(n)); rng.shuffle(k)
        g, h, k = tuple(g), tuple(h), tuple(k)
        x = rng.randrange(n)
        lhs = mul(g, mul(h, k))[x]
        rhs = mul(mul(g, h), k)[x]
        assert lhs == rhs == k[h[g[x]]]


def test_inverse_and_order():
    rng = random.Random(23)
    n = 9
    for _ in range(200):
        g = list(range(n)); rng.shuffle(g)
        g = tuple(g)
        gi = inv(g)
        assert mul(g, gi) == tuple(range(n))
        o = order_of(g)
        assert power(g, o) == identity_tuple(n)
        assert all(power(g, k) != identity_tuple(n)
                   for k in range(1, min(o, 5)))


def test_format_round_trip():
    rng = random.Random(5)
    n = 7
    for _ in range(100):
        g = list(range(n)); rng.shuffle(g)
        g = tuple(g)
        assert parse_cycles(format_tuple(g), n) == g


def _loop_mul(a, b):
    # reference: the product point by point, b at each image of a
    return tuple(map(b.__getitem__, a))


def _loop_conj(a, g):
    # g^-1 a g point by point: a maps i to a[i], so a^g maps g[i] to g[a[i]]
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[g[i]] = g[x]
    return tuple(out)


@pytest.mark.parametrize("n", [1, 2, 6, 33, 155])
def test_gathers_match_loop_definitions(n):
    """mul, power, conj, conj_by and left_mul_by equal the point-by-point
    definitions, and return tuples at every degree (a one-index gather
    would not)."""
    rng = random.Random(1000 + n)

    def rand():
        p = list(range(n))
        rng.shuffle(p)
        return tuple(p)

    for _ in range(40):
        a, b, g = rand(), rand(), rand()
        assert type(mul(a, b)) is tuple
        assert mul(a, b) == _loop_mul(a, b)
        assert conj(a, g) == _loop_conj(a, g)
        c = conj_by(g)
        assert c(a) == _loop_conj(a, g)
        assert type(c(a)) is tuple
        lm = left_mul_by(g)
        assert lm(a) == _loop_mul(g, a)
        assert type(lm(a)) is tuple
        k = rng.randrange(-3, 8)
        want = identity_tuple(n)
        step = a if k >= 0 else inv(a)
        for _ in range(abs(k)):
            want = _loop_mul(want, step)
        assert power(a, k) == want
