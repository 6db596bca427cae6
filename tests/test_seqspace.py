"""Sequence-space membership, decomposition, joins, and witnesses."""

import random
from fractions import Fraction

import pytest

from ordercone.errors import NotInC, NotMember, ParseError
from ordercone.seqspace import (
    SEQ_ZERO,
    NonDirected,
    NonDisjoint,
    NonPervasive,
    ProvedNone,
    Some,
    b_element,
    c_element,
    seq,
    seq_add,
    seq_B_complement_witness,
    seq_B_upper_bound,
    seq_decompose_BC,
    seq_in_subspace,
    seq_is_disjoint,
    seq_is_member,
    seq_join_in_C,
    seq_leq,
    seq_nonpervasive_witness,
    seq_pointwise_max,
    seq_to_json,
    weighted_negative_sum,
)


def scaled(c, x):
    """c * x, rebuilt entry by entry with seq()."""
    return seq({k: c * v for k, v in x.entries}, tail_start=x.tail_start, tail_value=c * x.tail_value)


def random_member(rng):
    """A random member: arbitrary deep and nonnegative entries, -1 balances."""
    ts = rng.randint(0, 3)
    tv = Fraction(rng.randint(-4, 4), rng.choice((1, 2, 4)))
    entries = {}
    for k in range(-6, -1):
        if rng.random() < 0.4:
            entries[k] = Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
    for k in range(0, ts):
        if rng.random() < 0.5:
            entries[k] = Fraction(rng.randint(-4, 4))
    rest = sum(v * Fraction(1, 2**-k) for k, v in entries.items() if k < -1)
    entries[-1] = 2 * (tv - rest)
    return seq(entries, tail_start=ts, tail_value=tv)


def random_b_member(rng):
    tv = Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
    entries = {-1: 2 * tv}
    ts = rng.randint(0, 3)
    for k in range(0, ts):
        if rng.random() < 0.5:
            entries[k] = Fraction(rng.randint(-3, 3))
    return seq(entries, tail_start=ts, tail_value=tv)


def random_c_member(rng):
    entries = {}
    for k in range(-6, -1):
        if rng.random() < 0.5:
            entries[k] = Fraction(rng.randint(-4, 4))
    rest = sum(v * Fraction(1, 2**-k) for k, v in entries.items())
    entries[-1] = -2 * rest
    return seq(entries)


def test_membership_frozen():
    assert seq_is_member(c_element(1))
    assert seq_is_member(seq({0: 1}, tail_start=1))
    assert not seq_is_member(seq(tail_start=0, tail_value=1))
    assert seq_is_member(b_element())
    assert seq_is_member(SEQ_ZERO)
    # a constant tail reaching into negative indices sums geometrically
    assert not seq_is_member(seq(tail_start=-2, tail_value=1))
    assert seq_is_member(seq({-3: 2}, tail_start=-2, tail_value=1))
    assert weighted_negative_sum(seq({-3: 2}, tail_start=-2, tail_value=1)) == 1


def test_normalization():
    assert seq({-1: 0}) == SEQ_ZERO
    assert seq({3: 5}, tail_start=4, tail_value=5) == seq(tail_start=3, tail_value=5)
    assert seq({2: 5}, tail_start=7) == seq({2: 5}, tail_start=3)
    assert seq({2: 5}, tail_start=7).tail_start == 3
    x = seq({-2: Fraction(1, 3)}, tail_start=0)
    assert x.value_at(-2) == Fraction(1, 3)
    assert x.value_at(-1) == 0
    assert x.value_at(100) == 0
    with pytest.raises(ParseError):
        seq({0: 1}, tail_start=0)
    with pytest.raises(ParseError):
        seq({True: 1}, tail_start=2)
    with pytest.raises(ParseError):
        seq({-1: "1.5"})


def test_membership_is_linear():
    rng = random.Random(50701)
    for _ in range(200):
        x = random_member(rng)
        y = random_member(rng)
        assert seq_is_member(x) and seq_is_member(y)
        assert seq_is_member(seq_add(x, y))
        c = Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3)))
        assert seq_is_member(scaled(c, x))
        assert seq_add(x, seq_add(y, scaled(-1, x))) == y


def test_in_subspace_frozen():
    assert seq_in_subspace(b_element(), "B")
    assert not seq_in_subspace(b_element(), "C")
    assert seq_in_subspace(c_element(1), "C")
    assert not seq_in_subspace(c_element(1), "B")
    assert seq_in_subspace(SEQ_ZERO, "B") and seq_in_subspace(SEQ_ZERO, "C")
    with pytest.raises(NotMember):
        seq_in_subspace(seq({-1: 1}), "B")
    with pytest.raises(ParseError):
        seq_in_subspace(SEQ_ZERO, "Q")


def test_decompose_frozen():
    assert seq_decompose_BC(b_element()) == (b_element(), SEQ_ZERO)
    assert seq_decompose_BC(c_element(1)) == (SEQ_ZERO, c_element(1))
    z0 = seq({0: 1}, tail_start=1)
    assert seq_decompose_BC(z0) == (z0, SEQ_ZERO)
    mixed = seq_add(b_element(), c_element(2))
    assert seq_decompose_BC(mixed) == (b_element(), c_element(2))


def test_decompose_random_and_uniqueness():
    rng = random.Random(50702)
    for _ in range(100):
        x = random_member(rng)
        b, c = seq_decompose_BC(x)
        assert seq_in_subspace(b, "B")
        assert seq_in_subspace(c, "C")
        assert seq_add(b, c) == x
        # shifting weight across the -1 slot breaks membership of a part
        delta = seq({-1: Fraction(1, 3)})
        assert not seq_is_member(seq_add(b, delta)) or not seq_is_member(
            seq_add(c, scaled(-1, delta))
        )


def test_disjoint_frozen():
    z0 = seq({0: 1}, tail_start=1)
    assert seq_is_disjoint(c_element(1), z0)
    assert not seq_is_disjoint(b_element(), c_element(1))
    assert seq_is_disjoint(b_element(), SEQ_ZERO)
    assert seq_is_disjoint(b_element(), c_element(2))
    with pytest.raises(NotMember):
        seq_is_disjoint(seq({-1: 1}), SEQ_ZERO)


def test_join_in_C_frozen():
    res = seq_join_in_C(c_element(1), c_element(2))
    assert res == ProvedNone(NonDirected(Fraction(3, 4)))
    res = seq_join_in_C(c_element(1), c_element(1))
    assert res == Some(c_element(1))
    # the stated rule also proves the (2, 3) pair has no bound in C
    res = seq_join_in_C(c_element(2), c_element(3))
    assert res == ProvedNone(NonDirected(Fraction(3, 8)))
    flipped = seq({-1: -1, -2: 2})
    res = seq_join_in_C(c_element(1), flipped)
    assert res == ProvedNone(NonDirected(Fraction(1)))


def test_join_in_C_random_soundness():
    rng = random.Random(50703)
    for _ in range(100):
        x = random_c_member(rng)
        y = random_c_member(rng)
        res = seq_join_in_C(x, y)
        if isinstance(res, Some):
            bound = res.value
            assert seq_in_subspace(bound, "C")
            assert seq_leq(x, bound) and seq_leq(y, bound)
        else:
            assert res.witness.infimum > 0
            # the certificate bounds every candidate's weighted sum from below
            m = seq_pointwise_max(x, y)
            assert weighted_negative_sum(m) == res.witness.infimum


def test_join_errors():
    with pytest.raises(NotInC):
        seq_join_in_C(b_element(), c_element(1))
    with pytest.raises(NotMember):
        seq_join_in_C(seq({-1: 1}), c_element(1))


def test_B_is_directed():
    rng = random.Random(50704)
    for _ in range(100):
        a = random_b_member(rng)
        b = random_b_member(rng)
        m = seq_B_upper_bound(a, b)
        assert seq_in_subspace(m, "B")
        assert seq_leq(a, m) and seq_leq(b, m)
    with pytest.raises(NotMember):
        seq_B_upper_bound(c_element(1), b_element())


def test_nonpervasive_and_complement_witnesses():
    assert seq_nonpervasive_witness() == NonPervasive()
    assert seq_B_complement_witness() == NonDisjoint(-1)
    # the second probe sequence already lies in the disjoint complement of B
    rng = random.Random(50705)
    for _ in range(50):
        b = random_b_member(rng)
        assert seq_is_disjoint(c_element(2), b)
        # B and C only meet in zero
        if seq_in_subspace(b, "C"):
            assert b == SEQ_ZERO
        c = random_c_member(rng)
        if seq_in_subspace(c, "B"):
            assert c == SEQ_ZERO


def test_c_has_no_nonzero_positive_elements():
    """The reason joins fail: above zero, membership forces zero in C."""
    rng = random.Random(50706)
    for _ in range(50):
        c = random_c_member(rng)
        if seq_leq(SEQ_ZERO, c):
            assert c == SEQ_ZERO


def test_serialization_roundtrip():
    rng = random.Random(50707)
    samples = [SEQ_ZERO, b_element(), c_element(3), seq({-3: 2}, tail_start=-2, tail_value=1)]
    samples += [random_member(rng) for _ in range(30)]
    for x in samples:
        data = seq_to_json(x)
        entries = {int(k): v for k, v in data["entries"].items()}
        assert seq(entries, tail_start=data["tailStart"], tail_value=data["tailValue"]) == x
    assert seq_to_json(c_element(1)) == {"entries": {"-2": "-2", "-1": "1"}, "tailStart": 0, "tailValue": "0"}


# --- the index walks that seq_leq and seq_is_disjoint made before they were
# read off one pointwise operation, kept as their oracle


def walk_indices(x, y):
    """Every index below both tails where x or y may be nonzero."""
    indices = {k for k, _ in x.entries} | {k for k, _ in y.entries}
    indices.update(range(min(x.tail_start, y.tail_start), max(x.tail_start, y.tail_start)))
    return indices


def walk_leq(x, y):
    if x.tail_value > y.tail_value:
        return False
    return all(x.value_at(k) <= y.value_at(k) for k in walk_indices(x, y))


def walk_disjoint(x, y):
    if x.tail_value != 0 and y.tail_value != 0:
        return False
    return all(x.value_at(k) == 0 or y.value_at(k) == 0 for k in walk_indices(x, y))


def random_sequence(rng):
    """Any sequence, member or not: sparse small entries on a short window, then a tail."""
    ts = rng.randint(-4, 3)
    entries = {k: rng.choice((-1, 0, 1, 2)) for k in range(ts - 5, ts) if rng.random() < 0.5}
    return seq(entries, tail_start=ts, tail_value=rng.choice((-1, 0, 0, 1)))


MEMBERS = (random_member, random_b_member, random_c_member)


def test_order_and_disjointness_match_the_index_walk():
    rng = random.Random(50708)
    leq_seen, disjoint_seen = set(), set()
    for _ in range(3000):
        x, y = random_sequence(rng), random_sequence(rng)
        for u, v in ((x, y), (x, seq_pointwise_max(x, y)), (x, x)):
            got = seq_leq(u, v)
            assert got == walk_leq(u, v), (u, v)
            leq_seen.add(got)
        u, v = rng.choice(MEMBERS)(rng), rng.choice(MEMBERS)(rng)
        for a, b in ((u, v), (u, SEQ_ZERO), (c_element(rng.randint(1, 4)), v)):
            got = seq_is_disjoint(a, b)
            assert got == walk_disjoint(a, b), (a, b)
            disjoint_seen.add(got)
    assert leq_seen == disjoint_seen == {True, False}
