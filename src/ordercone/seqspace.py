"""Exact arithmetic in a sequence space with a weighted-sum membership law.

The carrier is the set of two-sided rational sequences with finitely many
explicit entries below a point and a constant value from that point on, cut
down by one linear condition: the weighted sum of the negative-index entries,
sum over k >= 1 of x(-k) / 2^k, must equal the eventual (tail) value.  Two
distinguished subspaces drive everything here:

    B = members vanishing at every index <= -2,
    C = members vanishing at every index >= 0.

B and C decompose the space directly, B is directed while C is not, and C is
strictly larger than the disjoint complement of B; the operations below
compute those facts with certificates.  The coordinatewise order is pointwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import CertificateError, NotInC, NotMember, ParseError
from .linalg import as_fraction

ZERO = Fraction(0)


@dataclass(frozen=True)
class SeqElement:
    """A sequence: explicit (index, value) pairs below tail_start, then constant.

    Entries are sorted, nonzero, and keyed strictly below tail_start; every
    index at or above tail_start carries tail_value, every unlisted index
    below carries zero.  Construction via seq() normalizes, so syntactic
    equality of SeqElements is equality of the underlying sequences.
    """

    entries: tuple[tuple[int, Fraction], ...]
    tail_start: int
    tail_value: Fraction

    def value_at(self, k: int) -> Fraction:
        if k >= self.tail_start:
            return self.tail_value
        return dict(self.entries).get(k, ZERO)


def _seq_value(v) -> Fraction:
    try:
        return as_fraction(v)
    except (TypeError, ValueError) as exc:
        raise ParseError(str(exc)) from None


def seq(entries=None, tail_start: int = 0, tail_value=0) -> SeqElement:
    """Build a normalized SeqElement from an index->value mapping."""
    tail_value = _seq_value(tail_value)
    cleaned: dict[int, Fraction] = {}
    for k, v in dict(entries or {}).items():
        if not isinstance(k, int) or isinstance(k, bool):
            raise ParseError(f"sequence index {k!r} is not an integer")
        value = _seq_value(v)
        if k >= tail_start:
            raise ParseError(
                f"explicit index {k} is not below the tail start {tail_start}"
            )
        if value != 0:
            cleaned[k] = value
    # merge explicit entries that already equal the tail value
    while tail_start - 1 in cleaned and cleaned[tail_start - 1] == tail_value:
        del cleaned[tail_start - 1]
        tail_start -= 1
    # a zero tail starts canonically right after the last explicit entry
    if tail_value == 0:
        tail_start = max(cleaned) + 1 if cleaned else 0
    return SeqElement(tuple(sorted(cleaned.items())), tail_start, tail_value)


SEQ_ZERO = seq()


def _low_index(x: SeqElement) -> int:
    """Least index at which x may be nonzero."""
    candidates = [x.tail_start]
    if x.entries:
        candidates.append(x.entries[0][0])
    return min(candidates)


def weighted_negative_sum(x: SeqElement) -> Fraction:
    """sum over k >= 1 of x(-k) / 2^k, a finite sum for this carrier."""
    lo = _low_index(x)
    total = ZERO
    for k in range(1, max(0, -lo) + 1):
        v = x.value_at(-k)
        if v:
            total += v / Fraction(2**k)
    return total


def seq_is_member(x: SeqElement) -> bool:
    """Whether the weighted negative sum equals the eventual value (the limit)."""
    return weighted_negative_sum(x) == x.tail_value


def _require_member(x: SeqElement) -> None:
    if not seq_is_member(x):
        raise NotMember(
            f"weighted sum {weighted_negative_sum(x)} != tail value {x.tail_value}"
        )


def _pointwise(x: SeqElement, y: SeqElement, op) -> SeqElement:
    ts = max(x.tail_start, y.tail_start)
    indices = {k for k, _ in x.entries} | {k for k, _ in y.entries}
    indices.update(range(min(x.tail_start, y.tail_start), ts))
    return seq(
        {k: op(x.value_at(k), y.value_at(k)) for k in indices},
        tail_start=ts,
        tail_value=op(x.tail_value, y.tail_value),
    )


def seq_add(x: SeqElement, y: SeqElement) -> SeqElement:
    return _pointwise(x, y, lambda a, b: a + b)


def seq_pointwise_max(x: SeqElement, y: SeqElement) -> SeqElement:
    return _pointwise(x, y, max)


def seq_leq(x: SeqElement, y: SeqElement) -> bool:
    """Pointwise order: x(k) <= y(k) everywhere, i.e. max(x, y) = y (seq() is canonical)."""
    return seq_pointwise_max(x, y) == y


def seq_in_subspace(x: SeqElement, which: str) -> bool:
    """Membership in B (zero at indices <= -2) or C (zero at indices >= 0)."""
    _require_member(x)
    if which == "B":
        if x.tail_start <= -2 and x.tail_value != 0:
            return False
        return all(k >= -1 for k, _ in x.entries)
    if which == "C":
        return x.tail_value == 0 and all(k < 0 for k, _ in x.entries)
    raise ParseError(f"subspace must be 'B' or 'C', not {which!r}")


def seq_decompose_BC(x: SeqElement) -> tuple[SeqElement, SeqElement]:
    """The direct splitting x = b + c with b in B and c in C.

    b copies x at indices >= 0 and carries 2 * (tail limit) at index -1;
    c copies x at indices <= -2 and carries -2 * (the weight of those
    entries) at index -1.  Membership of x makes the -1 entries add up.
    """
    _require_member(x)
    limit = x.tail_value
    b_entries = {k: v for k, v in x.entries if k >= 0}
    b_entries[-1] = 2 * limit
    b = seq(b_entries, tail_start=max(x.tail_start, 0), tail_value=limit)

    lo = _low_index(x)
    deep_weight = ZERO
    c_entries: dict[int, Fraction] = {}
    for k in range(2, max(0, -lo) + 1):
        v = x.value_at(-k)
        if v:
            c_entries[-k] = v
            deep_weight += v / Fraction(2**k)
    c_entries[-1] = -2 * deep_weight
    c = seq(c_entries, tail_start=0, tail_value=0)

    if not (seq_in_subspace(b, "B") and seq_in_subspace(c, "C")):
        raise CertificateError("the B and C parts of x left their subspaces")
    if seq_add(b, c) != x:
        raise CertificateError("the B and C parts of x do not add up to x")
    return b, c


def seq_is_disjoint(x: SeqElement, y: SeqElement) -> bool:
    """Whether no index carries a nonzero value in both sequences: x * y = 0 pointwise."""
    _require_member(x)
    _require_member(y)
    return _pointwise(x, y, mul) == SEQ_ZERO


# --- witnesses ---------------------------------------------------------------


@dataclass(frozen=True)
class NonDirected:
    """Positive lower bound on the weighted sum of any common upper bound in C."""

    infimum: Fraction


@dataclass(frozen=True)
class NonPervasive:
    pass


@dataclass(frozen=True)
class NonDisjoint:
    index: int


@dataclass(frozen=True)
class Some:
    value: SeqElement


@dataclass(frozen=True)
class ProvedNone:
    witness: NonDirected


def seq_join_in_C(x: SeqElement, y: SeqElement):
    """A common upper bound of x and y inside C, or a proof none exists.

    Any c in C above both dominates the pointwise max m, so its weighted sum
    is at least s = weighted sum of m; members of C have weighted sum zero,
    so s > 0 proves no bound exists.  Otherwise m with its -1 entry raised by
    -2s restores the membership equation and stays in C.
    """
    for z in (x, y):
        if not seq_in_subspace(z, "C"):
            raise NotInC("join candidates must lie in C")
    m = seq_pointwise_max(x, y)
    s = weighted_negative_sum(m)
    if s > 0:
        return ProvedNone(NonDirected(s))
    bound = seq_add(m, seq({-1: -2 * s})) if s else m
    if not seq_in_subspace(bound, "C"):
        raise CertificateError("the join candidate left C")
    if not (seq_leq(x, bound) and seq_leq(y, bound)):
        raise CertificateError("the join candidate does not bound both inputs")
    return Some(bound)


def seq_B_upper_bound(x: SeqElement, y: SeqElement) -> SeqElement:
    """A common upper bound of x and y inside B: the pointwise max.

    The max of two B members vanishes below -1 and its weighted sum is half
    its -1 entry, which equals its limit, so it is again a member; B is
    directed.
    """
    for z in (x, y):
        if not seq_in_subspace(z, "B"):
            raise NotMember("upper-bound candidates must lie in B")
    m = seq_pointwise_max(x, y)
    if not (seq_is_member(m) and seq_in_subspace(m, "B")):
        raise CertificateError("the pointwise max of two B members left B")
    if not (seq_leq(x, m) and seq_leq(y, m)):
        raise CertificateError("the pointwise max does not bound both inputs")
    return m


def c_element(n: int) -> SeqElement:
    """The n-th zero-sum probe in C: 1 at index -n, -2 at index -(n+1)."""
    if n < 1:
        raise ParseError("probe index must be at least 1")
    return seq({-n: 1, -(n + 1): -2})


def b_element() -> SeqElement:
    """The B member with entry 1 at index -1 and constant value 1/2 onward."""
    return seq({-1: 1}, tail_start=0, tail_value=Fraction(1, 2))


def seq_nonpervasive_witness() -> NonPervasive:
    """Certify that only zero sits under the positive part of c_element(1)'s image.

    A member supported only at index -1 must satisfy x(-1)/2 = 0, so the
    order interval below that positive part collapses; the probes check the
    equation from both sides before the certificate is issued.
    """
    if seq_is_member(seq({-1: 1})) or seq_is_member(seq({-1: -3})):
        raise CertificateError("a nonzero sequence supported at index -1 is a member")
    zero = seq({-1: 0})
    if not (seq_is_member(zero) and zero == SEQ_ZERO):
        raise CertificateError("the zero sequence at index -1 is not the member 0")
    return NonPervasive()


def seq_B_complement_witness() -> NonDisjoint:
    """Certify C is not the disjoint complement of B: c_element(1) meets b_element.

    Both carry the value 1 at index -1, so they are not disjoint even though
    one lies in C and the other in B.
    """
    x1 = c_element(1)
    b = b_element()
    if not (seq_in_subspace(x1, "C") and seq_in_subspace(b, "B")):
        raise CertificateError("the probes left C and B")
    if x1.value_at(-1) == 0 or b.value_at(-1) == 0 or seq_is_disjoint(x1, b):
        raise CertificateError("the probes do not meet at index -1")
    return NonDisjoint(-1)


# --- serialization -----------------------------------------------------------


def seq_to_json(x: SeqElement) -> dict:
    return {
        "entries": {str(k): str(v) for k, v in x.entries},
        "tailStart": x.tail_start,
        "tailValue": str(x.tail_value),
    }

