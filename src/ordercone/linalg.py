"""Exact linear algebra over rational vectors.

Vectors are tuples of Fraction, matrices are tuples of row vectors.
Everything is exact; nothing here touches floats.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]

_RAT_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")

ZERO = Fraction(0)
ONE = Fraction(1)


def as_fraction(x) -> Fraction:
    """Coerce an int, Fraction, or 'p/q' / decimal-integer string to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise ValueError(f"not a rational: {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        s = x.strip()
        if not _RAT_RE.match(s):
            raise ValueError(f"not a rational string: {x!r}")
        return Fraction(s)
    raise ValueError(f"not a rational: {x!r}")


def vec(entries) -> Vec:
    return tuple(as_fraction(e) for e in entries)


def mat(rows) -> Mat:
    return tuple(vec(r) for r in rows)


def zero_vec(n: int) -> Vec:
    return (ZERO,) * n


def is_zero_vec(v: Vec) -> bool:
    return all(e == 0 for e in v)


def dot(u: Vec, v: Vec) -> Fraction:
    if len(u) != len(v):
        raise ValueError("dot of vectors with different lengths")
    acc = ZERO
    for a, b in zip(u, v):
        if a and b:
            acc = acc + a * b
    return acc


def vadd(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vsub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vscale(c: Fraction, v: Vec) -> Vec:
    return tuple(c * a for a in v)


def vneg(v: Vec) -> Vec:
    return tuple(-a for a in v)


def vabs(v: Vec) -> Vec:
    return tuple(abs(a) for a in v)


def vmax(u: Vec, v: Vec) -> Vec:
    return tuple(max(a, b) for a, b in zip(u, v, strict=True))


def vmin(u: Vec, v: Vec) -> Vec:
    return tuple(min(a, b) for a, b in zip(u, v, strict=True))


def mat_vec(M: Mat, x: Vec) -> Vec:
    return tuple(dot(row, x) for row in M)


def transpose(M: Mat) -> Mat:
    return tuple(zip(*M, strict=True)) if M else ()


def support(v: Vec) -> frozenset[int]:
    """1-based indices of the nonzero coordinates."""
    return frozenset(i + 1 for i, e in enumerate(v) if e != 0)


def primitive(v: Vec) -> Vec:
    """Scale by a positive rational so entries are coprime integers.

    Direction is preserved (no sign flip); the zero vector is returned as is.
    """
    if is_zero_vec(v):
        return v
    denom = lcm(*(e.denominator for e in v))
    ints = [int(e * denom) for e in v]
    g = gcd(*ints)
    return tuple(Fraction(k // g) for k in ints)


def rref(M: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and the pivot column indices."""
    rows = [list(r) for r in M]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        rows[r] = [e / piv for e in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [e - f * p for e, p in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in rows), tuple(pivots)


def rank(M: Mat) -> int:
    if not M:
        return 0
    return len(rref(M)[1])


def solve_linear(A: Mat, b: Vec) -> Vec | None:
    """One exact solution of A x = b, or None if inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    if not A:
        raise ValueError("solve_linear needs a nonempty matrix")
    n = len(A[0])
    aug = tuple(row + (bi,) for row, bi in zip(A, b, strict=True))
    R, pivots = rref(aug)
    if n in pivots:
        return None  # pivot in the constant column: inconsistent
    x = [ZERO] * n
    for i, c in enumerate(pivots):
        x[c] = R[i][n]
    return tuple(x)


def nullspace(A: Mat) -> Mat:
    """Canonical primitive basis of {x : A x = 0} (empty tuple if trivial)."""
    if not A:
        raise ValueError("nullspace needs at least the column count; pass a nonempty matrix")
    n = len(A[0])
    R, pivots = rref(A)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [ZERO] * n
        v[fc] = ONE
        for i, pc in enumerate(pivots):
            v[pc] = -R[i][fc]
        basis.append(tuple(v))
    return canonical_subspace_basis(tuple(basis), n)


def invert(M: Mat) -> Mat | None:
    """Exact inverse of a square matrix, or None if singular."""
    n = len(M)
    aug = tuple(row + tuple(ONE if j == i else ZERO for j in range(n)) for i, row in enumerate(M))
    R, pivots = rref(aug)
    if len(pivots) < n or any(p >= n for p in pivots):
        return None
    return tuple(row[n:] for row in R)


def canonical_subspace_basis(vectors: Mat, n: int) -> Mat:
    """Canonical basis of span(vectors) in Q^n.

    Rows of the RREF, scaled primitive with positive leading entry, ordered by
    pivot column.  Two spans are equal iff their canonical bases are identical.
    """
    if not vectors:
        return ()
    if any(len(v) != n for v in vectors):
        raise ValueError("dimension mismatch")
    R, pivots = rref(vectors)
    return tuple(primitive(R[i]) for i in range(len(pivots)))


def independent_subset(rows: Mat) -> tuple[int, ...]:
    """Indices of the greedy (first-wins) maximal independent subset of rows."""
    kept: list[int] = []
    staged: tuple[Vec, ...] = ()
    r = 0
    for i, row in enumerate(rows):
        cand = staged + (row,)
        if rank(cand) > r:
            kept.append(i)
            staged = cand
            r += 1
    return tuple(kept)


def in_span(vectors: Mat, x: Vec, n: int) -> bool:
    """True iff x lies in span(vectors) inside Q^n."""
    if is_zero_vec(x):
        return True
    if not vectors:
        return False
    base = rank(vectors)
    return rank(vectors + (x,)) == base
