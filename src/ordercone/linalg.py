"""Exact linear algebra over rational vectors.

Vectors are tuples of Fraction, matrices are tuples of row vectors.
Everything is exact; nothing here touches floats.  Elimination runs on rows
scaled to Python ints, one fraction-free pivot at a time (`_pivot`), and
divides by the pivot entries only when it hands back Fractions.  The public
functions take and return Fractions: each scales its rows once to coprime
ints (`_coprime`) and calls the integer kernel.  Callers that already hold
int rows call the integer forms `_echelon`, `_rank`, `_kernel` and
`_nullspace`.
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
    """u . v, summed over one running common denominator into one Fraction."""
    if len(u) != len(v):
        raise ValueError("dot of vectors with different lengths")
    num, den = 0, 1
    for a, b in zip(u, v):
        an, ad = a.as_integer_ratio()
        if an:
            bn, bd = b.as_integer_ratio()
            if bn:
                d = ad * bd
                if d == den:
                    num += an * bn
                else:
                    num = num * d + an * bn * den
                    den *= d
    return Fraction(num) if den == 1 else Fraction(num, den)


def vadd(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vsub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vscale(c: Fraction, v: Vec) -> Vec:
    return tuple(c * a for a in v)


def vabs(v: Vec) -> Vec:
    return tuple(abs(a) for a in v)


def vmax(u: Vec, v: Vec) -> Vec:
    return tuple(max(a, b) for a, b in zip(u, v, strict=True))


def mat_vec(M: Mat, x: Vec) -> Vec:
    return tuple(dot(row, x) for row in M)


def transpose(M: Mat) -> Mat:
    return tuple(zip(*M, strict=True)) if M else ()


def support(v: Vec) -> frozenset[int]:
    """1-based indices of the nonzero coordinates."""
    return frozenset(i + 1 for i, e in enumerate(v) if e != 0)


def _ints(v) -> tuple[int, list[int]]:
    """(d, d*v) for d the lcm of the denominators of v: v as a row of ints."""
    d = lcm(*[e.denominator for e in v])
    if d == 1:
        return 1, [e.numerator for e in v]
    return d, [e.numerator * (d // e.denominator) for e in v]


def _int_rows(M) -> tuple[int, list[list[int]]]:
    """(d, d*M) for d the lcm of the denominators of M: M as rows of ints."""
    d = lcm(*[e.denominator for row in M for e in row])
    return d, [[e.numerator * (d // e.denominator) for e in row] for row in M]


def _coprime(v) -> list[int]:
    """v scaled by a positive rational to coprime ints; 0 stays 0."""
    row = _ints(v)[1]
    g = gcd(*row)
    return [e // g for e in row] if g > 1 else row


def _fractions(row: list[int]) -> Vec:
    return tuple([ZERO if not e else ONE if e == 1 else Fraction(e) for e in row])


def primitive(v: Vec) -> Vec:
    """Scale by a positive rational so entries are coprime integers.

    Direction is preserved (no sign flip); the zero vector is returned as is.
    """
    row = _coprime(v)
    return _fractions(row) if any(row) else v


def _pivot(T: list[list[int]], r: int, c: int) -> None:
    """One fraction-free Gauss-Jordan step on integer rows, in place.

    Each row stands for a positive multiple of a rational row.  Row r is
    negated if needed so that its pivot entry p = T[r][c] is positive.  Every
    other row with an entry f != 0 in column c becomes p*row - f*T[r], which
    clears column c, divided by its gcd.  Both are positive multiples of what
    rational elimination gives, so zero patterns, signs and ratios within a
    row are those of the rational step.  Every exact elimination in the
    package, `_echelon` and the simplex tableau, is a sequence of these steps.
    """
    row = T[r]
    p = row[c]
    if p < 0:
        row = T[r] = [-e for e in row]
        p = -p
    for i, other in enumerate(T):
        f = other[c]
        if f and i != r:
            new = [p * e - f * q if q else p * e for e, q in zip(other, row)]
            g = gcd(*new)
            T[i] = [e // g for e in new] if g > 1 else new


def _echelon(M) -> tuple[list[list[int]], list[int]]:
    """Integer reduced row echelon form of the int rows M and its pivot columns.

    The rows are copied, so cached tuples may be passed, and reduced by
    `_pivot`.  The pivot rows come first, each a positive multiple of the
    rational RREF row; the rest are 0.  Given coprime rows, every pivot row
    has coprime entries, so it is primitive(R[i]) for the RREF R.
    """
    rows = [list(r) for r in M]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        for pr in range(r, nrows):
            if rows[pr][c]:
                break
        else:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        _pivot(rows, r, c)
        pivots.append(c)
        if len(pivots) == nrows:
            break
    return rows, pivots


def _over(row: list[int], p: int) -> Vec:
    """The rational row row / p."""
    return tuple([ZERO if not e else ONE if e == p else Fraction(e, p) for e in row])


def rank(M: Mat) -> int:
    return _rank([_coprime(v) for v in M])


def _rank(rows) -> int:
    """The rank of int rows."""
    return len(_echelon(rows)[1]) if rows else 0


def solve_linear(A: Mat, b: Vec) -> Vec | None:
    """One exact solution of A x = b, or None if inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    if not A:
        raise ValueError("solve_linear needs a nonempty matrix")
    n = len(A[0])
    rows, pivots = _echelon([_coprime(row + (bi,)) for row, bi in zip(A, b, strict=True)])
    if n in pivots:
        return None  # pivot in the constant column: inconsistent
    x = [ZERO] * n
    for row, c in zip(rows, pivots):
        if row[n]:
            x[c] = Fraction(row[n], row[c])
    return tuple(x)


def nullspace(A: Mat) -> Mat:
    """Canonical primitive basis of {x : A x = 0} (empty tuple if trivial)."""
    if not A:
        raise ValueError("nullspace needs at least the column count; pass a nonempty matrix")
    return tuple(_fractions(row) for row in _nullspace([_coprime(v) for v in A], len(A[0])))


def _nullspace(rows, n: int) -> list[list[int]]:
    """The rows of `nullspace` for int rows with n columns, as primitive int rows, from one elimination.

    The free-variable basis of the kernel (`_kernel`) is not the canonical
    one (for A = [[1, 1, 1]] it is (-1, 1, 0), (-1, 0, 1), against
    (1, 0, -1), (0, 1, -1)), but it is once the columns are eliminated in
    reverse order.  Reversed, the pivots P are A's right-greedy column basis
    and the free columns the rest.  The vector of a free column c is c's unit
    vector less its RREF coefficients on the pivot columns, and a pivot row
    of the reversed RREF is 0 left of its pivot, so back in the original order
    the vector is nonzero only at c and at pivots right of c.  Its leading
    entry is c's positive one, and it is 0 at every other free column.  So
    these vectors, each primitive and listed by c, are the rows of ker A's
    RREF, whose pivots are the free columns: the canonical basis.
    """
    return [v[::-1] for v in reversed(_kernel([r[::-1] for r in rows], n))]


def _kernel(rows, n: int) -> list[list[int]]:
    """The free-variable basis of the kernel of int rows with n columns, from one elimination.

    One primitive int row per free column of the RREF.  Callers that need
    only the kernel's dimension or the rows vanishing on it take it as is.
    """
    rows, pivots = _echelon(rows)
    free = [c for c in range(n) if c not in pivots]
    if not free:
        return []
    # x_fc = 1 and x_pc = -R[i][fc] for the RREF R, scaled by the lcm of the pivots.
    scale = lcm(*[row[c] for row, c in zip(rows, pivots)])
    basis = []
    for fc in free:
        v = [0] * n
        v[fc] = scale
        for row, pc in zip(rows, pivots):
            v[pc] = -row[fc] * (scale // row[pc])
        g = gcd(*v)
        basis.append([e // g for e in v])
    return basis


def canonical_subspace_basis(vectors: Mat, n: int) -> Mat:
    """Canonical basis of span(vectors) in Q^n.

    Rows of the RREF, scaled primitive with positive leading entry, ordered by
    pivot column.  Two spans are equal iff their canonical bases are identical.
    """
    if any(len(v) != n for v in vectors):
        raise ValueError("dimension mismatch")
    return tuple(_fractions(row) for row in _canonical_rows([_coprime(v) for v in vectors]))


def _canonical_rows(rows) -> list[list[int]]:
    """The rows of `canonical_subspace_basis` for coprime int rows, left as the primitive int rows they are."""
    if not rows:
        return []
    rows, pivots = _echelon(rows)
    return rows[: len(pivots)]


def in_span(vectors: Mat, x: Vec, n: int) -> bool:
    """True iff x lies in span(vectors) inside Q^n."""
    if is_zero_vec(x):
        return True
    if not vectors:
        return False
    base = rank(vectors)
    return rank(vectors + (x,)) == base
