"""Exact linear programming over the rationals.

Two-phase primal simplex with Bland's rule, so every run terminates and the
reported optimum is exact.  One dense tableau of integer rows is carried
through phase 1, the purge of artificials still basic at zero, and phase 2;
every pivot is the fraction-free `linalg._pivot`, and each row is a positive
multiple of its rational row, so signs and ratio tests read off the integers
directly (fraction-free simplex over a common denominator: Applegate, Cook,
Dash & Espinoza, Oper. Res. Lett. 35, 2007).  Problems are tiny here (tens
of variables), which makes dense tableaus the right trade.

There is one solver, `_lp_nonneg`, over {x : A x >= b, x >= 0}, given as
int rows [A | b] and an int cost row; it hands back the optimal point as
ints over one common denominator.  `lp_nonneg` is its `Fraction` front: it
scales each row to ints once and builds Fractions only for the point and
the value.  `lp`, over {x : A x >= b} with x free, runs `lp_nonneg` on the
columns [A | -A] and reads back x = u - v.  The library solves LPs only
where the face structure does not give the answer: `rdp_split` builds its
rows in image coordinates, whose variables are nonnegative by construction,
as ints and calls `_lp_nonneg` directly, and `is_majorizing` calls `lp`
through `feasible_point`.  Minima over upper sets {z : F z >= w} need none,
since the facet embedding is order dense (see `cover`); the self-test keeps
`lp` as their oracle, and as the oracle of every `NoSplit`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .linalg import Mat, Vec, _ints, _over, _pivot, dot, vsub, zero_vec


@dataclass(frozen=True)
class Polyhedron:
    """{x in Q^n : A x >= b}, row i encoding A[i] . x >= b[i]."""

    A: Mat
    b: Vec
    n: int

    def __post_init__(self):
        if any(len(row) != self.n for row in self.A) or len(self.A) != len(self.b):
            raise ValueError("polyhedron shape mismatch")

    def contains(self, x: Vec) -> bool:
        return all(dot(row, x) >= bi for row, bi in zip(self.A, self.b))


@dataclass(frozen=True)
class Optimal:
    value: Fraction
    point: Vec


@dataclass(frozen=True)
class Unbounded:
    pass


@dataclass(frozen=True)
class Infeasible:
    pass


LPResult = Optimal | Unbounded | Infeasible


def _simplex(T: list[list[int]], basis: list[int]) -> bool:
    """Bland's loop, in place, on an integer tableau reduced on `basis`.

    Row i < len(basis) owns basis[i]: its entry there is positive, its other
    basic entries are 0, and its last entry is >= 0, so basic variable
    basis[i] has the value T[i][-1] / T[i][basis[i]].  The last row holds
    the reduced costs, up to a positive factor, with 0 on every basic
    column.  Pivots keep all of this, so the entering column is the least
    one with a positive reduced cost, and the ratio test compares ratios
    crosswise.  Returns True at an optimum and False when unbounded.
    """
    k = len(basis)
    while True:
        obj = T[k]
        # Bland: the smallest improving column enters.
        entering = next((j for j in range(len(obj) - 1) if obj[j] > 0), -1)
        if entering < 0:
            return True
        leave = -1
        for i in range(k):
            a = T[i][entering]
            if a > 0:
                if leave < 0:
                    leave = i
                    continue
                # Bland again: break ratio ties on the smallest basic index.
                lhs = T[i][-1] * T[leave][entering]
                rhs = T[leave][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            return False
        _pivot(T, leave, entering)
        basis[leave] = entering


def _price(T: list[list[int]], basis: list[int], cost: list[int]) -> None:
    """Append the reduced-cost row of the integer objective row `cost`.

    The row is cleared on each basic column by the pivot on that column's
    row, which changes no other row of the reduced tableau T.
    """
    T.append(cost)
    for i, j in enumerate(basis):
        if cost[j]:
            _pivot(T, i, j)
            cost = T[-1]


def lp_nonneg(objective: Vec, P: Polyhedron, sense: str = "max") -> LPResult:
    """Optimize an exact linear objective over {x : A x >= b, x >= 0}.

    Each row [A_i | b_i] is scaled by the lcm of its denominators and handed,
    with that scale, to the integer solver `_lp_nonneg`; the optimal point
    comes back over one common denominator, and only it and the value are
    built as Fractions.
    """
    if sense not in ("max", "min"):
        raise ValueError(f"bad sense {sense!r}")
    c_obj = objective if sense == "max" else tuple(-e for e in objective)
    scales, rows = [], []
    for a, beta in zip(P.A, P.b, strict=True):
        d, row = _ints([*a, beta])
        scales.append(d)
        rows.append(row)
    res = _lp_nonneg(rows, scales, _ints(c_obj)[1])
    if not isinstance(res, tuple):
        return res
    point = _over(*res)
    value = dot(c_obj, point)
    return Optimal(value if sense == "max" else -value, point)


def _lp_nonneg(rows: list[list[int]], scales: list[int], cost: list[int]) -> LPResult | tuple[list[int], int]:
    """Maximize cost . x over {x : a_i . x >= b_i, x >= 0}, all on ints.

    Row i is [a_i | b_i], scales[i] > 0 times a rational constraint whose
    slack (and artificial) has coefficient 1; those are the constraints
    solved.  The scales fix the phase-1 objective, so rows given as other
    positive multiples of the same constraints, or in variables scaled by one
    positive constant, take the same pivots.  Returns Infeasible, Unbounded
    or, at an optimum, (L x, L): the point as ints over one L > 0.

    One tableau serves both phases, and every pivot is the fraction-free
    `linalg._pivot`.  Its start basis is the slack of each row with
    b_i <= 0 and an artificial for each other row.  Phase 1 maximizes minus
    the sum of the artificials; a nonzero optimum proves the polyhedron
    empty.  Otherwise each artificial still basic (at zero) is pivoted out on
    its row's first nonzero non-artificial entry.  One exists: every row owns
    a slack, so the non-artificial columns have full row rank, and no row is
    ever redundant.  The pivot is on a row whose value is 0, so the basis
    stays feasible.  Slicing off the artificial columns then leaves a tableau
    reduced on a feasible basis, on which phase 2 runs.  With no row b_i > 0
    there are no artificials, phase 1 is skipped, and a zero objective then
    costs no pivot at all.
    """
    n = len(cost)
    k = len(rows)

    # Variables: x(n), one slack per row, artificials last.
    first_art = n + k
    na = sum(r[-1] > 0 for r in rows)
    T: list[list[int]] = []
    basis: list[int] = []
    art = first_art
    for i, (r, d) in enumerate(zip(rows, scales, strict=True)):
        row = r[:n] + [0] * (k + na) + r[n:]
        if r[-1] <= 0:
            # Orient as (-a).x + s = -beta so the slack can start basic.
            row = [-e for e in row]
            row[n + i] = d
            basis.append(n + i)
        else:
            # a.x - s + t = beta, with the artificial t basic.
            row[n + i] = -d
            row[art] = d
            basis.append(art)
            art += 1
        T.append(row)
    if na:
        _price(T, basis, [0] * first_art + [-1] * na + [0])
        if not _simplex(T, basis):
            raise ArithmeticError("phase 1 reported unbounded, but its objective is at most 0")
        T.pop()
        if any(T[i][-1] for i, j in enumerate(basis) if j >= first_art):
            return Infeasible()
        for i in range(len(T)):
            if basis[i] >= first_art:
                j = next(j for j in range(first_art) if T[i][j] != 0)
                _pivot(T, i, j)
                basis[i] = j
        T = [row[:first_art] + row[-1:] for row in T]

    _price(T, basis, list(cost) + [0] * (k + 1))
    if not _simplex(T, basis):
        return Unbounded()
    values = [(j, row[-1], row[j]) for row, j in zip(T, basis) if j < n and row[-1]]
    L = lcm(*[p for _, _, p in values])
    x = [0] * n
    for j, v, p in values:
        x[j] = v * (L // p)
    return x, L


def lp(objective: Vec, P: Polyhedron, sense: str = "max") -> LPResult:
    """Optimize an exact linear objective over {x : A x >= b}.

    `lp_nonneg` on the columns [A | -A], with the point x = u - v read back.
    """
    n = P.n
    doubled = Polyhedron(tuple(tuple(a) + tuple(-e for e in a) for a in P.A), P.b, 2 * n)
    res = lp_nonneg(tuple(objective) + tuple(-e for e in objective), doubled, sense)
    if isinstance(res, Optimal):
        return Optimal(res.value, vsub(res.point[:n], res.point[n:]))
    return res


def feasible_point(P: Polyhedron) -> Vec | None:
    """A point of P, or None when P is empty."""
    res = lp(zero_vec(P.n), P)
    return res.point if isinstance(res, Optimal) else None
