"""Exact linear programming over the rationals.

Two-phase primal simplex with Bland's rule, so every run terminates and the
reported optimum is exact.  One dense tableau over Fraction is carried through
phase 1, the purge of artificials still basic at zero, and phase 2; every
pivot is `linalg._pivot`.  Problems are tiny here (tens of variables), which
makes dense tableaus over Fraction the right trade.

There is one solver, `lp_nonneg`, over {x : A x >= b, x >= 0}.  `lp`, over
{x : A x >= b} with x free, runs it on the columns [A | -A] and reads back
x = u - v.  The library solves LPs only where the face structure does not
give the answer: `rdp_split` calls `lp_nonneg` in image coordinates, whose
variables are nonnegative by construction, and `is_majorizing` calls `lp`
through `feasible_point`.  Minima over upper sets {z : F z >= w} need none,
since the facet embedding is order dense (see `cover`); the self-test keeps
`lp` as their oracle, and as the oracle of every `NoSplit`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import Mat, Vec, ZERO, _pivot, dot, vsub, zero_vec


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


def _simplex(T: list[list[Fraction]], basis: list[int], c: Vec):
    """Bland's loop, in place, on a tableau reduced on `basis`.

    Row i of T owns basis[i]: it holds the identity in that column, and its
    last entry, the basic value, is nonnegative.  Columns past len(c) are
    ignored.  Returns ('optimal', value, x, basis) or ('unbounded',).
    """
    k = len(T)
    N = len(c)
    in_basis = set(basis)
    while True:
        cb = [c[j] for j in basis]
        entering = -1
        for j in range(N):  # Bland: smallest improving index enters
            if j in in_basis:
                continue
            red = c[j] - sum(cb[i] * T[i][j] for i in range(k) if T[i][j] != 0)
            if red > 0:
                entering = j
                break
        if entering < 0:
            x = list(zero_vec(N))
            for i, col in enumerate(basis):
                x[col] = T[i][-1]
            value = sum((c[j] * x[j] for j in in_basis), start=ZERO)
            return ("optimal", value, tuple(x), basis)
        leave = -1
        best = None
        for i in range(k):
            a = T[i][entering]
            if a > 0:
                ratio = T[i][-1] / a
                # Bland again: break ratio ties on the smallest basic index.
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            return ("unbounded",)
        _pivot(T, leave, entering)
        in_basis.discard(basis[leave])
        in_basis.add(entering)
        basis[leave] = entering


def lp_nonneg(objective: Vec, P: Polyhedron, sense: str = "max") -> LPResult:
    """Optimize an exact linear objective over {x : A x >= b, x >= 0}.

    One tableau serves both phases.  Its start basis is the identity: the
    slack of each row with b_i <= 0, an artificial for each other row.
    Phase 1 maximizes minus the sum of the artificials; a nonzero optimum
    proves the polyhedron empty.  Otherwise each artificial still basic (at
    zero) is pivoted out on its row's first nonzero non-artificial entry.  One
    exists: every row owns a slack, so the non-artificial columns have full
    row rank, and no row is ever redundant.  The pivot is on a row whose
    value is 0, so the basis stays feasible.  Slicing off the artificial
    columns then leaves a tableau reduced on a feasible basis, on which
    phase 2 runs.  With no row b_i > 0 there are no artificials, phase 1 is
    skipped, and a zero objective then costs no pivot at all.
    """
    if sense not in ("max", "min"):
        raise ValueError(f"bad sense {sense!r}")
    c_obj = objective if sense == "max" else tuple(-e for e in objective)
    n = P.n
    k = len(P.A)

    # Variables: x(n), one slack per row, artificials last.
    first_art = n + k
    na = sum(beta > 0 for beta in P.b)
    T: list[list[Fraction]] = []
    basis: list[int] = []
    art = first_art
    for i, (a, beta) in enumerate(zip(P.A, P.b, strict=True)):
        if beta <= 0:
            # Orient as (-a).x + s = -beta so the slack can start basic.
            row = [-e for e in a] + [ZERO] * (k + na) + [-beta]
            row[n + i] = Fraction(1)
            basis.append(n + i)
        else:
            # a.x - s + t = beta, with the artificial t basic.
            row = list(a) + [ZERO] * (k + na) + [beta]
            row[n + i] = Fraction(-1)
            row[art] = Fraction(1)
            basis.append(art)
            art += 1
        T.append(row)
    if na:
        res = _simplex(T, basis, zero_vec(first_art) + (Fraction(-1),) * na)
        if res[0] != "optimal":
            raise ArithmeticError("phase 1 reported unbounded, but its objective is at most 0")
        if res[1] != 0:
            return Infeasible()
        for i in range(len(T)):
            if basis[i] >= first_art:
                j = next(j for j in range(first_art) if T[i][j] != 0)
                _pivot(T, i, j)
                basis[i] = j
        T = [row[:first_art] + row[-1:] for row in T]

    res = _simplex(T, basis, tuple(c_obj) + zero_vec(k))
    if res[0] == "unbounded":
        return Unbounded()
    _, value, x, _ = res
    return Optimal(value if sense == "max" else -value, tuple(x[:n]))


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
