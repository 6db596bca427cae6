"""Polyhedral ordered vector spaces.

A space is Q^n ordered by a pointed generating polyhedral cone, carried in
both representations: extreme rays (generators) and facet functionals.  The
facet matrix doubles as the bipositive embedding into the coordinatewise
lattice Q^m, which is how every order-theoretic question downstream becomes
finite arithmetic.

That arithmetic runs on Python ints.  Each space caches its facet matrix as
a common denominator D and the int rows D F (`OrderedSpace.int_facets`); a
vector x is scaled once to ints d x, so that D d F x is a row of int sums
(`_image`).  Signs and supports are read off those sums, and a `Fraction`
is built only for a value that is handed back.  Double description
(`extreme_rays`) likewise carries its rays as primitive int rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import gcd
from operator import mul

from .errors import NotGenerating, NotPointed, ParseError
from .linalg import (
    Mat,
    Vec,
    _coprime,
    _fractions,
    _int_rows,
    _ints,
    _over,
    independent_subset,
    invert,
    is_zero_vec,
    mat_vec,
    primitive,
    rank,
    solve_linear,
    support,
    transpose,
    vec,
    vmax,
)
from .lp import Polyhedron

# The largest dimension a space may have.  Exact work grows at least like
# dim^3, and simplex:256 already takes seconds to classify, so anything
# larger is refused before a dim-sized object is built.
MAX_DIM = 256


def extreme_rays(A: Mat) -> tuple[Vec, ...]:
    """Extreme rays of {x : A x >= 0}, assuming the cone is pointed.

    Double description: seed with the first n independent rows (a simplicial
    cone whose rays are the columns of the inverse), then cut with the
    remaining rows in input order.  Adjacency of two rays is decided by the
    rank of their common tight rows among the constraints processed so far.
    Requires rank(A) = n; the output is sorted lexicographically.

    The cuts run on ints (`_cut`): the rows of A scaled to coprime ints, and
    every ray a primitive int row.  The rays come back as primitive Fraction
    rows, the same as `primitive` gives.
    """
    n = len(A[0])
    seed = independent_subset(A)
    if len(seed) < n:
        raise ValueError("extreme_rays needs a pointed cone (rank deficient input)")
    Binv = invert(tuple(A[i] for i in seed))
    rays = _cut([_coprime(a) for a in A], seed, [_coprime(col) for col in transpose(Binv)])
    return tuple(_fractions(r) for r in sorted(set(rays)))


def _cut(A: list[list[int]], seed: tuple[int, ...], rays: list[list[int]]) -> list[tuple[int, ...]]:
    """The double description loop of `extreme_rays`, on int rows.

    `rays` are the seed cone's rays as primitive int rows.  Each ray carries
    its zero set among the rows processed so far, as a bit mask.  A row a
    splits the rays by the sign of a . r; each adjacent pair r+, r- with
    s+ = a . r+ > 0 > s- = a . r- gives the ray s+ r- - s- r+ over its gcd,
    a positive combination of the two, so its zero set is theirs in common
    plus row a.  Two rays are adjacent iff their common zero set has rank
    n - 2, which needs at least n - 2 rows.
    """
    n = len(A[0])
    zeros = [sum(1 << i for i in seed if not sum(map(mul, A[i], r))) for r in rays]
    state = list(zip(map(tuple, rays), zeros))
    seed_set = set(seed)

    def adjacent(z1: int, z2: int) -> bool:
        common = z1 & z2
        if common.bit_count() < n - 2:
            return False
        return rank([A[i] for i in range(len(A)) if common >> i & 1]) == n - 2

    for idx in (i for i in range(len(A)) if i not in seed_set):
        a, bit = A[idx], 1 << idx
        plus, zero, minus = [], [], []
        for r, z in state:
            s = sum(map(mul, a, r))
            if s > 0:
                plus.append((r, z, s))
            elif s:
                minus.append((r, z, s))
            else:
                zero.append((r, z | bit))
        fresh = []
        for rp, zp, sp in plus:
            for rm, zm, sm in minus:
                if adjacent(zp, zm):
                    new = [sp * e - sm * f for e, f in zip(rm, rp)]
                    g = gcd(*new)
                    fresh.append((tuple([e // g for e in new]), zp & zm | bit))
        state = [(r, z) for r, z, _ in plus] + zero + fresh
    return [r for r, _ in state]


@dataclass(frozen=True)
class OrderedSpace:
    """Q^dim ordered by a cone, given by its extreme rays and its facet rows.

    The facet matrix F doubles as the embedding into Q^m.  `atom_supports`
    holds supp(F g) for each generator g, in generator order: which atoms lie
    in which face.  It is derived from the two fields before it, so it takes
    no part in equality or repr; nor do the cached `int_facets`, `row_basis`,
    `int_row_inverse`, `int_generators` and `components`.
    """

    name: str
    dim: int
    generators: Mat
    F: Mat
    atom_supports: tuple[frozenset[int], ...] = field(repr=False, compare=False)

    @property
    def m(self) -> int:
        return len(self.F)

    @cached_property
    def int_facets(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(D, D F) for D the lcm of the denominators of F: F as int rows.

        D is one factor for all rows, so (D F x)_j / D is f_j(x) itself and
        not a per-row multiple of it.
        """
        D, rows = _int_rows(self.F)
        return D, tuple(map(tuple, rows))

    @cached_property
    def row_basis(self) -> tuple[tuple[int, ...], Mat, Mat]:
        """(B, F_B^{-1}, F F_B^{-1}) for B = independent_subset(F).

        Row i of F F_B^{-1} holds the coordinates of facet row i in the basis
        of rows B: f_i = g_i F_B.  Its rows in B are the unit vectors.
        """
        B = independent_subset(self.F)
        Binv = invert(tuple(self.F[i] for i in B))
        BinvT = transpose(Binv)
        return B, Binv, tuple(mat_vec(BinvT, f) for f in self.F)

    @cached_property
    def int_row_inverse(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(D, D F_B^{-1}) for the F_B^{-1} of `row_basis`: that inverse as int rows."""
        D, rows = _int_rows(self.row_basis[1])
        return D, tuple(map(tuple, rows))

    @cached_property
    def int_generators(self) -> tuple[tuple[int, ...], ...]:
        """The generators as coprime int rows, in generator order."""
        return tuple(tuple(_coprime(g)) for g in self.generators)

    @cached_property
    def components(self) -> tuple[frozenset[int], ...]:
        """The connected components of the facet rows' matroid, as 1-based
        row sets ordered by their least row.

        With (B, _, G) = `row_basis`, a row i outside B lies in one
        fundamental circuit with the basis rows B_t for which G[i][t] != 0,
        and these circuits link the rows exactly as the matroid's components
        do (Oxley, Matroid Theory, ch. 4).  A basis row no circuit reaches is
        a coloop, a component by itself.
        """
        B, _, G = self.row_basis
        comps: list[set[int]] = []
        for i, g in enumerate(G, 1):
            linked = {i} | {B[t] + 1 for t, e in enumerate(g) if e != 0}
            touching = [c for c in comps if c & linked]
            comps = [c for c in comps if not c & linked] + [linked.union(*touching)]
        return tuple(sorted(map(frozenset, comps), key=min))


def _clean_rows(rows, dim: int, what: str) -> Mat:
    out: list[Vec] = []
    seen = set()
    for r in rows:
        if len(r) != dim:
            raise ParseError(f"{what} has wrong dimension: expected {dim}, got {len(r)}")
        try:
            p = primitive(vec(r))
        except (ValueError, TypeError) as exc:
            raise ParseError(f"bad entry in {what}: {exc}") from None
        if is_zero_vec(p):
            raise ParseError(f"zero vector given as a {what}")
        if p not in seen:
            seen.add(p)
            out.append(p)
    return tuple(out)


def build_space(dim: int, generators=None, facets=None, name: str = "space") -> OrderedSpace:
    """Construct a space from generators, facets, or both (cross-validated).

    The missing representation is computed by double description.  Computed
    rows come out in lexicographic order; rows the caller supplied keep the
    caller's order whenever they already equal the canonical set.
    """
    if not 1 <= dim <= MAX_DIM:
        raise ParseError(f"dimension must be between 1 and {MAX_DIM}, got {dim}")
    if generators is None and facets is None:
        raise ParseError("need generators or facets")

    gens = _clean_rows(generators, dim, "generator") if generators is not None else None
    face = _clean_rows(facets, dim, "facet") if facets is not None else None

    if gens is not None:
        if rank(gens) < dim:
            raise NotGenerating(f"generators span a rank-{rank(gens)} subspace of Q^{dim}")
        dual = extreme_rays(gens)  # canonical irredundant facets of pos(gens)
        if rank(dual) < dim:
            raise NotPointed("the generated cone contains a line")
        canon_gens = extreme_rays(dual)
        gens = gens if set(gens) == set(canon_gens) else canon_gens
        if face is not None:
            ok = rank(face) == dim
            if ok:
                try:
                    # No rays means the facets cut out only the origin.
                    rays = extreme_rays(face)
                    ok = bool(rays) and set(extreme_rays(rays)) == set(dual)
                except ValueError:
                    # the facet system cuts out a degenerate cone
                    ok = False
            if not ok:
                raise ParseError("facets do not match the cone generated by the generators")
            face = face if set(face) == set(dual) else dual
        else:
            face = dual
    else:
        if rank(face) < dim:
            raise NotPointed(f"facets have rank {rank(face)}; the cone contains a line")
        canon_gens = extreme_rays(face)
        if rank(canon_gens) < dim:
            raise NotGenerating("the facet cone is not full dimensional")
        irred = extreme_rays(canon_gens)
        face = face if set(face) == set(irred) else irred
        gens = canon_gens

    rows = _int_rows(face)[1]
    images = [[sum(map(mul, f, _ints(g)[1])) for f in rows] for g in gens]
    if any(e < 0 for image in images for e in image):  # cross-check both representations agree
        raise ParseError("internal representation mismatch")

    supports = tuple(support(image) for image in images)
    return OrderedSpace(name=name, dim=dim, generators=gens, F=face, atom_supports=supports)


def _sums(space: OrderedSpace, xi: list[int]) -> list[int]:
    """D F xi for an int vector xi, as int sums; another length is refused."""
    if len(xi) != space.dim:
        raise ValueError(f"a vector of length {len(xi)} in a space of dimension {space.dim}")
    return [sum(map(mul, f, xi)) for f in space.int_facets[1]]


def _image(space: OrderedSpace, x: Vec) -> tuple[int, list[int]]:
    """(S, S F x) for an int S > 0: the image of x as a row of int sums."""
    d, xi = _ints(x)
    return space.int_facets[0] * d, _sums(space, xi)


def leq(space: OrderedSpace, x: Vec, y: Vec) -> bool:
    """x <= y in the cone order, i.e. every facet functional is >= on y - x."""
    dx, xi = _ints(x)
    dy, yi = _ints(y)
    return all(e >= 0 for e in _sums(space, [b * dx - a * dy for a, b in zip(xi, yi, strict=True)]))


def in_cone(space: OrderedSpace, x: Vec) -> bool:
    return all(e >= 0 for e in _sums(space, _ints(x)[1]))


def embed(space: OrderedSpace, x: Vec) -> Vec:
    """Image of x under the facet embedding into coordinatewise-ordered Q^m."""
    S, y = _image(space, x)
    return _over(y, S)


def upper_bound_polyhedron(space: OrderedSpace, M) -> Polyhedron:
    """{z : z >= m for all m in M} as {z : F z >= w}, w the max of the images."""
    M = tuple(M)
    if not M:
        raise ParseError("need at least one vector")
    w = embed(space, M[0])
    for v in M[1:]:
        w = vmax(w, embed(space, v))
    return Polyhedron(space.F, w, space.dim)


def sup_in_X(space: OrderedSpace, M) -> Vec | None:
    """Least upper bound of a finite set inside the space, if one exists.

    Let w be the coordinatewise max of the images.  A preimage s of w is an
    upper bound below every other one, since any upper bound z has F z >= w.
    Conversely a sup s has F s >= w, and F s = w: the space is order dense
    in its cover (see `cover`), so for each j some upper bound z has
    f_j(z) = w_j, and s <= z gives f_j(s) <= w_j.  So the sup exists iff
    F s = w is solvable, and None means that linear system is inconsistent.
    """
    return solve_linear(space.F, upper_bound_polyhedron(space, M).b)

