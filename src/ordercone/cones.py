"""Polyhedral ordered vector spaces.

A space is Q^n ordered by a pointed generating polyhedral cone, carried in
both representations: extreme rays (generators) and facet functionals.  The
facet matrix doubles as the bipositive embedding into the coordinatewise
lattice Q^m, which is how every order-theoretic question downstream becomes
finite arithmetic.

That arithmetic runs on Python ints.  `build_space` converts each input row
once to a primitive int row and runs one double description on those
(`_rays`, which carries every ray as a primitive int row with its zero set
over the input rows as a bit mask).  The input's rank is read off the
seed's pivots, and pointedness and redundancy off those masks; the set
comparisons and the cross-check of the two representations run on ints
too, and Fractions are built only for the space's fields.  Each space
caches its facet matrix as a common denominator D and the int rows D F
(`OrderedSpace.int_facets`); a vector x is scaled once to ints d x, so that
D d F x is a row of int sums (`_image`).  Signs and supports are read off
those sums, and a `Fraction` is built only for a value that is handed back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import gcd, lcm
from operator import mul

from .errors import CertificateError, NotGenerating, NotPointed, ParseError
from .linalg import (
    Mat,
    Vec,
    _coprime,
    _echelon,
    _fractions,
    _int_rows,
    _ints,
    _over,
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

# The most generator rows, and the most facet rows, a space may be given,
# counted as given.  Double description of a (t, t^2, 1) polygon cone grows
# about 4x per doubling of the rows; built from 1024 generators it took
# 0.77 s (640: 0.31 s) on a 2-core Xeon VM under Python 3.11.
MAX_ROWS = 1024


def _basis_inverse(A) -> tuple[list[int], int, list[list[int]] | None]:
    """(B, L, L A_B^{-1}) for int rows A with n columns, or (B, 0, None) if rank A < n.

    B is the first-wins maximal independent set of rows: row i is kept iff
    it is not in the span of the rows before it, i.e. iff column i of the
    transpose is a pivot column.  The inverse comes from the int echelon
    form [P | M] of [A_B | I]: row k is p_k [e_k | row k of A_B^{-1}] with
    pivot p_k > 0, and it is primitive, as [a | e_k] is, so p_k is the lcm
    of the denominators of row k of the inverse.  So L, the lcm of the
    pivots, is the least L > 0 that makes L A_B^{-1} integral, and row k of
    it is the int row M_k L / p_k.
    """
    n = len(A[0]) if A else 0
    B = _echelon(transpose(A))[1]
    if len(B) < n:
        return B, 0, None
    rows = _echelon([[*A[i], *[int(j == k) for j in range(n)]] for k, i in enumerate(B)])[0]
    L = lcm(*[row[k] for k, row in enumerate(rows)])
    return B, L, [[e * (L // row[k]) for e in row[n:]] for k, row in enumerate(rows)]


def _rays(A, basis=None) -> list[tuple[tuple[int, ...], int]]:
    """Extreme rays of {x : A x >= 0} for coprime int rows A, each with its zero set, sorted.

    Each ray is a primitive int tuple, paired with the bit mask of the rows
    of A that vanish on it.  Requires rank A = n, the cone being pointed.
    Double description: seed with the rows B of `_basis_inverse(A)` (passed
    as `basis` by a caller that already has it), a simplicial cone whose
    rays are the columns of A_B^{-1}, each made primitive, then cut with the
    remaining rows in input order (`_cut`).
    """
    seed, _, inverse = _basis_inverse(A) if basis is None else basis
    if inverse is None:
        raise ValueError("double description needs a pointed cone (rank deficient input)")
    rays = []
    for col in zip(*inverse):
        g = gcd(*col)
        rays.append([e // g for e in col])
    return sorted(_cut(A, seed, rays))


def _cut(A, seed: list[int], rays: list[list[int]]) -> list[tuple[tuple[int, ...], int]]:
    """The double description loop of `_rays`, on int rows.

    `rays` are the seed cone's rays as primitive int rows.  Each ray carries
    its zero set among the rows processed so far, as a bit mask.  A row a
    splits the rays by the sign of a . r; each adjacent pair r+, r- with
    s+ = a . r+ > 0 > s- = a . r- gives the ray s+ r- - s- r+ over its gcd,
    a positive combination of the two, so its zero set is theirs in common
    plus row a.  The rows processed so far include the seed's n independent
    rows, so they cut out a pointed cone, and the rays are its extreme rays,
    each with its own zero set.  Two of them are adjacent iff no third ray's
    zero set holds their common one (the combinatorial test of Fukuda and
    Prodon, "Double description method revisited", 1996), which needs a
    common zero set of at least n - 2 rows.
    """
    n = len(A[0])
    state = [(tuple(r), sum(1 << i for i in seed if not sum(map(mul, A[i], r)))) for r in rays]
    seed_set = set(seed)
    for idx in (i for i in range(len(A)) if i not in seed_set):
        a, bit = A[idx], 1 << idx
        masks = [z for _, z in state]
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
                common = zp & zm
                if common.bit_count() < n - 2 or any(z & common == common and z != zp and z != zm for z in masks):
                    continue
                new = [sp * e - sm * f for e, f in zip(rm, rp)]
                g = gcd(*new)
                fresh.append((tuple([e // g for e in new]), common | bit))
        state = [(r, z) for r, z, _ in plus] + zero + fresh
    return state


def _meet(masks: list[int], count: int) -> int:
    """The rows, among `count`, that vanish on every ray: the AND of the rays' zero sets, started at all rows."""
    common = (1 << count) - 1
    for z in masks:
        common &= z
    return common


def _irredundant(masks: list[int], count: int) -> list[int]:
    """The rows i < count whose rays share no other zero row, in order.

    `masks` are the zero sets of the extreme rays of the full-dimensional
    pointed cone {x : A x >= 0}, over its `count` distinct primitive rows.
    The face of row i is generated by the rays on it, so the rows vanishing
    on that face are the AND of their zero sets, started at all rows so
    that a face {0} (no ray) keeps row i in a cone of dimension 1.  Row i
    defines a facet iff that AND is row i alone: a facet lies on no other
    row's hyperplane, and a smaller face lies on at least two facets, both
    rows of A (Ziegler, Lectures on Polytopes, 1995, section 2.1).
    """
    on = [(1 << count) - 1] * count
    for z in masks:
        rest = z
        while rest:
            low = rest & -rest
            on[low.bit_length() - 1] &= z
            rest ^= low
    return [i for i, common in enumerate(on) if common == 1 << i]


@dataclass(frozen=True)
class OrderedSpace:
    """Q^dim ordered by a cone, given by its extreme rays and its facet rows.

    The facet matrix F doubles as the embedding into Q^m.  `atom_supports`
    holds supp(F g) for each generator g, in generator order: which atoms lie
    in which face.  It is derived from the two fields before it, so it takes
    no part in equality or repr; nor do the cached `int_facets`, `row_basis`,
    `int_generators`, `components` and `component_projections`.
    `build_space` fills `int_facets` and `int_generators` from the int rows
    it built.
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
    def row_basis(self) -> tuple[tuple[int, ...], int, tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
        """(B, D, D F_B^{-1}, D G): the space's one row basis, as int rows over one scale D > 0.

        B is the first-wins basis of the facet rows (`_basis_inverse`), so
        F_B is invertible, and row i of G = F F_B^{-1} holds the coordinates
        of facet row i in it: f_i = g_i F_B.  The rows of G in B are the unit
        vectors.  With (d, A) = `int_facets`, A = d F, so F_B^{-1} = d A_B^{-1}
        and G = A A_B^{-1}: one echelon of A gives (B, L, L A_B^{-1}), and
        D = L.
        """
        d, A = self.int_facets
        B, D, inverse = _basis_inverse(A)
        cols = list(zip(*inverse))
        G = tuple(tuple(sum(map(mul, a, col)) for col in cols) for a in A)
        return tuple(B), D, tuple(tuple(d * e for e in row) for row in inverse), G

    @cached_property
    def int_generators(self) -> tuple[tuple[int, ...], ...]:
        """The generators as coprime int rows, in generator order."""
        return tuple(tuple(_coprime(g)) for g in self.generators)

    @cached_property
    def components(self) -> tuple[frozenset[int], ...]:
        """The connected components of the facet rows' matroid, as 1-based
        row sets ordered by their least row.

        With (B, _, _, D G) = `row_basis`, a row i outside B lies in one
        fundamental circuit with the basis rows B_t for which G[i][t] != 0,
        and these circuits link the rows exactly as the matroid's components
        do (Oxley, Matroid Theory, ch. 4).  A basis row no circuit reaches is
        a coloop, a component by itself.
        """
        B, _, _, G = self.row_basis
        comps: list[set[int]] = []
        for i, g in enumerate(G, 1):
            linked = {i} | {B[t] + 1 for t, e in enumerate(g) if e != 0}
            touching = [c for c in comps if c & linked]
            comps = [c for c in comps if not c & linked] + [linked.union(*touching)]
        return tuple(sorted(map(frozenset, comps), key=min))

    @cached_property
    def component_projections(self) -> tuple[int, tuple[tuple[tuple[int, ...], ...], ...]]:
        """(S, (S Π_C for each component C)): the components' projections, as int rows over one scale S > 0.

        Π_C is the projection onto ker F_{[m]-C} along ker F_C, in the order
        of `components`.  With (R, D, D F_R^{-1}, _) = `row_basis` and
        (d, d F) = `int_facets`, S Π_C = (D F_R^{-1}) E_C (d F_R) for S = D d,
        where E_C keeps the basis rows in C.  Each row of R lies in one
        component, so the Π_C sum to the identity.  Nothing here checks them;
        `atoms._check_components` does, on every call that returns a sum of them.
        """
        R, D, inverse, _ = self.row_basis
        d, A = self.int_facets
        out = []
        for C in self.components:
            kept = [(t, A[i]) for t, i in enumerate(R) if i + 1 in C]
            out.append(tuple(tuple(sum(row[t] * f[c] for t, f in kept) for c in range(self.dim)) for row in inverse))
        return D * d, tuple(out)


def _clean_rows(rows, dim: int, what: str) -> list[tuple[int, ...]]:
    """The rows as given, each made a primitive int tuple, duplicates dropped.

    Rows are counted as given, before duplicates are dropped, and the row
    after the first MAX_ROWS is refused before any elimination starts.
    """
    out: list[tuple[int, ...]] = []
    seen = set()
    for k, r in enumerate(rows):
        if k == MAX_ROWS:
            raise ParseError(f"more than {MAX_ROWS} {what} rows")
        if len(r) != dim:
            raise ParseError(f"{what} has wrong dimension: expected {dim}, got {len(r)}")
        try:
            p = tuple(_coprime(vec(r)))
        except (ValueError, TypeError) as exc:
            raise ParseError(f"bad entry in {what}: {exc}") from None
        if not any(p):
            raise ParseError(f"zero vector given as a {what}")
        if p not in seen:
            seen.add(p)
            out.append(p)
    return out


def build_space(dim: int, generators=None, facets=None, name: str = "space") -> OrderedSpace:
    """Construct a space from generators, facets, or both (cross-validated).

    One double description runs, on the generators if they are given, and
    the rest is read off the zero sets of its rays.  Computed rows come out
    in lexicographic order; rows the caller supplied keep the caller's order
    whenever they already equal the canonical set.  Each input row is
    converted once to a primitive int row, all the work runs on those
    (`_representations`), and Fractions are built only for the space's
    fields.
    """
    if not 1 <= dim <= MAX_DIM:
        raise ParseError(f"dimension must be between 1 and {MAX_DIM}, got {dim}")
    if generators is None and facets is None:
        raise ParseError("need generators or facets")

    gens = _clean_rows(generators, dim, "generator") if generators is not None else None
    face = _clean_rows(facets, dim, "facet") if facets is not None else None
    gens, face = _representations(dim, gens, face)

    images = [[sum(map(mul, f, g)) for f in face] for g in gens]
    if any(e < 0 for image in images for e in image):  # cross-check both representations agree
        raise ParseError("internal representation mismatch")

    supports = tuple(support(image) for image in images)
    space = OrderedSpace(
        name=name,
        dim=dim,
        generators=tuple(map(_fractions, gens)),
        F=tuple(map(_fractions, face)),
        atom_supports=supports,
    )
    # The rows are primitive, so F is integral (D = 1) and both caches are the rows themselves.
    vars(space).update(int_facets=(1, tuple(face)), int_generators=tuple(gens))
    return space


def _representations(dim: int, gens, face) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The generators and the irredundant facets of the cone, as primitive int rows.

    Either input may be None.  One double description (`_rays`) runs, on
    the generators if they are given and on the facets otherwise, and its
    rays come with their zero sets over the input rows.  The rest is read
    off those masks: the input is pointed, or full dimensional, iff no row
    vanishes on every ray (`_meet`), and an input row is kept iff its rays
    share no other zero row (`_irredundant`).  Given both, the facets match
    iff each is >= 0 on the generators and every facet of the generated
    cone is among them.
    """
    if gens is not None:
        basis = _basis_inverse(gens)
        if len(basis[0]) < dim:
            raise NotGenerating(f"generators span a rank-{len(basis[0])} subspace of Q^{dim}")
        rays = _rays(gens, basis)  # canonical irredundant facets of pos(gens), with their zero sets
        dual, masks = [f for f, _ in rays], [z for _, z in rays]
        if _meet(masks, len(gens)):
            raise NotPointed("the generated cone contains a line")
        kept = _irredundant(masks, len(gens))
        if len(kept) < len(gens):
            gens = sorted(gens[i] for i in kept)
        if face is None:
            return gens, dual
        if any(sum(map(mul, f, g)) < 0 for f in face for g in gens) or not set(dual) <= set(face):
            raise ParseError("facets do not match the cone generated by the generators")
        return gens, face if len(face) == len(dual) else dual  # face holds dual, without duplicates
    basis = _basis_inverse(face)
    if len(basis[0]) < dim:
        raise NotPointed(f"facets have rank {len(basis[0])}; the cone contains a line")
    rays = _rays(face, basis)
    masks = [z for _, z in rays]
    if _meet(masks, len(face)):
        raise NotGenerating("the facet cone is not full dimensional")
    kept = _irredundant(masks, len(face))
    return [g for g, _ in rays], face if len(kept) == len(face) else sorted(face[i] for i in kept)


def _sums(space: OrderedSpace, xi: list[int]) -> list[int]:
    """D F xi for an int vector xi, as int sums; another length is refused."""
    if len(xi) != space.dim:
        raise ValueError(f"a vector of length {len(xi)} in a space of dimension {space.dim}")
    return [sum(map(mul, f, xi)) for f in space.int_facets[1]]


def _image(space: OrderedSpace, x: Vec) -> tuple[int, list[int]]:
    """(S, S F x) for an int S > 0: the image of x as a row of int sums."""
    d, xi = _ints(x)
    return space.int_facets[0] * d, _sums(space, xi)


def _images(space: OrderedSpace, vectors) -> tuple[int, list[list[int]]]:
    """(S, [S F x for x in vectors]) for one int S > 0: the images over one common denominator."""
    c = lcm(*[e.denominator for x in vectors for e in x])
    return space.int_facets[0] * c, [_sums(space, [e.numerator * (c // e.denominator) for e in x]) for x in vectors]


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
    f_j(z) = w_j, and s <= z gives f_j(s) <= w_j.  So the sup exists iff w
    lies in the range of F.  With B and G = F F_B^{-1} from the space's one
    row basis (`row_basis`), the range is the set of y with y_i = g_i . y_B
    for every row i, so the only candidate is s = F_B^{-1} w_B, and it is
    the sup iff w_i = g_i . w_B for every row i outside B.  So None rests on
    one fundamental circuit: the first row i that fails, with the rows B_t
    where g_i is nonzero, whose linear relation w breaks.  No elimination
    runs.

    All of it runs on ints: the images S w over one common denominator and
    the int rows D F_B^{-1} and D G of `row_basis`, so that D S s is a row
    of int sums.  The answer is checked, F s = w on ints, and a failed check
    raises CertificateError.
    """
    M = tuple(M)
    if not M:
        raise ParseError("need at least one vector")
    S, images = _images(space, M)
    w = [max(col) for col in zip(*images)]
    B, D, inverse, G = space.row_basis
    w_B = [w[i] for i in B]
    if any(D * wi != sum(map(mul, g, w_B)) for wi, g in zip(w, G)):
        return None  # the rows of B pass, as g = e_t there
    s = [sum(map(mul, row, w_B)) for row in inverse]
    scale = space.int_facets[0] * D
    if _sums(space, s) != [scale * e for e in w]:
        raise CertificateError("the supremum's image is not the max of the images")
    return _over(s, D * S)
