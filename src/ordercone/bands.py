"""Disjointness, bands, and ideals through the cover's coordinate supports.

In the coordinatewise cover two images are disjoint exactly when their
supports are, so every disjoint complement is the kernel of a set of facet
rows.  That makes the whole band calculus finite: bands are the fixed points
of the double complement among the row kernels, and the row kernels are the
kernels ker F_L of the flats L of the facet rows' matroid.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product
from math import gcd, prod
from operator import mul

from .cones import OrderedSpace, _image, _images, _rays
from .errors import CapExceeded, ParseError
from .linalg import (
    Mat,
    Vec,
    ONE,
    ZERO,
    _canonical_rows,
    _coprime,
    _fractions,
    _kernel,
    _nullspace,
    _rank,
    canonical_subspace_basis,
    in_span,
    mat,
    rank,
    support,
    vec,
)

DEFAULT_ENUMERATION_CAP = 14


@dataclass(frozen=True)
class Subspace:
    """A linear subspace in canonical form; equality is syntactic."""

    ambient: int
    basis: Mat

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, x: Vec) -> bool:
        return in_span(self.basis, x, self.ambient)


def subspace(ambient: int, vectors) -> Subspace:
    vectors = tuple(tuple(v) for v in vectors)
    for v in vectors:
        if len(v) != ambient:
            raise ParseError(f"subspace vector has length {len(v)}, ambient is {ambient}")
    return Subspace(ambient, canonical_subspace_basis(mat(vectors), ambient))


def full_space(ambient: int) -> Subspace:
    eye = tuple(tuple(ONE if j == i else ZERO for j in range(ambient)) for i in range(ambient))
    return Subspace(ambient, eye)


@dataclass(frozen=True)
class Band:
    """A band B = B^dd, carried with the zero set that cuts it out of X."""

    carrier: Subspace
    zero_set: frozenset[int]
    directed: bool


def is_disjoint(space: OrderedSpace, x: Vec, y: Vec) -> bool:
    """Support route: x and y are disjoint iff their images share no support."""
    return not any(a and b for a, b in zip(_image(space, x)[1], _image(space, y)[1]))


def disjoint_eq1_oracle(space: OrderedSpace, x: Vec, y: Vec) -> bool:
    """Definition route: {x+y, -x-y} and {x-y, -x+y} have equal upper sets.

    The two upper sets are {z : F z >= |F(x+y)|} and {z : F z >= |F(x-y)|}.
    The space is order dense in its cover (see `cover`), so each bound is
    the coordinatewise minimum of its upper set, and the sets are equal iff
    |F(x+y)| = |F(x-y)|.  Both sides are read off the int images of x and y
    over one common denominator.  Nothing here consults supports, so this
    is an independent second oracle.
    """
    u, v = _images(space, (x, y))[1]
    return all(abs(a + b) == abs(a - b) for a, b in zip(u, v))


def union_support(space: OrderedSpace, vectors) -> frozenset[int]:
    out: set[int] = set()
    for v in vectors:
        out |= support(_image(space, v)[1])
    return frozenset(out)


def kernel_of_rows(space: OrderedSpace, J) -> Subspace:
    """{x : f_j(x) = 0 for all j in J} as a canonical subspace."""
    J = frozenset(J)
    if not J:
        return full_space(space.dim)
    return Subspace(space.dim, tuple(map(_fractions, _kernel_rows(space, J))))


def _kernel_rows(space: OrderedSpace, J) -> list[list[int]]:
    """The canonical basis of ker F_J as primitive int rows, from the int facet rows."""
    J = sorted(set(J))
    if not J:
        return [[int(i == j) for j in range(space.dim)] for i in range(space.dim)]
    rows = space.int_facets[1]
    return _nullspace([rows[j - 1] for j in J], space.dim)


def vanish_set(space: OrderedSpace, D: Subspace) -> frozenset[int]:
    """All rows that vanish identically on D (the maximal zero set)."""
    return frozenset(range(1, space.m + 1)) - union_support(space, D.basis)


def _as_vectors(M) -> tuple[Vec, ...]:
    if isinstance(M, Band):
        return M.carrier.basis
    if isinstance(M, Subspace):
        return M.basis
    return tuple(vec(v) for v in M)


def _span_closure(space: OrderedSpace, J: frozenset[int]) -> tuple[frozenset[int], int]:
    """(cl(J), r(J)) in the facet rows' matroid, from at most one elimination.

    When J is a union of components (`_is_separator`) none runs.  Such a J
    is a flat: a row of another component in the span of J would lie in a
    circuit with rows of J, and a circuit lies inside one component.  Its
    rank is read off the space's one row basis R (`row_basis`): r(J) =
    |R ∩ J|.  For |R ∩ J| + |R - J| = n, each part is at most the rank of
    its side, and r(J) + r([m] - J) = n for a union of components, so both
    are equalities.

    Otherwise cl(J) is the set of rows that vanish on ker F_J and
    r(J) = n - dim ker F_J, so both are read off the free-variable basis of
    ker F_J (`_kernel`); no canonical basis is needed.  No facet row is
    zero, so cl(∅) = ∅.
    """
    if _is_separator(space, J):
        return J, sum(i + 1 in J for i in space.row_basis[0])
    rows = space.int_facets[1]
    basis = _kernel([rows[j - 1] for j in sorted(J)], space.dim)
    closure = frozenset(j for j, f in enumerate(rows, 1) if not any(sum(map(mul, f, b)) for b in basis))
    return closure, space.dim - len(basis)


def _row_band(space: OrderedSpace, J: frozenset[int]) -> Band:
    """The band ker F_J, carried with the zero set J."""
    carrier = kernel_of_rows(space, J)
    return Band(carrier, J, _kernel_is_directed(space, J, carrier.dim))


def disjoint_complement(space: OrderedSpace, M) -> Band:
    """M^d = {z : z disjoint from every element of M}, always a band.

    M may be a list of vectors, a Subspace, or a Band; the complement is the
    kernel of the rows supporting M's images (empty M complements to X).
    """
    return _row_band(space, union_support(space, _as_vectors(M)))


def band_of(space: OrderedSpace, a: Vec) -> Band:
    """The principal band {a}^dd = ker F_{[m] - cl(s)}, s = supp(F a).

    Closure rule: {a}^d = ker F_s, and a row supports some image of ker F_s
    iff it does not vanish on ker F_s, i.e. iff it lies outside cl(s).
    """
    s = support(_image(space, a)[1])
    return _row_band(space, frozenset(range(1, space.m + 1)) - _span_closure(space, s)[0])


def is_band(space: OrderedSpace, D) -> bool:
    """Whether D equals its double disjoint complement.

    Closure rule: D is a band iff dim D = n - r([m] - cl(J)), J = supp(F D).
    D^d = ker F_J, and the rows supporting its images are those outside
    cl(J), so D^dd = ker F_{[m] - cl(J)}, which contains D; the two are
    equal iff their dimensions are.
    """
    if isinstance(D, Band):
        D = D.carrier
    closure = _span_closure(space, union_support(space, D.basis))[0]
    return D.dim == space.dim - _span_closure(space, frozenset(range(1, space.m + 1)) - closure)[1]


def _kernel_is_directed(space: OrderedSpace, J, dim: int) -> bool:
    """Whether the row kernel ker(F_J), of dimension dim, is directed.

    When J is a union of components (`_is_separator`) it is, and no rank is
    taken.  Let Π_C be the projection onto the piece ker F_{[m]-C} of a
    component C (`OrderedSpace.component_projections`), so F Π_C = E_C F.
    The Π_C sum to the identity, and Π_C x = 0 for x in ker F_J and C inside
    J, so ker F_J is the sum of the pieces of the components outside J.  Each
    piece is directed: Π_C keeps K positive and fixes the piece, so it maps K
    onto K ∩ piece, and an x in the piece, written x = p - q with p, q in K,
    is Π_C p - Π_C q.  A sum of directed subspaces is directed.  This is the
    argument by which `atoms.enumerate_order_projections` reports every
    projection band directed.

    Otherwise every f_j is >= 0 on K, so K meets ker(F_J) in a face of K, and
    a face of a pointed polyhedral cone is generated by the atoms it contains:
    here the atoms whose supports miss J.  The kernel is spanned by its
    positive part iff those atoms have rank dim.
    """
    if _is_separator(space, J):
        return True
    inside = tuple(g for g, s in zip(space.int_generators, space.atom_supports) if not s & J)
    return _rank(inside) == dim


def positive_generators(space: OrderedSpace, D: Subspace) -> tuple[Vec, ...]:
    """Generators of the cone D ∩ K, for an arbitrary subspace D.

    Double description (`cones._rays`) of {c : sum c_i b_i in K} in
    coefficient space, over the basis b of D: its rows are the columns of
    the int images of the b_i, made coprime.  The rays are mapped back into D.
    """
    if D.dim == 0:
        return ()
    images = _images(space, D.basis)[1]
    return tuple(
        tuple(sum((c_i * b[k] for c_i, b in zip(c, D.basis)), start=ZERO) for k in range(space.dim))
        for c, _ in _rays([_coprime(row) for row in zip(*images)])
    )


def is_directed_subspace(space: OrderedSpace, D: Subspace) -> bool:
    """Whether an arbitrary subspace D is spanned by D's own positive part.

    Row kernels, and so all bands, take the face route of
    `_kernel_is_directed` instead.
    """
    return rank(positive_generators(space, D)) == D.dim


def _covered(space: OrderedSpace, C: frozenset[int], root: list[list[int]], cap: int, before: int) -> tuple[bool, int]:
    """Whether two hyperplanes cover the component C, and the leaves the search visited.

    A hyperplane of C is a flat of rank r - 1, for r = r(C), the dimension
    of C's piece, whose int basis `root` is.  C has a band flat other than ∅
    and C iff two hyperplanes cover it.  The band flats of C are the sets
    cl(C - S) for flats S (`enumerate_bands`).  If hyperplanes H1 and H2
    cover C, then cl(C - H1) lies in H2 and holds a row, so it is neither ∅
    nor C.  Conversely, for a band flat L other than ∅ and C, M = cl(C - L)
    is neither C (else L = cl(∅) = ∅) nor ∅, so L and M lie in hyperplanes,
    and these cover C, as L + M does.

    The search takes the rows of C in order, each valued on the piece's
    basis, an int vector of length r.  A side is a set of rows, held as an
    int basis of the vectors of Q^r on which its rows' values vanish, so its
    rank is r minus that basis's length.  A row in either side's span, its
    values 0 on that basis, needs nothing.  Any other row branches: it goes
    to a side of rank below r - 1, whose basis `_cut_piece` cuts by the row.
    Two sides of rank at most r - 1 lie in hyperplanes, so a branch that
    places every row finds a cover.  Conversely, if H1 and H2 cover C, H1
    holding the first row, the branch that puts each row into a side whose
    hyperplane holds it places every row: a side stays inside its
    hyperplane, which is closed, so a row in neither side's span goes to a
    side of rank below that of its hyperplane.  The first row goes to the
    first side only, as the two sides are alike until then, and every other
    row has at most two branches, so there are at most 2^(|C|-1) leaves.  No
    elimination runs.  Raises CapExceeded once `before` plus the leaves
    visited here exceed 2^cap.
    """
    rows = space.int_facets[1]
    values = [[sum(map(mul, rows[j - 1], b)) for b in root] for j in sorted(C)]
    whole = [[int(i == k) for k in range(len(root))] for i in range(len(root))]
    leaves = before
    todo = [(0, whole, whole)]  # an explicit stack: a component may have more rows than the recursion limit
    while todo:
        i, one, two = todo.pop()
        while i < len(values):
            a = [sum(map(mul, values[i], c)) for c in one]
            b = [sum(map(mul, values[i], c)) for c in two]
            if any(a) and any(b):
                break
            i += 1
        branches = []
        if i < len(values):
            if len(two) > 1 and two is not one:
                branches.append((i + 1, one, _cut_piece(two, b)))
            if len(one) > 1:
                branches.append((i + 1, _cut_piece(one, a), two))
        if not branches:  # a leaf: every row placed, or a row that neither side can take
            leaves += 1
            if (leaves - 1).bit_length() > cap:  # leaves > 2^cap
                raise CapExceeded(f"the search for two covering hyperplanes visits more than 2^{cap} leaves")
            if i == len(values):
                return True, leaves - before
        todo += branches
    return False, leaves - before


def _flats(space: OrderedSpace, C: frozenset[int], root: list[list[int]], cap: int, before: int):
    """Every flat of the component C of the facet rows' matroid, with its piece.

    A flat is a set L of rows closed under linear dependence: L holds every
    row that vanishes on ker F_L.  The components split Q^n into the direct
    sum of the kernels ker F_{[m]-C}, each row of C seeing only its own
    summand, so a flat L of C gets the piece ker F_{([m]-C) + L} of that
    summand.  Restricted to this piece, a row j of C outside L is a nonzero
    functional, and cl(L + j) adds to L exactly the rows whose restrictions
    are multiples of row j's: on the hyperplane of the piece that row j cuts
    out, a functional vanishes iff it is a multiple of row j there.  So the
    rows of C outside L fall into parallel classes, one per flat covering L;
    a class is keyed by the primitive integer form, leading entry positive,
    of its rows' values on the piece's basis.

    Close-by-one, the depth-first form of Ganter's NextClosure (1984), keeps
    the cover cl(L + j) only when j is the least row it adds, so each flat is
    visited once.  The empty flat's piece, ker F_{[m]-C}, is given as the int
    basis `root`, and no piece is eliminated here: a cover's piece is its
    parent's cut by the class's key (`_cut_piece`).  The pieces are int
    bases, not canonical ones.  Returns the pieces by flat and, for each
    flat L, the map from each row j of C outside L to cl(L + j).  Raises
    CapExceeded once `before` plus the flats visited here exceed 2^cap.
    """
    rows = [(j, space.int_facets[1][j - 1]) for j in sorted(C)]  # positive scalings keep the classes
    pieces: dict[frozenset[int], list[list[int]]] = {}
    covers: dict[frozenset[int], dict[int, frozenset[int]]] = {}
    todo = [(frozenset(), 1, root)]  # facet rows are nonzero, so no row vanishes on the summand
    while todo:
        if (before + len(pieces)).bit_length() > cap:  # >= 2^cap, without building 2^cap for a huge cap
            raise CapExceeded(f"band enumeration visits more than 2^{cap} flats")
        L, start, basis = todo.pop()
        pieces[L] = basis
        classes: dict[tuple[int, ...], set[int]] = {}
        for j, f in rows:
            if j not in L:
                r = [sum(map(mul, f, b)) for b in basis]
                g = gcd(*r) if next(e for e in r if e) > 0 else -gcd(*r)
                classes.setdefault(tuple([e // g for e in r]), set()).add(j)
        up = covers[L] = {}
        for key, cls in classes.items():
            cover = L | cls
            for j in cls:
                up[j] = cover
            if min(cls) >= start:
                todo.append((cover, min(cls) + 1, _cut_piece(basis, key)))
    return pieces, covers


def _cut_piece(basis: list[list[int]], r: tuple[int, ...]) -> list[list[int]]:
    """A basis of the hyperplane {sum c_i b_i : sum c_i r_i = 0} of span(basis).

    With p the first index where r_p != 0, the vectors r_p b_i - r_i b_p for
    i != p, each over its gcd, are independent and lie in the hyperplane,
    which has one dimension less than the span.
    """
    p = next(i for i, e in enumerate(r) if e)
    bp, rp = basis[p], r[p]
    out = []
    for i, (b, ri) in enumerate(zip(basis, r)):
        if i == p:
            continue
        if ri:
            b = [rp * e - ri * q for e, q in zip(b, bp)]
            g = gcd(*b)
            b = [e // g for e in b] if g > 1 else b
        out.append(b)
    return out


def _closure(covers, S: frozenset[int]) -> frozenset[int]:
    """cl(S), walked up from the empty flat along the covers of `_flats`."""
    out = frozenset()
    for j in S:
        if j not in out:
            out = covers[out][j]
    return out


def enumerate_bands(space: OrderedSpace, cap: int = DEFAULT_ENUMERATION_CAP) -> tuple[Band, ...]:
    """All bands, ordered by (dimension, basis), with maximal zero sets.

    Every disjoint complement is a row kernel, so every band is one too: the
    kernel of a flat L, whose images have support [m] - L.  Its complement is
    the kernel of cl([m] - L), and it is a band iff the complement of that is
    it again: cl([m] - cl([m] - L)) = L.  The flats of a direct sum of
    matroids are the unions of one flat per component, and closure acts per
    component (Oxley, Matroid Theory, ch. 4), so the test splits: L is a band
    flat iff each of its parts L_C is one of C, cl(C - cl(C - L_C)) = L_C.
    The bands are then the sums of one band per component: the zero set is
    the union of the parts, the carrier the sum of their pieces, and the band
    is directed iff every piece is, as the cone is the direct sum of its
    parts in the pieces.  Closures are walks up the covers, and zero sets are
    reported maximal (they are the flats).

    The flats of a component are walked only when it has bands other than 0
    and its piece, that is, when two of its hyperplanes cover it
    (`_covered`).  Otherwise its band flats are ∅ and C, and no flat is
    visited; so it is for every polygon cone.

    Refuses (CapExceeded) once the leaves of the cover search or the flats
    visited, each summed over the components, exceed 2^cap, and, before any
    carrier is built, when there are more than 2^cap bands.  A space with at
    most cap facets is never refused: the leaves number at most 2^(m-1),
    the flats and the bands at most 2^m.
    """
    full = frozenset(range(1, space.m + 1))
    parts = []
    visited = leaves = 0
    for C in space.components:
        root = _kernel_rows(space, full - C)
        covered, searched = _covered(space, C, root, cap, leaves)
        leaves += searched
        if covered:
            pieces, covers = _flats(space, C, root, cap, visited)
            visited += len(pieces)
            complement = {L: _closure(covers, C - L) for L in pieces}
            flats = [(L, K) for L, K in pieces.items() if complement[complement[L]] == L]
        else:
            flats = [(frozenset(), root), (C, [])]
        parts.append([(L, K, _kernel_is_directed(space, full - C | L, len(K))) for L, K in flats])
    count = prod(map(len, parts))
    if (count - 1).bit_length() > cap:  # count > 2^cap
        raise CapExceeded(f"the space has {count} bands, more than 2^{cap}")
    bands = []
    for choice in product(*parts):
        zero_sets, summands, directed = zip(*choice)
        rows = _canonical_rows(list(chain.from_iterable(summands)))
        bands.append((rows, frozenset().union(*zero_sets), all(directed)))
    bands.sort(key=_by_carrier)
    return tuple(Band(_carrier(space, rows), L, directed) for rows, L, directed in bands)


def _by_carrier(entry) -> tuple[int, list[list[int]]]:
    """The (dimension, basis) order of carriers, read off canonical int rows.

    The rows are integers, so their order is that of their Fraction forms.
    """
    return len(entry[0]), entry[0]


def _carrier(space: OrderedSpace, rows: list[list[int]]) -> Subspace:
    """The subspace whose canonical basis has these int rows."""
    return Subspace(space.dim, tuple(map(_fractions, rows)))


def principal_ideal_member(space: OrderedSpace, x: Vec, a: Vec) -> bool:
    """Whether x lies in the principal ideal of a (some scaling of |a| solidly
    dominates |x|): whether supp(F x) lies inside supp(F a).

    By order density (see `cover`) the solid order is the pointwise order of
    the moduli |F x| and |F a|, and some multiple of |F a| is above |F x|
    iff F x vanishes wherever F a does.
    """
    return support(_image(space, x)[1]) <= support(_image(space, a)[1])


def extend_band(space: OrderedSpace, B) -> frozenset[int]:
    """Support of the smallest extension band of B in the cover.

    The extension of a band B is i(B)^dd computed in Q^m, the coordinate band
    supported exactly where some element of B has a nonzero image.
    """
    return union_support(space, _as_vectors(B))


def _is_separator(space: OrderedSpace, L: frozenset[int]) -> bool:
    """Whether the row set L is a union of the matroid's components."""
    return all(C <= L or not C & L for C in space.components)


def restrict_band(space: OrderedSpace, J) -> Subspace:
    """Restriction of the coordinate band with support J: {x : f_j(x)=0, j not in J}.

    A band whenever the space is fordable; in general only a subspace.
    """
    return kernel_of_rows(space, _outside(space, J))


def _outside(space: OrderedSpace, J) -> frozenset[int]:
    """[m] - J for a set J of facet rows; a J outside 1..m is refused."""
    full = frozenset(range(1, space.m + 1))
    J = frozenset(J)
    if not J <= full:
        raise ParseError(f"J must be a subset of 1..{space.m}")
    return full - J


def restriction_is_projection_band(space: OrderedSpace, J) -> bool:
    """Whether the restriction of the coordinate band with support J is a projection band.

    The restriction ker F_{[m]-J} is the kernel of the flat L = cl([m] - J),
    its maximal zero set, which one elimination gives (`_span_closure`).  It
    is a projection band iff L is a separator, a union of components: then
    [m] - L is a union of components too, so a flat, and
    L = cl([m] - cl([m] - L)) makes the kernel a band, whose projection
    `atoms.is_projection_band` builds.
    """
    return _is_separator(space, _span_closure(space, _outside(space, J))[0])
