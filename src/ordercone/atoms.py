"""Atoms, discreteness, classification, and order projections.

An atom is a generator of an extreme ray, so atom questions reduce to the
cone's canonical generator list.  Discreteness and weak pervasiveness are
read off the atoms' supports in the facet embedding: for b >= 0 the interval
[0,b] is a neighbourhood of 0 in the minimal face F_b, and a face is
generated by the atoms it contains, namely those whose supports lie inside
supp(F b).  Classification leans on the fact that in finite dimension the
pervasive / vector-lattice / RDP properties coincide and hold exactly for
simplicial cones.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from operator import mul

from .bands import (
    Band,
    DEFAULT_ENUMERATION_CAP,
    Subspace,
    _by_carrier,
    _carrier,
    _is_separator,
    _kernel_is_directed,
    _kernel_rows,
    _span_closure,
    disjoint_complement,
    is_band,
    is_disjoint,
    positive_generators,
    vanish_set,
)
from .cones import OrderedSpace, _image, _images, _sums, embed
from .errors import (
    CapExceeded,
    CertificateError,
    NotABand,
    NotAtom,
    NotDirectSum,
    NotPervasive,
    NotPositive,
    PreconditionViolated,
)
from .linalg import (
    Mat,
    Vec,
    ZERO,
    _canonical_rows,
    _over,
    canonical_subspace_basis,
    is_zero_vec,
    rank,
    support,
    vscale,
    vsub,
)
from .lp import Infeasible, _lp_nonneg


# --- atoms and discrete elements -------------------------------------------


def atoms(space: OrderedSpace) -> Mat:
    """The atoms up to positive scaling: the canonical extreme-ray generators."""
    return space.generators


def is_atom(space: OrderedSpace, x: Vec) -> bool:
    """Whether x is a positive multiple of a generator.

    Face rule: x is an atom iff F x >= 0, F x != 0 and supp(F x) is one of
    `space.atom_supports`, all read off one image.  The minimal face of g in
    K is {y in K : f_j(y) = 0 wherever f_j(g) = 0}.  If x >= 0 and
    supp(F x) = supp(F g) for a generator g, x lies in that face, which is
    the ray of g since g is extreme, and x != 0, so x is a positive multiple
    of g.  Conversely a positive multiple of g has the support of g.
    Distinct atoms span distinct rays, so they have distinct supports.  The
    zero vector has F x = 0 and stays a non-atom.
    """
    return _is_atom_image(space, _image(space, x)[1])


def _is_atom_image(space: OrderedSpace, image: list[int]) -> bool:
    """`is_atom`'s face rule, read off an int image S F x with S > 0."""
    if any(e < 0 for e in image):
        return False
    face = support(image)
    return bool(face) and face in space.atom_supports


def is_discrete(space: OrderedSpace, x: Vec) -> bool:
    """Whether x > 0 admits no pair of disjoint nonzero parts below it.

    Face rule: x is discrete iff no two atoms whose supports lie inside
    supp(F x), the atoms of the face F_x, have disjoint supports.  If
    0 < u, v <= x are disjoint, u and v lie in F_x and are positive sums of
    atoms of F_x; an atom of u and one of v have supports inside supp(F u)
    and supp(F v), which are disjoint.  Conversely, small multiples of two
    disjoint atoms of F_x lie in [0, x].
    """
    image = _image(space, x)[1]
    if is_zero_vec(x) or any(e < 0 for e in image):
        raise NotPositive("is_discrete needs x > 0")
    face = support(image)
    inside = [s for s in space.atom_supports if s <= face]
    return all(s & t for s, t in combinations(inside, 2))


# --- classification ----------------------------------------------------------


@dataclass(frozen=True)
class Holds:
    pass


@dataclass(frozen=True)
class Violated:
    b: Vec
    d: Vec


@dataclass(frozen=True)
class Classification:
    is_lattice: bool
    is_pervasive: bool
    is_fordable: bool
    weakly_pervasive: Holds | Violated
    has_rdp: bool
    atom_count: int


def _is_simplicial(space: OrderedSpace) -> bool:
    """As many atoms as dimensions; the atoms span Q^n, so they are a basis."""
    return len(space.generators) == space.dim


def classify(space: OrderedSpace) -> Classification:
    """Lattice / pervasive / fordable / weakly-pervasive / RDP flags.

    In finite dimension the lattice, pervasive and RDP flags coincide and hold
    exactly when the cone is simplicial.  So does fordability: every e_j is in
    the range of F iff F has rank m, and rank F = n for a pointed cone, so it
    holds iff m = n, i.e. iff the cone is simplicial.  Weak pervasiveness is
    decided on the atoms' supports and is equivalent to them:
    - two distinct atoms a, b with overlapping supports are not disjoint, yet
      [0,a] and [0,b] are segments on different rays and meet only in 0, so
      (a, b) violates weak pervasiveness;
    - if distinct atoms are pairwise disjoint, a facet positive on an atom a
      vanishes on every other atom, so no atom lies in the span of the others
      and the cone is simplicial.
    The violation reported is the first such pair in generator order.
    On a simplicial cone the facet rows are a basis, with no circuit, so F
    is onto Q^m: every box meets the range of F and every split exists.
    """
    gens = space.generators
    lattice = _is_simplicial(space)
    pairs = combinations(zip(gens, space.atom_supports), 2)
    overlap = next(((a, b) for (a, s), (b, t) in pairs if s & t), None)
    return Classification(
        is_lattice=lattice,
        is_pervasive=lattice,
        is_fordable=lattice,
        weakly_pervasive=Holds() if overlap is None else Violated(*overlap),
        has_rdp=lattice,
        atom_count=len(gens),
    )


@dataclass(frozen=True)
class Witness:
    x: Vec


@dataclass(frozen=True)
class NoWitness:
    pass


@dataclass(frozen=True)
class Inapplicable:
    pass


def pervasive_witness_check(space: OrderedSpace, b: Vec):
    """Look for 0 < x <= (b joined with 0) in the cover, per the pervasive test.

    Inapplicable when the join is 0 (b <= 0); NoWitness certifies that this b
    falsifies pervasiveness.  Let p = max(F b, 0).  A witness exists iff some
    atom g has supp(F g) inside supp(p), and then x = lambda*g with lambda the
    minimum of p_j / (F g)_j over supp(F g) is one (the first such atom is
    taken): 0 <= F x <= p and x != 0.  Conversely, a witness x > 0 is a
    positive sum of atoms, and each atom g in that sum has supp(F g) inside
    supp(F x), which lies inside supp(p) because F x <= p.
    """
    Sb, Fb = _image(space, b)
    inside = frozenset(j for j, e in enumerate(Fb, 1) if e > 0)
    if not inside:
        return Inapplicable()
    for g, s in zip(space.generators, space.atom_supports):
        if s <= inside:
            Sg, Fg = _image(space, g)
            return Witness(vscale(min(Fraction(Fb[j - 1] * Sg, Fg[j - 1] * Sb) for j in s), g))
    return NoWitness()


# --- atomic scaling coefficient and decomposition ----------------------------


def atom_lambda(space: OrderedSpace, x: Vec, a: Vec) -> Fraction:
    """The greatest lambda with lambda*a <= x, for an atom a and x >= 0.

    Closed form: the minimum of f_j(x)/f_j(a) over rows with f_j(a) > 0.
    Zero exactly when x and a are disjoint.  Each argument is imaged once,
    and the atom and cone tests read those images.
    """
    if not _is_simplicial(space):
        raise NotPervasive("the atomic scaling coefficient needs a pervasive space")
    Sa, Fa = _image(space, a)
    if not _is_atom_image(space, Fa):
        raise NotAtom("a must generate an extreme ray")
    Sx, Fx = _image(space, x)
    if any(e < 0 for e in Fx):
        raise NotPositive("x must be in the cone")
    return min(Fraction(b * Sa, e * Sx) for b, e in zip(Fx, Fa) if e > 0)


@dataclass(frozen=True)
class AtomDecomposition:
    lam: Fraction
    atom_part: Vec
    disjoint_part: Vec


@dataclass(frozen=True)
class NoDecomposition:
    reason: str


def decompose_by_atom(space: OrderedSpace, x: Vec, a: Vec):
    """Split x = lambda*a + w with w disjoint from the atom a, when possible.

    Requires the principal band {a}^dd = ker F_{[m] - cl(s)} of a and its
    complement {a}^d = ker F_s, s = supp(F a), to decompose the space (see
    `bands.band_of`).  Closure rule: their dimensions n - r([m] - cl(s)) and
    n - r(cl(s)) sum to n = r([m]) iff cl(s) is a separator, a union of the
    matroid's components (Oxley, Matroid Theory, ch. 4), so one closure
    decides it; the rank of the rest is computed only to report a failure.
    Face rule for the split itself: w = x - lambda*a lies in ker F_s iff
    F_s x = lambda F_s a, and F a has no zero on s, so lambda is read
    crosswise off the two images.  Each argument is imaged once: a's image
    gives the atom test and s, and x's is taken only for the split.  When s
    is itself a union of components, as on every simplicial cone, it is its
    own closure and no elimination runs (`bands._span_closure`).
    """
    Sa, A = _image(space, a)
    if not _is_atom_image(space, A):
        raise NotAtom("a must generate an extreme ray")
    s = support(A)
    closure, r = _span_closure(space, s)
    n = space.dim
    if not _is_separator(space, closure):
        r_band = _span_closure(space, frozenset(range(1, space.m + 1)) - closure)[1]
        return NoDecomposition(f"principal band and complement have dimensions {n - r_band} + {n - r} != {n}")
    Sx, X = _image(space, x)
    j, *rest = sorted(s)
    if any(X[i - 1] * A[j - 1] != X[j - 1] * A[i - 1] for i in rest):
        return NoDecomposition("x is not a combination of the atom and its disjoint complement")
    lam = Fraction(X[j - 1] * Sa, A[j - 1] * Sx)
    atom_part = vscale(lam, a)
    w = vsub(x, atom_part)
    if not is_disjoint(space, atom_part, w):
        raise CertificateError(f"the parts {_show(atom_part)} and {_show(w)} of x are not disjoint")
    return AtomDecomposition(lam, atom_part, w)


# --- projection bands and order projections ----------------------------------


@dataclass(frozen=True)
class ProjectionReport:
    band: Band
    is_projection_band: bool
    matrix: Mat | None


def _show(v: Vec) -> str:
    return "[" + ", ".join(map(str, v)) + "]"


def _check_components(space: OrderedSpace, indices) -> None:
    """Check the cached projections Π_C of the components with these indices.

    Each Π_C is the certificate of its component, checked by one identity
    F Π_C = E_C F, with E_C keeping the rows in C and setting the rest to 0.
    The check runs on Python ints: with (S, S Π_C) from
    `component_projections` and (d, d F) the space's `int_facets`, it reads
    (d F) (S Π_C) = S E_C (d F), and holds iff the rational identity does.
    A failed check raises CertificateError.
    """
    S, projections = space.component_projections
    d, F_I = space.int_facets
    zero = [0] * space.dim
    for t in indices:
        C = space.components[t]
        cols = list(zip(*projections[t]))
        for j, f in enumerate(F_I, 1):
            if [sum(map(mul, f, col)) for col in cols] != ([S * e for e in f] if j in C else zero):
                raise CertificateError(f"the projection of component {t + 1} breaks F P = E_C F at facet row {j}")


def _sum_components(space: OrderedSpace, indices) -> Mat:
    """The sum of the projections Π_C of the components with these indices, as Fractions.

    The zero matrix is one more summand, so that the empty sum is 0.
    """
    S, projections = space.component_projections
    zero = ((0,) * space.dim,) * space.dim
    return tuple(_over(list(map(sum, zip(*rows))), S) for rows in zip(zero, *[projections[t] for t in indices]))


def _project(space: OrderedSpace, B: Band, L: frozenset[int]) -> ProjectionReport:
    """The projection onto the band B = ker F_L along ker F_{[m]-L}, checked.

    L is the band's maximal zero set.  The band is a projection band iff L is
    a union of the matroid's components (`OrderedSpace.components`), i.e.
    iff r(L) + r([m] - L) = n.  Then the projection P is the sum of the
    projections Π_C of the components C outside L
    (`OrderedSpace.component_projections`), and each of them is checked on
    this call (`_check_components`).  By linearity the sum satisfies
    F P = E_L F, with E_L setting the rows in L to 0: F P x is F x with the
    rows of L set to 0.  That identity implies the rest.  P is idempotent,
    as F P P = E_L F P = E_L E_L F = E_L F = F P and F is injective; its
    range and kernel are ker F_L and ker F_{[m]-L}; and it keeps P g and
    g - P g positive for g >= 0, as their images E_L F g and F g - E_L F g
    split F g >= 0.
    """
    if not _is_separator(space, L):
        return ProjectionReport(B, False, None)
    outside = [t for t, C in enumerate(space.components) if not C & L]
    _check_components(space, outside)
    return ProjectionReport(B, True, _sum_components(space, outside))


def is_projection_band(space: OrderedSpace, B) -> ProjectionReport:
    """Whether X = B + B^d directly; if so, build and verify the band projection.

    B is a Band or a Subspace; the report always carries a Band, B itself or
    the subspace with its maximal zero set L and directedness.  When L is a
    union of components, ker F_L is a band (`_project`), so B is a band iff
    its carrier is ker F_L: L is B's maximal zero set, so ker F_L contains B,
    and B^dd = ker F_L.  That is the closure rule of `bands.is_band`, as
    [m] - L is a union of components too, so closed: B is a band iff
    dim B = n - r(L), with r(L) read off the space's one row basis with no
    elimination (`_span_closure`).  Any other L is no projection band, and
    only whether B is a band is left to decide.  The projection is the sum
    of the checked projections of the components outside L (`_project`).
    """
    carrier = B.carrier if isinstance(B, Band) else B
    L = vanish_set(space, carrier)
    if _is_separator(space, L):
        band = carrier.dim == space.dim - _span_closure(space, L)[1]
    else:
        band = is_band(space, carrier)
    if not band:
        raise NotABand("is_projection_band needs a band")
    if not isinstance(B, Band):
        B = Band(carrier, L, _kernel_is_directed(space, L, carrier.dim))
    return _project(space, B, L)


def enumerate_order_projections(space: OrderedSpace, cap: int = DEFAULT_ENUMERATION_CAP):
    """One report per projection band, ordered by (dimension, basis).

    The projection bands are the kernels of the 2^c unions L of the c
    components, so {0, X} always appears.  The kernel of L is the sum of the
    pieces ker F_{[m]-C} of the components C outside L, so each carrier is
    the canonical basis of one union of the c pieces, and each projection is
    the sum of the projections Π_C of those components.  All c of the Π_C
    are checked once on this call (`_check_components`), and each sum
    inherits the check, as in `_project`.  Each band is directed, since P
    maps the generating cone onto its positive part.  Refuses c > cap
    (CapExceeded); c <= m, so no space with at most cap facets is refused.
    """
    comps = space.components
    if len(comps) > cap:
        raise CapExceeded(f"order projections over 2^{len(comps)} unions of components exceed 2^{cap}")
    _check_components(space, range(len(comps)))
    full = frozenset(range(1, space.m + 1))
    pieces = [_kernel_rows(space, full - C) for C in comps]
    found = []
    for mask in range(1 << len(comps)):
        L = frozenset().union(*[C for t, C in enumerate(comps) if mask >> t & 1])
        outside = [t for t in range(len(comps)) if not mask >> t & 1]
        rows = _canonical_rows(list(chain.from_iterable(pieces[t] for t in outside)))
        found.append((rows, L, outside))
    found.sort(key=_by_carrier)
    return tuple(
        ProjectionReport(Band(_carrier(space, rows), L, True), True, _sum_components(space, outside))
        for rows, L, outside in found
    )


# --- Riesz decomposition probes ----------------------------------------------


@dataclass(frozen=True)
class Split:
    z1: Vec
    z2: Vec


@dataclass(frozen=True)
class NoSplit:
    pass


def rdp_split(space: OrderedSpace, x1: Vec, x2: Vec, z: Vec):
    """Find z = z1 + z2 with 0 <= z1 <= x1, 0 <= z2 <= x2, or certify none exists.

    F is bipositive, so the conditions read lo <= F z1 <= hi in the cover,
    with lo = max(0, F z - F x2) and hi = min(F x1, F z).  Here lo <= hi
    always: F x1 >= 0 and F z >= 0 as x1, z >= 0, F z - F x2 <= F z as
    x2 >= 0, and F z - F x2 <= F x1 as z <= x1 + x2.  So a split exists iff
    the box [lo, hi] meets the range of F.

    The LP runs in image coordinates.  Take the rows B of the space's one
    row basis (`row_basis`, computed once per space), so that F_B is
    invertible, and g_i = f_i F_B^{-1}.  Then f_i = g_i F_B, so every
    y = F z1 in the range has y_i = g_i . y_B.  Substitute
    y_B = lo_B + s, i.e. z1 = F_B^{-1}(lo_B + s): this is a bijection between
    the z1 and the s, and lo_B <= y_B becomes s >= 0, which the solver's
    variables carry.  What is left are the rows s_t <= hi_{B_t} - lo_{B_t}
    for the rows B_t of B (g = e_t there) and lo_i <= g_i . (lo_B + s) <= hi_i
    for the rows i outside B: n + 2(m - n) rows over n variables.

    All of it runs on ints.  x1, x2 and z are scaled by one common
    denominator, so that their images are int rows S F x; the cone checks,
    z <= x1 + x2 and the box S lo, S hi are read off those.  The LP takes
    the variables S s and each row outside B as D times its rational row,
    with the int rows D g_i of `row_basis`; one scale for all variables and
    one positive scale per row leave its pivots, and so z1, unchanged.  z1
    comes from the int rows D F_B^{-1}, and its image is checked to lie in
    [lo, hi] on ints; a failed check raises CertificateError.  Fractions are
    built only for z1 and z2 = z - z1, both from int rows over D L S.

    The LP is set up only when it has something to find.  Every row for B
    has the right-hand side lo - hi <= 0, and the rows outside B have
    right-hand sides <= 0 iff D lo_i <= g_i . (D lo_B) <= D hi_i, i.e. iff
    s = 0 meets them.  When it does, `_lp_nonneg` would start with every
    slack basic, need no phase 1, and stop its zero objective at s = 0 with
    no pivot; so s = 0 is taken and no LP is built: z1 = F_B^{-1} lo_B.  On
    a simplicial cone no row lies outside B, so this is every call.
    """
    S, (X1, X2, Z) = _images(space, (x1, x2, z))
    if any(e < 0 for e in chain(X1, X2, Z)):
        raise PreconditionViolated("x1, x2, z must lie in the cone")
    if any(a + b < c for a, b, c in zip(X1, X2, Z)):
        raise PreconditionViolated("need z <= x1 + x2")
    n = space.dim
    lo = [max(0, c - b) for b, c in zip(X2, Z)]
    hi = [min(a, c) for a, c in zip(X1, Z)]
    B, D, inverse, G = space.row_basis
    lo_B = [lo[i] for i in B]
    in_B = set(B)
    outside = [(i, g, sum(map(mul, g, lo_B))) for i, g in enumerate(G) if i not in in_B]
    if all(D * lo[i] <= base <= D * hi[i] for i, _, base in outside):
        s, L = [0] * n, 1
    else:
        rows = [[-int(u == t) for u in range(n)] + [lo[i] - hi[i]] for t, i in enumerate(B)]  # s_t <= hi_i - lo_i
        for i, g, base in outside:
            rows.append([*g, D * lo[i] - base])  # g . (lo_B + s) >= lo_i
            rows.append([-c for c in g] + [base - D * hi[i]])  # g . (lo_B + s) <= hi_i
        res = _lp_nonneg(rows, [1] * n + [D, D] * len(outside), [0] * n)
        if isinstance(res, Infeasible):
            return NoSplit()
        if not isinstance(res, tuple):
            raise ArithmeticError(f"the split LP has a zero objective, yet came back {res}")
        s, L = res
    y_B = [L * a + b for a, b in zip(lo_B, s)]
    z1 = [sum(map(mul, row, y_B)) for row in inverse]  # D L S z1
    K = space.int_facets[0] * D * L
    if not all(K * a <= y <= K * b for a, y, b in zip(lo, _sums(space, z1), hi)):
        raise CertificateError("the split's z1 has an image outside [lo, hi]")
    c = S // space.int_facets[0]
    zc = [e.numerator * (c // e.denominator) for e in z]  # c z, so D L S z = K c z
    return Split(_over(z1, D * L * S), _over([K * a - b for a, b in zip(zc, z1)], D * L * S))


# --- ideal decompositions (direct sums against the calculus) ------------------


@dataclass(frozen=True)
class DecompositionConfirmed:
    tier: str
    complement_matches: bool
    projection: ProjectionReport


@dataclass(frozen=True)
class HypothesesNotMet:
    reason: str


def _is_coordinate_ideal(space: OrderedSpace, D: Subspace) -> bool:
    """Whether D is spanned by the atoms it contains."""
    inside = tuple(g for g in space.generators if D.contains(g))
    return canonical_subspace_basis(inside, space.dim) == D.basis


def _not_an_ideal(space: OrderedSpace, S: Subspace, label: str) -> str:
    """Why S, in a simplicial space and not a span of atoms, is no ideal.

    If S is directed, d = the sum of the generators of S ∩ K is a positive
    element of S whose support holds that of every positive element of S.
    Each generator is a positive sum of atoms with supports inside supp(F d),
    so S lies in the span of those atoms, and one of them, g, lies outside
    S.  Then x = lambda*g with lambda = min (F d)_j / (F g)_j over supp(F g)
    has 0 <= F x <= F d: |x| is dominated by d, yet x is not in S, so S is
    not solid.
    """
    gens = positive_generators(space, S)
    if rank(gens) < S.dim:
        return f"{label} is not directed"
    d = tuple(sum(coords, start=ZERO) for coords in zip(*gens))
    Fd = embed(space, d)
    outside = (
        g
        for g, s in zip(space.generators, space.atom_supports)
        if s <= support(Fd) and not S.contains(g)
    )
    g = next(outside, None)
    if g is None:
        raise CertificateError(f"{label} is directed, not a span of atoms, yet has no solidity witness")
    Fg = embed(space, g)
    lam = min(Fd[j - 1] / Fg[j - 1] for j in support(Fg))
    x = vscale(lam, g)
    return f"{label} is not solid (modulus of {_show(x)} is dominated by {_show(d)})"


def check_ideal_decomposition(space: OrderedSpace, B: Subspace, D: Subspace):
    """Validate a claimed direct decomposition X = B + D against the band laws.

    Raises NotDirectSum when the sum is not direct.  The decomposition
    guarantee needs a pervasive space, i.e. a simplicial cone (weak
    pervasiveness is equivalent here), with B and D ideals.  In a
    finite-dimensional vector lattice the ideals (directed solid subspaces)
    are exactly the spans of sets of atoms.  When B and D are such spans, D
    is checked to be the disjoint complement of B and B to project;
    otherwise the failing hypothesis is reported, with a solidity witness
    where it applies.
    """
    n = space.dim
    if B.dim + D.dim != n or rank(B.basis + D.basis) != n:
        raise NotDirectSum(f"dim {B.dim} + {D.dim} with combined rank {rank(B.basis + D.basis)}")
    if not _is_simplicial(space):
        return HypothesesNotMet("space is not weakly pervasive")
    for S, label in ((B, "B"), (D, "D")):
        if not _is_coordinate_ideal(space, S):
            return HypothesesNotMet(_not_an_ideal(space, S, label))

    if disjoint_complement(space, B).carrier.basis != D.basis:
        raise CertificateError("decomposition guarantee violated: D != B^d for spans of atoms")
    # B is a span of atoms, hence directed.
    report = is_projection_band(space, Band(B, vanish_set(space, B), True))
    if not report.is_projection_band:
        raise CertificateError("decomposition guarantee violated: B is not a projection band")
    return DecompositionConfirmed("pervasive-coordinate-ideals", True, report)
