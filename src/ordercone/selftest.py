"""Self-contained verification suites, runnable from the CLI and from pytest.

Each suite checks one area of the library against frozen golden values on the
built-in spaces plus randomized property sweeps with fixed seeds.  Suites
return plain (name, ok, detail) rows; run_selftest wraps them with timing and
per-suite runtime budgets.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .atoms import (
    AtomDecomposition,
    NoSplit,
    NoWitness,
    Split,
    Violated,
    atom_lambda,
    atoms,
    classify,
    decompose_by_atom,
    enumerate_order_projections,
    is_atom,
    is_discrete,
    is_projection_band,
    pervasive_witness_check,
    rdp_split,
)
from .bands import (
    band_of,
    disjoint_complement,
    disjoint_eq1_oracle,
    enumerate_bands,
    extend_band,
    is_band,
    is_disjoint,
    kernel_of_rows,
    restrict_band,
    subspace,
)
from .cones import build_space, in_cone, leq, sup_in_X
from .errors import OrderConeError, ParseError
from .fixtures import (
    FOUR_RAY_FACETS,
    FOUR_RAY_GENERATORS,
    four_ray,
    random_positive,
    random_simplicial_space,
    random_space,
    random_vector,
)
from .linalg import (
    mat,
    mat_vec,
    nullspace,
    primitive,
    rank,
    solve_linear,
    vabs,
    vadd,
    vec,
    vmax,
    vscale,
    vsub,
)
from .lp import Optimal, Polyhedron, feasible_point, lp
from .seqspace import (
    NonDirected,
    NonDisjoint,
    NonPervasive,
    ProvedNone,
    c_element,
    seq,
    seq_add,
    seq_B_complement_witness,
    seq_B_upper_bound,
    seq_decompose_BC,
    seq_in_subspace,
    seq_join_in_C,
    seq_leq,
    seq_nonpervasive_witness,
    weighted_negative_sum,
)

Row = tuple[str, bool, str]


@dataclass(frozen=True)
class Check:
    suite: str
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class SelfTestReport:
    checks: tuple[Check, ...]
    passed: int
    failed: int
    suite_times: tuple[tuple[str, float], ...]


def _rows():
    rows: list[Row] = []

    def out(name: str, ok, detail: str = "") -> None:
        rows.append((name, bool(ok), detail))

    return rows, out


def _first(failures: list[str]) -> str:
    return failures[0] if failures else ""


def _no_common_positive_lower_bound(space, b, d) -> bool:
    """LP certificate: no z with 0 < z, z <= b, z <= d (nonzero via sum >= 1)."""
    rows, rhs = [], []
    for f, ib, id_ in zip(space.F, mat_vec(space.F, b), mat_vec(space.F, d)):
        neg = tuple(-e for e in f)
        rows.append(f)
        rhs.append(Fraction(0))
        rows.append(neg)
        rhs.append(-ib)
        rows.append(neg)
        rhs.append(-id_)
    rows.append(tuple(sum(col, start=Fraction(0)) for col in zip(*space.F)))
    rhs.append(Fraction(1))
    return feasible_point(Polyhedron(mat(rows), vec(rhs), space.dim)) is None


def _split_exists(space, x1, x2, z) -> bool:
    """LP oracle: some z1 has 0 <= z1 <= x1 and 0 <= z - z1 <= x2, four rows per facet."""
    rows, rhs = [], []
    for f, c1, cz, c2 in zip(space.F, mat_vec(space.F, x1), mat_vec(space.F, z), mat_vec(space.F, x2)):
        neg = tuple(-e for e in f)
        rows.append(f)
        rhs.append(Fraction(0))  # f(z1) >= 0
        rows.append(neg)
        rhs.append(-c1)  # f(z1) <= f(x1)
        rows.append(neg)
        rhs.append(-cz)  # f(z - z1) >= 0
        rows.append(f)
        rhs.append(cz - c2)  # f(z - z1) <= f(x2)
    return feasible_point(Polyhedron(mat(rows), vec(rhs), space.dim)) is not None


def _atom_triple(rng, space):
    """x1 = g_i, x2 = g_k, z = lam*g_j for distinct atoms with 0 < z <= x1 + x2, or None after ten draws.

    No such triple has a split: [0, g] = {mu*g : 0 <= mu <= 1} for an atom
    g, and g_j is extreme, so lam*g_j = mu*g_i + nu*g_k forces lam = 0.
    """
    gens = space.generators
    for _ in range(10 if len(gens) >= 3 else 0):
        i, j, k = rng.sample(range(len(gens)), 3)
        img, cap = mat_vec(space.F, gens[j]), mat_vec(space.F, vadd(gens[i], gens[k]))
        if all(b > 0 for a, b in zip(img, cap) if a > 0):
            top = min(b / a for a, b in zip(img, cap) if a > 0)
            return gens[i], gens[k], vscale(top * Fraction(rng.randint(1, 4), 4), gens[j])
    return None


def _order_dense_at(space, w) -> bool:
    """LP oracle for order density at w: min{f_j(z) : F z >= w} = w_j for every j."""
    U = Polyhedron(space.F, w, space.dim)
    for f, wj in zip(space.F, w):
        res = lp(f, U, "min")
        if not (isinstance(res, Optimal) and res.value == wj):
            return False
    return True


# --- suite 1: the four-ray counterexample, frozen end to end ------------------


def four_ray_golden() -> list[Row]:
    rows, out = _rows()
    space = four_ray()
    gens = tuple(vec(g) for g in FOUR_RAY_GENERATORS)
    v1, v2, v3, v4 = gens

    rebuilt = build_space(3, generators=mat(FOUR_RAY_GENERATORS))
    got = {primitive(f) for f in rebuilt.F}
    want = {primitive(vec(f)) for f in FOUR_RAY_FACETS}
    out("facet recovery up to positive scaling and permutation", got == want)

    out(
        "atoms are exactly the four extreme rays",
        {primitive(a) for a in atoms(space)} == {primitive(g) for g in gens},
    )

    cyclic = all(
        disjoint_complement(space, [gens[k]]).carrier.basis
        == subspace(3, [gens[(k + 2) % 4]]).basis
        for k in range(4)
    )
    out("each ray's disjoint complement is the opposite ray's line", cyclic)

    d = vadd(v1, v2)
    out(
        "a sum of adjacent rays is discrete but not an atom",
        is_discrete(space, d) and not is_atom(space, d),
    )

    bands = enumerate_bands(space)
    out(
        "band inventory has eight double-complement fixed points",
        len(bands) == 8,
        f"got {len(bands)}",
    )
    nontrivial_directed = [b for b in bands if b.directed and 0 < b.carrier.dim < 3]
    out(
        "exactly four non-trivial directed bands, one per ray",
        len(nontrivial_directed) == 4
        and {b.carrier.basis for b in nontrivial_directed}
        == {subspace(3, [g]).basis for g in gens},
    )
    skew = {
        b.carrier.basis: b.zero_set
        for b in bands
        if not b.directed and b.carrier.dim == 1
    }
    want_skew = {
        subspace(3, [vec((1, -1, 0))]).basis: frozenset({1, 3}),
        subspace(3, [vec((1, 1, 0))]).basis: frozenset({2, 4}),
    }
    out("the two non-directed line bands carry the expected zero sets", skew == want_skew)

    reps = enumerate_order_projections(space)
    zero3 = tuple(tuple(Fraction(0) for _ in range(3)) for _ in range(3))
    eye3 = tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(3)) for i in range(3)
    )
    out(
        "only the trivial order projections exist",
        len(reps) == 2 and {r.matrix for r in reps} == {zero3, eye3},
    )

    cls = classify(space)
    out(
        "classification: lattice, pervasive, fordable, RDP all false; four atoms",
        not cls.is_lattice
        and not cls.is_pervasive
        and not cls.is_fordable
        and not cls.has_rdp
        and cls.atom_count == 4
        and isinstance(cls.weakly_pervasive, Violated),
    )
    if isinstance(cls.weakly_pervasive, Violated):
        b, dd = cls.weakly_pervasive.b, cls.weakly_pervasive.d
        out(
            "weak-pervasiveness violation certificate is valid",
            in_cone(space, b)
            and in_cone(space, dd)
            and not is_disjoint(space, b, dd)
            and _no_common_positive_lower_bound(space, b, dd),
        )

    out(
        "the all-negative probe admits no pervasiveness witness",
        pervasive_witness_check(space, vec((-1, -1, -1))) == NoWitness(),
    )
    out(
        "no interval split for the opposite-ray triple",
        rdp_split(space, v1, v3, v2) == NoSplit(),
    )
    return rows


# --- suite 2: simplicial spaces satisfy every lattice-side law ----------------


def simplicial_properties() -> list[Row]:
    rows, out = _rows()
    rng = random.Random(20260801)
    flags_bad: list[str] = []
    decomp_bad: list[str] = []
    principal_bad: list[str] = []
    proj_bad: list[str] = []

    for trial in range(200):
        n = rng.randint(2, 6)
        space = random_simplicial_space(rng, n, name=f"simplicial-{trial}")
        cls = classify(space)
        if not (
            cls.is_lattice
            and cls.is_pervasive
            and cls.is_fordable
            and cls.has_rdp
            and cls.atom_count == n
        ):
            flags_bad.append(f"trial {trial}: {cls}")

        x = random_positive(rng, space)
        for a in atoms(space):
            dec = decompose_by_atom(space, x, a)
            if not isinstance(dec, AtomDecomposition):
                decomp_bad.append(f"trial {trial}: no decomposition")
                continue
            lam = atom_lambda(space, x, a)
            if (
                dec.lam != lam
                or vadd(dec.atom_part, dec.disjoint_part) != x
                or dec.atom_part != vscale(lam, a)
                or not is_disjoint(space, dec.atom_part, dec.disjoint_part)
            ):
                decomp_bad.append(f"trial {trial}: inconsistent parts")
            if band_of(space, a).carrier.basis != subspace(space.dim, [a]).basis:
                principal_bad.append(f"trial {trial}: principal band is not the ray")

        bands = enumerate_bands(space)
        reps = enumerate_order_projections(space)
        if len(bands) != 2**n or len(reps) != 2**n:
            proj_bad.append(f"trial {trial}: {len(bands)} bands, {len(reps)} projections")
        else:
            eye = tuple(
                tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
            )
            by_basis = {r.band.carrier.basis: r.matrix for r in reps}
            full = frozenset(range(1, space.m + 1))
            for band in bands:
                comp = kernel_of_rows(space, full - band.zero_set)
                pb = by_basis.get(band.carrier.basis)
                pc = by_basis.get(comp.basis)
                if pb is None or pc is None:
                    proj_bad.append(f"trial {trial}: complement band not projecting")
                    break
                summed = tuple(
                    tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(pb, pc)
                )
                if summed != eye:
                    proj_bad.append(f"trial {trial}: projections do not sum to identity")
                    break

    out("200 random simplicial spaces classify as lattices", not flags_bad, _first(flags_bad))
    out(
        "atomic decompositions split every positive element with disjoint parts",
        not decomp_bad,
        _first(decomp_bad),
    )
    out("the principal band of each atom is its ray", not principal_bad, _first(principal_bad))
    out(
        "every band projects and complementary projections sum to the identity",
        not proj_bad,
        _first(proj_bad),
    )
    return rows


# --- suite 3: the two disjointness definitions agree --------------------------


def dual_oracle_disjointness() -> list[Row]:
    rows, out = _rows()
    rng = random.Random(20260802)
    disagreements: list[str] = []
    loose: list[str] = []
    for trial in range(50):
        space = random_space(rng)
        for pair in range(500):
            x = random_vector(rng, space.dim)
            y = random_vector(rng, space.dim)
            if is_disjoint(space, x, y) != disjoint_eq1_oracle(space, x, y):
                disagreements.append(f"trial {trial}: x={x} y={y}")
            if pair < 5:
                for w in (vabs(mat_vec(space.F, vadd(x, y))), vabs(mat_vec(space.F, vsub(x, y)))):
                    if not _order_dense_at(space, w):
                        loose.append(f"trial {trial}: w={w}")
    out(
        "support test matches the upper-bound-set test on 50 x 500 random pairs",
        not disagreements,
        _first(disagreements),
    )
    out(
        "upper-set minima LPs reproduce |F(x+y)| and |F(x-y)| on 50 x 5 pairs",
        not loose,
        _first(loose),
    )
    return rows


# --- suite 4: closure laws of the disjoint-complement calculus ----------------


def band_calculus() -> list[Row]:
    rows, out = _rows()
    rng = random.Random(20260803)
    bad: list[str] = []
    for trial in range(100):
        space = random_space(rng)
        count = rng.randint(1, space.dim)
        D = subspace(space.dim, [random_vector(rng, space.dim) for _ in range(count)])
        Dd = disjoint_complement(space, D)
        Ddd = disjoint_complement(space, Dd)
        Dddd = disjoint_complement(space, Ddd)
        if not all(Ddd.carrier.contains(v) for v in D.basis):
            bad.append(f"trial {trial}: D not inside its double complement")
        if Dd.carrier.basis != Dddd.carrier.basis:
            bad.append(f"trial {trial}: third complement differs from first")
        if not (is_band(space, Dd.carrier) and is_band(space, Ddd.carrier)):
            bad.append(f"trial {trial}: a computed complement fails the band test")
    out(
        "100 random subspaces: containment, triple-complement collapse, bandness",
        not bad,
        _first(bad),
    )
    return rows


# --- suite 5: the lattice / pervasive / RDP equivalence with split probes -----


def lattice_equivalences() -> list[Row]:
    rows, out = _rows()
    rng = random.Random(20260804)
    triple_rng = random.Random(20260814)
    flag_bad: list[str] = []
    split_bad: list[str] = []
    triple_bad: list[str] = []
    triples = 0
    fractions = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1))
    for trial in range(100):
        space = random_space(rng)
        cls = classify(space)
        if not (cls.is_lattice == cls.is_pervasive == cls.has_rdp):
            flag_bad.append(f"trial {trial}: {cls}")
        for _ in range(20):
            x1 = random_positive(rng, space)
            x2 = random_positive(rng, space)
            z = vadd(vscale(rng.choice(fractions), x1), vscale(rng.choice(fractions), x2))
            res = rdp_split(space, x1, x2, z)
            if isinstance(res, Split):
                parts_ok = (
                    vadd(res.z1, res.z2) == z
                    and in_cone(space, res.z1)
                    and in_cone(space, res.z2)
                    and leq(space, res.z1, x1)
                    and leq(space, res.z2, x2)
                )
                if not parts_ok:
                    split_bad.append(f"trial {trial}: invalid split parts")
            elif cls.has_rdp:
                split_bad.append(f"trial {trial}: no split found in an RDP space")
            elif _split_exists(space, x1, x2, z):
                split_bad.append(f"trial {trial}: no split found, but the four-row LP has one")
        triple = _atom_triple(triple_rng, space)
        if triple is not None:
            triples += 1
            if rdp_split(space, *triple) != NoSplit() or _split_exists(space, *triple):
                triple_bad.append(f"trial {trial}: atom triple {triple} has a split")
    out("lattice, pervasive, and RDP flags coincide on 100 spaces", not flag_bad, _first(flag_bad))
    out("2000 interval split probes are sound and complete", not split_bad, _first(split_bad))
    out(
        f"{triples} atom-triple probes have no split, by rdp_split and the four-row LP",
        triples > 0 and not triple_bad,
        _first(triple_bad),
    )

    space = four_ray()
    v1, v2, v3, _ = (vec(g) for g in FOUR_RAY_GENERATORS)
    out(
        "the four-ray witness triple stays split-free",
        rdp_split(space, v1, v3, v2) == NoSplit(),
    )
    return rows


# --- suite 6: extension to the cover and restriction back ---------------------


def extension_restriction() -> list[Row]:
    rows, out = _rows()
    rng = random.Random(20260805)
    bad: list[str] = []
    for trial in range(20):
        space = random_simplicial_space(rng, rng.randint(2, 5))
        full = frozenset(range(1, space.m + 1))
        for band in enumerate_bands(space):
            J = extend_band(space, band)
            Jc = extend_band(space, disjoint_complement(space, band))
            if J & Jc or (J | Jc) != full:
                bad.append(f"trial {trial}: supports not complementary")
            if restrict_band(space, J).basis != band.carrier.basis:
                bad.append(f"trial {trial}: restriction does not invert extension")
            # The same kernel by the Fraction route, from F itself and not its cached int rows.
            zero_rows = tuple(space.F[j - 1] for j in sorted(full - J))
            if zero_rows and nullspace(zero_rows) != band.carrier.basis:
                bad.append(f"trial {trial}: restriction is not the Fraction kernel of its zero rows")
    out(
        "pervasive spaces: complementary extension supports, restrict inverts extend",
        not bad,
        _first(bad),
    )

    space = four_ray()
    v1 = vec(FOUR_RAY_GENERATORS[0])
    restricted = restrict_band(space, {2, 3})
    out(
        "four-ray restriction of {2,3} is the first ray's line",
        restricted.basis == subspace(3, [v1]).basis,
    )
    out(
        "that line is a band but not a projection band",
        not is_projection_band(space, band_of(space, v1)).is_projection_band,
    )
    return rows


# --- suite 7: the sequence space with the non-lattice subspace ----------------


def _random_seq_member(rng: random.Random):
    ts = rng.randint(0, 3)
    tv = Fraction(rng.randint(-4, 4), rng.choice((1, 2, 4)))
    entries = {}
    for k in range(-6, -1):
        if rng.random() < 0.4:
            entries[k] = Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
    for k in range(0, ts):
        if rng.random() < 0.5:
            entries[k] = Fraction(rng.randint(-4, 4))
    rest = sum(
        (v * Fraction(1, 2**-k) for k, v in entries.items() if k < -1),
        start=Fraction(0),
    )
    entries[-1] = 2 * (tv - rest)
    return seq(entries, tail_start=ts, tail_value=tv)


def sequence_space() -> list[Row]:
    rows, out = _rows()
    rng = random.Random(20260806)

    decomp_bad: list[str] = []
    for trial in range(100):
        x = _random_seq_member(rng)
        b, c = seq_decompose_BC(x)
        deep = weighted_negative_sum(x) - x.value_at(-1) / 2
        want_b1 = 2 * x.tail_value
        want_c1 = -2 * deep
        if not (
            seq_add(b, c) == x
            and seq_in_subspace(b, "B")
            and seq_in_subspace(c, "C")
            and b.value_at(-1) == want_b1
            and c.value_at(-1) == want_c1
        ):
            decomp_bad.append(f"trial {trial}: parts or closed form off")
    out(
        "100 random members split into the two subspaces with the closed-form entries",
        not decomp_bad,
        _first(decomp_bad),
    )

    res = seq_join_in_C(c_element(1), c_element(2))
    out(
        "the probe pair has no upper bound in the eventually-zero subspace",
        res == ProvedNone(NonDirected(Fraction(3, 4))),
        f"got {res}",
    )
    out(
        "the infimum certificate is strictly positive",
        isinstance(res, ProvedNone) and res.witness.infimum > 0,
    )
    out(
        "the deep subspace is not the shallow one's disjoint complement",
        seq_B_complement_witness() == NonDisjoint(-1),
    )
    out(
        "the space has no positive element under the unit cover box",
        seq_nonpervasive_witness() == NonPervasive(),
    )

    directed_bad: list[str] = []
    for trial in range(100):
        tv1 = Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
        tv2 = Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
        a = seq({-1: 2 * tv1, 0: rng.randint(-3, 3)}, tail_start=1, tail_value=tv1)
        bb = seq({-1: 2 * tv2, 1: rng.randint(-3, 3)}, tail_start=2, tail_value=tv2)
        m = seq_B_upper_bound(a, bb)
        if not (seq_in_subspace(m, "B") and seq_leq(a, m) and seq_leq(bb, m)):
            directed_bad.append(f"trial {trial}")
    out(
        "the shallow subspace is directed: pointwise maxima stay inside",
        not directed_bad,
        _first(directed_bad),
    )
    return rows


# --- suite 8: suprema transfer between space and cover -------------------------


def supremum_transfer() -> list[Row]:
    rows, out = _rows()
    space = four_ray()
    v1, v2, v3, _ = (vec(g) for g in FOUR_RAY_GENERATORS)
    out(
        "four-ray: opposite rays join at the apex ray",
        sup_in_X(space, [v1, v3]) == vec((0, 0, 2)),
    )
    out("four-ray: adjacent rays have no supremum", sup_in_X(space, [v1, v2]) is None)

    rng = random.Random(20260807)
    bad: list[str] = []
    for trial in range(30):
        sp = random_simplicial_space(rng, rng.randint(2, 5))
        x = random_vector(rng, sp.dim)
        y = random_vector(rng, sp.dim)
        want = solve_linear(sp.F, vmax(mat_vec(sp.F, x), mat_vec(sp.F, y)))
        if want is None or sup_in_X(sp, [x, y]) != want:
            bad.append(f"trial {trial}")
    out(
        "simplicial spaces: supremum is the pulled-back coordinatewise maximum",
        not bad,
        _first(bad),
    )
    return rows


# --- suite 9: atoms, discreteness, and independence ---------------------------


def atom_discreteness_laws() -> list[Row]:
    rows, out = _rows()
    rng = random.Random(20260808)
    discrete_bad: list[str] = []
    equiv_bad: list[str] = []
    indep_bad: list[str] = []
    for trial in range(40):
        space = random_space(rng)
        ats = atoms(space)
        for a in ats:
            if not is_discrete(space, a):
                discrete_bad.append(f"trial {trial}: an atom is not discrete")
        if classify(space).is_pervasive:
            probes = list(ats)
            probes += [vadd(ats[i], ats[j]) for i in range(len(ats)) for j in range(i, len(ats))]
            probes.append(random_positive(rng, space))
            for p in probes:
                if is_discrete(space, p) != is_atom(space, p):
                    equiv_bad.append(f"trial {trial}: discreteness differs from atomicity")
            for i, a in enumerate(ats):
                for j, b in enumerate(ats):
                    if is_disjoint(space, a, b) != (i != j):
                        indep_bad.append(f"trial {trial}: pair disjointness")
            k = rng.randint(1, len(ats))
            picks = [rng.randrange(len(ats)) for _ in range(k)]
            chosen = [ats[i] for i in picks]
            pairwise = all(
                is_disjoint(space, chosen[i], chosen[j])
                for i in range(k)
                for j in range(i + 1, k)
            )
            if pairwise != (rank(mat(chosen)) == k == len(set(picks))):
                indep_bad.append(f"trial {trial}: set disjointness vs independence")
    out("every atom is discrete in every generated space", not discrete_bad, _first(discrete_bad))
    out(
        "in lattice spaces discreteness coincides with atomicity",
        not equiv_bad,
        _first(equiv_bad),
    )
    out(
        "in lattice spaces disjointness of atoms matches linear independence",
        not indep_bad,
        _first(indep_bad),
    )
    return rows


# --- the corrupted-fixture debug hook ------------------------------------------


def corrupted_fixture_probe() -> list[Row]:
    rows, out = _rows()
    tampered = ((-1, -1, 1), (1, -1, -1), (1, 1, 1), (-1, 1, 1))
    try:
        build_space(3, generators=mat(FOUR_RAY_GENERATORS), facets=mat(tampered))
    except OrderConeError as exc:
        out("corrupted facet data is rejected", False, f"violated invariant: {exc}")
    else:
        out("corrupted facet data is rejected", False, "corruption was not detected")
    return rows


SUITES: tuple[tuple[str, object, float], ...] = (
    ("four-ray golden suite", four_ray_golden, 5.0),
    ("simplicial property suite", simplicial_properties, 30.0),
    ("dual-oracle disjointness", dual_oracle_disjointness, 30.0),
    ("band calculus", band_calculus, 10.0),
    ("lattice equivalences", lattice_equivalences, 60.0),
    ("extension and restriction", extension_restriction, 5.0),
    ("sequence space", sequence_space, 5.0),
    ("supremum transfer", supremum_transfer, 2.0),
    ("atom discreteness laws", atom_discreteness_laws, 10.0),
)


def run_selftest(filter_substring: str | None = None, corrupt: bool = False) -> SelfTestReport:
    """Run the verification suites, optionally filtered by suite-name substring.

    With corrupt=True, runs only the corrupted-fixture probe, which must fail
    and name the violated invariant; it exists so the harness can prove the
    suite is not vacuous.
    """
    suites = SUITES
    if corrupt:
        suites = (("corrupted fixture probe", corrupted_fixture_probe, 5.0),)
    elif filter_substring is not None:
        suites = tuple(s for s in SUITES if filter_substring in s[0])
        if not suites:
            raise ParseError(f"no suite name contains {filter_substring!r}")

    checks: list[Check] = []
    times: list[tuple[str, float]] = []
    for name, fn, budget in suites:
        s0 = time.perf_counter()
        try:
            suite_rows = fn()
        except Exception as exc:  # a crashed suite is a failed suite
            suite_rows = [("suite ran to completion", False, f"{type(exc).__name__}: {exc}")]
        elapsed = time.perf_counter() - s0
        checks.extend(Check(name, n, ok, detail) for n, ok, detail in suite_rows)
        checks.append(Check(name, f"runtime under {budget:g}s", elapsed < budget))
        times.append((name, elapsed))
    passed = sum(1 for c in checks if c.ok)
    return SelfTestReport(
        checks=tuple(checks),
        passed=passed,
        failed=len(checks) - passed,
        suite_times=tuple(times),
    )
