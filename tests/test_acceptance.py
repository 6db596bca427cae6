"""Acceptance gate: every shipped guarantee, run exactly and timed.

Each test here drives one guaranteed behavior suite end to end in exact
rational arithmetic (tolerance zero everywhere) and prints a single
``criterion N (...): PASS`` line.  The budgets are the published runtime
ceilings for each suite.
"""

import time

from ordercone.selftest import SUITES, run_selftest

_BY_NAME = {name: (fn, budget) for name, fn, budget in SUITES}


def _run(number: int, suite_name: str) -> None:
    fn, budget = _BY_NAME[suite_name]
    start = time.perf_counter()
    rows = fn()
    elapsed = time.perf_counter() - start
    failures = [(name, detail) for name, ok, detail in rows if not ok]
    assert not failures, f"criterion {number} ({suite_name}): FAIL {failures}"
    assert elapsed < budget, (
        f"criterion {number} ({suite_name}): FAIL"
        f" (took {elapsed:.2f}s, budget {budget:g}s)"
    )
    print(f"criterion {number} ({suite_name}): PASS "
          f"[{len(rows)} checks, {elapsed:.2f}s < {budget:g}s]")


def test_criterion_01_four_ray_golden():
    # Facet recovery, atoms, cyclic disjoint complements, v1+v2 discrete but
    # not an atom, the full band inventory (with both skew lines pinned),
    # only the trivial order projections, the all-false classification with a
    # validated violation certificate, NoWitness, and NoSplit.
    _run(1, "four-ray golden suite")


def test_criterion_02_simplicial_properties():
    # 200 random simplicial spaces: all-true classification, atomic
    # decompositions whose coefficient equals the closed-form lambda and
    # whose parts are disjoint, principal bands equal to rays, and the full
    # 2^n band/projection correspondence with complementary projections
    # summing to the identity.
    _run(2, "simplicial property suite")


def test_criterion_03_dual_oracle_disjointness():
    # 50 random spaces x 500 random pairs: the cover-support test and the
    # upper-bound-set equality test agree with zero disagreements; on the
    # first 5 pairs of each space, exact LPs confirm that every upper-set
    # minimum min{f_j(z) : F z >= |F(x +- y)|} is the bound itself.
    _run(3, "dual-oracle disjointness")


def test_criterion_04_band_calculus():
    # 100 random subspaces: D is contained in its double complement, the
    # triple complement collapses, and every complement is a band.
    _run(4, "band calculus")


def test_criterion_05_lattice_equivalences():
    # 100 mixed cones: lattice <=> pervasive <=> decomposition property,
    # validated random split probes, every NoSplit confirmed by the
    # four-row LP, atom triples without a split, and the frozen NoSplit triple.
    _run(5, "lattice equivalences")


def test_criterion_06_extension_restriction():
    # Pervasive spaces: complementary extension supports and
    # restrict(extend(.)) = identity; four-ray restrict({2,3}) = span{v1}
    # and is not a projection band.
    _run(6, "extension and restriction")


def test_criterion_07_sequence_space():
    # 100 random decompositions matching the closed form, the proved-absent
    # join with infimum 3/4, the complement-gap witness at index -1, the
    # no-positive-element witness, and 100 directedness probes.
    _run(7, "sequence space")


def test_criterion_08_supremum_transfer():
    # Frozen four-ray suprema ((0,0,2) and absent) and 30 simplicial spaces
    # where the supremum is the pulled-back componentwise maximum.
    _run(8, "supremum transfer")


def test_criterion_09_atom_discreteness_laws():
    # Atoms are discrete everywhere; in pervasive spaces discrete <=> atom;
    # disjointness/independence equivalences on atom pairs and multisets.
    _run(9, "atom discreteness laws")


def test_criterion_10_end_to_end_selftest():
    # The full battery finishes with zero failures in exact rational
    # arithmetic inside the overall ceiling.
    start = time.perf_counter()
    report = run_selftest()
    elapsed = time.perf_counter() - start
    failures = [(c.suite, c.name, c.detail) for c in report.checks if not c.ok]
    assert report.failed == 0 and not failures, (
        f"criterion 10 (end-to-end selftest): FAIL {failures}"
    )
    assert elapsed < 180.0, (
        f"criterion 10 (end-to-end selftest): FAIL (took {elapsed:.1f}s)"
    )
    print(f"criterion 10 (end-to-end selftest): PASS "
          f"[{report.passed} checks, {elapsed:.1f}s < 180s]")
