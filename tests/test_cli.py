"""Command-line front end: dispatch, exit codes, determinism, coverage audit."""

import hashlib
import json

import pytest

import ordercone
from ordercone.bands import is_directed_subspace, restrict_band
from ordercone.cli import main, parse_space_source, parse_vector
from ordercone.errors import ParseError, UnknownBuiltin

FOUR_RAY = ["--example", "four-ray"]

# Every public operation of the package, mapped to one CLI invocation that
# reaches it (directly or through the dispatched computation).  The audit
# asserts the mapping covers the whole operation surface and that every
# listed invocation succeeds.
OPERATION_ROUTES = {
    # space construction and order
    "parse_space_source": ["classify", *FOUR_RAY],
    "build_space": ["classify", *FOUR_RAY],
    "leq": ["rdp", *FOUR_RAY, "[1,0,1]", "[-1,0,1]", "[0,1,1]"],
    "upper_bound_polyhedron": ["sup", *FOUR_RAY, "[1,0,1]", "[-1,0,1]"],
    "sup_in_X": ["sup", *FOUR_RAY, "[1,0,1]", "[-1,0,1]"],
    # cover diagnostics
    "embed": ["disjoint", *FOUR_RAY, "[1,0,1]", "[-1,0,1]"],
    "modulus_dominates": ["disjoint", *FOUR_RAY, "[1,0,1]", "[-1,0,1]"],
    "is_majorizing": ["extend", *FOUR_RAY, "[1,0,1]"],
    # bands
    "is_disjoint": ["disjoint", *FOUR_RAY, "[1,0,1]", "[-1,0,1]"],
    "disjoint_eq1_oracle": ["disjoint", *FOUR_RAY, "[1,0,1]", "[-1,0,1]"],
    "disjoint_complement": ["dcomp", *FOUR_RAY, "[1,0,1]"],
    "band_of": ["band", *FOUR_RAY, "[1,0,1]"],
    "is_band": ["band", *FOUR_RAY, "--span", "[1,0,1]", "[-1,0,1]"],
    "enumerate_bands": ["bands", *FOUR_RAY],
    "principal_ideal_member": ["band", *FOUR_RAY, "[1,0,1]", "--member", "[2,0,2]"],
    "is_directed_subspace": ["band", *FOUR_RAY, "--span", "[1,0,1]", "[-1,0,1]"],
    "extend_band": ["extend", *FOUR_RAY, "[1,0,1]"],
    "restrict_band": ["restrict", *FOUR_RAY, "[2,3]"],
    "restriction_is_projection_band": ["restrict", *FOUR_RAY, "[2,3]"],
    # atoms and decompositions
    "atoms": ["atoms", *FOUR_RAY],
    "is_atom": ["atoms", *FOUR_RAY, "--probe", "[1,1,2]"],
    "is_discrete": ["atoms", *FOUR_RAY, "--probe", "[1,1,2]"],
    "classify": ["classify", *FOUR_RAY],
    "pervasive_witness_check": ["classify", *FOUR_RAY, "--witness-probe", "[-1,-1,-1]"],
    "atom_lambda": ["lambda", "--example", "simplex:2", "[3,5]", "[1,0]"],
    "decompose_by_atom": ["decompose", "--example", "simplex:2", "[3,5]", "[1,0]"],
    "is_projection_band": ["dcomp", "--example", "simplex:3", "[1,0,0]", "--check", "[[0,1,0],[0,0,1]]"],
    "enumerate_order_projections": ["projections", *FOUR_RAY],
    "rdp_split": ["rdp", *FOUR_RAY, "[1,0,1]", "[-1,0,1]", "[0,1,1]"],
    "check_ideal_decomposition": [
        "dcomp",
        "--example",
        "simplex:3",
        "[1,0,0]",
        "--check",
        "[[0,1,0],[0,0,1]]",
    ],
    # exact solvers, reached through the dispatched computations
    "solve_linear": ["decompose", "--example", "simplex:2", "[3,5]", "[1,0]"],
    "nullspace": ["restrict", *FOUR_RAY, "[2,3]"],
    "lp": ["extend", *FOUR_RAY, "[1,0,1]"],
    # sequence space
    "seq_is_member": ["seq-demo"],
    "seq_in_subspace": ["seq-demo"],
    "seq_decompose_BC": ["seq-demo"],
    "seq_is_disjoint": ["seq-demo"],
    "seq_join_in_C": ["seq-demo"],
    "seq_nonpervasive_witness": ["seq-demo"],
    "seq_B_complement_witness": ["seq-demo"],
    # front end
    "execute": ["classify", *FOUR_RAY],
    "run_selftest": ["selftest", "--filter", "four-ray"],
}

ALL_VERBS = {
    "classify",
    "atoms",
    "disjoint",
    "dcomp",
    "band",
    "bands",
    "projections",
    "lambda",
    "decompose",
    "rdp",
    "sup",
    "extend",
    "restrict",
    "seq-demo",
    "selftest",
}


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_every_operation_is_reachable_from_a_verb(capsys):
    for op, argv in OPERATION_ROUTES.items():
        assert callable(getattr(ordercone, op)), op
        code, _, err = run(argv, capsys)
        assert code == 0, f"{op}: {argv} failed with {err}"
    routed_verbs = {argv[0] for argv in OPERATION_ROUTES.values()}
    assert routed_verbs == ALL_VERBS


def test_classify_json_payload_exact(capsys):
    code, out, _ = run(["classify", *FOUR_RAY, "--json"], capsys)
    assert code == 0
    assert json.loads(out) == {
        "lattice": False,
        "pervasive": False,
        "fordable": False,
        "weaklyPervasive": {"violated": [["1", "0", "1"], ["0", "1", "1"]]},
        "rdp": False,
        "atoms": 4,
    }


def test_projections_four_ray_trivial_pair(capsys):
    code, out, _ = run(["projections", *FOUR_RAY, "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 2
    matrices = [p["matrix"] for p in payload["projections"]]
    zero = [["0", "0", "0"]] * 3
    eye = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    assert matrices == [zero, eye]


def test_json_output_is_byte_identical(capsys):
    for argv in (
        ["classify", *FOUR_RAY, "--json"],
        ["bands", *FOUR_RAY, "--json"],
        ["seq-demo", "--json"],
        ["sup", *FOUR_RAY, "[1,0,1]", "[-1,0,1]", "--json"],
    ):
        _, first, _ = run(argv, capsys)
        _, second, _ = run(argv, capsys)
        assert first == second


# sha256 of the --json stdout of `bands` and `projections`, pinned so that a
# change to the enumeration shows up as a changed payload.
GOLDEN_DIGESTS = {
    "four-ray": (
        "310ef874a69f38168909b05b49ff9dbc5648fd3d9eebf424ee128ab1bb916144",
        "ee40f1837f9796c4129e20adc0c6fe1efc805a061d24a2ed63d28d5ff85cac6a",
    ),
    "simplex:4": (
        "3494612145914c37431c82ce9952a6db7fa419889a4771dd31edfbd2a955980e",
        "c53006935b9011c0688369332a4516d3a45685a1649d4ee31394483d67b3ba96",
    ),
    "four-ray + four-ray": (
        "fbdcf2fe15237b9114459906df420e0e504d5da4829f08d45148acd2eae85d2d",
        "a817a79f77e5164211cb8501831d3e98b9cf28ff30fbf411d3655bfb95f9c94d",
    ),
}


def test_band_payloads_match_golden_digests(tmp_path, capsys):
    four_ray = [[1, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1]]
    summed = [g + [0, 0, 0] for g in four_ray] + [[0, 0, 0] + g for g in four_ray]
    space_file = tmp_path / "four-ray-sum.json"
    space_file.write_text(json.dumps({"dim": 6, "generators": summed}))
    sources = {
        "four-ray": FOUR_RAY,
        "simplex:4": ["--example", "simplex:4"],
        "four-ray + four-ray": ["--space", str(space_file)],
    }
    for name, source in sources.items():
        digests = tuple(
            hashlib.sha256(run([verb, *source, "--json"], capsys)[1].encode()).hexdigest()
            for verb in ("bands", "projections")
        )
        assert digests == GOLDEN_DIGESTS[name], name


def test_restrict_payload_on_every_support(tmp_path, capsys):
    # four-ray + a line in Q^4.  Any three four-ray rows span its Q^3, so the
    # restriction of J is a projection band iff J holds at most one four-ray
    # row (it kills that summand) or all four (it keeps it).
    gens = [[1, 0, 1, 0], [-1, 0, 1, 0], [0, 1, 1, 0], [0, -1, 1, 0], [0, 0, 0, 1]]
    space_file = tmp_path / "four-ray-line.json"
    space_file.write_text(json.dumps({"dim": 4, "generators": gens}))
    sp = parse_space_source(str(space_file))
    four, line = sorted(sp.components, key=len, reverse=True)
    assert (len(four), len(line)) == (4, 1)
    answers = set()
    for mask in range(1 << sp.m):
        J = [j for j in range(1, sp.m + 1) if mask >> (j - 1) & 1]
        code, out, _ = run(["restrict", "--space", str(space_file), json.dumps(J), "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["basis", "dim", "isBand", "directed", "isProjectionBand"]
        assert payload["directed"] == is_directed_subspace(sp, restrict_band(sp, J))
        assert payload["isProjectionBand"] == (len(four.intersection(J)) in (0, 1, 4)), J
        answers.add(payload["isProjectionBand"])
    assert answers == {True, False}


def test_json_payload_round_trips(capsys):
    for argv in (
        ["classify", *FOUR_RAY, "--json"],
        ["bands", *FOUR_RAY, "--json"],
        ["disjoint", *FOUR_RAY, "[1,0,1]", "[0,1,1]", "--json"],
        ["seq-demo", "--json"],
    ):
        _, out, _ = run(argv, capsys)
        payload = json.loads(out)
        assert json.loads(json.dumps(payload)) == payload


def test_timing_only_in_text_mode(capsys):
    _, text, _ = run(["classify", *FOUR_RAY], capsys)
    assert "elapsed:" in text
    _, machine, _ = run(["classify", *FOUR_RAY, "--json"], capsys)
    assert "elapsed" not in machine


def test_lambda_text_claims_no_lp_cross_check(capsys):
    code, text, _ = run(["lambda", "--example", "simplex:2", "[3,5]", "[1,0]"], capsys)
    assert code == 0
    assert "lambda: 3" in text
    assert "lpCrossChecked" not in text and "certificates:" not in text


def test_exit_codes(capsys):
    code, _, err = run(["classify", "--example", "bogus"], capsys)
    assert code == 2 and "bogus" in err
    code, _, err = run(["disjoint", *FOUR_RAY, "[1,0.5,1]", "[1,0,1]"], capsys)
    assert code == 2 and "rational" in err
    code, _, err = run(["lambda", *FOUR_RAY, "[1,0,1]", "[1,0,1]"], capsys)
    assert code == 1 and "NotPervasive" in err
    code, _, _ = run(["classify"], capsys)  # missing space source
    assert code == 2
    code, _, _ = run(["no-such-verb"], capsys)
    assert code == 2
    code, _, err = run(["band", *FOUR_RAY], capsys)  # neither vector nor span
    assert code == 2


def test_band_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("ORDERCONE_BAND_CAP", "3")
    code, _, err = run(["bands", *FOUR_RAY], capsys)
    assert code == 1 and "CapExceeded" in err
    monkeypatch.setenv("ORDERCONE_BAND_CAP", "4")
    code, _, _ = run(["bands", *FOUR_RAY, "--json"], capsys)
    assert code == 0
    monkeypatch.setenv("ORDERCONE_BAND_CAP", "not-a-number")
    code, _, err = run(["bands", *FOUR_RAY], capsys)
    assert code == 2


def test_space_files(tmp_path, capsys):
    good = tmp_path / "wedge.json"
    good.write_text('{"dim": 2, "generators": [[1, 0], ["1/2", 1]], "name": "wedge"}')
    code, out, _ = run(["classify", "--space", str(good), "--json"], capsys)
    assert code == 0 and json.loads(out)["lattice"] is True

    bad = tmp_path / "broken.json"
    bad.write_text('{"dim": 2,\n "generators": [[1, 0],]}')
    code, _, err = run(["classify", "--space", str(bad)], capsys)
    assert code == 2 and "line 2" in err

    degenerate = tmp_path / "flat.json"
    degenerate.write_text('{"dim": 2, "generators": [[1, 0]]}')
    code, _, err = run(["classify", "--space", str(degenerate)], capsys)
    assert code == 1 and "NotGenerating" in err


def test_huge_dimensions_are_refused_before_any_work(tmp_path, capsys):
    # The dimension bound refuses these before anything of that size is built.
    code, _, err = run(["classify", "--example", "simplex:10000000"], capsys)
    assert code == 2 and "between 1 and 256" in err
    code, _, err = run(["classify", "--example", "simplex:257"], capsys)
    assert code == 2
    huge = tmp_path / "huge.json"
    huge.write_text('{"dim": 10000000, "generators": [[1]]}')
    code, _, err = run(["classify", "--space", str(huge)], capsys)
    assert code == 2 and "between 1 and 256" in err


def test_dcomp_check_reports_non_solid_line(tmp_path, capsys):
    cone = tmp_path / "s.json"
    cone.write_text('{"dim": 2, "generators": [[2, 1], [1, 2]]}')
    argv = ["dcomp", "--space", str(cone), "[1,1]", "--check", "[[2,1]]", "--json"]
    code, out, err = run(argv, capsys)
    assert code == 0, err
    assert json.loads(out)["idealCheck"] == {
        "hypothesesNotMet": "B is not solid (modulus of [2/3, 1/3] is dominated by [1, 1])"
    }


def test_parse_space_source_builtins():
    assert parse_space_source("four-ray").m == 4
    assert parse_space_source("simplex:3").dim == 3
    with pytest.raises(ParseError):
        parse_space_source("simplex:x")
    with pytest.raises(UnknownBuiltin):
        ordercone.builtin_space("pentagon")


def test_parse_vector_rejects_malformed():
    assert parse_vector('["1/2", 3]') == (__import__("fractions").Fraction(1, 2), 3)
    for bad in ("{}", "[]", "[true]", "[1.5]", "[[1]]", "not json"):
        with pytest.raises(ParseError):
            parse_vector(bad)


def test_selftest_filter_runs_one_suite(capsys):
    code, out, _ = run(["selftest", "--filter", "four-ray", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["failed"] == 0
    assert {c["suite"] for c in payload["checks"]} == {"four-ray golden suite"}
    code, _, err = run(["selftest", "--filter", "no-such-suite"], capsys)
    assert code == 2


def test_selftest_corrupted_fixture_fails_and_names_invariant(capsys):
    code, out, _ = run(["selftest", "--debug-corrupt-facet"], capsys)
    assert code == 1
    assert "violated invariant" in out
    assert "facets do not match the cone generated by the generators" in out


def test_sup_and_rdp_payloads(capsys):
    _, out, _ = run(["sup", *FOUR_RAY, "[1,0,1]", "[-1,0,1]", "--json"], capsys)
    assert json.loads(out)["sup"] == ["0", "0", "2"]
    _, out, _ = run(["sup", *FOUR_RAY, "[1,0,1]", "[0,1,1]", "--json"], capsys)
    assert json.loads(out)["sup"] is None
    _, out, _ = run(
        ["rdp", "--example", "simplex:2", "[1,0]", "[0,1]", "[1,1]", "--json"], capsys
    )
    assert json.loads(out) == {"split": {"z1": ["1", "0"], "z2": ["0", "1"]}}


def test_seq_demo_certificates(capsys):
    _, out, _ = run(["seq-demo", "--json"], capsys)
    payload = json.loads(out)
    assert payload["joinInEventuallyZero"] == {
        "provedNone": {"infimumOfCandidates": "3/4"}
    }
    assert payload["witnesses"] == {
        "noPositiveElementUnderUnitBox": True,
        "complementGapIndex": -1,
    }
    assert payload["sampleDecomposition"]["shallowInB"] is True
    assert payload["sampleDecomposition"]["deepInC"] is True
    assert payload["disjointness"] == {
        "firstProbeVsShallowGenerator": False,
        "secondProbeVsShallowGenerator": True,
    }
