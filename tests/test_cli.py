"""Command-line front end: dispatch, exit codes, determinism, coverage audit."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordercone
import ordercone.cli
import ordercone.fixtures
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


def test_facets_cutting_out_only_the_origin_are_a_mismatch(tmp_path, capsys):
    # The five facets meet in the origin alone, so they cannot be the facets
    # of the cone the generators span.
    gens = [[2, 0, -1], [2, -1, -2], [0, 2, 1], [2, 2, 0], [2, -2, -1]]
    facets = [[-2, 0, 2], [1, 0, -2], [2, -1, -1], [-1, 1, 2], [2, -1, 0]]
    both = tmp_path / "both.json"
    both.write_text(json.dumps({"dim": 3, "generators": gens, "facets": facets}))
    for verb in ("classify", "bands", "projections"):
        code, _, err = run([verb, "--space", str(both)], capsys)
        assert code == 2 and "facets do not match" in err and "Traceback" not in err, verb
    alone = tmp_path / "facets.json"
    alone.write_text(json.dumps({"dim": 3, "facets": facets}))
    code, _, err = run(["classify", "--space", str(alone)], capsys)
    assert code == 1 and "NotGenerating" in err


def test_a_reader_that_closes_the_pipe_early_gets_no_traceback():
    # Nothing reads the output, so the report's print meets a closed pipe.
    src = Path(ordercone.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-m", "ordercone.cli", "bands", "--example", "simplex:8", "--json"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


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


# --- every verb's output, pinned --------------------------------------------------

# Space files for the pinned invocations.  Their names are fixed because the
# text report and some error messages print them.
PINNED_FILES = {
    "wedge.json": '{"dim": 2, "generators": [[1, 0], ["1/2", 1]], "name": "wedge"}',
    "s.json": '{"dim": 2, "generators": [[2, 1], [1, 2]]}',
    "broken.json": '{"dim": 2,\n "generators": [[1, 0],]}',
    "flat.json": '{"dim": 2, "generators": [[1, 0]]}',
}

SIMPLEX_2, SIMPLEX_3 = ["--example", "simplex:2"], ["--example", "simplex:3"]

# Every verb but selftest (its runtime budgets may flip on a loaded machine),
# every optional flag, and the error paths of test_exit_codes.  Each is run
# twice, in text mode and with --json appended.
PINNED_INVOCATIONS = [
    ["classify", *FOUR_RAY],
    ["classify", *FOUR_RAY, "--witness-probe", "[-1,-1,-1]"],
    ["classify", *SIMPLEX_3, "--witness-probe", "[1,1,1]"],
    ["classify", "--space", "wedge.json"],
    ["atoms", *FOUR_RAY],
    ["atoms", *FOUR_RAY, "--probe", "[1,1,2]"],
    ["atoms", *SIMPLEX_3, "--probe", "[1,0,0]"],
    ["disjoint", *FOUR_RAY, "[1,0,1]", "[-1,0,1]"],
    ["disjoint", *FOUR_RAY, "[1,0,1]", "[0,1,1]"],
    ["dcomp", *FOUR_RAY, "[1,0,1]", "[0,1,1]"],
    ["dcomp", *SIMPLEX_3, "[1,0,0]", "--check", "[[0,1,0],[0,0,1]]"],
    ["dcomp", "--space", "s.json", "[1,1]", "--check", "[[2,1]]"],
    ["band", *FOUR_RAY, "[1,0,1]"],
    ["band", *FOUR_RAY, "[1,0,1]", "--member", "[2,0,2]"],
    ["band", *FOUR_RAY, "--span", "[1,0,1]", "[-1,0,1]"],
    ["bands", *FOUR_RAY],
    ["bands", *SIMPLEX_3],
    ["projections", *FOUR_RAY],
    ["projections", *SIMPLEX_2],
    ["lambda", *SIMPLEX_2, "[3,5]", "[1,0]"],
    ["decompose", *SIMPLEX_2, "[3,5]", "[1,0]"],
    ["rdp", *FOUR_RAY, "[1,0,1]", "[-1,0,1]", "[0,1,1]"],
    ["rdp", *SIMPLEX_2, "[1,0]", "[0,1]", "[1,1]"],
    ["sup", *FOUR_RAY, "[1,0,1]", "[-1,0,1]"],
    ["sup", *FOUR_RAY, "[1,0,1]", "[0,1,1]"],
    ["extend", *FOUR_RAY, "[1,0,1]"],
    ["restrict", *FOUR_RAY, "[2,3]"],
    ["restrict", "--space", "wedge.json", "[1]"],
    ["seq-demo"],
    # error paths
    ["classify", "--example", "bogus"],
    ["disjoint", *FOUR_RAY, "[1,0.5,1]", "[1,0,1]"],
    ["lambda", *FOUR_RAY, "[1,0,1]", "[1,0,1]"],
    ["classify"],
    ["no-such-verb"],
    ["band", *FOUR_RAY],
    ["band", *FOUR_RAY, "[1,0,1]", "--span", "[1,0,1]"],
    ["band", *FOUR_RAY, "--span", "[1,0,1]", "--member", "[1,0,1]"],
    ["classify", "--example", "simplex:257"],
    ["classify", "--space", "broken.json"],
    ["classify", "--space", "flat.json"],
    ["classify", "--space", "missing.json"],
    ["atoms", *FOUR_RAY, "--probe", "[]"],
    ["dcomp", *SIMPLEX_3, "[1,0,0]", "--check", "[1,0,0]"],
    ["restrict", *FOUR_RAY, "[1,true]"],
    ["sup", *FOUR_RAY, "[1,0,1", "[0,1,1]"],
]


def pinned_observation(argv, tmp_path, capsys):
    """(exit code, stderr, sha256 of --json stdout, sha256 of text stdout without `elapsed:`)."""
    argv = [str(tmp_path / a) if a in PINNED_FILES or a == "missing.json" else a for a in argv]
    code, out_json, err_json = run([*argv, "--json"], capsys)
    code_text, out_text, err = run(argv, capsys)
    assert (code_text, err) == (code, err_json), argv
    text = "".join(line for line in out_text.splitlines(keepends=True) if not line.startswith("elapsed:"))
    return (
        code,
        err.replace(str(tmp_path), "<tmp>"),
        hashlib.sha256(out_json.encode()).hexdigest(),
        hashlib.sha256(text.encode()).hexdigest(),
    )


def write_pinned_files(tmp_path):
    for name, text in PINNED_FILES.items():
        (tmp_path / name).write_text(text)


# (exit code, stderr, sha256 of --json stdout, sha256 of text stdout), taken at
# the commit before the front end declared its conversions on argparse.
PINNED_OUTPUT = {
    "classify --example four-ray": (
        0,
        "",
        "6dd6396fcc271d5acae8e6cfb0a79a74a19975c0ea32255cd8ca56f77e3318b5",
        "75f1aeee3b25831dd7f7d4631d42c39eb5682636568e32e8ea050287cfba1819",
    ),
    "classify --example four-ray --witness-probe [-1,-1,-1]": (
        0,
        "",
        "6dd6396fcc271d5acae8e6cfb0a79a74a19975c0ea32255cd8ca56f77e3318b5",
        "2cccf785bafb427cb2aea562968138eec6dfdfe3d879ee9458bcce7d15be333d",
    ),
    "classify --example simplex:3 --witness-probe [1,1,1]": (
        0,
        "",
        "62fe2bf849d062e76873b91a52642852eade1792366fb1624e4922eece51d1d6",
        "ebf4e3abbed24e80f7dc30dcc7b171c6d3bacc1d952f7bb116567a8ce514d0f1",
    ),
    "classify --space wedge.json": (
        0,
        "",
        "544b55bba7462f81a608111ae4c1a22ea54fbaa327a24af79ee1062f44ba0936",
        "c42a12a8d87c4024c613672af48a31cb0b2ea494a48e984e161b8b7c02e5fb50",
    ),
    "atoms --example four-ray": (
        0,
        "",
        "380c253ccc0ed6c1f9f13f0663bc1c8ae7555ec789ee746546deca73d6b2c6e7",
        "2a0f8cb7e90827e6ade439a240ccc24a63b87fddabba0e17b0459d558b5d0e5f",
    ),
    "atoms --example four-ray --probe [1,1,2]": (
        0,
        "",
        "56abfb773d9ef7b375e05abd0cb7860bcb8d3c46649c4632f588381ea1d78c08",
        "0b82b447f5d39cff81531b366409e5e5dc3e7685f082413600bf203b839cd853",
    ),
    "atoms --example simplex:3 --probe [1,0,0]": (
        0,
        "",
        "a8b1fe956dc25c0f4ecd04193aecaaee27a5fbab1f6fad693c1416338c0f2c61",
        "ccddfe0e405aa94f03fcb3c8a4501fd408778dbf0249b56068ccb3c0461116c0",
    ),
    "disjoint --example four-ray [1,0,1] [-1,0,1]": (
        0,
        "",
        "7b377c43553c5b1220a35f196ebb8ba4b72eae242d3502acdeae3ff07e956b51",
        "61f08822aca811cdda3026eca6087752f1305266dbc63ab2332d18d5279aab2c",
    ),
    "disjoint --example four-ray [1,0,1] [0,1,1]": (
        0,
        "",
        "415287e5cd1a02908c5736dfc7c44a0d55c6058e1444d9ad87bb970303d6721f",
        "beeb435b315306119337d88ec1408169560cb0efb7f1860ba8d07f3f21419cb2",
    ),
    "dcomp --example four-ray [1,0,1] [0,1,1]": (
        0,
        "",
        "dfa5ac7e35f08f20940f62243135c16265256fda5ff42f271ce59f7c63d7769f",
        "132d9bb60ab6679b10699688b7f036924055596a8c20c02c24d138e9de3d5477",
    ),
    "dcomp --example simplex:3 [1,0,0] --check [[0,1,0],[0,0,1]]": (
        0,
        "",
        "b99c3c5145aa0c79af8da5eb6337f7ef8d205032be3819be058a638753990fdd",
        "74df8dafa46f9ef14af840a7e4aae442f7cb38a092678ced5b2d74010648bd5b",
    ),
    "dcomp --space s.json [1,1] --check [[2,1]]": (
        0,
        "",
        "7dab7a3b55fb918e6f704cd6e3bdc553a30ac815dbd948986444cc026ae4ac0b",
        "8d1a192d26914f1114552a205189f0788ac9e74afd5e48f542543ebb5cd34d99",
    ),
    "band --example four-ray [1,0,1]": (
        0,
        "",
        "4a56ede2666c88c6099b383aaba1c41955fd20381843de799dfc5a305bfd7b67",
        "78cf58a184d6e240aa5dd9910dff9db4109699b6604fe17ba30a4015d3e687b2",
    ),
    "band --example four-ray [1,0,1] --member [2,0,2]": (
        0,
        "",
        "d7bc0f49d61680155619d6772d14f3c512c3dd3589d13d131a1fb06c84e258a5",
        "4beea4c958b277b99a7390fdef2af1f54522a113bec554168e3663397c51c236",
    ),
    "band --example four-ray --span [1,0,1] [-1,0,1]": (
        0,
        "",
        "0bdcd821308eec7058c88ca05b719700f968150361dfe2cfd668c22868835859",
        "5bb61244667fb7705a0a2c1d5007a73bc7fedc1941bf30a1335a5b6109c40510",
    ),
    "bands --example four-ray": (
        0,
        "",
        "310ef874a69f38168909b05b49ff9dbc5648fd3d9eebf424ee128ab1bb916144",
        "a16fd4ed65916d5e47ae94617ef786e23956f4728d8f53319e369447b0f0892e",
    ),
    "bands --example simplex:3": (
        0,
        "",
        "9847604fc49942016a418abc7729c0cb4ef7208e8f9e94bebbe292ef4b8333da",
        "184d493de311242713a9dd59d5c963579c5c703b203dd4694a5eb9433e8ff780",
    ),
    "projections --example four-ray": (
        0,
        "",
        "ee40f1837f9796c4129e20adc0c6fe1efc805a061d24a2ed63d28d5ff85cac6a",
        "7cb98a21279add3b529b1dee6c5ee5149dc3259bbadef44fdd34eae6b5d65480",
    ),
    "projections --example simplex:2": (
        0,
        "",
        "774ed2336035d5a71864606ebb0ec80bacc17c49400605f6e3cf0c5daebff519",
        "0e5f9ea5edb38b53c0e7983b491396fad471fe3583f85ab6565416fe40c14721",
    ),
    "lambda --example simplex:2 [3,5] [1,0]": (
        0,
        "",
        "bfd15ad1a9c11030b77a9f3314a91fd5cdbe049096d3678e2c697cddb3cff735",
        "6b33d511b5c9d411f27b1c6f68141d8b2a0a7f695227febe39e567ffbcc02cf3",
    ),
    "decompose --example simplex:2 [3,5] [1,0]": (
        0,
        "",
        "315a2ba5a26bfbf69a9bd044958c312820f82c48ad7d41391e8d9799a9e33511",
        "10b857b3b01a7f2e381a66feb5a7a61f109ea2da1c5f2169052e4b2426420f8c",
    ),
    "rdp --example four-ray [1,0,1] [-1,0,1] [0,1,1]": (
        0,
        "",
        "9f597a2fe25cb8a041c6fc9b5aaf845c3bf855b8d21160f0c352d81c97861d19",
        "a92fd5bd4ab74ae6101fe5bc1fd08affe8c4204f635955fc5737afd631b17cd9",
    ),
    "rdp --example simplex:2 [1,0] [0,1] [1,1]": (
        0,
        "",
        "f0c1f0c250f7fbdda63778db376397da495fab7f8ad382892745b743d8c19ac0",
        "fbde0acd2febb697c0439bea06cacdc655ff20571fa71f999f9b3002b8c4ea7d",
    ),
    "sup --example four-ray [1,0,1] [-1,0,1]": (
        0,
        "",
        "071acb6224489bf2514be2092908d25948aec388d248b1f606ea56eb0377d6cd",
        "ef948a8265f3d2452ae12441f1f1c4875033b728c3159b3fd5b428eb2f901dc5",
    ),
    "sup --example four-ray [1,0,1] [0,1,1]": (
        0,
        "",
        "b1b03aa7dd26a139ca21f85f076f0ac51c0e0f51fdadd86c3210d10320cfe8ab",
        "6fb1484dd986e9dd6de9ea8551a729a3781e259786ffce3968479b7aed6b9472",
    ),
    "extend --example four-ray [1,0,1]": (
        0,
        "",
        "31d356ac06ef49fc7acd5b8601e53acb3f0d9eb1d47f9510819c5d5ae92aae24",
        "c005347fa182370cc0e0664adb1e5c443699c5a75263d7a89feb103fe61eab61",
    ),
    "restrict --example four-ray [2,3]": (
        0,
        "",
        "4388db774083140d656bbf5e8e95a019ed0ec176b4f17c6de97ab9f15d9655c5",
        "d70207ac36d69b9ae7edd85728dab07f3d0d705d002cacbee3d55e60e817fe47",
    ),
    "restrict --space wedge.json [1]": (
        0,
        "",
        "c87eb07836bb3fdbc14b8f131d5dbbb5e56c4f0402648bf765cd7373594c85b8",
        "4b4791d4298b0a4529f1e37f20ab951e4d602ba17c29695e8cde9b7904570d59",
    ),
    "seq-demo": (
        0,
        "",
        "22dc2a3a9ad2f5211e38a7927588bf843f0990441cd025db0289b1db31e31bf9",
        "fab7d0cef694de9d5bfb9d7ab229a67429cdd234740793fcbf3bf5322ae9cdff",
    ),
    "classify --example bogus": (
        2,
        "error: unknown builtin space 'bogus'\n",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "disjoint --example four-ray [1,0.5,1] [1,0,1]": (
        2,
        "error: not an exact rational: 0.5 (floats are rejected)\n",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "lambda --example four-ray [1,0,1] [1,0,1]": (
        1,
        "error: NotPervasive: the atomic scaling coefficient needs a pervasive space\n",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "classify": (
        2,
        (
            "usage: ordercone classify [-h] (--example NAME | --space FILE) [--json] [--witness-probe"
            " VEC]\n"
            "ordercone classify: error: one of the arguments --example --space is required\n"
        ),
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "no-such-verb": (
        2,
        (
            "usage: ordercone [-h] verb ...\n"
            "ordercone: error: argument verb: invalid choice: 'no-such-verb' (choose from 'classify',"
            " 'atoms', 'disjoint', 'dcomp', 'band', 'bands', 'projections', 'lambda', 'decompose', 'r"
            "dp', 'sup', 'extend', 'restrict', 'seq-demo', 'selftest')\n"
        ),
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "band --example four-ray": (
        2,
        "error: band needs either a vector or --span, not both\n",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "band --example four-ray [1,0,1] --span [1,0,1]": (
        2,
        "error: band needs either a vector or --span, not both\n",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "band --example four-ray --span [1,0,1] --member [1,0,1]": (
        2,
        "error: --member only applies to a principal band\n",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "classify --example simplex:257": (
        2,
        "error: simplex dimension must be between 1 and 256, got 257\n",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "classify --space broken.json": (
        2,
        "error: malformed JSON in <tmp>/broken.json at line 2, column 24: Expecting value\n",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "classify --space flat.json": (
        1,
        "error: NotGenerating: generators span a rank-1 subspace of Q^2\n",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "classify --space missing.json": (
        2,
        (
            "error: cannot read space file <tmp>/missing.json: [Errno 2] No such file or directory: '"
            "<tmp>/missing.json'\n"
        ),
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "atoms --example four-ray --probe []": (
        2,
        "error: a vector is a nonempty JSON array, got '[]'\n",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "dcomp --example simplex:3 [1,0,0] --check [1,0,0]": (
        2,
        "error: expected a JSON array of vectors, got '[1,0,0]'\n",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "restrict --example four-ray [1,true]": (
        2,
        "error: index True is not an integer\n",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "sup --example four-ray [1,0,1 [0,1,1]": (
        2,
        "error: bad vector literal '[1,0,1': Expecting ',' delimiter\n",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
}


def test_every_verb_output_is_pinned(tmp_path, capsys, monkeypatch):
    # argparse wraps its usage lines to the terminal width.
    monkeypatch.setenv("COLUMNS", "100")
    monkeypatch.delenv("ORDERCONE_BAND_CAP", raising=False)
    write_pinned_files(tmp_path)
    observed = {" ".join(argv): pinned_observation(argv, tmp_path, capsys) for argv in PINNED_INVOCATIONS}
    assert observed == PINNED_OUTPUT


# --- hostile input ----------------------------------------------------------------

# One vector of the wrong length for each verb and flag that takes vectors.
WRONG_LENGTH = {
    "disjoint": ["disjoint", *FOUR_RAY, "[1,0]", "[1,0,1]"],
    "atoms --probe": ["atoms", *FOUR_RAY, "--probe", "[1,1]"],
    "classify --witness-probe": ["classify", *FOUR_RAY, "--witness-probe", "[1,1,1,1]"],
    "dcomp": ["dcomp", *FOUR_RAY, "[1,0,1]", "[1,0]"],
    "dcomp --check": ["dcomp", *FOUR_RAY, "[1,0,1]", "--check", "[[0,1]]"],
    "band": ["band", *FOUR_RAY, "[1,0]"],
    "band --span": ["band", *FOUR_RAY, "--span", "[1,0,1]", "[1,0]"],
    "band --member": ["band", *FOUR_RAY, "[1,0,1]", "--member", "[2,0]"],
    "lambda": ["lambda", *SIMPLEX_2, "[3,5]", "[1,0,0]"],
    "decompose": ["decompose", *SIMPLEX_2, "[3,5,1]", "[1,0]"],
    "rdp": ["rdp", *FOUR_RAY, "[1,0,1]", "[-1,0,1]", "[0,1]"],
    "sup": ["sup", *FOUR_RAY, "[1,0,1]", "[-1,0,1,4]"],
    "extend": ["extend", *FOUR_RAY, "[1,0,1,0]"],
}


@pytest.mark.parametrize("argv", WRONG_LENGTH.values(), ids=WRONG_LENGTH.keys())
def test_wrong_length_vector_exits_2(argv, capsys):
    code, _, err = run(argv, capsys)
    assert code == 2 and "dimension" in err and "Traceback" not in err


LONG_INT = "9" * 5000  # over Python's 4300-digit limit on int() of a string
DEEP = "[" * 5000  # deeper than json's recursion limit


@pytest.mark.parametrize("literal", [f"[{LONG_INT},0]", DEEP], ids=["long-int", "deep"])
def test_hostile_json_literals_exit_2(literal, tmp_path, capsys):
    for argv in (
        ["atoms", *SIMPLEX_2, "--probe", literal],
        ["dcomp", *SIMPLEX_2, "[1,0]", "--check", f"[{literal}]"],
        ["restrict", *SIMPLEX_2, literal],
    ):
        code, _, err = run(argv, capsys)
        assert code == 2 and err.startswith("error: bad ") and len(err) < 300, argv
    space_file = tmp_path / "hostile.json"
    space_file.write_text(f'{{"dim": 2, "generators": [{literal}]}}')
    code, _, err = run(["classify", "--space", str(space_file)], capsys)
    assert code == 2 and err.startswith("error: cannot parse space file") and len(err) < 300


def test_each_space_is_built_once(tmp_path, capsys, monkeypatch):
    calls = []
    real = ordercone.fixtures.build_space

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(ordercone.fixtures, "build_space", counting)
    monkeypatch.setattr(ordercone.cli, "build_space", counting)
    space_file = tmp_path / "wedge.json"
    space_file.write_text(PINNED_FILES["wedge.json"])
    for argv in (
        ["classify", "--example", "simplex:3"],
        ["bands", *FOUR_RAY],
        ["classify", "--space", str(space_file)],
    ):
        calls.clear()
        code, _, _ = run(argv, capsys)
        assert code == 0 and len(calls) == 1, argv


# Small JSON values: bounded integers, short strings, short nested lists and
# objects whose keys are mostly the space-file fields.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.sampled_from(["1/2", "-2", "x", "1.5"]) | st.floats(-2, 2),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["dim", "generators", "facets", "name", "other"]), inner, max_size=4),
    max_leaves=12,
)


def space_fields(dim):
    rows = st.lists(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim), max_size=5)
    return st.fixed_dictionaries({"dim": st.just(dim)}, optional={"generators": rows, "facets": rows})


SPACE_FILES = JSON_VALUES | st.integers(0, 3).flatmap(space_fields)
VECTOR_TEXTS = st.text(max_size=12) | st.lists(st.integers(-3, 3), min_size=1, max_size=4).map(json.dumps)


def run_quietly(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(text=VECTOR_TEXTS)
def test_any_vector_text_exits_cleanly(text):
    assert run_quietly(["atoms", *SIMPLEX_2, "--probe", text, "--json"]) in (0, 1, 2)
    assert run_quietly(["disjoint", *SIMPLEX_2, text, "[1,0]", "--json"]) in (0, 1, 2)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=SPACE_FILES)
def test_any_space_file_exits_cleanly(data, tmp_path_factory):
    space_file = tmp_path_factory.getbasetemp() / "property-space.json"
    space_file.write_text(json.dumps(data))
    assert run_quietly(["atoms", "--space", str(space_file), "--json"]) in (0, 1, 2)
