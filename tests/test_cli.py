import json
import os
import subprocess
import sys

import pytest

import lefpen
from lefpen.cli import build_parser, main

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


@pytest.fixture()
def torus2(tmp_path):
    path = tmp_path / "torus2.json"
    path.write_text(json.dumps({"fiber": {"model": "torus"}, "cycles": [[1, 0], [0, 1]]}))
    return str(path)


@pytest.fixture()
def torus4(tmp_path):
    path = tmp_path / "torus4.json"
    path.write_text(
        json.dumps({"fiber": {"model": "torus"}, "cycles": [[1, 0], [0, 1], [1, 0], [0, 1]]})
    )
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def assert_one_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


def test_validate_ok(capsys, torus4):
    code, doc = run(capsys, ["pencil", "validate", torus4])
    assert code == 0 and doc["ok"] and doc["r"] == 4


def test_validate_closed_exit_codes(capsys, torus2, tmp_path):
    code, doc = run(capsys, ["pencil", "validate", torus2, "--closed"])
    assert code == 1 and doc["closed"] is False
    closed = tmp_path / "closed.json"
    closed.write_text(json.dumps({"fiber": {"model": "torus"}, "cycles": [[1, 0], [0, 1]] * 6}))
    code, doc = run(capsys, ["pencil", "validate", str(closed), "--closed"])
    assert code == 0 and doc["closed"] is True


def test_validate_malformed_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"fiber": {"model": "torus"}, "cycles": [[1]]}))
    assert main(["pencil", "validate", str(bad)]) == 2
    capsys.readouterr()
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{")
    assert main(["pencil", "validate", str(notjson)]) == 2
    capsys.readouterr()


def test_hurwitz_move(capsys, torus2, tmp_path):
    out = tmp_path / "moved.json"
    code, doc = run(capsys, ["pencil", "hurwitz", torus2, "--braid", "s1", "--out", str(out)])
    assert code == 0
    moved = json.loads(out.read_text())
    assert moved["cycles"] == [[0, 1], [1, -1]]
    assert moved["total_monodromy_preserved"] is True
    # the redirected report is itself a loadable pencil file
    assert main(["pencil", "validate", str(out)]) == 0
    capsys.readouterr()


def test_hurwitz_strand_mismatch(capsys, torus2):
    assert main(["pencil", "hurwitz", torus2, "--braid", "s3"]) == 2
    capsys.readouterr()


def test_matching_listing(capsys, torus4):
    code, doc = run(capsys, ["pencil", "matching", torus4, "--max-len", "1"])
    assert code == 0
    classes = {(row["base"], row["carrier"]): row["class"] for row in doc["arcs"]}
    assert classes[(1, "")] == "OnceIntersecting"
    assert "Matching" in set(classes.values())
    matching_rows = [r for r in doc["arcs"] if r["class"] == "Matching"]
    for row in matching_rows:
        assert row["labels"][0] == row["labels"][1]


def test_matching_r1_empty(capsys, tmp_path):
    p1 = tmp_path / "r1.json"
    p1.write_text(json.dumps({"fiber": {"model": "torus"}, "cycles": [[1, 0]]}))
    code, doc = run(capsys, ["pencil", "matching", str(p1), "--max-len", "0"])
    assert code == 0 and doc["arcs"] == []


def test_matching_trust_algebraic(capsys, tmp_path):
    sp = tmp_path / "sp.json"
    sp.write_text(
        json.dumps(
            {"fiber": {"model": "sp", "genus": 2}, "cycles": [[1, 0, 0, 0], [0, 0, 1, 0]]}
        )
    )
    code, doc = run(capsys, ["pencil", "matching", str(sp), "--max-len", "0"])
    assert doc["arcs"][0]["class"].startswith("Other")
    code, doc = run(capsys, ["pencil", "matching", str(sp), "--max-len", "0", "--trust-algebraic"])
    assert doc["arcs"][0]["class"] == "DisjointPair"


def test_gamma_check(capsys, torus4, tmp_path):
    good = tmp_path / "auto.json"
    good.write_text(json.dumps({"braid": "S2 s1 s2", "fiber_element": [1, 0, 0, 1]}))
    code, doc = run(capsys, ["pencil", "gamma-check", torus4, "--auto", str(good)])
    assert code == 0 and doc["in_gamma"] is True
    bad = tmp_path / "auto_bad.json"
    bad.write_text(json.dumps({"braid": "s1", "fiber_element": [1, 0, 0, 1]}))
    code, doc = run(capsys, ["pencil", "gamma-check", torus4, "--auto", str(bad)])
    assert code == 1 and doc["in_gamma"] is False
    assert doc["violation"]["generator"] >= 1 and "lhs" in doc["violation"]


def test_verify_cutoff(capsys):
    code, doc = run(capsys, ["verify", "cutoff", "--k", "10000", "--D", "1", "--c0", "1"])
    assert code == 0 and doc["ok"]
    assert doc["eps"] == pytest.approx(0.099158, abs=1e-6)
    assert doc["slope"]["ok"]


def test_verify_cutoff_near_float_range(capsys):
    # k^1.5 = 1e300 still fits a float: no usage error and no warning
    assert main(["verify", "cutoff", "--k", "1e200", "--D", "1"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["ok"] and captured.err == ""


def test_verify_cutoff_threshold_exit_2(capsys):
    assert main(["verify", "cutoff", "--k", "50", "--D", "1", "--c0", "1"]) == 2
    err = capsys.readouterr().err
    assert "96.81" in err


def test_verify_radial(capsys):
    code, doc = run(capsys, ["verify", "radial", "--samples", "50", "--seed", "1"])
    assert code == 0 and doc["ok"]
    assert all(v < 1e-6 for v in doc["worst_errors"].values())


def test_verify_deform(capsys):
    code, doc = run(capsys, ["verify", "deform", "--k", "1000", "--D", "1"])
    assert code == 0 and doc["ok"]
    assert doc["etaObserved"] > 0
    assert doc["fd_check"]["max_rel_err"] < 1e-5


def test_verify_localtrans(capsys):
    code, doc = run(capsys, ["verify", "localtrans", "--seed", "1", "--trials", "4"])
    assert code == 0 and doc["successes"] == 4
    assert doc["sigma"] == pytest.approx(0.0188611, abs=1e-6)
    for cert in doc["certificates"]:
        assert cert["ok"] and cert["margin"] >= doc["sigma"]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "cutoff", "--k", "nan", "--D", "1"],
        ["verify", "cutoff", "--k", "10000", "--D", "-1"],
        ["verify", "localtrans", "--seed", "1", "--trials", "2", "--delta", "0.7"],
        ["verify", "localtrans", "--seed", "1", "--trials", "2", "--kappa", "1.5"],
        ["verify", "localtrans", "--seed", "1", "--trials", "0"],
        ["verify", "radial", "--samples", "0"],
        ["verify", "localtrans", "--seed", "-1", "--trials", "1"],
        ["verify", "radial", "--samples", "2", "--seed", "-1"],
        ["verify", "cutoff", "--k", "1e300", "--D", "1"],
        ["verify", "cutoff", "--k", "1e10", "--D", "1e300"],
        ["verify", "cutoff", "--k", "1e10", "--D", "1", "--c0", "1e-300"],
        ["verify", "cutoff", "--k", "1e200", "--D", "1", "--c0", "1e40"],
        ["verify", "cutoff", "--k", "1e4", "--D", "1e-200"],
        ["verify", "deform", "--k", "1e300", "--D", "1"],
        ["verify", "localtrans", "--seed", "1", "--trials", "1", "--pexp", "100000"],
        ["verify", "localtrans", "--seed", "1", "--trials", "1", "--delta", "1e-320"],
        ["verify", "localtrans", "--seed", "1", "--trials", "1", "--pexp", "1" + "0" * 320],
        ["verify", "cutoff", "--k", "1e4", "--D", "0.1"],
        ["verify", "deform", "--k", "1e4", "--D", "0.1"],
        ["verify", "cutoff", "--k", "1e-100", "--D", "2e-99", "--c0", "5e-46"],
        ["verify", "deform", "--k", "1000", "--D", "1", "--n", "17"],
        ["verify", "deform", "--k", "1000", "--D", "1", "--n", "1000000"],
        ["verify", "localtrans", "--seed", "1", "--trials", "3", "--kappa", "1e-3"],
        ["pencil", "validate", os.path.join(DATA, "pencil_disc3_arabic_indic_digit.json")],
        ["pencil", "hurwitz", os.path.join(DATA, "pencil_torus_abab.json"), "--braid", "s\u0663"],
        ["pencil", "hurwitz", os.path.join(DATA, "pencil_torus_abab.json"), "--braid", "s7 S7"],
        ["pencil", "hurwitz", os.path.join(DATA, "pencil_torus_abab.json"), "--braid", "s0 s0"],
    ],
    ids=[
        "cutoff-k-nan",
        "cutoff-D-negative",
        "localtrans-delta",
        "localtrans-kappa",
        "zero-trials",
        "zero-samples",
        "localtrans-negative-seed",
        "radial-negative-seed",
        "cutoff-k-overflow",
        "cutoff-D-overflow",
        "cutoff-c0-tiny",
        "cutoff-c0-overflow",
        "cutoff-D-tiny",
        "deform-k-overflow",
        "localtrans-sigma-pexp",
        "localtrans-sigma-delta",
        "localtrans-pexp-beyond-float",
        "cutoff-eps-negative",
        "deform-eps-negative",
        "cutoff-eps-negative-overflow",
        "deform-n-beyond-block",
        "deform-n-huge",
        "localtrans-kappa-degenerate-graph",
        "validate-disc-cycle-arabic-indic-digit",
        "hurwitz-braid-arabic-indic-digit",
        "hurwitz-braid-cancelled-range",
        "hurwitz-braid-cancelled-zero",
    ],
)
def test_bad_input_exits_2_with_one_error_line(capsys, argv):
    assert main(argv) == 2
    assert_one_error_line(capsys)


def test_degenerate_graph_line_names_kappa(capsys):
    # q is scaled to sup 1 - kappa on the 101 grid's 7845 points; the 201 graph grid sees more
    assert main(["verify", "localtrans", "--seed", "1", "--trials", "3", "--kappa", "1e-3"]) == 2
    line = assert_one_error_line(capsys)
    assert line.startswith("error: instance 0: the graph equation degenerates: max |q| = 1.00")
    assert line.endswith(
        ">= 1 on 31417 points, where q was scaled to a sampled sup of 1 - kappa = 0.999 (kappa = 0.001) on 7845 points"
    )


GOOD_PENCIL = {"fiber": {"model": "torus"}, "cycles": [[1, 0], [0, 1]]}
GOOD_AUTO = {"braid": "s1", "fiber_element": [1, 0, 0, 1]}
BAD_PENCILS = {
    "fiber-string": {"fiber": "torus", "cycles": [[1, 0], [0, 1]]},
    "cycles-number": {"fiber": {"model": "torus"}, "cycles": 5},
    "sp-without-genus": {"fiber": {"model": "sp"}, "cycles": [[1, 0], [0, 1]]},
    "disc-without-punctures": {"fiber": {"model": "disc"}, "cycles": ["x1 x2"]},
    "cycle-float": {"fiber": {"model": "torus"}, "cycles": [[1.5, 0], [0, 1]]},
    "cycle-bool": {"fiber": {"model": "torus"}, "cycles": [[True, 0], [0, 1]]},
    "disc-cycle-cancelled-range": {"fiber": {"model": "disc", "punctures": 3}, "cycles": ["x9 X9 x1 x2"]},
}
BAD_AUTOS = {
    "braid-number": {"braid": 5, "fiber_element": [1, 0, 0, 1]},
    "matrix-float": {"braid": "s1", "fiber_element": [1.0, 0, 0, 1]},
    "matrix-not-symplectic": {"braid": "s1", "fiber_element": [2, 0, 0, 1]},
    "braid-cancelled-range": {"braid": "s5 S5", "fiber_element": [1, 0, 0, 1]},
}
PENCIL_COMMANDS = {
    "validate": [],
    "hurwitz": ["--braid", "s1"],
    "matching": ["--max-len", "1"],
    "gamma-check": ["--auto"],  # the automorphism file's path follows
}
# "x1 x3" is no round range curve, so nothing can twist about it and the loader rejects it
UNTWISTABLE = {"fiber": {"model": "disc", "punctures": 3}, "cycles": ["x1 x3", "x2 x3"]}
MALFORMED = [
    pytest.param(command, doc, GOOD_AUTO, PENCIL_COMMANDS[command], id="%s-%s" % (command, name))
    for name, doc in BAD_PENCILS.items()
    for command in PENCIL_COMMANDS
] + [
    pytest.param("gamma-check", GOOD_PENCIL, doc, ["--auto"], id="gamma-check-" + name)
    for name, doc in BAD_AUTOS.items()
] + [
    # a disc cycle with no pushforward presentation has no Dehn twist
    pytest.param(
        "matching",
        {"fiber": {"model": "disc", "punctures": 3}, "cycles": ["x1 x3", "x2", "x1 x2"]},
        GOOD_AUTO,
        ["--max-len", "1"],
        id="matching-untwistable-disc-cycle",
    ),
] + [
    # every command exits 2, even one that would twist by the identity or not at all
    pytest.param("gamma-check", UNTWISTABLE, {"braid": b, "fiber_element": ""}, ["--auto"], id="gamma-check-untwistable-" + name)
    for name, b in (("identity", ""), ("s1", "s1"))
] + [
    pytest.param("validate", UNTWISTABLE, GOOD_AUTO, [], id="validate-untwistable"),
    pytest.param("validate", UNTWISTABLE, GOOD_AUTO, ["--closed"], id="validate-closed-untwistable"),
    pytest.param("hurwitz", UNTWISTABLE, GOOD_AUTO, ["--braid", "s1"], id="hurwitz-untwistable"),
    pytest.param("matching", GOOD_PENCIL, GOOD_AUTO, ["--max-len", "-1"], id="matching-negative-max-len"),
]


@pytest.mark.parametrize("command, pencil, auto, args", MALFORMED)
def test_malformed_documents_exit_2_with_one_error_line(capsys, tmp_path, command, pencil, auto, args):
    pencil_path, auto_path = tmp_path / "pencil.json", tmp_path / "auto.json"
    pencil_path.write_text(json.dumps(pencil))
    auto_path.write_text(json.dumps(auto))
    argv = ["pencil", command, str(pencil_path)] + args
    if command == "gamma-check":
        argv.append(str(auto_path))
    assert main(argv) == 2
    line = assert_one_error_line(capsys)
    if pencil == UNTWISTABLE:  # the loader names the file's cycle and says what a pencil file can hold
        assert line == (
            "error: disc cycle 'x1 x3' cannot be twisted, and a pencil's monodromy is the twists about its cycles;"
            " a disc cycle read from a file must be a round range word such as 'x2 x3'"
        )
    if args == ["--max-len", "-1"]:
        assert line == "error: --max-len must be >= 0"


NESTED = "[" * 100000 + "]" * 100000  # past the decoder's recursion limit; json.dumps cannot build it


def input_file(tmp_path, name, kind, good):
    """A path of the given kind: a good document, a missing file, a directory or nested JSON."""
    path = tmp_path / name
    if kind == "good":
        path.write_text(json.dumps(good))
    elif kind == "directory":
        path.mkdir()
    elif kind == "nested":
        path.write_text(NESTED)
    return path


@pytest.mark.parametrize(
    "command, pencil_kind, auto_kind",
    [(command, "nested", "good") for command in PENCIL_COMMANDS]
    + [
        ("gamma-check", "good", "nested"),
        ("validate", "missing", "good"),
        ("validate", "directory", "good"),
        ("gamma-check", "good", "missing"),
    ],
    ids=["%s-nested" % command for command in PENCIL_COMMANDS]
    + ["gamma-check-auto-nested", "validate-missing", "validate-directory", "gamma-check-auto-missing"],
)
def test_unreadable_files_exit_2_with_one_error_line(capsys, tmp_path, command, pencil_kind, auto_kind):
    pencil_path = input_file(tmp_path, "pencil.json", pencil_kind, GOOD_PENCIL)
    auto_path = input_file(tmp_path, "auto.json", auto_kind, GOOD_AUTO)
    argv = ["pencil", command, str(pencil_path)] + PENCIL_COMMANDS[command]
    if command == "gamma-check":
        argv.append(str(auto_path))
    assert main(argv) == 2
    line = assert_one_error_line(capsys)
    assert str(auto_path if auto_kind != "good" else pencil_path) in line


@pytest.mark.parametrize("command", ["pencil", "verify"])
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_out_exits_2_with_one_error_line(capsys, tmp_path, command, where):
    out = tmp_path / "missing" / "report.json" if where == "missing-directory" else tmp_path
    pencil_path = input_file(tmp_path, "pencil.json", "good", GOOD_PENCIL)
    auto_path = input_file(tmp_path, "auto.json", "good", GOOD_AUTO)
    subcommands = {
        "pencil": [
            ["validate", str(pencil_path)],
            ["hurwitz", str(pencil_path), "--braid", "s1"],
            ["matching", str(pencil_path), "--max-len", "1"],
            ["gamma-check", str(pencil_path), "--auto", str(auto_path)],
        ],
        "verify": [
            ["cutoff", "--k", "10000", "--D", "1"],
            ["deform", "--k", "1000", "--D", "1"],
            ["localtrans", "--seed", "1", "--trials", "1"],
            ["radial", "--samples", "2"],
        ],
    }[command]
    for subcommand in subcommands:
        assert main([command] + subcommand + ["--out", str(out)]) == 2
        assert str(out) in assert_one_error_line(capsys)


def test_unencodable_report_is_not_a_usage_error(monkeypatch, capsys):
    # the report is encoded outside main's input boundary: a NaN is a program fault
    monkeypatch.setattr("lefpen.cli.cmd_verify_radial", lambda args: ({"x": float("nan")}, True))
    with pytest.raises(ValueError):
        main(["verify", "radial", "--samples", "1"])
    assert capsys.readouterr().out == ""


def test_one_parser_serves_every_call(capsys):
    # the cached parser is reused across handlers, a usage error and an argparse exit
    def golden(name):
        with open(os.path.join(DATA, name)) as fh:
            return fh.read()

    assert build_parser() is build_parser()
    assert main(["verify", "cutoff", "--k", "10000", "--D", "1"]) == 0
    assert capsys.readouterr().out == golden("verify_cutoff_k10000_D1.json")
    assert main(["verify", "deform", "--k", "1000", "--D", "1"]) == 0
    assert capsys.readouterr().out == golden("verify_deform_k1000_D1.json")
    assert main(["verify", "deform", "--k", "1e3", "--D", "1", "--n", "0"]) == 2
    assert assert_one_error_line(capsys) == "error: --n must be a positive dimension"
    with pytest.raises(SystemExit) as exc:
        main(["verify", "cutoff", "--k", "10000"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["pencil", "matching", os.path.join(DATA, "pencil_torus_abab.json"), "--max-len", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.out == golden("pencil_matching_torus_abab_len3.json") and captured.err == ""


@pytest.mark.parametrize(
    "argv, golden, code",
    [
        (["verify", "cutoff", "--k", "10000", "--D", "1"], "verify_cutoff_k10000_D1.json", 0),
        (["verify", "deform", "--k", "1000", "--D", "1"], "verify_deform_k1000_D1.json", 0),
        (["verify", "deform", "--k", "1000", "--D", "1", "--n", "1"], "verify_deform_k1000_D1_n1.json", 0),
        (["verify", "deform", "--k", "1000", "--D", "1", "--n", "3"], "verify_deform_k1000_D1_n3.json", 0),
        (["verify", "radial", "--samples", "50", "--seed", "3"], "verify_radial_samples50_seed3.json", 0),
        (["verify", "localtrans", "--seed", "1", "--trials", "4"], "verify_localtrans_seed1_trials4.json", 0),
        # a bad set of 118,690 images on the refined graph grid; no clear region, so the check fails
        (
            ["verify", "localtrans", "--seed", "0", "--trials", "1", "--delta", "0.45", "--pexp", "1"],
            "verify_localtrans_seed0_delta045_pexp1.json",
            1,
        ),
    ],
    ids=["cutoff", "deform", "deform-n1", "deform-n3", "radial", "localtrans", "localtrans-large-bad-set"],
)
def test_numerical_reports_match_golden(capsys, argv, golden, code):
    # the golden files hold the reports of an earlier release, byte for byte
    assert main(argv) == code
    with open(os.path.join(DATA, golden)) as fh:
        assert capsys.readouterr().out == fh.read()


# a short braid: on disc pencils the cycle words grow exponentially with its length
HURWITZ = "s1 S2 s3 s1 s2"


@pytest.mark.parametrize(
    "argv, golden, code",
    [
        (["matching", "pencil_torus_abab.json", "--max-len", "3"], "pencil_matching_torus_abab_len3.json", 0),
        (
            ["matching", "pencil_sp_g2_r4.json", "--max-len", "2", "--trust-algebraic"],
            "pencil_matching_sp_g2_r4_len2_trust.json",
            0,
        ),
        (["matching", "pencil_disc3_round.json", "--max-len", "2"], "pencil_matching_disc3_round_len2.json", 0),
        (["hurwitz", "pencil_torus_abab.json", "--braid", HURWITZ], "pencil_hurwitz_torus_abab_s1S2s3s1s2.json", 0),
        (["hurwitz", "pencil_sp_g2_r4.json", "--braid", HURWITZ], "pencil_hurwitz_sp_g2_r4_s1S2s3s1s2.json", 0),
        (["hurwitz", "pencil_disc3_round.json", "--braid", HURWITZ], "pencil_hurwitz_disc3_round_s1S2s3s1s2.json", 0),
        # s1 moves x1 to x1 x2 X1, whose monodromy differs: the violation names that word
        (
            ["gamma-check", "pencil_torus_abab.json", "--auto", "auto_torus_abab_s1.json"],
            "pencil_gamma_check_torus_abab_s1.json",
            1,
        ),
    ],
    ids=[
        "matching-torus-abab",
        "matching-sp-trust",
        "matching-disc-round",
        "hurwitz-torus-abab",
        "hurwitz-sp",
        "hurwitz-disc-round",
        "gamma-check-moved-word",
    ],
)
def test_pencil_reports_match_golden(capsys, argv, golden, code):
    # the golden files hold the reports of an earlier release, byte for byte
    argv = [os.path.join(DATA, a) if a.endswith(".json") else a for a in argv]
    assert main(["pencil"] + argv) == code
    captured = capsys.readouterr()
    with open(os.path.join(DATA, golden)) as fh:
        assert captured.out == fh.read() and captured.err == ""


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["pencil", "validate", "x.json", "--frobnicate"])
    assert exc.value.code == 2


def test_reports_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["verify", "localtrans", "--seed", "7", "--trials", "2", "--out", str(a)])
    main(["verify", "localtrans", "--seed", "7", "--trials", "2", "--out", str(b)])
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def run_fresh(*argv):
    """Python on argv in a new process that imports the lefpen under test, installed or not."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(lefpen.__file__)))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))),
    )


def test_console_entry_point():
    proc = run_fresh("-m", "lefpen.cli", "verify", "radial", "--samples", "5")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"]


def test_pencil_subcommands_run_without_numpy():
    # every pencil subcommand on the data pencils, then one verify subcommand, in one new
    # process; prints the exit codes, which of numpy, dataclasses and inspect were loaded
    # before the verify call, and whether dataclasses was loaded after it
    script = """
import contextlib, io, json, os, sys
import lefpen
import lefpen.cli
data = sys.argv[1]
pencils = [os.path.join(data, f) for f in ("pencil_torus_abab.json", "pencil_disc3_round.json", "pencil_sp_g2_r4.json")]
runs = [["pencil", "gamma-check", pencils[0], "--auto", os.path.join(data, "auto_torus_abab_s1.json")]]
for p in pencils:
    runs += [
        ["pencil", "validate", p, "--closed"],
        ["pencil", "matching", p, "--max-len", "2"],
        ["pencil", "hurwitz", p, "--braid", "s1 S2 s3 s1 s2"],
    ]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [lefpen.cli.main(argv) for argv in runs]
    loaded = [m for m in ("numpy", "dataclasses", "inspect") if m in sys.modules]
    radial = lefpen.cli.main(["verify", "radial", "--samples", "5"])
after = "dataclasses" in sys.modules
print(json.dumps({"codes": codes, "loaded": loaded, "radial": radial, "verify_dataclasses": after}))
"""
    proc = run_fresh("-c", script, DATA)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [1] + [1, 0, 0] * 3  # no data pencil is closed; s1 is not in Gamma
    assert result["loaded"] == []
    assert result["radial"] == 0
    assert not result["verify_dataclasses"]  # numpy loads inspect, but neither layer loads dataclasses


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "deform", "--k", "1e3", "--D", "1", "--n", "0"],
        ["verify", "localtrans", "--seed", "1", "--trials", "0"],
        ["verify", "cutoff", "--k", "nan", "--D", "1"],
        ["verify", "radial", "--samples", "0"],
    ],
    ids=["deform-n0", "zero-trials", "cutoff-k-nan", "zero-samples"],
)
def test_first_verify_call_of_a_process_exits_2_with_one_error_line(argv):
    # the numerical layer is imported inside the handler, within main's input boundary
    proc = run_fresh("-m", "lefpen.cli", *argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
