"""Command-line interface: outputs, exit codes, determinism, shipped data."""

import codecs
import json
import os
import pathlib
import subprocess
import sys

import pytest

from sullivan.cdga import format_cdga, load_cdga
from sullivan.cli import main
from sullivan.plforms import load_scomplex

from helpers import bar_cohomology

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_all_shipped_files(capsys):
    for name in sorted(os.listdir(DATA)):
        code, out, err = run(capsys, "validate", str(DATA / name))
        assert code == 0, f"{name}: {err}"
        assert "ok" in out


def test_validate_reports_defects(capsys, tmp_path):
    bad = tmp_path / "bad.cdga"
    bad.write_text("cdga broken\ngen y 2\ngen z 3\ndiff z = y^2\ndiff y = z\n")
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert "d^2" in out


def test_validate_names_the_line_of_an_unknown_face_target(capsys, tmp_path):
    bad = tmp_path / "bad.scx"
    bad.write_text("scomplex k\nsimplex a 0\nsimplex b 1\n"
                   "face b 0 = a\nface b 1 = c\n")
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert out == ""
    assert f"{bad}:5: face (b,1) hits unknown simplex c" in err


def test_classify_rejects_a_presentation_without_a_unit(capsys, tmp_path):
    """`rel 0 : 1` kills H^0: no space has it, and the scan finds no top
    nonzero degree to read a formal dimension from."""
    f = tmp_path / "zero.cdga"
    f.write_text("cdga z\ngen x 2\nrel 0 : 1\n")
    code, out, err = run(capsys, "classify", str(f))
    assert (code, out) == (1, "")
    assert err == "error: z: H^0 = 0, not a connected space\n"


def test_parse_error_carries_line_number(capsys, tmp_path):
    f = tmp_path / "oops.cdga"
    f.write_text("cdga oops\ngen y 2\ndiff q = y\n")
    code, out, err = run(capsys, "cohomology", str(f), "-N", "4")
    assert code == 1
    assert "oops.cdga:3" in err


@pytest.mark.parametrize("text, where", [
    ("cdga a\n# x squared\n\ngen x 2\ngen z 3\ndiff z = x\n",
     "a.cdga:6: image of z has degree 2, expected 4"),
    ("cdga a\ngen x 2\ngen z 3\ndiff z = x^2\ndiff z = 5*x^2\n",
     "a.cdga:5: repeated diff for z")])
def test_diff_errors_exit_1_at_their_line(capsys, tmp_path, text, where):
    f = tmp_path / "a.cdga"
    f.write_text(text)
    code, out, err = run(capsys, "minimal-model", str(f), "-N", "4")
    assert code == 1
    assert out == ""
    assert where in err


def test_missing_file_is_domain_error(capsys):
    code, out, err = run(capsys, "cohomology", "no_such_file.cdga")
    assert code == 1
    assert "error" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2


def test_n_too_small_is_usage_error(capsys):
    code, out, err = run(capsys, "cohomology", str(DATA / "h_s2.cdga"),
                         "-N", "1")
    assert code == 2


def test_cohomology_nonformal(capsys):
    code, out, err = run(capsys, "cohomology", str(DATA / "nonformal.cdga"),
                         "-N", "12")
    assert code == 0
    assert "u*w" in out and "v*w" in out


def test_cohomology_json_schema(capsys):
    code, out, err = run(capsys, "cohomology", str(DATA / "nonformal.cdga"),
                         "-N", "12", "--json")
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["dims"] == [1, 0, 0, 2, 0, 0, 0, 0, 2, 0, 0, 1, 0]


def test_minimal_model_text(capsys):
    code, out, err = run(capsys, "minimal-model", str(DATA / "h_s2.cdga"),
                         "-N", "8")
    assert code == 0
    assert "v2:2" in out and "v3:3" in out
    assert "diff v3 = v2^2" in out


def test_minimal_model_json(capsys):
    code, out, err = run(capsys, "minimal-model", str(DATA / "h_cp3.cdga"),
                         "-N", "16", "--json")
    doc = json.loads(out)
    assert [g["degree"] for g in doc["generators"]] == [2, 7]
    assert doc["certifiedDegree"] == 16
    name2, name7 = [g["name"] for g in doc["generators"]]
    assert doc["differentials"][name7] == f"{name2}^4"


def test_loop_table(capsys):
    code, out, err = run(capsys, "loop", str(DATA / "model_s3.cdga"),
                         "-N", "10", "--json")
    doc = json.loads(out)
    assert doc["dims"] == [1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1]
    assert doc["piRanks"] == {"3": 1}


def test_free_loop_command(capsys):
    code, out, err = run(capsys, "free-loop", str(DATA / "model_s2.cdga"),
                         "-N", "6", "--json")
    doc = json.loads(out)
    assert doc["differentials"]["z_bar"] == "-2*y*y_bar"
    assert doc["dims"][1] == 1


def test_path_space_command(capsys):
    code, out, err = run(capsys, "path-space", str(DATA / "model_s2.cdga"))
    assert code == 0
    assert "diff z_bar = -y_p0*y_bar - z_p0 - y_p1*y_bar + z_p1" in out


def test_classify_elliptic6(capsys):
    code, out, err = run(capsys, "classify", str(DATA / "elliptic6.cdga"),
                         "-N", "40", "-B", "60", "--json")
    doc = json.loads(out)
    assert doc["verdict"] == "Elliptic"
    assert doc["formalDimension"] == 14
    assert doc["numerology"] == [True, True, True, True]
    assert doc["chi"] == {"H": 0, "V": -2, "pi": -2}


def test_classify_wedge_hyperbolic(capsys):
    code, out, err = run(capsys, "classify", str(DATA / "h_wedge_s3s3.cdga"),
                         "-B", "30", "--json")
    doc = json.loads(out)
    assert doc["verdict"] == "HyperbolicEvidence"
    assert doc["vDims"]["7"] == 2


def test_classify_contractible_presentation_is_elliptic_of_dimension_0(
        capsys, tmp_path):
    """d y = x kills all cohomology above degree 0: the formal dimension
    is 0, and the report is the point's, with no model synthesized."""
    f = tmp_path / "contractible.cdga"
    f.write_text("cdga contractible\ngen x 4\ngen y 3\ndiff y = x\n")
    code, out, err = run(capsys, "classify", str(f), "-B", "10", "--json")
    doc = json.loads(out)
    assert (code, err) == (0, "")
    assert doc["verdict"] == "Elliptic"
    assert doc["formalDimension"] == 0
    assert doc["hDims"] == [1]
    assert doc["chi"] == {"H": 1, "V": 0, "pi": 0}


def test_classify_without_a_top_degree_is_inconclusive(capsys, tmp_path):
    """A non-minimal presentation of H = Q[x]: cohomology never vanishes
    within the bound, so no formal dimension is found."""
    f = tmp_path / "polynomial.cdga"
    f.write_text("cdga polynomial\ngen x 2\ngen a 3\ngen b 4\ndiff a = b\n")
    code, out, err = run(capsys, "classify", str(f), "-B", "10", "--json")
    doc = json.loads(out)
    assert (code, err) == (0, "")
    assert doc["verdict"] == "Inconclusive"
    assert doc["hDims"] == [1, 0] * 5 + [1]


@pytest.mark.parametrize("argv", [
    ["elliptic6.cdga", "-B", "60"], ["elliptic6.cdga", "-B", "60", "--json"],
    ["h_wedge_s3s3.cdga", "--json"]])
def test_classify_accepts_and_ignores_max_degree(capsys, argv):
    """classify scans to -B whatever -N says."""
    path, *rest = argv
    outs = [run(capsys, "classify", str(DATA / path), "-N", n, *rest)
            for n in ("2", "40")]
    assert outs[0] == outs[1]
    assert outs[0][0] == 0


def test_classify_has_no_floor_on_the_ignored_max_degree(capsys):
    """-N 1 is below the floor of every subcommand that reads -N."""
    outs = [run(capsys, "classify", str(DATA / "elliptic6.cdga"), "-N", n,
                "-B", "2") for n in ("1", "40")]
    assert outs[0] == outs[1]
    assert outs[0][0] == 0
    code, out, err = run(capsys, "cohomology", str(DATA / "elliptic6.cdga"),
                         "-N", "1")
    assert code == 2
    assert "-N must be at least 2" in err


def test_invariants_report(capsys):
    code, out, err = run(capsys, "invariants", str(DATA / "h_cp2.cdga"),
                         "-N", "12", "-B", "40", "--json")
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["verdict"] == "Elliptic"
    assert doc["cuplength"] == 2
    assert doc["catUpper"] == 2
    assert doc["toomerN"] == 2
    assert doc["poincare"]["coeffs"][:6] == [1, 1, 0, 0, 1, 1]


def test_pl_verify_builtin(capsys):
    code, out, err = run(capsys, "pl-verify", "--builtin", "bddelta3",
                         "--trials", "6", "--seed", "1")
    assert code == 0
    assert "6/6 exact" in out
    assert "1 0 1" in out


def test_pl_verify_file(capsys):
    code, out, err = run(capsys, "pl-verify", str(DATA / "s2_one_cell.scx"),
                         "--trials", "3", "--seed", "2")
    assert code == 0
    assert "3/3 exact" in out


def test_pl_verify_needs_input(capsys):
    code, out, err = run(capsys, "pl-verify", "--trials", "2")
    assert code == 2


def test_pl_verify_with_builtin_and_file_is_usage_error(capsys):
    code, out, err = run(capsys, "pl-verify", "--builtin", "bddelta3",
                         str(DATA / "s2_one_cell.scx"), "--trials", "2")
    assert code == 2
    assert out == ""
    assert "--builtin" in err and "FILE" in err


@pytest.mark.parametrize("command", ["classify", "invariants"])
def test_negative_bound_is_usage_error(capsys, command):
    code, out, err = run(capsys, command, str(DATA / "h_cp2.cdga"),
                         "-B", "-3")
    assert code == 2
    assert out == ""
    assert "-B" in err


def test_byte_identical_output(capsys):
    runs = []
    for _ in range(2):
        code, out, err = run(capsys, "invariants", str(DATA / "h_s2.cdga"),
                             "-N", "12", "--json")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]
    runs = []
    for _ in range(2):
        code, out, err = run(capsys, "pl-verify", "--builtin", "delta2",
                             "--trials", "4", "--seed", "3")
        runs.append(out)
    assert runs[0] == runs[1]


def test_pl_verify_fails_when_a_class_is_never_sampled(capsys):
    # one trial per degree: the sampled 0-cocycle is zero, so the class
    # of H^0 is never reached although the single Stokes trial passes
    code, out, err = run(capsys, "pl-verify", str(DATA / "bddelta3.scx"),
                         "--trials", "1", "--poly-cap", "1", "--seed", "3",
                         "--json")
    doc = json.loads(out)
    assert doc["passed"] == doc["trials"] == 1
    assert doc["cocycleRanks"][0] == {"degree": 0, "sampled_rank": 0,
                                      "h_dim": 1}
    assert doc["ok"] is False
    assert code == 1


def test_pl_verify_negative_poly_cap_is_usage_error(capsys):
    code, out, err = run(capsys, "pl-verify", str(DATA / "bddelta3.scx"),
                         "--poly-cap", "-1", "--json")
    assert code == 2
    assert out == ""
    assert "--poly-cap" in err


def test_pl_verify_zero_trials_is_usage_error(capsys):
    code, out, err = run(capsys, "pl-verify", "--builtin", "bddelta3",
                         "--trials", "0")
    assert code == 2
    assert "--trials" in err


def test_pl_verify_refuses_a_complex_with_no_simplices(capsys, tmp_path):
    """A complex with no simplices leaves nothing to check, so it is an
    error rather than a pass."""
    f = tmp_path / "empty.scx"
    f.write_text("scomplex empty\n")
    code, out, err = run(capsys, "pl-verify", str(f), "--json")
    assert code == 1
    assert out == ""
    assert err == "error: complex empty has no simplices to check\n"


@pytest.mark.parametrize("extra, line", [
    ("scomplex again\n", 6), ("simplex e 1\n", 6), ("simplex e 2\n", 6),
    ("face e 0 = p\n", 6)])
def test_repeated_scx_line_exits_1_at_its_line(capsys, tmp_path, extra,
                                                line):
    f = tmp_path / "c.scx"
    f.write_text("scomplex circle\nsimplex p 0\nsimplex e 1\n"
                 "face e 0 = p\nface e 1 = p\n" + extra)
    code, out, err = run(capsys, "pl-verify", str(f), "--trials", "2")
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {f}:{line}: repeated ")


FILE_COMMANDS = ["validate", "cohomology", "minimal-model", "loop",
                 "free-loop", "path-space", "classify", "invariants",
                 "pl-verify"]


@pytest.mark.parametrize("command", FILE_COMMANDS)
@pytest.mark.parametrize("text, line", [
    (b"cdga s2\ngen y 2\n# caf\xff\nrel 4 : y^2\n", 3),
    (b"scomplex pt\nsimplex p 0\n\n\xfe\xff\n", 4),
    (b"\xffcdga s2\n", 1),
])
def test_non_utf8_file_is_a_domain_error_at_its_line(capsys, tmp_path,
                                                     command, text, line):
    f = tmp_path / "latin1.txt"
    f.write_bytes(text)
    code, out, err = run(capsys, command, str(f))
    assert code == 1
    assert err.startswith(f"error: {f}:{line}:")
    assert "Traceback" not in err


def test_a_bad_byte_after_a_byte_order_mark_is_named_at_its_line(capsys,
                                                                 tmp_path):
    f = tmp_path / "bom.cdga"
    f.write_bytes(b"\xef\xbb\xbfcdga s2\ngen y 2\n\xff\n")
    code, out, err = run(capsys, "validate", str(f))
    assert (code, out) == (1, "")
    assert err == f"error: {f}:3: not UTF-8 text (byte 0xff)\n"


@pytest.mark.parametrize("name", sorted(os.listdir(DATA)))
def test_a_byte_order_mark_changes_nothing(capsys, tmp_path, monkeypatch,
                                           name):
    """A copy of a shipped file behind a UTF-8 byte-order mark parses to
    the same presentation, and each command gives the same stdout."""
    cdga = name.endswith(".cdga")
    seen = []
    for mark in (b"", codecs.BOM_UTF8):
        where = tmp_path / ("bom" if mark else "plain")
        where.mkdir()
        monkeypatch.chdir(where)
        pathlib.Path(name).write_bytes(mark + (DATA / name).read_bytes())
        obj = load_cdga(name) if cdga else load_scomplex(name)
        seen.append([format_cdga(obj) if cdga else
                     (obj.name, obj.dims, obj.faces)]
                    + [run(capsys, command, name) for command in
                       ("validate", "cohomology" if cdga else "pl-verify")])
    assert seen[0] == seen[1]
    assert [code for code, _, _ in seen[0][1:]] == [0, 0]


def test_validate_reports_the_defects_of_a_1500_letter_word(capsys,
                                                             tmp_path):
    """Faces 1..2000 of a and 0..499 of b are missing: each is reported,
    and normalizing the word of face 0 takes no call per letter."""
    f = tmp_path / "long.scx"
    f.write_text("scomplex long\nsimplex a 2000\nsimplex b 499\n"
                 "face a 0 = b " + " ".join(["s0"] * 1500) + "\n")
    code, out, err = run(capsys, "validate", str(f))
    assert (code, err) == (1, "")
    assert out.splitlines() == (
        [f"{f}: simplex a missing face {i}" for i in range(1, 2001)]
        + [f"{f}: simplex b missing face {i}" for i in range(500)])


@pytest.mark.parametrize("argv", [
    ["minimal-model", "data/h_wedge_s3s3.cdga", "-N", "14", "--json"],
    ["pl-verify", "data/bddelta3.scx", "--json"],
], ids=["minimal-model", "pl-verify"])
def test_output_is_the_same_bytes_under_every_hash_seed(argv):
    """Each command runs in its own interpreter: stdout may not depend on
    the order of a set or dict of strings, which the hash seed moves."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"),
                                       os.environ.get("PYTHONPATH")) if p)
    outs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
        proc = subprocess.run([sys.executable, "-m", "sullivan.cli", *argv],
                              cwd=ROOT, env=env, capture_output=True,
                              check=True, timeout=120)
        outs.append(proc.stdout)
    assert outs[0] and outs[0] == outs[1]


def test_a_reader_that_closes_early_gets_exit_1_and_no_traceback():
    """The pipe's reader is closed before the command writes: the write
    fails, `entry` exits 1 and says nothing, and the exit flush does not
    fail again."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"),
                                       os.environ.get("PYTHONPATH")) if p)
    reader, writer = os.pipe()
    os.close(reader)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "sullivan.cli", "classify",
             "data/elliptic6.cdga"], cwd=ROOT, stdout=writer,
            stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": path},
            timeout=120)
    finally:
        os.close(writer)
    assert (proc.returncode, proc.stderr) == (1, b"")


def _bott_samelson_wedge_s3s3(top):
    """H*(Omega(S3 v S3)) is the tensor algebra on two classes of degree
    2 (Bott-Samelson): 2^(k/2) in even degrees k, 0 in odd ones."""
    return [0 if k % 2 else 2 ** (k // 2) for k in range(top + 1)]


@pytest.mark.xfail(strict=True, reason=(
    "the model of a non-minimal input is synthesized only through degree "
    "N, without the degree-(N+1) generators whose bars lie in degree N; "
    "the fix changes the records of these two commands in "
    "perfbench/golden_cli.json and tests/data/golden_text.json, which the "
    "benchmark refresh re-records"))
@pytest.mark.parametrize("argv, read", [
    (["loop", "data/h_wedge_s3s3.cdga"], lambda doc: doc["dims"]),
    (["invariants", "data/h_wedge_s3s3.cdga"],
     lambda doc: doc["poincare"]["coeffs"]),
], ids=["loop", "invariants"])
def test_loop_space_of_a_wedge_of_3_spheres_is_bott_samelson(
        capsys, monkeypatch, argv, read):
    monkeypatch.chdir(ROOT)
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    dims = read(json.loads(out))
    assert dims == _bott_samelson_wedge_s3s3(len(dims) - 1)


@pytest.mark.xfail(strict=True, reason=(
    "the model of a non-minimal input is synthesized only through degree "
    "N, without the degree-(N+1) generators whose bars lie in degree N: "
    "H^2(Omega S^2) and H^4(Omega CP^2) read 0 where the bar construction "
    "has Q"))
@pytest.mark.parametrize("stem, top", [("h_s2", 2), ("h_cp2", 4)])
def test_loop_top_degree_is_the_bar_construction(capsys, stem, top):
    path = DATA / f"{stem}.cdga"
    code, out, _ = run(capsys, "loop", str(path), "-N", str(top), "--json")
    assert code == 0
    assert json.loads(out)["dims"] == bar_cohomology(load_cdga(path), top)
