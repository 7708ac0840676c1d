import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nilpath
from nilpath.cli import main
from nilpath.paths import connect_roots, path_from_json_obj
from nilpath.jordan import similarity_witness
from nilpath.matrix import (
    Matrix,
    det,
    direct_sum,
    inverse,
    jordan_cell,
    matrix_from_json,
    matrix_mul,
    matrix_pow,
    matrix_to_json,
    matrix_to_json_obj,
)
from nilpath.scalar import Scalar


def fixture_roots():
    # A = X^2 with X of profile (4,2), and a root Y of A with profile (3,3)
    x = direct_sum([jordan_cell(4), jordan_cell(2)])
    a = matrix_pow(x, 2)
    model = direct_sum([jordan_cell(3), jordan_cell(3)])
    s = similarity_witness(matrix_pow(model, 2), a)
    return a, x, matrix_mul(s, matrix_mul(model, inverse(s)))


@pytest.fixture
def files(tmp_path):
    a, x, y = fixture_roots()
    paths = {}
    for name, m in (("A", a), ("X", x), ("Y", y), ("J2", jordan_cell(2))):
        f = tmp_path / f"{name}.json"
        f.write_text(matrix_to_json(m))
        paths[name] = str(f)
    paths["dir"] = tmp_path
    return paths


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_profile_command(files, capsys):
    code, out = run(capsys, ["profile", files["A"]])
    assert code == 0
    assert json.loads(out) == {"profile": "2:2,1:2", "size": 6}


def test_root_negative(files, capsys):
    code, out = run(capsys, ["root", "--p", "2", files["J2"]])
    assert code == 1
    assert json.loads(out) == {"hasRoot": False}


def test_root_positive_pipes_back(files, capsys):
    code, out = run(capsys, ["root", "--p", "2", files["A"]])
    assert code == 0
    root = matrix_from_json(out)
    target = matrix_from_json(open(files["A"]).read())
    assert matrix_pow(root, 2) == target


def test_root_with_requested_profile(files, capsys):
    code, out = run(capsys, ["root", "--p", "2", files["A"], "--profile", "3:2"])
    assert code == 0
    root = matrix_from_json(out)
    from nilpath.jordan import nilpotent_profile
    from nilpath.profiles import Profile

    assert nilpotent_profile(root) == Profile({3: 2})


def test_graph_report_and_dot(files, capsys):
    code, out = run(capsys, ["graph", "--p", "2", "--profile", "2:2,1:2"])
    assert code == 0
    rep = json.loads(out)
    assert rep["connected"] is True
    assert rep["vertexCount"] == 3

    code, out = run(capsys, ["graph", "--p", "2", "--profile", "1:2", "--dot"])
    assert code == 0
    assert out.startswith("graph profiles_p2 {")


def test_chain_command(files, capsys):
    code, out = run(capsys, ["chain", "--p", "2", "--from", "1:2", "--to", "2:1"])
    assert code == 0
    obj = json.loads(out)
    assert obj["steps"] == ["1:2", "2:1"]
    assert len(obj["moves"]) == 1


def test_chain_power_mismatch_is_negative(files, capsys):
    code, out = run(capsys, ["chain", "--p", "2", "--from", "3:1", "--to", "1:3"])
    assert code == 1
    assert json.loads(out)["chain"] is None


def test_chain_with_many_common_cells(files, capsys):
    code, out = run(capsys, ["chain", "--p", "2", "--from", "2:1,1:2000", "--to", "1:2002"])
    assert code == 0
    assert json.loads(out)["steps"] == ["2:1,1:2000", "1:2002"]


def test_profile_queries_at_huge_p(files, capsys):
    code, out = run(capsys, ["chain", "--p", "1000000000", "--from", "3:1", "--to", "2:1,1:1"])
    assert code == 0
    assert json.loads(out)["steps"] == ["3:1", "2:1,1:1"]
    code, out = run(capsys, ["solvable", "--zeros", "1000000000", "--profile", "3:1"])
    assert code == 1
    assert json.loads(out) == {"solvable": False}


def test_certified_connect_at_huge_p(files, capsys, tmp_path):
    # U_t is strictly upper triangular, so the certified lift checks U_t^p
    # against its chord at min(p, k + l) + 1 parameters, not at p + 1
    z = tmp_path / "z.json"
    z.write_text(matrix_to_json(Matrix.zeros(2, 2)))
    roots = ["--a", str(z), "--x", str(z), "--y", files["J2"]]
    start = time.process_time()
    code, out = run(capsys, ["connect", "--p", "1000000000", *roots, "--samples", "2"])
    assert code == 0
    stored = tmp_path / "path.json"
    stored.write_text(out)
    code, out = run(capsys, ["verify", str(stored)])
    assert code == 0 and json.loads(out)["ok"]
    assert time.process_time() - start < 5


def test_solvable_examples(files, capsys):
    code, out = run(capsys, ["solvable", "--zeros", "2,3", "--profile", "2:1"])
    assert code == 1
    assert json.loads(out) == {"solvable": False}

    code, out = run(capsys, ["solvable", "--zeros", "2,3", "--profile", "3:1,2:1,1:1"])
    assert code == 0
    assert json.loads(out)["solvable"] is True

    code, out = run(capsys, ["solvable", "--inf", "--profile", "1:4"])
    assert code == 0
    assert json.loads(out)["witness"]["e1Count"] == 4


def test_connect_verify_eval_pipeline(files, capsys, tmp_path):
    code, out = run(
        capsys,
        [
            "connect",
            "--p",
            "2",
            "--a",
            files["A"],
            "--x",
            files["X"],
            "--y",
            files["Y"],
            "--samples",
            "10",
        ],
    )
    assert code == 0
    combined = json.loads(out)
    assert combined["certificate"]["ok"] is True
    path_file = tmp_path / "path.json"
    path_file.write_text(json.dumps(combined))

    code, out = run(capsys, ["verify", str(path_file), "--samples", "7"])
    assert code == 0
    assert json.loads(out)["ok"] is True

    code, out = run(capsys, ["eval-path", str(path_file), "--t", "0/1"])
    assert code == 0
    assert matrix_from_json(out) == matrix_from_json(open(files["X"]).read())

    code, out = run(capsys, ["eval-path", str(path_file), "--t", "1/1"])
    assert code == 0
    assert matrix_from_json(out) == matrix_from_json(open(files["Y"]).read())


def test_root_connect_verify_roundtrip(files, capsys, tmp_path):
    # two CLI-built roots of the same matrix feed straight into connect/verify
    code, out = run(capsys, ["root", "--p", "2", files["A"]])
    assert code == 0
    r1 = tmp_path / "r1.json"
    r1.write_text(out)
    code, out = run(capsys, ["root", "--p", "2", files["A"], "--profile", "3:2"])
    assert code == 0
    r2 = tmp_path / "r2.json"
    r2.write_text(out)
    code, out = run(
        capsys,
        ["connect", "--p", "2", "--a", files["A"], "--x", str(r1), "--y", str(r2), "--samples", "12"],
    )
    assert code == 0
    combined = json.loads(out)
    assert combined["certificate"]["ok"] is True
    assert all(s["residualZero"] for s in combined["certificate"]["samples"])
    pf = tmp_path / "p.json"
    pf.write_text(json.dumps(combined))
    code, out = run(capsys, ["verify", str(pf), "--samples", "9"])
    assert code == 0


def test_graph_from_matrix_file(files, capsys):
    code, out = run(capsys, ["graph", "--p", "2", "--matrix", files["A"]])
    assert code == 0
    assert json.loads(out)["vertexCount"] == 3


def test_connect_certified_mode(files, capsys, tmp_path):
    from nilpath.matrix import Matrix

    z = tmp_path / "Z.json"
    z.write_text(matrix_to_json(Matrix.zeros(2, 2)))
    j2 = files["J2"]
    connect = ["connect", "--p", "2", "--a", str(z), "--x", str(z), "--y", j2, "--samples", "8"]
    code, out = run(capsys, connect)
    assert code == 0
    combined = json.loads(out)
    assert "mode" not in combined["certificate"]
    assert combined["certificate"]["ok"] is True
    stored = tmp_path / "path.json"
    stored.write_text(out)
    code, verified = run(capsys, ["verify", str(stored), "--samples", "8"])
    assert code == 0
    assert json.loads(verified)["ok"] is True


def test_mode_flag_is_a_usage_error(files, capsys, tmp_path):
    # every connect and verify certifies, so --mode is no longer an option
    connect = ["connect", "--p", "2", "--a", files["A"], "--x", files["X"], "--y", files["Y"], "--samples", "2"]
    code, out = run(capsys, connect)
    assert code == 0
    stored = tmp_path / "path.json"
    stored.write_text(out)
    for mode in ("sampled", "certified"):
        assert run(capsys, [*connect, "--mode", mode]) == (2, "")
        assert run(capsys, ["verify", str(stored), "--samples", "2", "--mode", mode]) == (2, "")


def test_output_byte_stability(files, capsys):
    _, out1 = run(capsys, ["graph", "--p", "2", "--profile", "2:2,1:2"])
    _, out2 = run(capsys, ["graph", "--p", "2", "--profile", "2:2,1:2"])
    assert out1 == out2
    _, c1 = run(
        capsys,
        ["connect", "--p", "2", "--a", files["A"], "--x", files["X"], "--y", files["Y"], "--samples", "5"],
    )
    _, c2 = run(
        capsys,
        ["connect", "--p", "2", "--a", files["A"], "--x", files["X"], "--y", files["Y"], "--samples", "5"],
    )
    assert c1 == c2


def test_connect_output_pinned(files, capsys):
    # sha256 of this stdout; any change to the path JSON or the certificate
    # shows here, not only a change between two runs; recorded once
    # `nilpath verify` of it exited 0
    code, out = run(
        capsys,
        ["connect", "--p", "2", "--a", files["A"], "--x", files["X"], "--y", files["Y"], "--samples", "5"],
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "50ef1dedcf34b22b08d8eb102284ee1c2109f68d8008d15962aee05e6dbe9334"
    )
    # the path object alone, which stores no certification records
    assert hashlib.sha256(json.dumps(json.loads(out)["path"]).encode()).hexdigest() == (
        "a4d6d70478e27a0c928b03d48fac24741f0c80526dbdd2fb8d0ce841a42feb1b"
    )


def test_connect_backward_output_pinned(files, capsys):
    # X and Y swapped: one backward move in window (2,4,2), aligned in
    # closed form; sha256 recorded once `nilpath verify` of it exited 0
    code, out = run(
        capsys,
        ["connect", "--p", "2", "--a", files["A"], "--x", files["Y"], "--y", files["X"], "--samples", "5"],
    )
    assert code == 0
    segments = json.loads(out)["path"]["segments"]
    moves = [s["move"] for s in segments if s["kind"] == "adjacency"]
    assert [(m["k"], m["l"], m["p"], m["direction"]) for m in moves] == [(2, 4, 2, "backward")]
    stored = files["dir"] / "backward.json"
    stored.write_text(out)
    assert run(capsys, ["verify", str(stored), "--samples", "5"])[0] == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d062fec39783c89dd6a0f56cdfb943a96c89770e922814495b2b70c74c93b2d9"
    )


def forged_path_obj():
    """Two centralizer segments X -> Q X Q^-1 -> X, X = J3 + J1, p = 2: the
    endpoints and the samples at t = 0, 1 are roots of A = X^2, but Q does
    not commute with A, so the point at t = 1/2 is not."""
    x = direct_sum([jordan_cell(3), jordan_cell(1)])
    q = Matrix.from_rows([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]])
    a = matrix_pow(x, 2)
    assert matrix_mul(q, a) != matrix_mul(a, q)
    segments = [
        {"kind": "centralizer", "baseRoot": matrix_to_json_obj(base), "conjugator": matrix_to_json_obj(c),
         "waypoints": ["0", "1"]}
        for base, c in ((x, q), (matrix_mul(q, matrix_mul(x, inverse(q))), inverse(q)))
    ]
    ends = {"X": matrix_to_json_obj(x), "Y": matrix_to_json_obj(x)}
    return {"A": matrix_to_json_obj(a), "p": 2, "endpoints": ends, "segments": segments}


@pytest.mark.parametrize("samples", ["1", "2", "4"])
def test_verify_rejects_a_path_that_leaves_the_root_set(tmp_path, capsys, samples):
    path_file = tmp_path / "forged.json"
    path_file.write_text(json.dumps(forged_path_obj()))
    code, out = run(capsys, ["verify", str(path_file), "--samples", samples])
    assert code == 1
    cert = json.loads(out)
    assert cert["ok"] is False
    # every detour piece is certified, yet neither segment is: the first
    # one's Q does not commute with A, and the second starts off the roots
    assert [c["ok"] for c in cert["segmentCertifications"]] == [False, False]
    assert all(piece["ok"] for c in cert["segmentCertifications"] for piece in c["pieces"])


def test_a_path_written_before_built_bases_verifies_the_same(capsys):
    # a p = 2 path from (4,1,1) to (3,3), a backward and a forward move and a
    # complex detour, written while each closing Q came from jordan_basis of
    # both of its roots: it still loads, and verify prints the bytes it
    # printed then (sha256 of each stdout)
    path_file = os.path.join(os.path.dirname(__file__), "data", "path_written_before_built_bases.json")
    for samples, digest in (
        ("8", "ac03b3b3310214d2499d80aaa06f12623d34cca91267bf429f2f12c91fc1073b"),
        ("12", "097dcbf5a98dad202f00d41536b945ffaf078ed2b1fe1e6ae81594290479dbd1"),
    ):
        code, out = run(capsys, ["verify", path_file, "--samples", samples])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def _closing_path_obj(x, q):
    """A p = 2 path JSON of one centralizer segment from x by q, ending at
    Y = q x q^-1."""
    ends = {"X": matrix_to_json_obj(x), "Y": matrix_to_json_obj(matrix_mul(q, matrix_mul(x, inverse(q))))}
    segment = {"kind": "centralizer", "baseRoot": ends["X"], "conjugator": matrix_to_json_obj(q), "waypoints": ["0", "1"]}
    return {"A": matrix_to_json_obj(matrix_pow(x, 2)), "p": 2, "endpoints": ends, "segments": [segment]}


def _forged_basis_path_obj():
    """(4,2,2) -> (3,3,2) at p = 2, with the bystander J_2 of its adjacency
    segment stored as 2 J_2 and X, the closing root and Y moved to match:
    every sample that is defined is a root, but the closing segment's basis,
    built from that bystander, fails X P = P J."""
    from nilpath.paths import _segment_from_json_obj

    x = direct_sum([jordan_cell(4), jordan_cell(2), jordan_cell(2)])
    a = matrix_pow(x, 2)
    model = direct_sum([jordan_cell(3), jordan_cell(3), jordan_cell(2)])
    s = similarity_witness(matrix_pow(model, 2), a)
    obj = connect_roots(a, 2, x, matrix_mul(s, matrix_mul(model, inverse(s)))).to_json_obj()
    adjacency, closing = obj["segments"]
    assert matrix_from_json(json.dumps(adjacency["bystander"])) == jordan_cell(2)
    adjacency["bystander"] = matrix_to_json_obj(jordan_cell(2).scale(Scalar(2)))
    seg = _segment_from_json_obj(adjacency, 2)
    q = matrix_from_json(json.dumps(closing["conjugator"]))
    obj["endpoints"]["X"], closing["baseRoot"] = matrix_to_json_obj(seg.start), matrix_to_json_obj(seg.end)
    obj["endpoints"]["Y"] = matrix_to_json_obj(matrix_mul(q, matrix_mul(seg.end, inverse(q))))
    return obj


def test_forged_closings_end_in_a_well_formed_answer(tmp_path, capsys):
    # a closing whose Q does not commute with A, one whose block C_s is
    # singular (Q invertible, but not in the centralizer), and one whose
    # basis fails X P = P J: each verify exits 1 with ok false, and
    # eval-path inside the closing answers or exits 2; a stored Y with
    # Q X != Y Q is bad input.  None raises out of the set-up.
    x = direct_sum([jordan_cell(3), jordan_cell(1)])
    a = matrix_pow(x, 2)
    shear = Matrix.from_rows([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]])
    swap = Matrix.from_rows([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert matrix_mul(shear, a) != matrix_mul(a, shear) and matrix_mul(swap, a) != matrix_mul(a, swap)
    assert det(path_from_json_obj(_closing_path_obj(x, swap)).segments[0].factor.cells[2]).is_zero()
    bad_y = _closing_path_obj(x, shear)
    bad_y["endpoints"]["Y"] = matrix_to_json_obj(x)
    for obj, code in ((_closing_path_obj(x, shear), 1), (_closing_path_obj(x, swap), 1), (_forged_basis_path_obj(), 1), (bad_y, 2)):
        path_file = tmp_path / "forged.json"
        path_file.write_text(json.dumps(obj))
        assert main(["verify", str(path_file), "--samples", "4"]) == code
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        if code == 1:
            cert = json.loads(captured.out)
            assert cert["ok"] is False and cert["segmentCertifications"][-1]["ok"] is False
        assert main(["eval-path", str(path_file), "--t", "7/8"]) in ((0, 2) if code == 1 else (2,))
        assert "Traceback" not in capsys.readouterr().err


def test_connect_certified_output_pinned(files, capsys):
    # every connect certifies: its certificate carries each segment's record,
    # the adjacency lift proven on [0, 1] and each detour piece certified
    code, out = run(
        capsys,
        ["connect", "--p", "2", "--a", files["A"], "--x", files["X"], "--y", files["Y"], "--samples", "5"],
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "50ef1dedcf34b22b08d8eb102284ee1c2109f68d8008d15962aee05e6dbe9334"
    )


def test_complex_detour_eval_output_pinned(tmp_path, capsys):
    # J3 -> -J3 is one centralizer segment on the three-piece complex detour,
    # so every interior point is evaluated in Gaussian-integer arithmetic;
    # sha256 of each stdout as first recorded
    x = jordan_cell(3)
    path = connect_roots(matrix_pow(x, 2), 2, x, x.scale(Scalar(-1)))
    assert [len(s.waypoints) for s in path.segments] == [4]
    path_file = tmp_path / "path.json"
    path_file.write_text(json.dumps(path.to_json_obj()))
    for t, digest in (
        ("1/6", "89fbb8d11d76ca7352c9698025657cf448b35442034a4d29e21a3bcaa3ec61a4"),
        ("1/2", "0ee507126827ad0c99759128ab09b5c73b2ddcc9efd3493717daa7f81001d11e"),
        ("5/6", "940a7d5d5dd383be43804771215dac98284bad34fc02405f286ce941a2cc768d"),
    ):
        code, out = run(capsys, ["eval-path", str(path_file), "--t", t])
        assert code == 0
        assert " i" in out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, t


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["graph", "--p", "2", "--profile", "3:2,2:3,1:4"],
            "aa360bd3fb8af91c5f46750c0d21fac45dfb01a2526f0e784a608968d81ea564",
        ),
        (
            ["graph", "--p", "3", "--profile", "2:3,1:3", "--dot"],
            "b461dee50e51189dd453c82ab0b964d899687a1b183f97f1986b471266b626af",
        ),
        # one backward move, then two forward ones
        (
            ["chain", "--p", "2", "--from", "6:1,3:2", "--to", "5:2,1:2"],
            "6b7bf44daa0da8fcf07045bf5980692fcb15b08804b24cb50153003bec92e778",
        ),
    ],
    ids=["graph", "graph-dot", "chain"],
)
def test_decide_output_pinned(capsys, argv, digest):
    # sha256 of each stdout as first recorded: every printed move and edge
    code, out = run(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv",
    [
        ["graph", "--p", "2", "--profile", "2:6,1:8"],
        # 148 kB, more than a pipe holds: the write meets the closed pipe
        # however stdout is buffered
        ["chain", "--p", "2", "--from", "2:2000", "--to", "1:4000"],
    ],
    ids=["graph", "long-chain"],
)
def test_closed_stdout_keeps_the_exit_code_without_traceback(argv):
    src = os.path.dirname(os.path.dirname(os.path.abspath(nilpath.__file__)))
    env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "nilpath.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert b"Traceback" not in err and b"BrokenPipe" not in err, err


@pytest.mark.parametrize(
    "argv",
    [
        ["profile", "{ZERO_DENOMINATOR}"],
        ["profile", "{NUMBER_ENTRY}"],
        ["root", "--p", "0", "{A}"],
        ["chain", "--p", "0", "--from", "1:2", "--to", "2:1"],
        ["solvable", "--zeros", "0", "--profile", "2:1"],
        ["connect", "--p", "2", "--a", "{A}", "--x", "{X}", "--y", "{Y}", "--samples", "0"],
        # a well-formed but non-square matrix file, for every verb that reads one
        ["profile", "{WIDE}"],
        ["root", "--p", "2", "{WIDE}"],
        ["graph", "--p", "2", "--matrix", "{WIDE}"],
        ["connect", "--p", "2", "--a", "{A}", "--x", "{WIDE}", "--y", "{Y}"],
        # a row count that int() would truncate to match the entries
        ["profile", "{FRACTIONAL_ROWS}"],
    ],
)
def test_bad_arguments_exit_two_without_traceback(files, capsys, argv):
    names = dict(files)
    for name, entry in (("ZERO_DENOMINATOR", "1/0"), ("NUMBER_ENTRY", 5)):
        bad = files["dir"] / f"{name}.json"
        bad.write_text(json.dumps({"rows": 1, "cols": 1, "entries": [[entry]]}))
        names[name] = str(bad)
    fractional = files["dir"] / "FRACTIONAL_ROWS.json"
    fractional.write_text(json.dumps({"rows": 1.5, "cols": 1, "entries": [["0"]]}))
    names["FRACTIONAL_ROWS"] = str(fractional)
    wide = files["dir"] / "WIDE.json"
    wide.write_text(matrix_to_json(Matrix.zeros(2, 3)))
    names["WIDE"] = str(wide)
    code = main([a.format(**names) if a.startswith("{") else a for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err


ZERO_2X2 = {"rows": 2, "cols": 2, "entries": [["0", "0"], ["0", "0"]]}

MALFORMED_PATHS = {
    "empty_segments": lambda obj: obj.update(segments=[]),
    "misordered_segments": lambda obj: obj["segments"].reverse(),
    "zero_power": lambda obj: obj.update(p=0),
    "segments_not_a_list": lambda obj: obj.update(segments="abc"),
    "single_waypoint": lambda obj: obj["segments"][1].update(waypoints=["0/1"]),
    # shapes that iterate to the waypoints 0, 1 but are not lists
    "waypoints_string": lambda obj: obj["segments"][1].update(waypoints="01"),
    "waypoints_object": lambda obj: obj["segments"][1].update(waypoints={"0": "0/1", "1": "1/1"}),
    "tampered_endpoint_y": lambda obj: obj["endpoints"].update(Y=ZERO_2X2),
    "tampered_endpoint_x": lambda obj: obj["endpoints"].update(X=obj["endpoints"]["Y"]),
    "move_for_other_power": lambda obj: obj["segments"][0]["move"].update(p=3),
    "move_outside_window": lambda obj: obj["segments"][0]["move"].update(l=5),
    "outer_larger_than_lift": lambda obj: obj["segments"][0].update(
        outerConjugator=matrix_to_json_obj(Matrix.identity(3))
    ),
    # integer fields that int() would truncate into valid values
    "fractional_power": lambda obj: obj.update(p=2.9),
    "float_move_field": lambda obj: obj["segments"][0]["move"].update(l=2.0),
    "boolean_move_field": lambda obj: obj["segments"][0]["move"].update(a=False),
    # a target A that cannot be the p-th power of the path's 2x2 roots
    "non_square_target": lambda obj: obj.update(A=matrix_to_json_obj(Matrix.zeros(2, 3))),
    "target_of_other_size": lambda obj: obj.update(A=matrix_to_json_obj(Matrix.zeros(3, 3))),
    # centralizer matrices that cannot blend: each is rejected before any evaluation
    "base_root_not_square": lambda obj: obj["segments"][1].update(
        baseRoot=matrix_to_json_obj(Matrix.zeros(2, 3))
    ),
    "conjugator_not_square": lambda obj: obj["segments"][1].update(
        conjugator=matrix_to_json_obj(Matrix.zeros(2, 3))
    ),
    "conjugator_of_other_size": lambda obj: obj["segments"][1].update(
        conjugator=matrix_to_json_obj(Matrix.identity(3))
    ),
    # the blend at z = 1 is Q itself, so the segment has no end
    "singular_conjugator": lambda obj: obj["segments"][1].update(conjugator=ZERO_2X2),
}


@pytest.fixture(scope="module")
def path_text():
    # zero 2x2 -> J2: one adjacency segment, then one centralizer segment
    z = Matrix.zeros(2, 2)
    obj = connect_roots(z, 2, z, jordan_cell(2)).to_json_obj()
    assert [s["kind"] for s in obj["segments"]] == ["adjacency", "centralizer"]
    return json.dumps(obj)


@pytest.mark.parametrize("verb", [["verify"], ["eval-path", "--t", "1/2"]], ids=["verify", "eval-path"])
@pytest.mark.parametrize("case", sorted(MALFORMED_PATHS))
def test_malformed_path_json_exits_two_without_traceback(path_text, tmp_path, capsys, verb, case):
    obj = json.loads(path_text)
    MALFORMED_PATHS[case](obj)
    bad = tmp_path / "path.json"
    bad.write_text(json.dumps(obj))
    code = main([verb[0], str(bad), *verb[1:]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err


def test_input_error_exit_code(files, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run(capsys, ["profile", str(bad)])
    assert code == 2

    code, _ = run(capsys, ["solvable", "--profile", "2:1"])  # no zeros at all
    assert code == 2


def _bad_input_exits_two(capsys, tmp_path, content: bytes):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    code = main(["profile", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("input error: ") and "Traceback" not in captured.err


def test_non_utf8_file_exits_two(capsys, tmp_path):
    _bad_input_exits_two(capsys, tmp_path, b'{"rows": 1, "cols": 1, "entries": [["\xff"]]}')


def test_deeply_nested_json_exits_two(capsys, tmp_path):
    _bad_input_exits_two(capsys, tmp_path, b"[" * 100_000 + b"]" * 100_000)


def test_entry_past_the_int_digit_limit_exits_two(capsys, tmp_path):
    entry = json.dumps({"rows": 1, "cols": 1, "entries": [["1" * 5000]]})
    _bad_input_exits_two(capsys, tmp_path, entry.encode())
    # a JSON integer that long fails in the parser itself
    _bad_input_exits_two(capsys, tmp_path, b'{"rows": 1, "cols": 1, "entries": [["0"]], "x": ' + b"1" * 5000 + b"}")


def test_size_cap_env_guard(files, capsys, monkeypatch):
    monkeypatch.setenv("NILPATH_SIZE_CAP", "4")
    code, _ = run(capsys, ["graph", "--p", "2", "--profile", "2:2,1:2"])
    assert code == 3
    monkeypatch.delenv("NILPATH_SIZE_CAP")


def test_verify_ignores_the_size_cap(files, capsys, monkeypatch, tmp_path):
    # the certificate of a size-6 path does not depend on NILPATH_SIZE_CAP
    code, out = run(
        capsys,
        ["connect", "--p", "2", "--a", files["A"], "--x", files["X"], "--y", files["Y"], "--samples", "5"],
    )
    assert code == 0
    path_file = tmp_path / "path.json"
    path_file.write_text(out)
    code, uncapped = run(capsys, ["verify", str(path_file), "--samples", "6"])
    assert code == 0
    monkeypatch.setenv("NILPATH_SIZE_CAP", "4")
    code, capped = run(capsys, ["verify", str(path_file), "--samples", "6"])
    assert code == 0
    assert capped == uncapped


def test_root_ignores_the_size_cap(files, capsys, monkeypatch):
    # the greedy root profile of a size-6 target does not read NILPATH_SIZE_CAP
    code, uncapped = run(capsys, ["root", "--p", "2", files["A"]])
    assert code == 0
    for value in ("4", "not-an-integer"):
        monkeypatch.setenv("NILPATH_SIZE_CAP", value)
        code, capped = run(capsys, ["root", "--p", "2", files["A"]])
        assert code == 0
        assert capped == uncapped


def test_verify_non_nilpotent_path_is_a_well_formed_no(capsys, tmp_path):
    # A = 0 and every sample is I: I^2 != A, and I has no nilpotent profile
    ident = matrix_to_json_obj(Matrix.identity(4))
    path_file = tmp_path / "not_a_root_path.json"
    path_file.write_text(json.dumps({
        "A": matrix_to_json_obj(Matrix.zeros(4, 4)),
        "p": 2,
        "endpoints": {"X": ident, "Y": ident},
        "segments": [{"kind": "centralizer", "baseRoot": ident, "conjugator": ident, "waypoints": ["0", "1"]}],
    }))
    code, out = run(capsys, ["verify", str(path_file), "--samples", "4"])
    assert code == 1
    cert = json.loads(out)
    assert cert["ok"] is False
    assert all(s["profile"] is None and s["residualZero"] is False for s in cert["samples"])


def test_verify_through_a_singular_blend_is_a_well_formed_no(capsys, tmp_path):
    # X = Y = J2 and Q = -I: the blend (1 - 2z)I is singular at z = 1/2
    j2 = matrix_to_json_obj(jordan_cell(2))
    path_file = tmp_path / "singular_blend_path.json"
    path_file.write_text(json.dumps({
        "A": matrix_to_json_obj(Matrix.zeros(2, 2)),
        "p": 2,
        "endpoints": {"X": j2, "Y": j2},
        "segments": [{
            "kind": "centralizer",
            "baseRoot": j2,
            "conjugator": matrix_to_json_obj(-Matrix.identity(2)),
            "waypoints": ["0", "1"],
        }],
    }))
    for samples in ("2", "3", "4"):
        code, out = run(capsys, ["verify", str(path_file), "--samples", samples])
        assert code == 1
        cert = json.loads(out)
        assert cert["ok"] is False and cert["segmentCertifications"][0]["ok"] is False
        for s in cert["samples"]:
            undefined = s["t"] == "1/2"
            assert (s["residualZero"], s["profile"]) == ((False, None) if undefined else (True, "2:1"))


def _non_nilpotent_path_file(tmp_path, p):
    """A 1x1 path with A = 0 and every sample X = [[2]], at power p."""
    two = matrix_to_json_obj(Matrix.from_rows([[2]]))
    path_file = tmp_path / "two_path.json"
    path_file.write_text(json.dumps({
        "A": matrix_to_json_obj(Matrix.zeros(1, 1)),
        "p": p,
        "endpoints": {"X": two, "Y": two},
        "segments": [{
            "kind": "centralizer",
            "baseRoot": two,
            "conjugator": matrix_to_json_obj(Matrix.identity(1)),
            "waypoints": ["0", "1"],
        }],
    }))
    return path_file


def test_huge_p_on_a_non_nilpotent_root_is_decided_without_the_power(capsys, tmp_path):
    # x^p = A for p >= n is decided from x^n, so 2^p is never formed
    huge = 10**18
    path_file = _non_nilpotent_path_file(tmp_path, huge)
    z, two = tmp_path / "z.json", tmp_path / "two.json"
    z.write_text(matrix_to_json(Matrix.zeros(1, 1)))
    two.write_text(matrix_to_json(Matrix.from_rows([[2]])))
    start = time.process_time()
    code, out = run(capsys, ["verify", str(path_file), "--samples", "4"])
    assert code == 1
    cert = json.loads(out)
    assert cert["ok"] is False
    assert all(s["residualZero"] is False and s["profile"] is None for s in cert["samples"])
    assert main(["connect", "--p", str(huge), "--a", str(z), "--x", str(two), "--y", str(z)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "x^p differs from the target" in err
    assert time.process_time() - start < 1


def test_main_twice_in_one_process(files, capsys, tmp_path):
    # the parser is built once and reused: the same stdout, and --help and
    # usage errors keep their exit codes after a successful call
    path_file = _non_nilpotent_path_file(tmp_path, 2)
    outs = [run(capsys, ["verify", str(path_file), "--samples", "3"]) for _ in range(2)]
    assert outs[0] == outs[1] and outs[0][0] == 1
    code, out = run(capsys, ["--help"])
    assert code == 0 and out.startswith("usage: nilpath")
    assert main(["verify"]) == 2
    assert "the following arguments are required: path" in capsys.readouterr().err
    assert run(capsys, ["profile", files["A"]]) == run(capsys, ["profile", files["A"]])


# -- fuzzing: exit codes 0-3 and no traceback for any argv or small file -----

LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 3),
    st.sampled_from(["0", "1", "-1", "1/2", "1/0", "2+i", "i", "x", "", "0/1", "1/1"]),
)
KEYS = st.sampled_from(["rows", "cols", "entries", "A", "p", "segments", "kind", "k", "l"])
JSON_VALUES = st.recursive(
    LEAVES,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(KEYS, kids, max_size=3),
    max_leaves=8,
)
SMALL_MATRICES = [
    Matrix.zeros(2, 2),
    Matrix.zeros(3, 3),
    jordan_cell(2),
    jordan_cell(3),
    direct_sum([jordan_cell(2), jordan_cell(1)]),
    Matrix.identity(2),
    Matrix.zeros(2, 3),
]
MATRIX_OBJS = st.one_of(
    st.sampled_from([matrix_to_json_obj(m) for m in SMALL_MATRICES]),
    st.fixed_dictionaries(
        {
            "rows": st.integers(0, 3),
            "cols": st.integers(0, 3),
            "entries": st.lists(
                st.lists(st.sampled_from(["0", "1", "-1", "1/2", "i"]) | LEAVES, max_size=3),
                max_size=3,
            ),
        }
    ),
    JSON_VALUES,
)
FILE_TEXTS = st.one_of(MATRIX_OBJS.map(json.dumps), st.text(max_size=12))
VERBS = ["profile", "root", "graph", "chain", "connect", "eval-path", "verify", "solvable", "bogus"]
TOKENS = [
    "--p", "--a", "--x", "--y", "--samples", "--mode", "--t", "--profile", "--from", "--to",
    "--zeros", "--inf", "--dot", "--matrix", "--help", "certified", "sampled", "0", "1", "2", "3",
    "-1", "1/2", "2:1", "1:2", "1:3", "2:1,1:1", "x", "{A}", "{X}", "{Y}", "{PATH}",
]


def _small_path_obj(x):
    # a path of 2x2 or 3x3 roots of the zero matrix, ending in the zero matrix
    z = Matrix.zeros(x.rows, x.rows)
    return connect_roots(z, 2, x, z).to_json_obj()


SMALL_PATHS = [_small_path_obj(jordan_cell(2)), _small_path_obj(direct_sum([jordan_cell(2), jordan_cell(1)]))]


def _places(node):
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in list(items):
        yield node, key
        if isinstance(child, (dict, list)):
            yield from _places(child)


@st.composite
def mutated_path_texts(draw):
    # up to two leaves or subtrees of a valid path replaced or deleted
    obj = json.loads(json.dumps(draw(st.sampled_from(SMALL_PATHS))))
    for _ in range(draw(st.integers(0, 2))):
        node, key = draw(st.sampled_from(list(_places(obj))))
        if draw(st.booleans()):
            node[key] = draw(JSON_VALUES)
        else:
            del node[key]
    return json.dumps(obj)


def _run_cli_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=50, deadline=None)
@given(
    verb=st.sampled_from(VERBS),
    tokens=st.lists(st.sampled_from(TOKENS), max_size=8),
    texts=st.fixed_dictionaries(
        {"A": FILE_TEXTS, "X": FILE_TEXTS, "Y": FILE_TEXTS, "PATH": mutated_path_texts()}
    ),
)
def test_cli_fuzz_exit_codes(verb, tokens, texts):
    with tempfile.TemporaryDirectory() as tmp:
        names = {}
        for name, text in texts.items():
            names[name] = os.path.join(tmp, f"{name}.json")
            with open(names[name], "w", encoding="utf-8") as fh:
                fh.write(text)
        code, err = _run_cli_quietly([verb] + [t.format(**names) for t in tokens])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err


@settings(max_examples=40, deadline=None)
@given(verb=st.sampled_from([["verify", "--samples", "2"], ["eval-path", "--t", "1/3"]]),
       text=mutated_path_texts())
def test_cli_fuzz_path_json(verb, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "path.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        code, err = _run_cli_quietly([verb[0], path, *verb[1:]])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
