"""Command line wiring: exit codes, JSON lines, file outputs, determinism.

Commands run in-process through main(argv) so stdout can be captured and
compared byte for byte; one subprocess test checks the installed console
script end to end.
"""

import json
import os
import subprocess
import sys

import pytest

import qramsey
from qramsey import (VECTOR, ConfigFamily, enumerate_subspaces, full_space,
                     host_from_json, induced_host_verify, make_field)
from qramsey.cli import _write_json, main

DEGENERATE_SPEC = {
    "q": 2, "mode": "vector", "k": 1, "n": 2, "r": 1,
    "F": {
        "ambient": {"mode": "vector", "q": 2, "ambient_len": 2,
                    "direction": [[1, 0], [0, 1]]},
        "members": [{"mode": "vector", "q": 2, "ambient_len": 2,
                     "direction": [[0, 1]]}],
    },
    "N0": 2, "N1": 1,
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    lines = [json.loads(ln) for ln in out.strip().splitlines()] if out.strip() else []
    return code, lines, out


# -- count / enumerate -------------------------------------------------------


def test_count_golden(capsys):
    code, lines, _ = run_cli(capsys, "count", "--q", "2", "--mode", "vector",
                             "--N", "4", "--k", "2")
    assert code == 0
    assert lines[0]["count_formula"] == 35
    assert lines[0]["count_enumerated"] == 35
    assert lines[0]["match"] is True


def test_count_trivial(capsys):
    code, lines, _ = run_cli(capsys, "count", "--q", "2", "--mode", "vector",
                             "--N", "3", "--k", "3")
    assert code == 0 and lines[0]["count_formula"] == 1


def test_count_affine_points(capsys):
    code, lines, _ = run_cli(capsys, "count", "--q", "3", "--mode", "affine",
                             "--N", "2", "--k", "1")
    assert code == 0
    assert lines[0]["count_formula"] == 3 == lines[0]["count_enumerated"]


def test_enumerate_lists_subspaces(capsys):
    code, lines, _ = run_cli(capsys, "enumerate", "--q", "2", "--mode",
                             "vector", "--N", "2", "--k", "1")
    assert code == 0 and len(lines) == 3
    keys = [json.dumps(ln, separators=(",", ":")) for ln in lines]
    assert keys == sorted(keys)


def test_enumerate_size_cap(capsys):
    code, lines, _ = run_cli(capsys, "enumerate", "--q", "2", "--mode",
                             "vector", "--N", "17", "--k", "1")
    assert code == 2
    assert lines[0]["error"] == "size_cap"
    # few enough points, but about 2.3e11 subspaces: refused before listing
    code, lines, _ = run_cli(capsys, "count", "--q", "2", "--mode",
                             "vector", "--N", "12", "--k", "6")
    assert code == 2
    assert lines[0]["error"] == "size_cap"


# -- arrow --------------------------------------------------------------------


def test_arrow_fails_with_witness_file(capsys, tmp_path):
    out = tmp_path / "w.json"
    code, lines, _ = run_cli(capsys, "arrow", "--q", "2", "--mode", "vector",
                             "--N", "2", "--n", "2", "--k", "1", "--r", "2",
                             "--out", str(out))
    assert code == 2
    assert lines[0]["verdict"] == "fails"
    assert list(lines[0]["witness"]["entries"].values()) == [0, 0, 1]
    assert json.loads(out.read_text()) == lines[0]["witness"]


def test_arrow_holds_single_color(capsys):
    code, lines, _ = run_cli(capsys, "arrow", "--q", "2", "--mode", "vector",
                             "--N", "2", "--n", "2", "--k", "1", "--r", "1")
    assert code == 0 and lines[0]["verdict"] == "holds"
    assert lines[0]["witness"] is None


def test_arrow_min_n(capsys):
    code, lines, _ = run_cli(capsys, "arrow", "--min-n", "--q", "2", "--mode",
                             "vector", "--n", "2", "--k", "1", "--r", "2",
                             "--nmax", "6")
    assert code == 0 and lines[0]["value"] == 3


def test_arrow_min_n_out_of_range(capsys):
    code, lines, _ = run_cli(capsys, "arrow", "--min-n", "--q", "2", "--mode",
                             "vector", "--n", "2", "--k", "1", "--r", "2",
                             "--nmax", "2")
    assert code == 2 and lines[0]["value"] is None


def test_arrow_budget_unknown(capsys):
    code, lines, _ = run_cli(capsys, "arrow", "--q", "2", "--mode", "vector",
                             "--N", "3", "--n", "2", "--k", "1", "--r", "2",
                             "--budget-nodes", "2")
    assert code == 3
    assert lines[0]["verdict"] == "unknown"
    assert lines[0]["reason"] == "budget_exceeded"


def test_arrow_requires_N_without_min_n(capsys):
    code, _, _ = run_cli(capsys, "arrow", "--q", "2", "--mode", "vector",
                         "--n", "2", "--k", "1", "--r", "2")
    assert code == 4


# -- hj -------------------------------------------------------------------------


def test_hj_golden(capsys, tmp_path):
    out = tmp_path / "hjw.json"
    code, lines, _ = run_cli(capsys, "hj", "--t", "2", "--l", "2", "--nmax",
                             "4", "--out", str(out))
    assert code == 0 and lines[0]["value"] == 2
    assert lines[0]["witness"] == {"N": 1, "t": 2, "colors": [0, 1]}
    assert json.loads(out.read_text()) == lines[0]["witness"]


def test_hj_none_in_range(capsys):
    code, lines, _ = run_cli(capsys, "hj", "--t", "2", "--l", "3", "--nmax",
                             "2")
    assert code == 2 and lines[0]["value"] is None
    assert lines[0]["witness"] == {"N": 2, "t": 2, "colors": [0, 1, 1, 2]}


# -- construct / verify / extract -------------------------------------------------


@pytest.fixture()
def bundle_path(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(DEGENERATE_SPEC))
    bundle = tmp_path / "bundle.json"
    code, lines, _ = run_cli(capsys, "construct", "--spec", str(spec),
                             "--out", str(bundle))
    assert code == 0
    assert lines[0]["num_members"] == 3
    return bundle


def test_construct_bundle_contents(bundle_path):
    data = json.loads(bundle_path.read_text())
    host = host_from_json(data)
    assert len(host.members) == 3
    assert host.space.rank == 3


def test_construct_spec_with_unsorted_rows(tmp_path, capsys):
    # hand-authored generating sets need not be in canonical form
    spec = json.loads(json.dumps(DEGENERATE_SPEC))
    spec["F"]["ambient"]["direction"] = [[0, 1], [1, 0]]
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(spec))
    code, lines, _ = run_cli(capsys, "construct", "--spec", str(p),
                             "--out", str(tmp_path / "b.json"))
    assert code == 0 and lines[0]["num_members"] == 3


def test_extract_constant_coloring(bundle_path, tmp_path, capsys):
    col = tmp_path / "col.json"
    col.write_text(json.dumps({"constant": 0}))
    out = tmp_path / "copy.json"
    code, lines, _ = run_cli(capsys, "extract", "--bundle", str(bundle_path),
                             "--coloring", str(col), "--out", str(out))
    assert code == 0
    assert lines[0]["status"] == "success"
    assert lines[0]["color"] == 0
    assert len(lines[0]["members"]) == 1
    assert json.loads(out.read_text()) == lines[0]


def test_extract_entries_coloring(bundle_path, tmp_path, capsys):
    host = host_from_json(json.loads(bundle_path.read_text()))
    col = tmp_path / "col.json"
    col.write_text(json.dumps(
        {"entries": {m.key(): 0 for m in host.members}}))
    code, lines, _ = run_cli(capsys, "extract", "--bundle", str(bundle_path),
                             "--coloring", str(col))
    assert code == 0 and lines[0]["status"] == "success"


def test_extract_bad_coloring_file(bundle_path, tmp_path, capsys):
    col = tmp_path / "col.json"
    col.write_text(json.dumps({"nope": 1}))
    code, lines, _ = run_cli(capsys, "extract", "--bundle", str(bundle_path),
                             "--coloring", str(col))
    assert code == 4


def test_verify_holds(bundle_path, capsys):
    code, lines, _ = run_cli(capsys, "verify", "--bundle", str(bundle_path))
    assert code == 0
    assert lines[0]["verdict"] == "holds"
    assert lines[0]["candidates"] == 7
    assert lines[0]["induced_copies"] == 6


def test_verify_r_override_matches_library(bundle_path, capsys):
    host = host_from_json(json.loads(bundle_path.read_text()))
    expect = induced_host_verify(host.space, host.members,
                                 host.spec.family, 2)
    code, lines, _ = run_cli(capsys, "verify", "--bundle", str(bundle_path),
                             "--r", "2")
    assert lines[0]["verdict"] == ("holds" if expect.holds else "fails")
    assert code == (0 if expect.holds else 2)


def test_verify_witness_file_on_failure(tmp_path, capsys):
    # word length 1 carries no guarantee beyond one color; with all three
    # rank-1 members in F a two-coloring dodges every good copy
    f = make_field(2)
    amb = full_space(f, VECTOR, 2)
    members = enumerate_subspaces(amb, 1)
    spec = {
        "q": 2, "mode": "vector", "k": 1, "n": 2, "r": 1,
        "F": {"ambient": amb.to_json(),
              "members": [m.to_json() for m in members]},
        "N0": 2, "N1": 1,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    bundle = tmp_path / "bundle.json"
    assert main(["construct", "--spec", str(spec_path), "--out",
                 str(bundle)]) == 0
    capsys.readouterr()
    out = tmp_path / "w.json"
    code, lines, _ = run_cli(capsys, "verify", "--bundle", str(bundle),
                             "--r", "2", "--out", str(out))
    assert code == 2
    assert lines[0]["verdict"] == "fails"
    assert json.loads(out.read_text()) == lines[0]["witness"]
    assert set(lines[0]["witness"]["entries"].values()) == {0, 1}


@pytest.mark.parametrize("path", [
    ("H", 0, "direction", 0, -1),
    ("X", "direction", 0, -1),
    ("pi", "matrix", 0, 0),
    ("blocks", "targets", 0, "covers", 0, "lifted", "direction", 0, -1),
], ids=["H", "X", "pi", "blocks"])
def test_tampered_bundle_exits_4(bundle_path, tmp_path, capsys, path):
    data = json.loads(bundle_path.read_text())
    node = data
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] ^= 1
    bundle_path.write_text(json.dumps(data))
    col = tmp_path / "col.json"
    col.write_text(json.dumps({"constant": 0}))
    for argv in (["verify", "--bundle", str(bundle_path)],
                 ["extract", "--bundle", str(bundle_path),
                  "--coloring", str(col)]):
        code, _, out = run_cli(capsys, *argv)
        assert code == 4 and out == ""


@pytest.mark.parametrize("flag", ["--bundle", "--spec", "--coloring"])
def test_non_object_json_input_exits_4(bundle_path, tmp_path, capsys, flag):
    bad = tmp_path / "bad.json"
    bad.write_text("[]\n")
    argv = {
        "--bundle": ["verify", "--bundle", str(bad)],
        "--spec": ["construct", "--spec", str(bad),
                   "--out", str(tmp_path / "b.json")],
        "--coloring": ["extract", "--bundle", str(bundle_path),
                       "--coloring", str(bad)],
    }[flag]
    code, _, out = run_cli(capsys, *argv)
    assert code == 4 and out == ""


def test_coloring_entries_must_be_an_object(bundle_path, tmp_path, capsys):
    col = tmp_path / "col.json"
    col.write_text(json.dumps({"entries": [0, 1]}))
    code, _, out = run_cli(capsys, "extract", "--bundle", str(bundle_path),
                           "--coloring", str(col))
    assert code == 4 and out == ""


# (path into DEGENERATE_SPEC, value put there)
MALFORMED_NESTED = [
    (("F",), []),
    (("F", "ambient"), 5),
    (("F", "ambient", "q"), [2]),
    (("F", "ambient", "ambient_len"), None),
    (("F", "ambient", "direction"), 5),
    (("F", "ambient", "direction", 0), 1),
    (("F", "ambient", "direction", 0, 0), [1]),
    (("F", "ambient", "direction", 0, 0), 5),   # outside GF(2)
    (("F", "ambient", "mode"), "projective"),
    (("F", "members"), {"a": 1}),
    (("F", "members", 0), "x"),
    (("F", "members", 0, "direction", 0), None),
    (("q",), [2]),
    (("k",), {}),
    (("N1",), [1]),
    (("k",), 1.5),                              # not silently truncated
    (("N0",), "2"),
    (("r",), True),
    (("F", "members", 0, "direction", 0, 1), 1.0),
]


@pytest.mark.parametrize("path,value", MALFORMED_NESTED,
                         ids=lambda x: json.dumps(x))
def test_malformed_nested_spec_exits_4(tmp_path, capsys, path, value):
    spec = json.loads(json.dumps(DEGENERATE_SPEC))
    node = spec
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(spec))
    code, _, out = run_cli(capsys, "construct", "--spec", str(p),
                           "--out", str(tmp_path / "b.json"))
    assert code == 4 and out == ""


@pytest.mark.parametrize("coloring", [
    {"constant": [0]}, {"constant": None}, {"constant": 0.5},
    {"entries": {"k": [0]}}, {"entries": {"k": {}}}, {"entries": {"k": "0"}},
], ids=lambda x: json.dumps(x))
def test_malformed_coloring_value_exits_4(bundle_path, tmp_path, capsys,
                                          coloring):
    col = tmp_path / "col.json"
    col.write_text(json.dumps(coloring))
    code, _, out = run_cli(capsys, "extract", "--bundle", str(bundle_path),
                           "--coloring", str(col))
    assert code == 4 and out == ""


@pytest.mark.parametrize("obj", [
    [], {}, [[]], [{}], {"a": []}, [1, [2, {"b": [3, 4]}]], [[1, 2], 3],
    {"x": {"y": [[0, 1], [1, 0]], "z": None}, "\u00e9": "\u2603", "n": 1.5},
    {1: "int key", "s": [True, False]},
], ids=lambda obj: json.dumps(obj, ensure_ascii=True))
def test_streamed_json_writer_matches_json_dump(tmp_path, obj):
    path = tmp_path / "out.json"
    _write_json(str(path), obj)
    assert path.read_text(encoding="utf-8") == json.dumps(obj) + "\n"


def test_streamed_bundle_matches_json_dump(bundle_path):
    data = json.loads(bundle_path.read_text())
    assert bundle_path.read_text() == json.dumps(data) + "\n"


# -- usage errors ------------------------------------------------------------------


def test_unknown_command_exits_4():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 4


def test_bad_mode_exits_4():
    with pytest.raises(SystemExit) as exc:
        main(["count", "--q", "2", "--mode", "projective", "--N", "2",
              "--k", "1"])
    assert exc.value.code == 4


def test_bad_field_order_exits_4(capsys):
    code, _, _ = run_cli(capsys, "count", "--q", "6", "--mode", "vector",
                         "--N", "2", "--k", "1")
    assert code == 4


def test_missing_spec_file_exits_4(capsys):
    code, _, _ = run_cli(capsys, "construct", "--spec", "/nonexistent.json",
                         "--out", "/tmp/never.json")
    assert code == 4


def test_malformed_spec_exits_4(tmp_path, capsys):
    p = tmp_path / "spec.json"
    p.write_text("{not json")
    code, _, _ = run_cli(capsys, "construct", "--spec", str(p), "--out",
                         str(tmp_path / "b.json"))
    assert code == 4


# -- determinism ---------------------------------------------------------------------


def test_stdout_identical_across_workers(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(DEGENERATE_SPEC))
    outs = []
    for workers in ("1", "4"):
        chunks = []
        for argv in (
            ["count", "--q", "2", "--mode", "vector", "--N", "4", "--k", "2",
             "--workers", workers],
            ["arrow", "--q", "2", "--mode", "vector", "--N", "3", "--n", "2",
             "--k", "1", "--r", "2", "--workers", workers],
            ["hj", "--t", "2", "--l", "2", "--nmax", "4", "--workers",
             workers],
            ["construct", "--spec", str(spec), "--out",
             str(tmp_path / f"b{workers}.json"), "--workers", workers],
        ):
            assert main(argv) in (0, 2)
            chunks.append(capsys.readouterr().out)
        # the construct line echoes its --out path; normalize it
        chunks[-1] = chunks[-1].replace(f"b{workers}.json", "b.json")
        outs.append("".join(chunks))
    assert outs[0] == outs[1]
    b1 = (tmp_path / "b1.json").read_text().replace("b1", "b")
    b4 = (tmp_path / "b4.json").read_text().replace("b4", "b")
    assert b1 == b4


def test_repeat_run_byte_identical(capsys):
    argv = ["arrow", "--q", "2", "--mode", "affine", "--N", "2", "--n", "2",
            "--k", "1", "--r", "2"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_console_script_installed():
    # the child process imports the same qramsey as this test, whether it
    # comes from an install or from pytest's `pythonpath` setting
    src = os.path.dirname(os.path.dirname(qramsey.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "qramsey.cli", "count", "--q", "2", "--mode",
         "vector", "--N", "2", "--k", "1"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count_formula"] == 3
    assert "exit 0" in proc.stderr
