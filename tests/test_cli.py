"""Command line wiring: exit codes, JSON lines, file outputs, determinism.

Commands run in-process through main(argv) so stdout can be captured and
compared byte for byte; one subprocess test checks the installed console
script end to end.
"""

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import time

import pytest

import qramsey
from qramsey import (AFFINE, POINT_CAP, VECTOR, ConfigFamily, HostSpec,
                     arrow, construction, enumerate_subspaces, full_space,
                     host_from_json, induced_host_verify, make_field, space,
                     span)
from qramsey.cli import (COMMANDS, _write_json, build_parser, main,
                         read_argv)

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


def test_count_rejects_field_order_one(capsys):
    # the closed form divides by q^i - 1, so the field is checked first
    start = time.perf_counter()
    code, lines, _ = run_cli(capsys, "count", "--q", "1", "--mode", "vector",
                             "--N", "2", "--k", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 4 and lines == []


def test_count_size_cap_before_closed_form(capsys):
    # 16^2000 points: the Gaussian binomial alone would take half a minute
    start = time.perf_counter()
    code, lines, _ = run_cli(capsys, "count", "--q", "16", "--mode", "vector",
                             "--N", "2000", "--k", "1000")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert [ln["error"] for ln in lines] == ["size_cap"]


@pytest.mark.parametrize("mode", [VECTOR, AFFINE])
def test_count_formats_no_key(capsys, monkeypatch, mode):
    # count neither keys, sorts nor keeps the subspaces: its walk is
    # unkeyed, so formatting any vector as key text fails the run
    def refuse(v):
        raise AssertionError("a key was formatted")

    monkeypatch.setattr(space, "_json_list", refuse)
    code, lines, _ = run_cli(capsys, "count", "--q", "3", "--mode", mode,
                             "--N", "4", "--k", "2")
    assert code == 0 and lines[0]["match"] is True
    assert lines[0]["count_enumerated"] > 100
    # the same walk keyed, as enumerate_subspaces sorts it, does format keys
    with pytest.raises(AssertionError, match="a key was formatted"):
        enumerate_subspaces(full_space(make_field(3), mode, 4), 2)


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


@pytest.mark.parametrize("command", ["count", "enumerate"])
@pytest.mark.parametrize("q,mode,big_n,k,message", [
    (16, VECTOR, 4000, 1000, "ambient has at least 2^16000 points"),
    (2, AFFINE, 18, 1, "ambient has 131072 points"),
    (2, VECTOR, 12, 6, "230674393235 rank-6 subspaces"),
], ids=["16^4000_points", "affine_2^17_points", "2.3e11_subspaces"])
def test_size_guard_runs_before_the_space_is_built(command, q, mode, big_n,
                                                   k, message, capsys,
                                                   monkeypatch):
    # the guard reads the space's shape only, so a refused count builds
    # no N x N identity and starts no walk
    def built(*args):
        raise AssertionError("the coordinate space was built or walked")

    monkeypatch.setattr(space, "full_space", built)
    monkeypatch.setattr(space, "_full_walk", built)
    code, _, out = run_cli(capsys, command, "--q", str(q), "--mode", mode,
                           "--N", str(big_n), "--k", str(k))
    assert code == 2
    assert out == ('{"command": "%s", "error": "size_cap", "message": '
                   '"%s, cap 65536"}\n' % (command, message))


# enumerate prints each line from the walk's formatted row options and
# sorts the lines as strings; the bytes and their order must stay those of
# json.dumps(s.to_json()) over enumerate_subspaces.  q = 11, 13 and 16 give
# two-digit entries; vector k = 0 gives an empty direction, and so do
# affine points (k = 1); N = 0 and affine N = 1 have an empty ambient.
ENUMERATE_CASES = [
    (VECTOR, 2, 4, 2), (AFFINE, 2, 4, 2), (VECTOR, 3, 3, 1), (AFFINE, 3, 3, 2),
    (VECTOR, 11, 3, 2), (AFFINE, 11, 3, 2), (VECTOR, 16, 2, 1),
    (AFFINE, 16, 3, 2), (VECTOR, 3, 2, 0), (VECTOR, 16, 3, 0),
    (VECTOR, 13, 3, 2), (AFFINE, 13, 3, 2), (AFFINE, 13, 2, 1),
    (AFFINE, 3, 3, 1), (VECTOR, 3, 3, 3), (AFFINE, 3, 3, 3),
    (VECTOR, 2, 0, 0), (AFFINE, 2, 1, 1),
]


@pytest.mark.parametrize("mode,q,big_n,k", ENUMERATE_CASES)
def test_enumerate_lines_match_json_dumps(mode, q, big_n, k, capsys, tmp_path):
    out_file = tmp_path / "subspaces.jsonl"
    code, _, out = run_cli(capsys, "enumerate", "--q", str(q), "--mode", mode,
                           "--N", str(big_n), "--k", str(k),
                           "--out", str(out_file))
    assert code == 0
    want = "".join(json.dumps(s.to_json()) + "\n" for s in
                   enumerate_subspaces(full_space(make_field(q), mode, big_n), k))
    assert want
    assert out == want
    assert out_file.read_text(encoding="utf-8") == want


def test_enumerate_stdout_digest_pinned(capsys):
    # sha256 of the stdout, recorded when each line was json.dumps(s.to_json())
    code, _, out = run_cli(capsys, "enumerate", "--q", "2", "--mode", "vector",
                           "--N", "5", "--k", "2")
    assert code == 0 and out.count("\n") == 155
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "dc92a538896823916eeaf1d6fb0eaaa2dbc9334c3284b0b85514f007b9a0bb5a"


# sha256 of enumerate's stdout over the extension fields and GF(11),
# where key entries reach two digits, recorded when every point was a
# tuple of ints.  (q, mode, N, k) -> (lines, digest)
PINNED_FIELD_ENUMERATIONS = {
    (4, VECTOR, 3, 2): (21, "82e4656c96333877a9050533af5ae8053b24a88b7813ccfc9572060c852374a1"),
    (4, AFFINE, 3, 2): (20, "ae7001ed570487bc687a223d57cd633f5fc516e425e3f75dd2844dc2f313cd49"),
    (9, VECTOR, 3, 1): (91, "e65bcc4c409f29178888e2244f3936b365525fd0158a9f505979616efacb9b93"),
    (9, AFFINE, 3, 2): (90, "dece611d75485e16338915082f23198054e54856955f701afa870e6c4b649de6"),
    (11, VECTOR, 3, 2): (133, "802690fa0f2f4dd364f8fd9b7058f6a68aedb889fd005824e801d77f402f4c82"),
    (11, AFFINE, 2, 1): (11, "c473e3aa07f8d6ac5bbf0b82f007c352eb1cb41bd17fd7e60c6714724a106171"),
    (16, VECTOR, 3, 2): (273, "e1fa5a86e88b4fb87f8e161bc1cfc1b53b426452df0099bb97d6c0eb902f2346"),
    (16, AFFINE, 3, 2): (272, "54a5cb2be15e43876f3fb9df1252e3b6bc027094efcd3c2032d32095d43f7d7b"),
}


@pytest.mark.parametrize("case", list(PINNED_FIELD_ENUMERATIONS),
                         ids=["q{}_{}_N{}_k{}".format(*c)
                              for c in PINNED_FIELD_ENUMERATIONS])
def test_enumerate_stdout_digests_pinned_over_larger_fields(case, capsys):
    q, mode, big_n, k = case
    lines, digest = PINNED_FIELD_ENUMERATIONS[case]
    code, _, out = run_cli(capsys, "enumerate", "--q", str(q), "--mode", mode,
                           "--N", str(big_n), "--k", str(k))
    assert code == 0 and out.count("\n") == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_count_builds_no_keys(capsys, monkeypatch):
    def keyed(self):
        raise AssertionError("count keyed a subspace")

    monkeypatch.setattr(qramsey.Subspace, "key", keyed)
    for argv, count in [(("vector", "4", "2"), 130), (("affine", "4", "2"), 117)]:
        mode, big_n, k = argv
        code, _, out = run_cli(capsys, "count", "--q", "3", "--mode", mode,
                               "--N", big_n, "--k", k)
        assert code == 0
        assert out == ('{"command": "count", "q": 3, "mode": "%s", "N": %s, '
                       '"k": %s, "count_formula": %d, "count_enumerated": %d, '
                       '"match": true}\n' % (mode, big_n, k, count, count))


@pytest.mark.parametrize("mode", [VECTOR, AFFINE])
def test_count_builds_no_subspace(capsys, monkeypatch, mode):
    # count iterates the walk's row tuples; it never builds the subspaces
    # that enumerate lists
    def build(*args):
        raise AssertionError("a subspace was built")

    monkeypatch.setattr(space, "_unchecked_subspace", build)
    for q, big_n, k in [(3, "4", "2"), (4, "3", "1"), (2, "5", "3")]:
        code, lines, _ = run_cli(capsys, "count", "--q", str(q), "--mode",
                                 mode, "--N", big_n, "--k", k)
        assert code == 0 and lines[0]["match"] is True
        assert lines[0]["count_enumerated"] == lines[0]["count_formula"] > 1
    with pytest.raises(AssertionError, match="a subspace was built"):
        enumerate_subspaces(full_space(make_field(3), mode, 4), 2)


def test_enumerate_builds_no_subspace(capsys, monkeypatch):
    # enumerate prints the walk's texts; it neither builds the subspaces
    # nor formats their compact keys
    def build(*args):
        raise AssertionError("a subspace was built or keyed")

    monkeypatch.setattr(space, "_unchecked_subspace", build)
    monkeypatch.setattr(qramsey.Subspace, "key", build)
    code, _, out = run_cli(capsys, "enumerate", "--q", "2", "--mode", "vector",
                           "--N", "5", "--k", "2")
    assert code == 0 and out.count("\n") == 155
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "dc92a538896823916eeaf1d6fb0eaaa2dbc9334c3284b0b85514f007b9a0bb5a"


@pytest.mark.parametrize("mode,check", [(VECTOR, "_check_pattern"),
                                        (AFFINE, "_check_pattern")])
def test_count_runs_the_walk_checks(capsys, monkeypatch, mode, check):
    # the count is taken over checked row options, a flat's basepoint row
    # among them, so a failing check fails count as it fails enumerate
    def refuse(*args):
        raise ValueError(f"{check} ran")

    monkeypatch.setattr(space, check, refuse)
    for command in ("count", "enumerate"):
        code = main([command, "--q", "3", "--mode", mode, "--N", "4",
                     "--k", "2"])
        captured = capsys.readouterr()
        assert code == 4 and captured.out == ""
        assert f"{check} ran" in captured.err


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


def test_arrow_stdout_digest_pinned_at_q11(capsys):
    # sha256 of the stdout, recorded when every point was a tuple of ints;
    # the witness keys hold two-digit entries
    code, lines, out = run_cli(capsys, "arrow", "--q", "11", "--mode", "vector",
                               "--N", "2", "--n", "2", "--k", "1", "--r", "2")
    assert code == 2 and lines[0]["verdict"] == "fails"
    assert any(",10]" in key for key in lines[0]["witness"]["entries"])
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "db1f2e3bfd61b073e3641535470d422f8d01dc96996312f53032e21985ee82c4"


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


def test_hj_size_cap(capsys):
    # length 2 would list 10^6 words: refused before anything is built
    start = time.perf_counter()
    code, lines, _ = run_cli(capsys, "hj", "--t", "1000", "--l", "2",
                             "--nmax", "3")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert lines == [{"command": "hj", "error": "size_cap",
                      "message": "1000000 words of length 2, cap 65536"}]


@pytest.mark.parametrize("t,nmax,nodes", [("65536", "1", 65536),
                                           ("256", "2", 65794)])
def test_hj_at_the_word_cap(capsys, t, nmax, nodes):
    # POINT_CAP words at the last length: one line of them all at t = 65536,
    # 1028 lines of 256 at t = 256; both are 2-colorable
    start = time.perf_counter()
    code, lines, _ = run_cli(capsys, "hj", "--t", t, "--l", "2",
                             "--nmax", nmax)
    assert time.perf_counter() - start < 5.0
    assert code == 2
    assert lines[0]["value"] is None and lines[0]["nodes_explored"] == nodes
    assert len(lines[0]["witness"]["colors"]) == POINT_CAP


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


# sha256 of the bundles of small n = 2, k = 1 specs, recorded when every
# member was still found by projecting its parts and row-reducing: the
# members written from cover sections must give the same bytes.
# (q, mode, |F|, N0, N1) -> digest
PINNED_BUNDLES = {
    (2, VECTOR, 2, 2, 2): "e0f273298606a29fa624fdb39fa693e9c750b21c05a1404fce33eaebd05121b9",
    (2, VECTOR, 3, 3, 1): "af99e9b2f685ad261cb07fa1178ade14f1af9ce18ec3598729183f35a90fa371",
    (2, AFFINE, 2, 3, 2): "cc397aee27ecbe1ad6acd461df421c0746109d7554b1935f302d009a27aaa848",
    (2, AFFINE, 1, 2, 3): "a92af1cd5ee42ddb9aa45b00cf4b81047a111ab7c28282c11bd36258512d1df1",
    (3, VECTOR, 2, 2, 2): "a9ede18c635e41ee86ed6e3854044f5dff1deece1ba6ab2dab92d0addbd2c723",
    (3, VECTOR, 1, 3, 1): "854d03167c19d26cfc094892cdb5eee2e478369b0ce4e686993d7df3990a1ec8",
    (3, AFFINE, 2, 3, 1): "6f70f13ac735868886f0f7800712c40e0a6c2d2a9a0683873511a5ca89de228f",
    (3, AFFINE, 2, 2, 2): "b484015aef7e97fa5cd31cd1a9396feffeb8f2558ac07d4401221829c34c5cfd",
}


@pytest.mark.parametrize("case", list(PINNED_BUNDLES),
                         ids=["q{}_{}_F{}_N0_{}_N1_{}".format(*c)
                              for c in PINNED_BUNDLES])
def test_construct_bundle_digests_pinned(case, tmp_path, capsys):
    q, mode, nf, n0, n1 = case
    amb = full_space(make_field(q), mode, 2)
    fam = ConfigFamily(amb, tuple(enumerate_subspaces(amb, 1)[:nf]))
    spec = HostSpec(q, mode, 1, 2, 2, fam, n0, n1)
    spec_path, bundle = tmp_path / "spec.json", tmp_path / "bundle.json"
    spec_path.write_text(json.dumps(spec.to_json()))
    code, _, _ = run_cli(capsys, "construct", "--spec", str(spec_path),
                         "--out", str(bundle))
    assert code == 0
    assert hashlib.sha256(bundle.read_bytes()).hexdigest() == PINNED_BUNDLES[case]


def construct_bundle(capsys, tmp_path, spec):
    spec_path, bundle = tmp_path / "spec.json", tmp_path / "bundle.json"
    spec_path.write_text(json.dumps(spec.to_json()))
    code, _, _ = run_cli(capsys, "construct", "--spec", str(spec_path),
                         "--out", str(bundle))
    assert code == 0
    return bundle


def proper_ambient_spec(q, mode, n0, n1):
    """F: two rank-1 members of a rank-2 proper subspace of the coordinate
    3-space whose canonical basis is not made of unit vectors."""
    pts = [(1, 1, 0), (0, 1, 1)] if mode == VECTOR else [(1, 0, 1), (0, 1, 1)]
    amb = span(make_field(q), mode, pts, 3)
    fam = ConfigFamily(amb, tuple(enumerate_subspaces(amb, 1)[:2]))
    return HostSpec(q, mode, 1, 2, 2, fam, n0, n1)


# the same, for F inside a proper subspace of a longer coordinate space,
# where the build pulls F back to the coordinate space of its rank;
# recorded when each target solved its own embedding of F's ambient.
# (q, mode, N0, N1) -> digest
PINNED_PROPER_AMBIENT_BUNDLES = {
    (2, VECTOR, 2, 1): "823ce26cddf7cdba0b710096f01d95af063274bc6b2fbc6719d92a70b7bb0913",
    (2, VECTOR, 2, 2): "40b8898d3a179bd750598e4d71f88acd85961449f723224924ed925d1bdd697b",
    (2, VECTOR, 3, 1): "b3ef095b37c813fc31d338572ed86f50582fa0e0dcffa333bc9cb80c86a8fed9",
    (3, VECTOR, 2, 1): "8b9ff0ba64516b3624f2d4924655a4a06fe96259c96277559aab6b3620e9a923",
    (3, VECTOR, 2, 2): "b6810d611f120c22d72319b10c7dc0e08c591a4714d0df0c264341b3dd47b21a",
    (3, VECTOR, 3, 1): "bc65a98a99b143a5da003d906d218547cdd077361b2bfb08911453aad27e4e54",
    (2, AFFINE, 2, 1): "5dd42855bf8c1bf1d668d14ffe6b1c1d1168b9e66d5f0382d1c94d4f828a7497",
    (2, AFFINE, 2, 2): "855445c52b8903c9a902078db20fddad1d1809edd624ba056879c7d1e0220068",
    (2, AFFINE, 3, 1): "35c6c33ed44e8ff82bc4abdcd7c64369db1a2958bdcd690b10e93f87878b5473",
    (3, AFFINE, 2, 1): "6f8dd9af81c5481baa39adbebd6b1e5431f7e6a413d1ca4b4eff5dd8b52259b7",
    (3, AFFINE, 2, 2): "47c73dc83c6fec58a40dc18cfdba60462c5f647c341492f296c15b1c414c58dd",
    (3, AFFINE, 3, 1): "e53e6510e2f8cc0dd48fe95b79ace503095a2377a4c14b04ff4bb5444f535da7",
}


@pytest.mark.parametrize("case", list(PINNED_PROPER_AMBIENT_BUNDLES),
                         ids=["q{}_{}_N0_{}_N1_{}".format(*c)
                              for c in PINNED_PROPER_AMBIENT_BUNDLES])
def test_construct_proper_ambient_digests_pinned(case, tmp_path, capsys):
    bundle = construct_bundle(capsys, tmp_path, proper_ambient_spec(*case))
    assert hashlib.sha256(bundle.read_bytes()).hexdigest() == \
        PINNED_PROPER_AMBIENT_BUNDLES[case]


# the same over the extension fields and GF(11) and GF(16), whose key
# entries reach two digits, recorded when every point was a tuple of
# ints.  F is the rank-2 coordinate space's lines 2 .. 2 + |F| - 1, in
# key order.  (q, mode, |F|, N0, N1) -> digest
PINNED_FIELD_BUNDLES = {
    (4, VECTOR, 2, 3, 1): "890c2d9672db3d688fbb8aa275e6f0c1677ea23633f2e57051c6547f90e4f34b",
    (4, AFFINE, 2, 2, 2): "1d7359b9a3479e57a3cb272fd7bc9dc4bc3f0ba53134e0b987f189d4ccabaa44",
    (9, AFFINE, 2, 2, 2): "39a14aa9db2f9a781059a34fbcd2702440c8161d589632466047fb93776d45df",
    (11, VECTOR, 2, 2, 2): "0099323f9ecf1ff3478cf33c25844067d8a1cd626aecb27d959cc7f11a1e9fa3",
    (16, AFFINE, 1, 2, 1): "b7edbc3bf9003ddf2b869863111f7f2db24f3712ff2d7ebe5aa61bb6aa38f20b",
    (16, VECTOR, 2, 2, 1): "defb66bd98ef1f2a1cd45e38441255aeffe405b453f465f91aaa0bf130c9c13a",
}


@pytest.mark.parametrize("case", list(PINNED_FIELD_BUNDLES),
                         ids=["q{}_{}_F{}_N0_{}_N1_{}".format(*c)
                              for c in PINNED_FIELD_BUNDLES])
def test_construct_bundle_digests_pinned_over_larger_fields(case, tmp_path,
                                                            capsys):
    q, mode, nf, n0, n1 = case
    amb = full_space(make_field(q), mode, 2)
    fam = ConfigFamily(amb, tuple(enumerate_subspaces(amb, 1)[2:2 + nf]))
    bundle = construct_bundle(capsys, tmp_path,
                              HostSpec(q, mode, 1, 2, 2, fam, n0, n1))
    assert hashlib.sha256(bundle.read_bytes()).hexdigest() == \
        PINNED_FIELD_BUNDLES[case]


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


# sha256 of extract's stdout on q = 2, n = 2, k = 1, r = 2 hosts at N1 = 1,
# recorded when the copy's members were predicted from the target's block.
# "members" colors each member by a seeded draw, "fibers" each base
# k-space (every member over it takes its color), so the line search
# passes and the subspace search decides.
# (mode, |F|, N0, coloring) -> (exit code, status or step, digest)
PINNED_EXTRACTS = {
    (VECTOR, 2, 3, "constant"): (0, "success", "d2a994cfe0418671df622638dd8db29bb1037ce21dfd1a0b443f8065a8e244a8"),
    (VECTOR, 2, 3, "members"): (2, "line_search", "ef12ce9a148741858e24a1a7383c1e9ff5b162484fa7131759d02ada760be8c8"),
    (VECTOR, 2, 3, "fibers"): (0, "success", "1a7a06cefe2879bd74cea935c6b6daca9af3930a97991c103bc5f1272525f758"),
    (VECTOR, 1, 2, "fibers"): (2, "subspace_search", "f2b63ae2506bba2adcf5f37397e32b8e0d9137d1b980cb9b60425f1d817bac5e"),
    (AFFINE, 2, 3, "constant"): (0, "success", "a66b8f578a53bfe84989a752e61559bb897b0a700d125f7a0d8196dc430dfcb7"),
    (AFFINE, 2, 3, "members"): (2, "line_search", "ef12ce9a148741858e24a1a7383c1e9ff5b162484fa7131759d02ada760be8c8"),
    (AFFINE, 2, 3, "fibers"): (0, "success", "b98205afb918899a6895d2c5a412217a568a950975c6c3401d15f0027e7ef151"),
    (AFFINE, 1, 2, "fibers"): (2, "subspace_search", "0b7b8d88660e95ddf194328ff6deb6ccdd5808d4e7da25c35bafd66ec152e32f"),
}


@pytest.mark.parametrize("case", list(PINNED_EXTRACTS),
                         ids=["{}_F{}_N0_{}_{}".format(*c) for c in PINNED_EXTRACTS])
def test_extract_stdout_digests_pinned(case, tmp_path, capsys):
    mode, nf, n0, coloring = case
    amb = full_space(make_field(2), mode, 2)
    fam = ConfigFamily(amb, tuple(enumerate_subspaces(amb, 1)[:nf]))
    bundle = construct_bundle(capsys, tmp_path,
                              HostSpec(2, mode, 1, 2, 2, fam, n0, 1))
    host = host_from_json(json.loads(bundle.read_text()))
    rng = random.Random(4)
    if coloring == "constant":
        data = {"constant": 1}
    elif coloring == "members":
        data = {"entries": {m.key(): rng.randrange(2) for m in host.members}}
    else:
        colors = [rng.randrange(2) for _ in host.fibers]
        fiber_of = {g: j for j, fiber in enumerate(host.fibers) for g in fiber}
        data = {"entries": {m.key(): colors[fiber_of[parts[0]]]
                            for m, parts in zip(host.members, host.member_parts)}}
    col = tmp_path / "col.json"
    col.write_text(json.dumps(data))
    code, lines, out = run_cli(capsys, "extract", "--bundle", str(bundle),
                               "--coloring", str(col))
    want_code, outcome, digest = PINNED_EXTRACTS[case]
    assert code == want_code
    assert lines[0].get("step", lines[0]["status"]) == outcome
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("content, stderr", [
    ({"nope": 1}, "qramsey extract: coloring file needs an 'entries' map"),
    ({"entries": {}}, 'qramsey extract: coloring not total: missing {"mode"'),
    ({"constant": 0, "entries": {}},
     "qramsey extract: coloring file holds both a 'constant' and an "
     "'entries' map"),
], ids=["no-map", "not-total", "both-forms"])
def test_extract_bad_coloring_file(bundle_path, tmp_path, capsys, content,
                                   stderr):
    col = tmp_path / "col.json"
    col.write_text(json.dumps(content))
    code = main(["extract", "--bundle", str(bundle_path), "--coloring", str(col)])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err.startswith(stderr)


def test_verify_holds(bundle_path, capsys):
    code, lines, _ = run_cli(capsys, "verify", "--bundle", str(bundle_path))
    assert code == 0
    assert lines[0]["verdict"] == "holds"
    assert lines[0]["candidates"] == 7
    # one line of a plane at N0 = n = 2: six planes U carry a copy, but
    # they hold only three distinct member sets
    assert lines[0]["induced_copies"] == 3


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


# sha256 of `verify --r 2` stdout (nodes_explored included) and of
# `extract` stdout under the constant color 1 and a member coloring drawn
# from Random(7), over the q = 2 grid at N0 = n, k = 1: both modes,
# n <= 2, every F of the first |F| base k-spaces, N1 <= 2; recorded when
# U ∩ H was found by testing every member with `contains_subspace`.  The
# four |F| = 1, n = 2 verify digests were restated when a non-spanning F
# came to count its copies as distinct member sets, and its nodes as
# isomorphism nodes at the rank of F's span: 6 -> 3, 18 -> 3 (vector),
# 4 -> 2, 12 -> 2 (affine) copies, the oracle scan's distinct sets.
# Every verify digest was restated when copies came to be decided by
# orbit lookup and nodes_explored to count the member spans the walk
# builds plus the coloring nodes, not isomorphism nodes; verdicts,
# witnesses and copy counts are unchanged.
# (mode, n, |F|, N1) -> verify (exit code, verdict, digest), then extract
# (exit code, status or step, digest) for the constant and random colorings
PINNED_GRID = {
    (VECTOR, 1, 1, 1): (
        (0, "holds", "7cd7310bb418f6e4c227c11133b2ba0b2bbf766fa4fed603730e572fff8f2c3a"),
        (0, "success", "8556126215c20540387b7d33a33c56b42c38c332b2b976ba66203e519ed7f618"),
        (0, "success", "8556126215c20540387b7d33a33c56b42c38c332b2b976ba66203e519ed7f618")),
    (VECTOR, 1, 1, 2): (
        (0, "holds", "7cd7310bb418f6e4c227c11133b2ba0b2bbf766fa4fed603730e572fff8f2c3a"),
        (0, "success", "21e13d6cc6a27db6b838d2f27c9726c44f3f45d220cd0dbae0f13a3c569186f4"),
        (0, "success", "21e13d6cc6a27db6b838d2f27c9726c44f3f45d220cd0dbae0f13a3c569186f4")),
    (VECTOR, 2, 1, 1): (
        (0, "holds", "84be73f7963ddd5a2cd65ada6011150c5ba934a9bb66d0c903ce4bc043b1b03d"),
        (0, "success", "10c89d1dac5a7d5c1941d4e0552bc41d277750bdc6bbebff164fb5cbe9b96770"),
        (2, "subspace_search", "96cadf60f07ebdfa779354e1d54167e591e866fe6f31625eaa88259d3e5f3485")),
    (VECTOR, 2, 1, 2): (
        (0, "holds", "a7b3e5b9572f6f97a8931a65e2419610048b24d7b1ac34e81bbf424faf964e77"),
        (0, "success", "31dc9763eb7e85da6bc7a6f676cd19b10a2db41f74e75a95720bc167059b9c7f"),
        (2, "subspace_search", "b61d10fc7b308103fb0c27fd2b1b92cadbf85459ab0c59aae30e0b5977732132")),
    (VECTOR, 2, 2, 1): (
        (2, "fails", "cb5c861bd0e2cf8c61e7c6dadf4e6206673f8c3f42941e09ae52d43809b9f083"),
        (0, "success", "ac69b05bf7c92ca3bfb4b5f1d9bd5e88ac5f7e1aa5e5e58287ce2ab24b20709d"),
        (2, "subspace_search", "bc26bef4cb9c29a51c4aaae4155111db94970a1113cf736fffa6099da39185a1")),
    (VECTOR, 2, 2, 2): (
        (0, "holds", "6b09f3a17afbb7e40f0033164e4d24a59ecba7e91f3f333d5e891e04be85cd53"),
        (0, "success", "2d3755f7e097cbf9b500693e489a7337b964c5bf6d379d9b83d2f7dd5d4e7470"),
        (2, "line_search", "ef12ce9a148741858e24a1a7383c1e9ff5b162484fa7131759d02ada760be8c8")),
    (VECTOR, 2, 3, 1): (
        (2, "fails", "748a6a4e5d94f703149b36889445030f8a707250e66f05191c10a2fa7ab012f7"),
        (0, "success", "cc4d993005cee12d14e3ef06feead7fa164f2cd900f8c4f0ba9ca5464360b522"),
        (2, "line_search", "ef12ce9a148741858e24a1a7383c1e9ff5b162484fa7131759d02ada760be8c8")),
    (VECTOR, 2, 3, 2): (
        (2, "fails", "733b0c27e455213f16f75e16909f83adcecb86ccfd5328bb0616ff9875f5188b"),
        (0, "success", "3a8a7adbec1ed8a871e35762de58af99582c10d55c6cf9505f8ee51e25d9e10d"),
        (2, "line_search", "ef12ce9a148741858e24a1a7383c1e9ff5b162484fa7131759d02ada760be8c8")),
    (AFFINE, 1, 1, 1): (
        (0, "holds", "7cd7310bb418f6e4c227c11133b2ba0b2bbf766fa4fed603730e572fff8f2c3a"),
        (0, "success", "ce713307bb767e6e04009375a42a882f3542d41a1dbeba6c483501ee934e8e34"),
        (0, "success", "ce713307bb767e6e04009375a42a882f3542d41a1dbeba6c483501ee934e8e34")),
    (AFFINE, 1, 1, 2): (
        (0, "holds", "7cd7310bb418f6e4c227c11133b2ba0b2bbf766fa4fed603730e572fff8f2c3a"),
        (0, "success", "61ef13028140bf7827a9e44e71997a72394c5afa204ea946b31929e40aff4f8e"),
        (0, "success", "61ef13028140bf7827a9e44e71997a72394c5afa204ea946b31929e40aff4f8e")),
    (AFFINE, 2, 1, 1): (
        (0, "holds", "82520982a077fe78291f0f743f80804696eef90b025173d44f6e58437383e3db"),
        (0, "success", "eff174c1fc119ca418a9df35f7a9db2d76561fdbbcd4a88706c6d5b83bbcc7a8"),
        (2, "subspace_search", "051d83639e0397eceb65a8c02141fa30ec13303a821f05f2d561950efb1fedc7")),
    (AFFINE, 2, 1, 2): (
        (0, "holds", "dcd55b9eb75f1a1a6ae8481ebc583ce28b4fc8887f1315331837f4a00aae94f5"),
        (0, "success", "c76ed1360c0ddc455433f98d6e88f3002427a272d0b792b4c5379d57659437ab"),
        (2, "subspace_search", "2cec93537add9ac3be17bea4f1d8ad25d667b31508a734f94e5d5d023276c191")),
    (AFFINE, 2, 2, 1): (
        (0, "holds", "8b4ee517099b532bc9d15a0d24bb4dd0fe675daf10d99cf1c9d2c472072e910c"),
        (0, "success", "2a85b96ea7663c04d052a54254212eb1a21e6cf6f034be00d6a0142e0572362c"),
        (2, "line_search", "ef12ce9a148741858e24a1a7383c1e9ff5b162484fa7131759d02ada760be8c8")),
    (AFFINE, 2, 2, 2): (
        (0, "holds", "31ab5c3a70663fd272b11665f6b472aa1308754bb77ab8587468851c0a253156"),
        (0, "success", "96d80c239bd278a890e5e2e63eb9626a0328633aa718dd550142ecbbaa142f6b"),
        (0, "success", "7ff7ae59d6d1d7829b51e2ef3f5900d3d8ded8494c9398b88e194406941aa46a")),
}


@pytest.mark.parametrize("case", list(PINNED_GRID),
                         ids=["{}_n{}_F{}_N1_{}".format(*c) for c in PINNED_GRID])
def test_verify_and_extract_stdout_digests_pinned(case, tmp_path, capsys):
    mode, n, nf, n1 = case
    amb = full_space(make_field(2), mode, n)
    fam = ConfigFamily(amb, tuple(enumerate_subspaces(amb, 1)[:nf]))
    bundle = construct_bundle(capsys, tmp_path,
                              HostSpec(2, mode, 1, n, 2, fam, n, n1))
    host = host_from_json(json.loads(bundle.read_text()))
    rng = random.Random(7)
    runs = [("verify", "--bundle", str(bundle), "--r", "2")]
    for data in ({"constant": 1},
                 {"entries": {m.key(): rng.randrange(2) for m in host.members}}):
        col = tmp_path / f"col{len(runs)}.json"
        col.write_text(json.dumps(data))
        runs.append(("extract", "--bundle", str(bundle), "--coloring", str(col)))
    for argv, (want_code, outcome, digest) in zip(runs, PINNED_GRID[case]):
        code, lines, out = run_cli(capsys, *argv)
        assert code == want_code
        line = lines[0]
        assert line.get("verdict", line.get("step", line.get("status"))) == outcome
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def plane_lines_bundle(capsys, tmp_path, base_rank, word_len, nf=3):
    """The bundle of vector q = 2, n = 2, k = 1, r = 2, F = the first nf
    lines of a plane; all three span F's ambient, one does not."""
    amb = full_space(make_field(2), VECTOR, 2)
    fam = ConfigFamily(amb, tuple(enumerate_subspaces(amb, 1)[:nf]))
    return construct_bundle(capsys, tmp_path, HostSpec(
        2, VECTOR, 1, 2, 2, fam, base_rank, word_len))


# sha256 of extract's stdout under {"constant": 0} on plane_lines_bundle
# hosts where the maps are tall: block rank 385 at N0 = 4, N1 = 1; and at
# N0 = 3, N1 = 2 the line fixes position 0, so `coordinate_map` of
# section points and `compose` run.  Recorded when maps kept their
# matrices as rows.
# (N0, N1) -> digest
PINNED_TALL_EXTRACTS = {
    (4, 1): "7cbd4436d84c4fcece4ea23b06b76d3f6bf64029fce633a50955f25ba4f792b1",
    (3, 2): "dc1e3505a433b137db02d7a378a16f6a82973720b1606c366467d8ad9790fffe",
}


def extract_constant(capsys, tmp_path, base_rank, word_len):
    """Construct the plane_lines_bundle host, then extract under the
    constant coloring 0; returns extract's first line and stdout."""
    bundle = plane_lines_bundle(capsys, tmp_path, base_rank, word_len)
    col = tmp_path / "col.json"
    col.write_text(json.dumps({"constant": 0}))
    code, lines, out = run_cli(capsys, "extract", "--bundle", str(bundle),
                               "--coloring", str(col))
    assert code == 0 and lines[0]["status"] == "success"
    return lines[0], out


@pytest.mark.parametrize("case", list(PINNED_TALL_EXTRACTS),
                         ids=["N0_{}_N1_{}".format(*c) for c in PINNED_TALL_EXTRACTS])
def test_tall_map_extract_digests_pinned(case, tmp_path, capsys):
    _, out = extract_constant(capsys, tmp_path, *case)
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_TALL_EXTRACTS[case]


def test_every_product_reads_a_maps_stored_columns(tmp_path, capsys,
                                                   monkeypatch):
    # over the N0 = 3, N1 = 2 round trip, every mat_vec call is handed
    # the very columns some LinearMap stores: no caller builds a matrix
    # for one product
    stored, received = [], []
    real_new = space.LinearMap.__new__
    real_mat_vec = space.mat_vec

    def new(cls, *args, **kwargs):
        m = real_new(cls, *args, **kwargs)
        stored.append(m.columns)
        return m

    def product(f, columns, v, base):
        received.append(columns)
        return real_mat_vec(f, columns, v, base)

    monkeypatch.setattr(space.LinearMap, "__new__", new)
    for module in (space, construction):
        monkeypatch.setattr(module, "mat_vec", product)
    first, _ = extract_constant(capsys, tmp_path, 3, 2)
    assert [0, 0] in first["line"]["fixed"]
    # both lists hold their objects, so no id is reused while they live
    ids = {id(columns) for columns in stored}
    assert received and all(id(columns) in ids for columns in received)


def test_verify_holds_above_the_base_rank(tmp_path, capsys):
    # N0 = 3 > n: X has rank 56, so its rank-2 subspaces cannot be listed,
    # but the 147 members give 147 + C(147, 2) = 10,878 member chains.
    # Every cover is a copy of the base plane holding all of its lines,
    # and GF(2)^3 arrows (2, 1, 2), so the host holds.  The nodes are the
    # 10,731 spans the walk builds and 978 coloring nodes.
    bundle = plane_lines_bundle(capsys, tmp_path, 3, 1)
    code, _, out = run_cli(capsys, "verify", "--bundle", str(bundle),
                           "--r", "2")
    assert code == 0
    assert out == ('{"command": "verify", "r": 2, "verdict": "holds", '
                   '"witness": null, '
                   '"candidates": 865382809755804568726285702572715, '
                   '"induced_copies": 154, "nodes_explored": 11709}\n')


def test_verify_fails_at_word_length_3_and_extract_agrees(tmp_path, capsys):
    # N0 = n = 2, N1 = 3: 81 members, where X has 698,027 rank-2 subspaces.
    # At N0 = n this F fails at every word length, and extraction under
    # the witness must then give a diagnostic, not a copy.
    bundle = plane_lines_bundle(capsys, tmp_path, 2, 3)
    witness = tmp_path / "w.json"
    code, lines, _ = run_cli(capsys, "verify", "--bundle", str(bundle),
                             "--r", "2", "--out", str(witness))
    assert code == 2
    assert (lines[0]["verdict"], lines[0]["candidates"],
            lines[0]["induced_copies"]) == ("fails", 698027, 64)
    code, lines, _ = run_cli(capsys, "extract", "--bundle", str(bundle),
                             "--coloring", str(witness))
    assert code == 2 and lines[0]["status"] == "diagnostic"


@pytest.mark.parametrize("budget,code,line", [
    ((), 0, {"verdict": "holds", "induced_copies": 54925,
             "nodes_explored": 56961}),
    (("--budget-nodes", "1000"), 3, {"verdict": "unknown",
                                     "nodes_explored": 1001}),
    (("--budget-ms", "1"), 3, {"verdict": "unknown"}),
], ids=["unbounded", "nodes", "wall"])
def test_verify_walk_spends_the_budget(budget, code, line, tmp_path, capsys):
    # q = 3, F = two lines of a plane, N0 = 3, N1 = 1: 338 members, whose
    # walk builds 56,953 member spans at one node each before the
    # coloring search spends 8.  A node budget below the spans, or a
    # wall budget, stops the walk itself: the wall clock is read every
    # 4,096 nodes.
    amb = full_space(make_field(3), VECTOR, 2)
    fam = ConfigFamily(amb, tuple(enumerate_subspaces(amb, 1)[:2]))
    bundle = construct_bundle(capsys, tmp_path,
                              HostSpec(3, VECTOR, 1, 2, 2, fam, 3, 1))
    got, lines, _ = run_cli(capsys, "verify", "--bundle", str(bundle),
                            "--r", "2", *budget)
    assert got == code
    assert {key: lines[0][key] for key in line} == line


def test_construct_refuses_the_cover_sections_from_a_closed_form(
        tmp_path, capsys, monkeypatch):
    # q = 11, vector, n = 3, k = 2, N0 = 4, |F| = 2: 1,464 targets give
    # 2,928 covers, each with a section point over each of the 14,641
    # base points.  Refused before any target is listed or file written
    f = make_field(11)
    amb = full_space(f, VECTOR, 3)
    fam = ConfigFamily(amb, tuple(enumerate_subspaces(amb, 2)[:2]))
    spec_path, bundle = tmp_path / "spec.json", tmp_path / "bundle.json"
    spec_path.write_text(json.dumps(HostSpec(11, VECTOR, 2, 3, 2, fam, 4, 1)
                                    .to_json()))

    def listed(*args):
        raise AssertionError("targets listed before the size check")

    monkeypatch.setattr(construction, "enumerate_subspaces", listed)
    start = time.perf_counter()
    code, _, out = run_cli(capsys, "construct", "--spec", str(spec_path),
                           "--out", str(bundle))
    assert time.perf_counter() - start < 1.0
    assert code == 2 and not bundle.exists()
    assert out == ('{"command": "construct", "error": "size_cap", "message": '
                   '"42868848 cover section points, cap 65536"}\n')


def test_oversized_hosts_are_refused_before_they_are_built(tmp_path, capsys,
                                                         monkeypatch):
    # arrow and construct check their size guards from closed forms, so a
    # rank-100,000 host, 10^10 bytes of identity rows, is never built
    def full_space(f, mode, rank, plain=space.full_space):
        if rank > 10 ** 4:
            raise AssertionError(f"a rank-{rank} space was built")
        return plain(f, mode, rank)

    for module in (space, arrow, construction):
        monkeypatch.setattr(module, "full_space", full_space)
    code, _, out = run_cli(capsys, "arrow", "--q", "2", "--mode", "vector",
                           "--N", "100000", "--n", "1", "--k", "0", "--r", "1")
    assert code == 2
    assert out == ('{"command": "arrow", "error": "size_cap", "message": '
                   '"ambient has at least 2^100000 points, cap 65536"}\n')
    amb = span(make_field(2), VECTOR, [(1, 0), (0, 1)], 2)
    fam = ConfigFamily(amb, tuple(enumerate_subspaces(amb, 1)[:1]))
    spec_path, bundle = tmp_path / "spec.json", tmp_path / "bundle.json"
    spec_path.write_text(json.dumps(HostSpec(2, VECTOR, 1, 2, 2, fam, 100000, 1)
                                    .to_json()))
    code, _, out = run_cli(capsys, "construct", "--spec", str(spec_path),
                           "--out", str(bundle))
    assert code == 2 and not bundle.exists()
    assert out == ('{"command": "construct", "error": "size_cap", "message": '
                   '"at least 2^299997 cover section points, cap 65536"}\n')
    # with no members nothing is held, and the targets' guard refuses
    spec_path.write_text(json.dumps(HostSpec(2, VECTOR, 1, 2, 2,
                                             ConfigFamily(amb, ()), 100000, 1)
                                    .to_json()))
    code, _, out = run_cli(capsys, "construct", "--spec", str(spec_path),
                           "--out", str(bundle))
    assert code == 2 and not bundle.exists()
    assert out == ('{"command": "construct", "error": "size_cap", "message": '
                   '"ambient has at least 2^100000 points, cap 65536"}\n')


@pytest.mark.parametrize("nf,word_len,message", [
    (3, 2, "4766328 member chains, cap 65536"),
], ids=["member_chains"])
def test_verify_size_cap_before_building_candidates(tmp_path, capsys,
                                                    monkeypatch, nf, word_len,
                                                    message):
    # N0 = 3 > n, refused from a closed form before the candidate walk
    # runs.  F = the plane's three lines at N1 = 2: 3,087 members give
    # 3,087 + C(3,087, 2) member chains.
    bundle = plane_lines_bundle(capsys, tmp_path, 3, word_len, nf)

    def built(*args):
        raise AssertionError("candidates built before the size check")

    monkeypatch.setattr(arrow, "_member_spans", built)
    monkeypatch.setattr(arrow, "enumerate_subspaces", built)
    code, _, out = run_cli(capsys, "verify", "--bundle", str(bundle),
                           "--r", "2")
    assert code == 2
    assert out == ('{"command": "verify", "error": "size_cap", '
                   f'"message": "{message}"}}\n')


# F = one line of a plane, N0 = 3 > n: X's rank-2 subspaces cannot be
# listed, and before the walk over member spans this F exited size_cap.
# Each copy is one member line with a plane over it in X that holds no
# other member.  A one-member chain builds no span, and the coloring
# search meets only one-member families, so no node is spent.
# (q, mode, N1) -> (induced_copies, nodes_explored)
ONE_LINE_ABOVE_THE_BASE_RANK = {
    (2, VECTOR, 1): (49, 0),
    (2, VECTOR, 2): (343, 0),
    (2, AFFINE, 1): (24, 0),
    (3, VECTOR, 1): (169, 0),
}


@pytest.mark.parametrize("case", list(ONE_LINE_ABOVE_THE_BASE_RANK),
                         ids=["q{}_{}_N1_{}".format(*c)
                              for c in ONE_LINE_ABOVE_THE_BASE_RANK])
def test_verify_one_line_above_the_base_rank(case, tmp_path, capsys):
    q, mode, word_len = case
    amb = full_space(make_field(q), mode, 2)
    fam = ConfigFamily(amb, (enumerate_subspaces(amb, 1)[0],))
    bundle = construct_bundle(capsys, tmp_path,
                              HostSpec(q, mode, 1, 2, 2, fam, 3, word_len))
    code, lines, _ = run_cli(capsys, "verify", "--bundle", str(bundle),
                             "--r", "2")
    assert code == 0
    assert (lines[0]["verdict"], lines[0]["induced_copies"],
            lines[0]["nodes_explored"]) == (
        "holds", *ONE_LINE_ABOVE_THE_BASE_RANK[case])


def test_verify_one_line_of_a_q3_space_is_quick(tmp_path, capsys):
    # q = 3, vector, F = one line of a rank-3 space, N0 = 3, N1 = 1: 13
    # members in X of rank 5, whose 1,210 rank-3 subspaces hold 1,053
    # copies U but only 13 distinct member sets.  Listing and searching
    # every U took 1,608,984 nodes and about 26 s; the walk over member
    # spans decides each line by counting the U over it.
    amb = full_space(make_field(3), VECTOR, 3)
    fam = ConfigFamily(amb, (enumerate_subspaces(amb, 1)[0],))
    bundle = construct_bundle(capsys, tmp_path,
                              HostSpec(3, VECTOR, 1, 3, 2, fam, 3, 1))
    start = time.perf_counter()
    code, lines, _ = run_cli(capsys, "verify", "--bundle", str(bundle),
                             "--r", "2")
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert (lines[0]["verdict"], lines[0]["candidates"],
            lines[0]["induced_copies"]) == ("holds", 1210, 13)


def test_construct_member_count_cap(tmp_path, capsys):
    # vector |F| = 3, N0 = 3, N1 = 4: about 1.36M members, refused from
    # the closed form; N1 = 3 (64,827 members) stays within the cap
    f = make_field(2)
    amb = full_space(f, VECTOR, 2)
    spec = {"q": 2, "mode": "vector", "k": 1, "n": 2, "r": 2,
            "F": {"ambient": amb.to_json(),
                  "members": [m.to_json()
                              for m in enumerate_subspaces(amb, 1)]},
            "N0": 3, "N1": 4}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    start = time.perf_counter()
    code, _, out = run_cli(capsys, "construct", "--spec", str(spec_path),
                           "--out", str(tmp_path / "bundle.json"))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ('{"command": "construct", "error": "size_cap", "message": '
                   '"1361367 members at word_len 4, cap 65536"}\n')
    assert not (tmp_path / "bundle.json").exists()


def axes_spec(r, word_len):
    """vector q = 2, n = 2, k = 1, F = both coordinate axes, N0 = 2."""
    amb = full_space(make_field(2), VECTOR, 2)
    axes = tuple(span(amb.field, VECTOR, [row], 2) for row in amb.direction)
    return {"q": 2, "mode": "vector", "k": 1, "n": 2, "r": r,
            "F": ConfigFamily(amb, axes).to_json(), "N0": 2, "N1": word_len}


def test_construct_auto_word_length(tmp_path, capsys):
    # one color needs no line search; two colors over 3 base k-spaces need
    # HJ(2, 2^3) = 8, beyond the search's word lengths up to 3
    spec_path, bundle = tmp_path / "spec.json", tmp_path / "bundle.json"
    spec_path.write_text(json.dumps(axes_spec(1, "auto")))
    code, lines, _ = run_cli(capsys, "construct", "--spec", str(spec_path),
                             "--out", str(bundle))
    assert code == 0 and lines[0]["word_len"] == 1
    assert json.loads(bundle.read_text())["spec"]["N1"] == 1
    bundle.unlink()
    spec_path.write_text(json.dumps(axes_spec(2, "auto")))
    code, lines, _ = run_cli(capsys, "construct", "--spec", str(spec_path),
                             "--out", str(bundle))
    assert code == 3 and lines[0]["verdict"] == "unknown"
    assert not bundle.exists()


@pytest.mark.parametrize("argv", [
    ["count", "--q", "16", "--mode", "vector", "--N", "4000", "--k", "1000"],
    ["construct", "--spec", "{spec}", "--out", "{out}"],
], ids=["count", "construct"])
def test_size_cap_message_for_huge_counts(argv, tmp_path, capsys):
    # 16^4000 points, and 3 * 2^20000 members at N1 = 20000: counts beyond
    # Python's 4,300-digit limit on integer-to-text conversion are written
    # as a power-of-two bound
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(axes_spec(2, 20000)))
    argv = [a.format(spec=spec_path, out=tmp_path / "bundle.json") for a in argv]
    code, lines, _ = run_cli(capsys, *argv)
    assert code == 2
    assert lines[0]["error"] == "size_cap"
    assert len(lines[0]["message"]) < 200
    assert "at least 2^" in lines[0]["message"]


@pytest.mark.parametrize("path", [
    ("H", 0, "direction", 0, -1),
    ("X", "direction", 0, -1),
    ("fibers", 0, 0),
], ids=["H", "X", "fibers"])
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


def test_stale_bundle_section_exits_4(bundle_path, capsys):
    # a bundle written by an earlier version carried intermediate sections
    data = json.loads(bundle_path.read_text())
    data["pi"] = {"matrix": [[1, 0], [0, 1]]}
    bundle_path.write_text(json.dumps(data))
    code = main(["verify", "--bundle", str(bundle_path)])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert "pi (unexpected)" in captured.err


def load_runs(bundle, tmp_path):
    col = tmp_path / "col.json"
    col.write_text(json.dumps({"constant": 0}))
    return (["verify", "--bundle", str(bundle)],
            ["extract", "--bundle", str(bundle), "--coloring", str(col)])


def test_loading_a_written_bundle_decodes_only_its_spec(bundle_path, tmp_path,
                                                       monkeypatch):
    # every JSON decode, json.load and json.loads included, goes through
    # raw_decode: record its input's length and how much of it was read
    decoded = []
    real = json.JSONDecoder.raw_decode

    def recording(self, s, idx=0):
        obj, end = real(self, s, idx)
        decoded.append((len(s), end - idx))
        return obj, end

    text = bundle_path.read_text()
    spec_len = len(json.dumps(json.loads(text)["spec"]))
    for argv in load_runs(bundle_path, tmp_path):
        decoded.clear()
        monkeypatch.setattr(json.JSONDecoder, "raw_decode", recording)
        assert main(argv) == 0
        monkeypatch.undo()
        assert (len(text), spec_len) in decoded
        assert max(read for _, read in decoded) == spec_len


def reverse_keys(obj):
    if isinstance(obj, dict):
        return {k: reverse_keys(obj[k]) for k in reversed(obj)}
    return [reverse_keys(v) for v in obj] if isinstance(obj, list) else obj


@pytest.mark.parametrize("layout", [
    lambda data: json.dumps(data, indent=1),
    lambda data: json.dumps(reverse_keys(data)) + "\n",
    lambda data: json.dumps({**data, "spec": reverse_keys(data["spec"])}) + "\n",
    lambda data: json.dumps(data),
], ids=["indent", "keys_reversed", "spec_keys_reversed", "no_final_newline"])
def test_equal_bundle_in_another_layout_loads(bundle_path, tmp_path, capsys,
                                              layout):
    runs = load_runs(bundle_path, tmp_path)
    expected = []
    for argv in runs:
        assert main(argv) == 0
        expected.append(capsys.readouterr().out)
    bundle_path.write_text(layout(json.loads(bundle_path.read_text())))
    for argv, out in zip(runs, expected):
        assert main(argv) == 0
        assert capsys.readouterr().out == out


@pytest.mark.parametrize("change", [
    lambda text: text + "{}\n",
    lambda text: text.replace('"N1": 1', '"N1": 2', 1),
], ids=["bytes_after_the_brace", "spec_entry"])
def test_differing_bundle_text_exits_4(bundle_path, tmp_path, capsys, change):
    text = bundle_path.read_text()
    assert change(text) != text
    bundle_path.write_text(change(text))
    for argv in load_runs(bundle_path, tmp_path):
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


AFFINE_SPEC = {
    "q": 2, "mode": "affine", "k": 1, "n": 2, "r": 1,
    "F": {
        "ambient": {"mode": "affine", "q": 2, "ambient_len": 2,
                    "direction": [[0, 1]], "basepoint": [0, 0]},
        "members": [{"mode": "affine", "q": 2, "ambient_len": 2,
                     "direction": [], "basepoint": [0, 1]}],
    },
    "N0": 2, "N1": 1,
}

# (spec, path into it, value put there, the part the message names): a
# short row was padded and a long one overflowed before every length was
# checked first
WRONG_LENGTHS = [
    (DEGENERATE_SPEC, ("F", "ambient", "direction"), [[1]], "direction row"),
    (DEGENERATE_SPEC, ("F", "members", 0, "direction"), [[0, 1, 0]],
     "direction row"),
    (AFFINE_SPEC, ("F", "ambient", "direction"), [[1]], "direction row"),
    (AFFINE_SPEC, ("F", "members", 0, "direction"), [[1, 0, 0]],
     "direction row"),
    (AFFINE_SPEC, ("F", "members", 0, "basepoint"), [1], "basepoint"),
    (AFFINE_SPEC, ("F", "ambient", "basepoint"), [0, 0, 0], "basepoint"),
]


def _write_spec(tmp_path, spec, path, value):
    spec = json.loads(json.dumps(spec))
    node = spec
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(spec))
    return p


@pytest.mark.parametrize("spec,path,value,what", WRONG_LENGTHS,
                         ids=["vector_short_row", "vector_long_row",
                              "affine_short_row", "affine_long_row",
                              "short_basepoint", "long_basepoint"])
def test_subspace_of_the_wrong_length_exits_4(tmp_path, capsys, spec, path,
                                             value, what):
    p = _write_spec(tmp_path, spec, path, value)
    code = main(["construct", "--spec", str(p), "--out", str(tmp_path / "b.json")])
    out, err = capsys.readouterr()
    assert code == 4 and out == ""
    assert err.startswith(f"qramsey construct: {what} length differs from "
                          "ambient_len\n")
    assert not (tmp_path / "b.json").exists()


@pytest.mark.parametrize("entry", [1.0, True, "1"], ids=json.dumps)
@pytest.mark.parametrize("spec,path,what", [
    (DEGENERATE_SPEC, ("F", "members", 0, "direction", 0, 0), "a direction row"),
    (AFFINE_SPEC, ("F", "ambient", "direction", 0, 1), "a direction row"),
    (AFFINE_SPEC, ("F", "members", 0, "basepoint", 1), "the basepoint"),
], ids=["vector_row", "affine_row", "basepoint"])
def test_non_integer_entry_is_named(tmp_path, capsys, spec, path, what, entry):
    p = _write_spec(tmp_path, spec, path, entry)
    code = main(["construct", "--spec", str(p), "--out", str(tmp_path / "b.json")])
    out, err = capsys.readouterr()
    assert code == 4 and out == ""
    assert err.startswith(f"qramsey construct: an entry of {what} must be a "
                          "JSON integer\n")


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


@pytest.mark.parametrize("family", ["empty", "nonempty"])
@pytest.mark.parametrize("shift", [0, -1], ids=["r", "minus_1"])
def test_constant_coloring_outside_the_spec_range_exits_4(tmp_path, capsys,
                                                          family, shift):
    # c = r and c = -1; an empty family has no member to check it against
    spec = json.loads(json.dumps(DEGENERATE_SPEC))
    if family == "empty":
        spec["F"]["members"] = []
    spec_path, bundle = tmp_path / "spec.json", tmp_path / "bundle.json"
    spec_path.write_text(json.dumps(spec))
    assert run_cli(capsys, "construct", "--spec", str(spec_path),
                   "--out", str(bundle))[0] == 0
    col = tmp_path / "col.json"
    col.write_text(json.dumps({"constant": -1 if shift else spec["r"]}))
    code = main(["extract", "--bundle", str(bundle), "--coloring", str(col)])
    out, err = capsys.readouterr()
    assert code == 4 and out == ""
    assert "coloring uses a color outside the spec range" in err


# (path into DEGENERATE_SPEC of the key taken out, the object named)
MISSING_KEYS = [
    (("q",), "a host spec"),
    (("F", "members"), "a configuration family"),
    (("F", "ambient", "ambient_len"), "a serialized subspace"),
    (("F", "members", 0, "direction"), "a serialized subspace"),
]


@pytest.mark.parametrize("path,owner", MISSING_KEYS,
                         ids=["/".join(map(str, p)) for p, _ in MISSING_KEYS])
def test_missing_spec_key_is_named(tmp_path, capsys, path, owner):
    spec = json.loads(json.dumps(DEGENERATE_SPEC))
    node = spec
    for step in path[:-1]:
        node = node[step]
    del node[path[-1]]
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(spec))
    code = main(["construct", "--spec", str(p), "--out", str(tmp_path / "b.json")])
    out, err = capsys.readouterr()
    assert code == 4 and out == ""
    assert f"qramsey construct: {owner} is missing the key '{path[-1]}'\n" in err


def test_bundle_without_a_spec_is_named(tmp_path, capsys):
    p = tmp_path / "bundle.json"
    p.write_text(json.dumps({"X": {}, "H": []}))
    code = main(["verify", "--bundle", str(p)])
    out, err = capsys.readouterr()
    assert code == 4 and out == ""
    assert "qramsey verify: a host bundle is missing the key 'spec'\n" in err


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


# -- parser building ---------------------------------------------------------------
#
# build_parser(argv) builds only the subparser argv[0] names; anything else
# builds all seven.  The texts below are the full build's, at 80 columns.

TOP_USAGE = ("usage: qramsey [-h] "
             "{count,enumerate,arrow,hj,construct,verify,extract} ...\n")
COUNT_USAGE = (
    "usage: qramsey count [-h] --q Q --mode {vector,affine} --N N --k K "
    "[--out OUT]\n"
    "                     [--seed SEED] [--workers WORKERS]\n"
    "                     [--budget-nodes BUDGET_NODES] [--budget-ms BUDGET_MS]\n")
INVALID_CHOICE = ("qramsey: error: argument command: invalid choice: {!r} "
                  "(choose from 'count', 'enumerate', 'arrow', 'hj', "
                  "'construct', 'verify', 'extract')\n")
USAGE_ERRORS = {
    "unknown_command": (["frobnicate"],
                        TOP_USAGE + INVALID_CHOICE.format("frobnicate")),
    "missing_required": (["count", "--bogus", "1"], COUNT_USAGE
                         + "qramsey count: error: the following arguments "
                           "are required: --q, --mode, --N, --k\n"),
    "unrecognized": (["count", "--q", "2", "--mode", "vector", "--N", "2",
                      "--k", "1", "--bogus", "1"],
                     TOP_USAGE + "qramsey: error: unrecognized arguments: "
                                 "--bogus 1\n"),
    "empty_argv": ([], TOP_USAGE + "qramsey: error: the following arguments "
                                   "are required: command\n"),
    "double_dash": (["--", "count"], TOP_USAGE + INVALID_CHOICE.format("--")),
}


def registered(parser):
    """The names of the subparsers a parser holds, in order."""
    action, = [a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction)]
    return action.choices


@pytest.fixture
def columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


def test_named_command_builds_one_subparser():
    assert list(registered(build_parser(["verify", "--bundle", "x"]))) == \
        ["verify"]
    assert list(registered(build_parser([]))) == [
        "count", "enumerate", "arrow", "hj", "construct", "verify", "extract"]


@pytest.mark.parametrize("name", list(COMMANDS))
def test_one_command_help_matches_the_full_build(name, columns):
    one = registered(build_parser([name]))[name]
    full = registered(build_parser([]))[name]
    assert one.format_help() == full.format_help()
    assert one.format_usage() == full.format_usage()
    # the top usage line lists every command either way
    assert build_parser([name]).format_usage() == TOP_USAGE


def test_top_help_lists_every_command(columns, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(TOP_USAGE)
    flat = " ".join(out.split())
    for name, (help_line, _, _) in COMMANDS.items():
        assert f" {name} {help_line} " in flat


@pytest.mark.parametrize("case", list(USAGE_ERRORS))
def test_usage_error_text_unchanged(case, columns, capsys):
    argv, stderr = USAGE_ERRORS[case]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 4
    assert capsys.readouterr().err == stderr


@pytest.mark.parametrize("case", ["empty_argv", "missing_required"])
def test_main_reads_sys_argv_when_given_none(case, columns, capsys,
                                             monkeypatch):
    argv, stderr = USAGE_ERRORS[case]
    monkeypatch.setattr(sys, "argv", ["qramsey", *argv])
    with pytest.raises(SystemExit) as exc:
        main(None)
    assert exc.value.code == 4
    assert capsys.readouterr().err == stderr


# sha256 of the stdout of `qramsey -h` and `qramsey <command> -h` at 80
# columns, as the argparse declarations wrote them before the subparsers
# were derived from the option table; any drift in the derivation shows.
HELP_SHA256 = {
    "": "f1a11a21d8521bdeb8cae0b04e3775054e25c131f1113db77cd381cad09fa6e7",
    "count": "feae299c9315d8cba1bb349482a8718f11a9229cb1b6d948d05d6bbdc783f303",
    "enumerate":
        "a39bacd889ce41921cf415324b7af32007cee54ae4811203fe102c36ccc0dd26",
    "arrow": "cbebdb87a427f080ea67d6fecbc949cca7d6942a903d1dd0fe6d82fafc65dd36",
    "hj": "545e95a20c34c224df1172c27be2c965c613170406c4bc296aca7ab7313e1e24",
    "construct":
        "eb32d5108c5b08bdbf9ce9aecae18aba87610b683d77f676164dd2910cbc09e0",
    "verify": "5cafa126b0565f2a07d58056afa5f0a34917fbd83226ae73c541da822a7b6a6d",
    "extract":
        "6074c8acd4793a82adf118c0b155a8573b3ac9291f31e123692172862bb8d3f3",
}


@pytest.mark.parametrize("name", list(HELP_SHA256))
def test_help_text_pinned(name, columns, capsys):
    with pytest.raises(SystemExit) as exc:
        main([name, "-h"] if name else ["-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_SHA256[name]


# -- reading command lines off the option table ------------------------------------
#
# main reads a command line with read_argv and builds argparse only when it
# returns None; on every line read_argv takes, its Namespace is argparse's.

INT_VALUES = ["0", "1", "3", "17", "+2", "0012", "10000000"]
STR_VALUES = ["spec.json", "out/b.json", "a b.json", "count", ""]


def valid_argv(rng, name):
    """A valid command line for `name`: every required flag, each other
    flag at random, valid values, the flags in shuffled order."""
    groups = []
    for o in COMMANDS[name][1]:
        if o.store_true:
            if rng.random() < 0.5:
                groups.append([o.flag])
        elif o.required or rng.random() < 0.5:
            values = (o.choices or (INT_VALUES if o.type is int
                                    else STR_VALUES))
            groups.append([o.flag, rng.choice(values)])
    rng.shuffle(groups)
    return [name] + [token for group in groups for token in group]


def test_read_argv_matches_argparse():
    rng = random.Random(0)
    start = time.perf_counter()
    for name in COMMANDS:
        for _ in range(40):
            argv = valid_argv(rng, name)
            ours = read_argv(argv)
            assert ours is not None, argv
            assert vars(ours) == vars(build_parser(argv).parse_args(argv)), \
                argv
    assert time.perf_counter() - start < 1.0


COUNT_ARGV = ["count", "--q", "2", "--mode", "vector", "--N", "2", "--k", "1"]
FALLBACKS = {
    "abbreviated": ["count", "--q", "2", "--mo", "vector", "--N", "2",
                    "--k", "1"],
    "equals": ["count", "--q=2", "--mode", "vector", "--N", "2", "--k", "1"],
    "repeated": COUNT_ARGV + ["--q", "3"],
    "negative": ["count", "--q", "2", "--mode", "vector", "--N", "-2",
                 "--k", "1"],
    "help": COUNT_ARGV + ["-h"],
    "double_dash": COUNT_ARGV + ["--"],
    "unknown_flag": COUNT_ARGV + ["--bogus", "1"],
    "value_missing_at_end": COUNT_ARGV[:-1],
    "not_an_int": ["count", "--q", "two", "--mode", "vector", "--N", "2",
                   "--k", "1"],
    "bad_mode": ["count", "--q", "2", "--mode", "projective", "--N", "2",
                 "--k", "1"],
    "missing_required": COUNT_ARGV[:-2],
    "unknown_command": ["frobnicate"] + COUNT_ARGV[1:],
    "empty_argv": [],
}


def test_read_argv_takes_the_plain_spelling():
    assert vars(read_argv(COUNT_ARGV)) == \
        vars(build_parser(COUNT_ARGV).parse_args(COUNT_ARGV))


@pytest.mark.parametrize("case", list(FALLBACKS))
def test_read_argv_leaves_other_spellings_to_argparse(case):
    assert read_argv(FALLBACKS[case]) is None


def test_benchmark_command_shapes_build_no_parser(tmp_path, capsys,
                                                  monkeypatch):
    spec, bundle = tmp_path / "spec.json", tmp_path / "bundle.json"
    spec.write_text(json.dumps(DEGENERATE_SPEC))
    coloring = tmp_path / "constant.json"
    coloring.write_text(json.dumps({"constant": 0}))

    def refuse(*args, **kwargs):
        raise AssertionError("an argparse parser was built")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    for argv, code in [
        ("hj --t 2 --l 2 --nmax 3 --budget-nodes 100000", 0),
        ("arrow --q 2 --mode vector --N 2 --n 1 --k 1 --r 2", 0),
        ("arrow --min-n --q 2 --mode vector --n 1 --k 1 --r 2 --nmax 2", 0),
        ("count --q 2 --mode vector --N 2 --k 1", 0),
        ("enumerate --q 2 --mode affine --N 2 --k 1", 0),
        (f"construct --spec {spec} --out {bundle}", 0),
        (f"verify --bundle {bundle} --r 2", 0),
        (f"extract --bundle {bundle} --coloring {coloring}", 0),
    ]:
        assert main(argv.split()) == code, argv
    assert capsys.readouterr().out


@pytest.mark.parametrize("case", [*USAGE_ERRORS, "help"])
def test_help_and_usage_errors_build_argparse(case, columns, capsys,
                                              monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    argv = ["-h"] if case == "help" else USAGE_ERRORS[case][0]
    with pytest.raises(SystemExit):
        main(argv)
    assert built


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
