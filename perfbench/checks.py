"""Answer checks for every job of a workload pass.

Each checker returns "verified" (the answer is right and was checked) or
"unanswered" (a structured unknown or size cap, which is honest but is
no answer), and raises WrongAnswer when the program's answer is wrong.
Where it is affordable the check does not trust the engine that gave
the answer: witnesses are re-checked against the definition, counts
against closed forms computed here, and verdicts against pinned values.
"""

from __future__ import annotations

import itertools
import json

from qramsey.arrow import (ConfigFamily, family_isomorphic,
                           find_monochromatic_subspace)
from qramsey.construction import color_pattern, host_from_json
from qramsey.field import make_field
from qramsey.hales_jewett import find_monochromatic_line
from qramsey.space import Subspace, enumerate_subspaces, full_space

EXIT_OK, EXIT_NEGATIVE, EXIT_UNKNOWN = 0, 2, 3


class WrongAnswer(Exception):
    """The program gave an answer that the check refutes."""


def _require(cond: bool, job, message: str) -> None:
    if not cond:
        raise WrongAnswer(f"{job.name}: {message}")


def _compact(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _gaussian(n: int, k: int, q: int) -> int:
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _count(rank: int, k: int, q: int, mode: str) -> int:
    """Rank-k subspaces of a rank-`rank` space, from the closed form."""
    if mode == "vector":
        return _gaussian(rank, k, q)
    if k < 1:
        return 0
    return q ** (rank - k) * _gaussian(rank - 1, k - 1, q)


def _result(job, stdout: str) -> dict:
    lines = stdout.splitlines()
    _require(len(lines) == 1, job, f"expected one result line, got {len(lines)}")
    return json.loads(lines[0])


def _unanswered(job, code: int, res: dict) -> bool:
    """A budget-exhausted unknown or a size cap, reported as such."""
    if res.get("verdict") == "unknown":
        _require(code == EXIT_UNKNOWN, job, "unknown verdict with exit "
                 f"{code}")
        return True
    if res.get("error") == "size_cap":
        _require(code == EXIT_NEGATIVE, job, f"size cap with exit {code}")
        return True
    return False


def _colors_in_range(job, colors, num_colors: int) -> None:
    _require(all(isinstance(c, int) and 0 <= c < num_colors for c in colors),
             job, "witness uses a color out of range")


def check_hj(job, code: int, stdout: str) -> str:
    res = _result(job, stdout)
    if _unanswered(job, code, res):
        return "unanswered"
    argv = job.argv
    t = int(argv[argv.index("--t") + 1])
    num_colors = int(argv[argv.index("--l") + 1])
    nmax = int(argv[argv.index("--nmax") + 1])
    value = res["value"]
    _require(value == job.expect["value"], job,
             f"HJ value {value}, known value {job.expect['value']}")
    _require(code == (EXIT_OK if value is not None else EXIT_NEGATIVE), job,
             f"exit {code} for value {value}")
    witness = res["witness"]
    last_free = nmax if value is None else value - 1
    if last_free >= 1:
        _require(witness is not None and witness["N"] == last_free
                 and witness["t"] == t, job, "missing or misplaced witness")
        colors = witness["colors"]
        _require(len(colors) == t ** last_free, job, "witness has wrong size")
        _colors_in_range(job, colors, num_colors)
        line = find_monochromatic_line(colors, last_free, t)
        _require(line is None, job, "witness has a monochromatic line "
                 f"{line}")
    return "verified"


def check_arrow(job, code: int, stdout: str) -> str:
    res = _result(job, stdout)
    if _unanswered(job, code, res):
        return "unanswered"
    if res["command"] == "arrow_min_n":
        _require(res["value"] == job.expect["value"], job,
                 f"min-n value {res['value']}, known {job.expect['value']}")
        _require(code == EXIT_OK, job, f"exit {code} for a found value")
        return "verified"
    verdict = res["verdict"]
    _require(verdict == job.expect["verdict"], job,
             f"verdict {verdict}, known {job.expect['verdict']}")
    if verdict == "holds":
        _require(code == EXIT_OK and res["witness"] is None, job,
                 "holds with a witness or a nonzero exit")
        return "verified"
    _require(code == EXIT_NEGATIVE, job, f"fails with exit {code}")
    inst = res["instance"]
    host = full_space(make_field(inst["q"]), inst["mode"], inst["N"])
    entries = res["witness"]["entries"]
    k_keys = {s.key() for s in enumerate_subspaces(host, inst["k"])}
    _require(set(entries) == k_keys, job, "witness is not total on the "
             "k-spaces")
    _colors_in_range(job, entries.values(), inst["r"])
    found = find_monochromatic_subspace(host, inst["k"], inst["n"], entries)
    _require(found is None, job, "witness has a monochromatic n-space")
    return "verified"


def _arg(job, flag: str) -> str:
    return job.argv[job.argv.index(flag) + 1]


def check_count(job, code: int, stdout: str) -> str:
    res = _result(job, stdout)
    expect = _count(int(_arg(job, "--N")), int(_arg(job, "--k")),
                    int(_arg(job, "--q")), _arg(job, "--mode"))
    _require(res["match"] is True and code == EXIT_OK, job, "match is not true")
    _require(res["count_formula"] == expect
             and res["count_enumerated"] == expect, job,
             f"counts {res['count_formula']}/{res['count_enumerated']}, "
             f"closed form {expect}")
    return "verified"


def check_enumerate(job, code: int, stdout: str) -> str:
    q, mode = int(_arg(job, "--q")), _arg(job, "--mode")
    big_n, k = int(_arg(job, "--N")), int(_arg(job, "--k"))
    _require(code == EXIT_OK, job, f"exit {code}")
    lines = stdout.splitlines()
    expect = _count(big_n, k, q, mode)
    _require(len(lines) == expect, job,
             f"{len(lines)} lines, closed form {expect}")
    length = big_n if mode == "vector" else big_n - 1
    dims = k if mode == "vector" else k - 1
    f = make_field(q)
    prev = None
    for line in lines:
        data = json.loads(line)
        key = _compact(data)
        _require(prev is None or prev < key, job,
                 "lines are not in strictly increasing key order")
        prev = key
        _require(data["ambient_len"] == length
                 and len(data["direction"]) == dims, job,
                 f"line of the wrong rank: {line}")
        _require(Subspace.from_json(data, f).key() == key, job,
                 f"line is not canonical: {line}")
    return "verified"


def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_construct(job, code: int, stdout: str) -> str:
    """Rank law and member count, against values computed here."""
    res = _result(job, stdout)
    if _unanswered(job, code, res):
        return "unanswered"
    e = job.expect
    mode, n, k, nf, n0, n1 = (e["mode"], e["n"], e["k"], e["nf"], e["N0"],
                              e["N1"])
    _require(code == EXIT_OK, job, f"exit {code}")
    targets = _count(n0, n, 2, mode)
    rank_v = targets * (n + (n0 - k) * nf)
    rank_x = n1 * rank_v - (n1 - 1) * n0
    _require(res["word_len"] == n1 and res["num_targets"] == targets
             and res["num_covers"] == targets * nf, job,
             "word length, target or cover count is off")
    _require(res["rank_block_space"] == rank_v, job,
             f"block space rank {res['rank_block_space']}, expected {rank_v}")
    _require(res["rank_equalizer"] == rank_x, job,
             f"equalizer rank {res['rank_equalizer']} breaks the rank law "
             f"({rank_x})")
    bundle = _load_json(job.writes[0])
    x = bundle["X"]
    _require(len(x["direction"]) + (mode == "affine") == rank_x, job,
             "bundle X has the wrong rank")
    fibers = bundle["fibers"]
    base_k = _count(n0, k, 2, mode)
    sizes = {len(fb) for fb in fibers}
    _require(len(fibers) == base_k and len(sizes) == 1, job,
             "fibers do not cover the base k-spaces evenly")
    members = base_k * sizes.pop() ** n1
    _require(res["num_members"] == members == len(bundle["H"]), job,
             f"{res['num_members']} members, expected {members}")
    _require(len({_compact(h) for h in bundle["H"]}) == members, job,
             "bundle members repeat")
    if "members" in e:
        _require(members == e["members"], job,
                 f"{members} members, pinned {e['members']}")
    return "verified"


def _config_family(spec: dict) -> ConfigFamily:
    return ConfigFamily.from_json(spec["F"])


def check_verify(job, code: int, stdout: str) -> str:
    res = _result(job, stdout)
    if _unanswered(job, code, res):
        return "unanswered"
    e = job.expect
    verdict = res["verdict"]
    _require(verdict == e["verdict"], job,
             f"verdict {verdict}, known {e['verdict']}")
    bundle = _load_json(e["bundle"])
    x = Subspace.from_json(bundle["X"])
    _require(res["candidates"] == _count(x.rank, e["n"], 2, e["mode"]), job,
             "candidate count differs from the closed form")
    if verdict == "holds":
        _require(code == EXIT_OK, job, f"holds with exit {code}")
        return "verified"
    _require(code == EXIT_NEGATIVE, job, f"fails with exit {code}")
    members = [Subspace.from_json(h, x.field) for h in bundle["H"]]
    entries = res["witness"]["entries"]
    _require(set(entries) == {m.key() for m in members}, job,
             "witness is not total on the members")
    _colors_in_range(job, entries.values(), 2)
    config = _config_family(e["spec"])
    for u in enumerate_subspaces(x, e["n"]):
        inter = [m for m in members if u.contains_subspace(m)]
        if len({entries[m.key()] for m in inter}) != 1:
            continue
        copy = ConfigFamily(u, tuple(inter))
        _require(family_isomorphic(config, copy) is None, job,
                 f"witness leaves a monochromatic induced copy at {u.key()}")
    return "verified"


def _coloring_entries(path: str, member_keys) -> dict:
    data = _load_json(path)
    if "constant" in data:
        return {key: int(data["constant"]) for key in member_keys}
    return {str(key): int(c) for key, c in data["entries"].items()}


def _lines(length: int, t: int):
    """Every combinatorial line of {0..t-1}^length, as its t words."""
    for codes in itertools.product(range(t + 1), repeat=length):
        if t in codes:
            yield [tuple(s if c == t else c for c in codes) for s in range(t)]


def check_extract(job, code: int, stdout: str) -> str:
    res = _result(job, stdout)
    if _unanswered(job, code, res):
        return "unanswered"
    e = job.expect
    bundle = _load_json(e["bundle"])
    f = make_field(2)
    member_keys = [_compact(h) for h in bundle["H"]]
    entries = _coloring_entries(e["coloring"], member_keys)
    if res["status"] == "success":
        _require(code == EXIT_OK, job, f"success with exit {code}")
        x = Subspace.from_json(bundle["X"], f)
        space = Subspace.from_json(res["space"], f)
        members = [Subspace.from_json(m, f) for m in res["members"]]
        keys = {m.key() for m in members}
        _require(len(keys) == e["nf"], job,
                 f"copy has {len(keys)} members, |F| = {e['nf']}")
        _require(all(entries.get(key) == res["color"] for key in keys), job,
                 "copy members are not all of the reported color")
        _require(space.rank == e["n"] and x.contains_subspace(space), job,
                 "copy space has the wrong rank or leaves the host")
        inside = {key for key, h in zip(member_keys, bundle["H"])
                  if space.contains_subspace(Subspace.from_json(h, f))}
        _require(inside == keys, job, "copy is not induced")
        copy = ConfigFamily(space, tuple(members))
        _require(family_isomorphic(_config_family(e["spec"]), copy)
                 is not None, job, "copy is not isomorphic to F")
        return "verified"
    _require(res["status"] == "diagnostic" and code == EXIT_NEGATIVE, job,
             f"status {res['status']} with exit {code}")
    _require(not e["must_succeed"], job,
             "a constant coloring at N0 = n must give a copy")
    host = host_from_json(bundle)
    t = len(host.base.covers)
    words = itertools.product(range(t), repeat=host.word_len)
    patterns = {w: color_pattern(host, w, entries) for w in words}
    if res["step"] == "line_search":
        for line in _lines(host.word_len, t):
            _require(len({patterns[w] for w in line}) > 1, job,
                     "line search missed a monochromatic line")
        return "verified"
    _require(res["step"] == "subspace_search", job,
             f"unknown diagnostic step {res['step']}")
    line = res["line"]
    fixed = dict(line["fixed"])
    line_words = [tuple(fixed.get(p, s) for p in range(line["length"]))
                  for s in range(t)]
    _require(all(list(patterns[w]) == res["pattern"] for w in line_words),
             job, "diagnostic line is not monochromatic in patterns")
    table = {s.key(): c for s, c in zip(host.base.base_k_spaces,
                                        res["pattern"])}
    found = find_monochromatic_subspace(host.base.base_space, e["k"], e["n"],
                                        table)
    _require(found is None, job, "subspace search missed a pattern-"
             "monochromatic target")
    return "verified"


CHECKERS = {
    "hj": check_hj,
    "count": check_count,
    "enumerate": check_enumerate,
    "arrow": check_arrow,
    "construct": check_construct,
    "verify": check_verify,
    "extract": check_extract,
}


def check_job(job, code: int, stdout: str) -> str:
    return CHECKERS[job.kind](job, code, stdout)
