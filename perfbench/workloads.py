"""The benchmark's four workloads: job lists generated from a seed.

A job is one `qramsey` command line plus what the checker needs to know
about it.  Every input the program sees (job order, spec files, coloring
files) is generated here from the seed; the pinned answers below are
the same for every seed.

This module imports no part of qramsey, so it can generate inputs
before the program under test is loaded.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("search", "construct", "pipeline", "enumerate")

# Field orders whose make_field tables each workload builds; set-up time
# builds exactly these before the first job.
FIELD_ORDERS = {
    "search": (2, 3),
    "construct": (2,),
    "pipeline": (2,),
    "enumerate": (2, 3, 4, 7),
}


@dataclass
class Job:
    """One command of a workload pass."""

    name: str                      # stable label, unique within the workload
    argv: list[str]
    kind: str                      # which checker applies (see checks.py)
    expect: dict = field(default_factory=dict)
    writes: list[str] = field(default_factory=list)  # files the job writes
    # seed of the random coloring prepare_job writes to expect["coloring"]
    coloring_seed: int | None = None


# --------------------------------------------------------------------------
# search: the coloring DFS does the work.  Budget-capped jobs carry an
# explicit --budget-nodes so their node counts do not depend on speed.

SEARCH_JOBS = [
    ("hj_3_2", "hj --t 3 --l 2 --nmax 4 --budget-nodes 1500000",
     {"value": 4}),
    ("arrow_v5_2_1_3", "arrow --q 2 --mode vector --N 5 --n 2 --k 1 --r 3",
     {"verdict": "holds"}),
    ("arrow_a6_3_1_3",
     "arrow --q 2 --mode affine --N 6 --n 3 --k 1 --r 3 --budget-nodes 400000",
     {"verdict": "holds"}),
    ("hj_4_2", "hj --t 4 --l 2 --nmax 3", {"value": None}),
    ("minn_v_2_1_2",
     "arrow --min-n --q 2 --mode vector --n 2 --k 1 --r 2 --nmax 6",
     {"value": 3}),
    ("arrow_v3_q3", "arrow --q 3 --mode vector --N 3 --n 2 --k 1 --r 2",
     {"verdict": "fails"}),
]

# --------------------------------------------------------------------------
# enumerate: canonical subspace construction, key(), sorting and stdout
# serialization; the arrow jobs spend their time in arrow_structure.

ENUMERATE_JOBS = [
    ("count_q3_v6_3", "count --q 3 --mode vector --N 6 --k 3", {}),
    ("count_q2_v7_3", "count --q 2 --mode vector --N 7 --k 3", {}),
    ("count_q4_a5_3", "count --q 4 --mode affine --N 5 --k 3", {}),
    ("count_q7_v4_2", "count --q 7 --mode vector --N 4 --k 2", {}),
    ("enum_q2_v7_3", "enumerate --q 2 --mode vector --N 7 --k 3", {}),
    ("enum_q3_a4_2", "enumerate --q 3 --mode affine --N 4 --k 2", {}),
    ("arrow_v7_2_1_2", "arrow --q 2 --mode vector --N 7 --n 2 --k 1 --r 2",
     {"verdict": "holds"}),
    ("arrow_v6_3_1_3", "arrow --q 2 --mode vector --N 6 --n 3 --k 1 --r 3",
     {"verdict": "fails"}),
    ("arrow_a6_3_1_2", "arrow --q 2 --mode affine --N 6 --n 3 --k 1 --r 2",
     {"verdict": "holds"}),
]

# --------------------------------------------------------------------------
# construct: host builds, all q=2, n=2, k=1.  (mode, |F|, N0, N1) and the
# member count each must produce.

CONSTRUCT_BUILDS = [
    ("vector", 3, 4, 1, 1575),
    ("vector", 3, 3, 2, 3087),
    ("affine", 2, 3, 2, 576),
    ("affine", 1, 4, 1, 224),
]

# --------------------------------------------------------------------------
# pipeline: construct -> verify --r 2 -> extract round trips at N0 = n over
# the acceptance grid (q=2, k=1, both modes, n in {1, 2}, every |F|).
# verify runs at N1 <= 2 and extract at N1 <= 3.  The verdict of
# `verify --r 2` depends only on (mode, n, |F|, N1): every two families
# of one size in these tiny spaces are isomorphic.

PIPELINE_N1 = (1, 2, 3)
PIPELINE_VERIFY_N1_MAX = 2
PIPELINE_VERIFY = {
    ("vector", 1, 1, 1): "holds", ("vector", 1, 1, 2): "holds",
    ("vector", 2, 1, 1): "holds", ("vector", 2, 1, 2): "holds",
    ("vector", 2, 2, 1): "fails", ("vector", 2, 2, 2): "holds",
    ("vector", 2, 3, 1): "fails", ("vector", 2, 3, 2): "fails",
    ("affine", 1, 1, 1): "holds", ("affine", 1, 1, 2): "holds",
    ("affine", 2, 1, 1): "holds", ("affine", 2, 1, 2): "holds",
    ("affine", 2, 2, 1): "holds", ("affine", 2, 2, 2): "holds",
}


def _points_q2(length: int):
    """All vectors of GF(2)^length in lexicographic order."""
    return [tuple((i >> (length - 1 - j)) & 1 for j in range(length))
            for i in range(2 ** length)]


def _xor(a, b):
    return tuple(x ^ y for x, y in zip(a, b))


def _vector_gens(rng: random.Random, basis):
    """A random generating set of span(basis) over GF(2), redundant rows allowed."""
    rows = list(basis)
    n = len(rows)
    # random invertible recombination: add row j to row i a few times
    for _ in range(3 * n):
        if n > 1:
            i, j = rng.sample(range(n), 2)
            rows[i] = _xor(rows[i], rows[j])
    if rows and rng.random() < 0.5:
        extra = tuple([0] * len(rows[0]))
        for r in rows:
            if rng.random() < 0.5:
                extra = _xor(extra, r)
        rows.insert(rng.randrange(len(rows) + 1), extra)
    return [list(r) for r in rows]


def _subspace_json(mode: str, length: int, direction, basepoint=None) -> dict:
    out = {"mode": mode, "q": 2, "ambient_len": length,
           "direction": direction}
    if mode == "affine":
        out["basepoint"] = list(basepoint)
    return out


def _config(rng: random.Random, mode: str, n: int, nf: int) -> dict:
    """A seeded q=2, k=1 configuration: the rank-n space and nf of its points.

    In vector mode the members are 1-spaces {0, v}; in affine mode they
    are single points.  Both the member choice and every generating set
    written to the file come from `rng`.
    """
    if mode == "vector":
        length = n
        candidates = [p for p in _points_q2(length) if any(p)]
    else:
        length = n - 1
        candidates = _points_q2(length)
    chosen = sorted(rng.sample(candidates, nf))
    rng.shuffle(chosen)
    identity = [tuple(1 if i == j else 0 for j in range(length))
                for i in range(length)]
    if mode == "vector":
        ambient = _subspace_json(mode, length, _vector_gens(rng, identity))
        members = [_subspace_json(mode, length, [list(v)] * rng.randint(1, 2))
                   for v in chosen]
    else:
        origin = rng.choice(_points_q2(length))
        ambient = _subspace_json(mode, length, _vector_gens(rng, identity),
                                 origin)
        members = [_subspace_json(mode, length,
                                  [[0] * length] * rng.randint(0, 1), p)
                   for p in chosen]
    return {"ambient": ambient, "members": members}


def _spec(rng: random.Random, mode: str, n: int, nf: int, n0: int, n1: int,
          r: int) -> dict:
    return {"q": 2, "mode": mode, "k": 1, "n": n, "r": r,
            "F": _config(rng, mode, n, nf), "N0": n0, "N1": n1}


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
        fh.write("\n")


def build_jobs(workload: str, seed: int, work_dir: str) -> list[Job]:
    """The workload's job list for this seed, writing its input files.

    `work_dir` is relative to the checkout root, which is the working
    directory of every job, so the command lines (and so the program's
    stdout) do not depend on where the checkout lives.
    """
    rng = random.Random(f"{workload}:{seed}")
    os.makedirs(work_dir, exist_ok=True)
    if workload in ("search", "enumerate"):
        table = SEARCH_JOBS if workload == "search" else ENUMERATE_JOBS
        jobs = [Job(name, argv.split(), argv.split()[0], dict(expect))
                for name, argv, expect in table]
        rng.shuffle(jobs)
        return jobs
    if workload == "construct":
        jobs = []
        for mode, nf, n0, n1, members in CONSTRUCT_BUILDS:
            name = f"construct_{mode}_{nf}_{n0}_{n1}"
            spec_path = os.path.join(work_dir, name + ".spec.json")
            bundle = os.path.join(work_dir, name + ".bundle.json")
            _write_json(spec_path, _spec(rng, mode, 2, nf, n0, n1, 1))
            jobs.append(Job(name, ["construct", "--spec", spec_path,
                                   "--out", bundle], "construct",
                            {"mode": mode, "n": 2, "k": 1, "nf": nf,
                             "N0": n0, "N1": n1, "members": members},
                            writes=[bundle]))
        rng.shuffle(jobs)
        return jobs
    if workload == "pipeline":
        trips = []
        for mode in ("vector", "affine"):
            for n in (1, 2):
                npoints = 2 ** n - 1 if mode == "vector" else 2 ** (n - 1)
                for nf in range(1, npoints + 1):
                    for n1 in PIPELINE_N1:
                        trips.append((mode, n, nf, n1))
        jobs = []
        rng.shuffle(trips)
        for mode, n, nf, n1 in trips:
            tag = f"{mode}_{n}_{nf}_{n1}"
            spec_path = os.path.join(work_dir, f"spec_{tag}.json")
            bundle = os.path.join(work_dir, f"bundle_{tag}.json")
            spec = _spec(rng, mode, n, nf, n, n1, 2)
            _write_json(spec_path, spec)
            info = {"mode": mode, "n": n, "k": 1, "nf": nf, "N0": n,
                    "N1": n1}
            trip = [Job(f"construct_{tag}",
                        ["construct", "--spec", spec_path, "--out", bundle],
                        "construct", dict(info), writes=[bundle])]
            rest = []
            if n1 <= PIPELINE_VERIFY_N1_MAX:
                rest.append(Job(f"verify_{tag}",
                                ["verify", "--bundle", bundle, "--r", "2"],
                                "verify",
                                {**info, "bundle": bundle, "spec": spec,
                                 "verdict": PIPELINE_VERIFY[(mode, n, nf, n1)]}))
            const_path = os.path.join(work_dir, f"const_{tag}.json")
            _write_json(const_path, {"constant": rng.randrange(2)})
            rest.append(Job(f"extract_const_{tag}",
                            ["extract", "--bundle", bundle, "--coloring",
                             const_path],
                            "extract",
                            {**info, "bundle": bundle, "spec": spec,
                             "coloring": const_path, "must_succeed": True}))
            rand_path = os.path.join(work_dir, f"random_{tag}.json")
            rest.append(Job(f"extract_random_{tag}",
                            ["extract", "--bundle", bundle, "--coloring",
                             rand_path],
                            "extract",
                            {**info, "bundle": bundle, "spec": spec,
                             "coloring": rand_path, "must_succeed": False},
                            coloring_seed=rng.randrange(2 ** 32)))
            rng.shuffle(rest)
            jobs.extend(trip + rest)
        return jobs
    raise ValueError(f"unknown workload {workload!r}")


def prepare_job(job: Job) -> None:
    """Write the inputs a job needs that depend on an earlier job's output.

    A random coloring names every member of the bundle it colors, so it
    is written after the bundle exists.  A bundle member's canonical key
    is its JSON with compact separators, which needs no qramsey code.
    """
    if job.coloring_seed is None:
        return
    with open(job.expect["bundle"], encoding="utf-8") as fh:
        members = json.load(fh)["H"]
    rng = random.Random(job.coloring_seed)
    entries = {json.dumps(m, separators=(",", ":")): rng.randrange(2)
               for m in members}
    _write_json(job.expect["coloring"], {"entries": entries})
