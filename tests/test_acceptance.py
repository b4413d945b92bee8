"""Acceptance suite: nine end-to-end guarantees, one test each.

Each test prints a single ACCEPTANCE line on success and pins its own
wall-clock bound.  Oracles here are deliberately brute force: exhaustive
point listings, exhaustive coloring enumeration, and raw row reduction,
so a pass means the fast paths agree with the definitions.
"""

import itertools
import json
import random
import time

import pytest

from qramsey import (AFFINE, VECTOR, ArrowInstance, Budget, ConfigFamily,
                     HostSpec, LinearMap, MonochromaticCopy, apply,
                     arrow_holds, arrow_structure, build_base_host,
                     build_product_host, compose, count_subspaces,
                     enumerate_lines, enumerate_subspaces, equalizer_subspace,
                     extract_monochromatic_copy, family_isomorphic,
                     find_monochromatic_line, full_space, hj_number,
                     identity_map, induced_host_verify,
                     line_embedding, line_free_coloring, make_field,
                     min_arrow_N, span)
from qramsey.cli import main
from qramsey.space import rref


class Timer:
    def __init__(self, bound_s):
        self.bound = bound_s

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        if exc[0] is None:
            assert self.elapsed < self.bound, (
                f"exceeded the pinned bound: {self.elapsed:.1f}s >= {self.bound}s")


def report(n, label):
    print(f"ACCEPTANCE {n} {label}: PASS")


# -- 1: counting vs enumeration ----------------------------------------------


def test_acceptance_01_subspace_counting():
    with Timer(30):
        for q in (2, 3, 4):
            f = make_field(q)
            for mode in (VECTOR, AFFINE):
                for n in range(1 if mode == AFFINE else 0, 6):
                    amb = full_space(f, mode, n)
                    for k in range(0, n + 1):
                        subs = enumerate_subspaces(amb, k)
                        assert len(subs) == count_subspaces(n, k, q, mode), (
                            q, mode, n, k)
    report(1, "subspace counting")


# -- 2: canonicalization soundness --------------------------------------------


def test_acceptance_02_canonicalization():
    rng = random.Random(20240501)
    with Timer(30):
        groups = {}
        made = 0
        while made < 500:
            q = rng.choice((2, 3))
            f = make_field(q)
            mode = rng.choice((VECTOR, AFFINE))
            amb = rng.randint(1, 4)
            npts = rng.randint(1, 3)
            pts = [tuple(rng.randrange(q) for _ in range(amb))
                   for _ in range(npts)]
            s = span(f, mode, pts, amb)
            groups.setdefault((mode, q, amb), []).append(
                (s.key(), frozenset(s.points())))
            made += 1
        # equality of canonical keys must coincide with point-set equality,
        # within one (mode, field, ambient) universe
        for items in groups.values():
            for (k1, p1), (k2, p2) in itertools.combinations(items, 2):
                assert (k1 == k2) == (p1 == p2)
    report(2, "canonical form soundness")


# -- 3: Hales-Jewett values -----------------------------------------------------


def test_acceptance_03_hales_jewett():
    with Timer(10):
        for t in range(1, 6):
            assert hj_number(t, 1, 3) == (1, None)
        for l in range(1, 6):
            assert hj_number(1, l, 3) == (1, None)
        assert hj_number(2, 2, 4) == (2, [0, 1])
        witness = line_free_coloring(1, 2, 2)
        assert witness == [0, 1]  # stored N=1 bad coloring
        assert line_free_coloring(2, 2, 2) is None
    with Timer(20):
        # HJ(3, 2) = 4 within a fixed 1.5M-node budget
        value, witness = hj_number(3, 2, 4, budget=Budget(max_nodes=1_500_000))
        assert value == 4
        assert find_monochromatic_line(witness, 3, 3) is None
    report(3, "Hales-Jewett numbers")


# -- 4: arrow search vs exhaustive oracle ------------------------------------------


def exhaustive_arrow(instance):
    struct = arrow_structure(instance)
    n_items = len(struct.k_spaces)
    fams = [fam for fam in struct.families if fam]
    assert instance.num_colors ** n_items <= 2**18
    for colors in itertools.product(range(instance.num_colors),
                                    repeat=n_items):
        if not any(len({colors[i] for i in fam}) == 1 for fam in fams):
            return False, colors
    return True, None


ARROW_INSTANCES = [
    (2, VECTOR, 2, 2, 1, 2),
    (2, VECTOR, 3, 2, 1, 2),
    (2, VECTOR, 4, 2, 1, 2),
    (2, VECTOR, 3, 3, 1, 2),
    (2, VECTOR, 3, 3, 2, 2),
    (2, VECTOR, 4, 4, 1, 2),
    (2, VECTOR, 3, 2, 1, 3),
    (2, AFFINE, 2, 2, 1, 2),
    (2, AFFINE, 3, 2, 1, 2),
    (2, AFFINE, 4, 2, 1, 2),
    (3, VECTOR, 3, 2, 1, 2),
    (3, AFFINE, 3, 2, 1, 2),
    (3, AFFINE, 3, 2, 1, 3),
]


def test_acceptance_04_arrow_oracle_agreement():
    with Timer(300):
        for params in ARROW_INSTANCES:
            inst = ArrowInstance(*params)
            want_holds, want_colors = exhaustive_arrow(inst)
            for symmetry in (True, False):
                res = arrow_holds(inst, symmetry=symmetry)
                assert res.holds == want_holds, (params, symmetry)
                if not want_holds:
                    struct = arrow_structure(inst)
                    got = tuple(res.witness.entries[s.key()]
                                for s in struct.k_spaces)
                    assert got == want_colors, (params, symmetry)
    report(4, "arrow oracle agreement")


# -- 5: minimal arrow value self-consistency ------------------------------------


def test_acceptance_05_min_arrow_self_consistency():
    with Timer(600):
        plain = min_arrow_N(2, VECTOR, 2, 1, 2, 6, symmetry=False)
        pruned = min_arrow_N(2, VECTOR, 2, 1, 2, 6, symmetry=True)
        assert plain == pruned == 3
        # verified bad coloring at N - 1
        below = arrow_holds(ArrowInstance(2, VECTOR, 2, 2, 1, 2))
        assert not below.holds
        struct = arrow_structure(ArrowInstance(2, VECTOR, 2, 2, 1, 2))
        colors = [below.witness.entries[s.key()] for s in struct.k_spaces]
        for fam in struct.families:
            assert len({colors[i] for i in fam}) > 1
        # verified holds at N, by full enumeration
        holds, _ = exhaustive_arrow(ArrowInstance(2, VECTOR, 3, 2, 1, 2))
        assert holds
    report(5, "minimal arrow value")


# -- 6: line embedding sweep -------------------------------------------------------


def grid_specs():
    out = []
    for mode in (VECTOR, AFFINE):
        f = make_field(2)
        for n in (1, 2):
            amb = full_space(f, mode, n)
            members = enumerate_subspaces(amb, 1)
            for nf in range(1, len(members) + 1):
                fam = ConfigFamily(amb, tuple(members[:nf]))
                out.append(HostSpec(2, mode, 1, n, 1, fam, n, 1))
    return out


def check_embedding(host, emb):
    base = host.base
    f = base.field
    # (a) section and flatten invert each other over the block space
    ident = identity_map(f, base.spec.mode, base.space.ambient_len)
    assert compose(emb.flatten, emb.section) == ident
    for p in emb.space.points():
        assert host.space.is_member(p)
        assert apply(base.projection, apply(emb.flatten, p)) == \
            apply(host.projection, p)
    # (b) the copy's word spaces biject onto the covers
    t = len(base.covers)
    assert len(emb.word_spaces) == t
    assert len({ws.key() for ws in emb.word_spaces}) == t
    for s in range(t):
        assert apply(emb.flatten, emb.word_spaces[s]) == base.covers[s]
        assert emb.space.contains_subspace(emb.word_spaces[s])
    # (c) the host members inside the copy flatten onto the cover k-spaces
    host_keys = {m.key() for m in host.members}
    assert all(hm.key() in host_keys for hm in emb.host_members)
    flat = sorted(apply(emb.flatten, hm).key() for hm in emb.host_members)
    assert flat == [g.key() for g in base.cover_k_spaces]


def test_acceptance_06_line_embedding_sweep():
    with Timer(300):
        total = 0
        for spec in grid_specs():
            base = build_base_host(spec)
            for n1 in (1, 2, 3):
                host = build_product_host(base, n1)
                for line in enumerate_lines(n1, len(base.covers)):
                    emb = line_embedding(host, line)
                    check_embedding(host, emb)
                    total += 1
        assert total > 100  # the grid is not allowed to silently shrink
    report(6, "line embedding sweep")


# -- 7: end-to-end single-color extraction -------------------------------------------


def test_acceptance_07_end_to_end_extraction():
    with Timer(300):
        for spec in grid_specs():
            base = build_base_host(spec)
            for n1 in (1, 2, 3):
                host = build_product_host(base, n1)
                coloring = {m.key(): 0 for m in host.members}
                out = extract_monochromatic_copy(host, coloring)
                assert isinstance(out, MonochromaticCopy), (spec, n1)
                copy_fam = ConfigFamily(out.space, out.members)
                assert family_isomorphic(spec.family, copy_fam) is not None
                assert all(coloring[m.key()] == out.color
                           for m in out.members)
                if len(host.members) <= 20:
                    res = induced_host_verify(host.space, host.members,
                                              spec.family, 1)
                    assert res.holds, (spec, n1)
    report(7, "end-to-end extraction")


# -- 8: equalizer rank law --------------------------------------------------------


def test_acceptance_08_equalizer_rank_law():
    rng = random.Random(777)
    with Timer(30):
        f2, f3 = make_field(2), make_field(3)
        done = 0
        while done < 50:
            f = rng.choice((f2, f3))
            dom = rng.randint(1, 4)
            cod = rng.randint(1, 3)
            rows = tuple(tuple(rng.randrange(f.order) for _ in range(dom))
                         for _ in range(cod))
            pi = LinearMap(VECTOR, f, dom, cod, rows)
            w = rng.randint(1, 3)
            X = equalizer_subspace(pi, w)
            # direct rank computations from raw row reduction
            m_rank = len(rref(f, rows)[1])
            stacked = []
            for i in range(1, w):
                for r in rows:
                    row = [0] * (w * dom)
                    row[:dom] = list(r)
                    for j, c in enumerate(r):
                        row[i * dom + j] = f.neg(c)
                    stacked.append(tuple(row))
            constraint_rank = len(rref(f, stacked)[1]) if stacked else 0
            assert X.rank == w * dom - constraint_rank
            assert X.rank == w * dom - (w - 1) * m_rank
            done += 1
    report(8, "equalizer rank law")


# -- 9: determinism across repeats and worker counts ----------------------------------


def test_acceptance_09_determinism(capsys, tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(grid_specs()[2].to_json()))
    col_path = tmp_path / "col.json"
    col_path.write_text(json.dumps({"constant": 0}))

    def run_all(workers, tag):
        bundle = tmp_path / f"bundle-{tag}.json"
        cmds = [
            ["arrow", "--q", "2", "--mode", "vector", "--N", "3", "--n", "2",
             "--k", "1", "--r", "2", "--workers", workers],
            ["arrow", "--q", "2", "--mode", "affine", "--N", "3", "--n", "2",
             "--k", "1", "--r", "2", "--workers", workers],
            ["arrow", "--min-n", "--q", "2", "--mode", "vector", "--n", "2",
             "--k", "1", "--r", "2", "--nmax", "6", "--workers", workers],
            ["hj", "--t", "2", "--l", "2", "--nmax", "4", "--workers",
             workers],
            ["construct", "--spec", str(spec_path), "--out", str(bundle),
             "--workers", workers],
            ["verify", "--bundle", str(bundle), "--workers", workers],
            ["extract", "--bundle", str(bundle), "--coloring", str(col_path),
             "--workers", workers],
        ]
        chunks = []
        for argv in cmds:
            code = main(argv)
            assert code in (0, 2)
            chunks.append(capsys.readouterr().out)
        # the construct report echoes the bundle path; strip the tag
        return "".join(chunks).replace(f"bundle-{tag}.json", "bundle.json")

    first = run_all("1", "a")
    again = run_all("1", "b")
    wide = run_all("4", "c")
    assert first == again == wide
    report(9, "bytewise determinism")
