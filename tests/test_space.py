"""Subspace algebra: canonical forms, counting, maps.

Two oracles drive the bulk of the checks:
  * closure_points: fixpoint iteration under raw 2-term linear (resp.
    3-term affine) combinations, so span correctness is tested without
    touching any row-reduction code.  Three terms matter: over GF(2) the
    2-term affine combinations of a set are just the set itself.
  * point-set listings: canonical equality must coincide with extensional
    equality, and images are compared point by point.
"""

import itertools
import json
import os
import pathlib
import random
import re
import subprocess
import sys

import pytest

from qramsey import (AFFINE, VECTOR, BasisSet, LinearMap, SizeCapError,
                     Subspace, apply, complement, compose, coordinate_map,
                     count_subspaces, direct_sum, enumerate_subspaces,
                     extend_to_basis, full_space, gaussian_binomial,
                     identity_map, image_space, is_independent,
                     linear_extension, make_field, span, zero_space)
from qramsey import space
from qramsey.space import (mat_vec, nullspace_rows, rref, transpose, vec_add,
                           vec_scale, vec_sub)

from affine_maps import affine_map


def all_points(f, length):
    return list(itertools.product(range(f.order), repeat=length))


def vecs(*rows):
    """Vectors as the library holds them: one bytes object each."""
    return tuple(map(bytes, rows))


def tup(vectors):
    """Vectors as tuples, for comparison with tuple references."""
    return tuple(map(tuple, vectors))


def closure_points(f, mode, gens):
    """Fixpoint closure of gens under mode combinations."""
    gens = [tuple(g) for g in gens]
    if mode == VECTOR:
        pts = {tuple([0] * len(gens[0]))} if gens else set()
        pts.update(gens)
        changed = True
        while changed:
            changed = False
            frozen = list(pts)
            for u in frozen:
                for v in frozen:
                    for a in range(f.order):
                        w = tuple(f.add(f.mul(a, x), y) for x, y in zip(u, v))
                        if w not in pts:
                            pts.add(w)
                            changed = True
        return pts
    pts = set(gens)
    changed = True
    while changed:
        changed = False
        frozen = list(pts)
        for u, v, w in itertools.product(frozen, repeat=3):
            for a in range(f.order):
                for b in range(f.order):
                    c = f.sub(f.sub(1, a), b)  # coefficients sum to 1
                    x = tuple(
                        f.add(f.add(f.mul(a, u[i]), f.mul(b, v[i])), f.mul(c, w[i]))
                        for i in range(len(u)))
                    if x not in pts:
                        pts.add(x)
                        changed = True
    return pts


# -- canonical form and spans ------------------------------------------


@pytest.mark.parametrize("q,mode", [(2, VECTOR), (2, AFFINE), (3, VECTOR), (3, AFFINE)])
def test_span_matches_closure_oracle(q, mode):
    f = make_field(q)
    rng = random.Random(1000 + q + len(mode))
    pts = all_points(f, 3)
    for _ in range(40):
        gens = [rng.choice(pts) for _ in range(rng.randint(1, 3))]
        s = span(f, mode, gens, 3)
        assert set(tup(s.points())) == closure_points(f, mode, gens)


@pytest.mark.parametrize("q", [2, 3])
def test_canonical_equality_iff_same_points(q):
    # random generating sets; equal canonical keys must mean equal point sets
    f = make_field(q)
    rng = random.Random(77 + q)
    pts = all_points(f, 3)
    for mode in (VECTOR, AFFINE):
        seen = {}
        for _ in range(120):
            gens = [rng.choice(pts) for _ in range(rng.randint(1, 3))]
            s = span(f, mode, gens, 3)
            pset = frozenset(s.points())
            if s.key() in seen:
                assert seen[s.key()] == pset
            else:
                assert pset not in set(seen.values()) or any(
                    v == pset for v in seen.values())
                seen[s.key()] = pset
        # distinct keys must give distinct point sets
        keys = list(seen)
        for i, k1 in enumerate(keys):
            for k2 in keys[i + 1:]:
                assert seen[k1] != seen[k2]


def test_span_idempotent_and_order_blind():
    f = make_field(3)
    for mode in (VECTOR, AFFINE):
        s = span(f, mode, [(1, 2, 0), (0, 1, 1)], 3)
        assert span(f, mode, s.basis_points(), 3) == s
        assert span(f, mode, list(reversed(s.basis_points())), 3) == s
        assert span(f, mode, list(s.points()), 3) == s


def test_direction_rows_are_rref():
    f = make_field(2)
    s = span(f, VECTOR, [(1, 1, 0), (1, 0, 1), (0, 1, 1)], 3)
    rows = s.direction
    assert s.rank == 2
    piv = s.pivots()
    assert list(piv) == sorted(piv)
    for i, p in enumerate(piv):
        assert rows[i][p] == 1
        for j in range(len(rows)):
            if j != i:
                assert rows[j][p] == 0


def test_affine_basepoint_normalized():
    f = make_field(2)
    a = span(f, AFFINE, [(1, 0), (1, 1)], 2)
    b = span(f, AFFINE, [(1, 1), (1, 0)], 2)
    assert a == b and a.key() == b.key()
    # basepoint is zeroed on pivot columns of the direction
    for p in first_nonzero_scan(a.direction):
        assert a.basepoint[p] == 0


def test_subspace_constructor_rejects_non_canonical():
    f = make_field(2)
    with pytest.raises(ValueError):
        Subspace(VECTOR, f, 2, vecs((0, 1), (1, 0)))  # pivots not increasing
    with pytest.raises(ValueError):
        Subspace(VECTOR, f, 2, vecs((1, 1), (0, 1)))  # not reduced
    with pytest.raises(ValueError):
        Subspace(VECTOR, f, 2, vecs((1, 0)), bytes((0, 1)))  # basepoint in vector mode
    with pytest.raises(ValueError):
        Subspace(AFFINE, f, 2, vecs((1, 0)), bytes((1, 0)))  # basepoint on pivot column


# one bad row of width 3 over GF(3) and the message that names it
ROW_FAULTS = [
    ((1, 0), "direction row length differs from ambient_len"),
    ((1, 3, 0), "direction entries out of field range"),
    ((0, 0, 0), "zero row in direction"),
    ((0, 0, 2), "pivot entries must be 1"),
]


@pytest.mark.parametrize("row,message", ROW_FAULTS)
def test_subspace_check_precedence(row, message):
    f = make_field(3)
    # alone, and before a row of another type, which raises first
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Subspace(VECTOR, f, 3, (bytes(row),))
    with pytest.raises(TypeError, match="^direction rows must be bytes, not tuple$"):
        Subspace(VECTOR, f, 3, (bytes(row), (0, 0, 1)))
    # a row's own fault, even on a later row, before the reduced form
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Subspace(VECTOR, f, 3, vecs((1, 1, 0), (0, 1, 0), row))


def test_subspace_check_reduced_form():
    f = make_field(3)
    unreduced = "^non-reduced entry above/below a pivot$"
    with pytest.raises(ValueError, match="^pivots must be strictly increasing$"):
        Subspace(VECTOR, f, 3, vecs((0, 1, 0), (1, 0, 0)))
    # an entry of an earlier row on a later pivot, in either mode
    with pytest.raises(ValueError, match=unreduced):
        Subspace(VECTOR, f, 3, vecs((1, 0, 2), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(ValueError, match=unreduced):
        Subspace(AFFINE, f, 3, vecs((1, 2, 0), (0, 1, 1)), bytes(3))
    # entries off the pivots are free, and one row is always reduced
    Subspace(VECTOR, f, 3, vecs((1, 0, 2), (0, 1, 1)))
    Subspace(VECTOR, f, 3, vecs((0, 1, 2),))
    with pytest.raises(ValueError, match="^basepoint must be zero on pivot columns$"):
        Subspace(AFFINE, f, 3, vecs((1, 0, 2), (0, 1, 1)), bytes((0, 1, 0)))
    Subspace(AFFINE, f, 3, vecs((1, 0, 2), (0, 1, 1)), bytes((0, 0, 1)))


def test_from_json_recanonicalizes():
    f = make_field(2)
    data = {"mode": "vector", "q": 2, "ambient_len": 2,
            "direction": [[0, 1], [1, 0], [1, 1]]}  # redundant, unsorted
    s = Subspace.from_json(data)
    assert s == full_space(f, VECTOR, 2)
    rt = Subspace.from_json(s.to_json())
    assert rt == s and rt.key() == s.key()


# (mode, keys replaced in a subspace of GF(2)^2, the part named): every
# length is checked before a row meets the basepoint, which padded a
# short row and overflowed on a long one
FROM_JSON_LENGTHS = [
    (VECTOR, {"direction": [[1]]}, "direction row"),
    (VECTOR, {"direction": [[1, 0, 0]]}, "direction row"),
    (VECTOR, {"direction": [[1, 0], [1]]}, "direction row"),
    (AFFINE, {"direction": [[1]]}, "direction row"),
    (AFFINE, {"direction": [[1, 0, 1]]}, "direction row"),
    (AFFINE, {"basepoint": [1]}, "basepoint"),
    (AFFINE, {"basepoint": [0, 1, 0]}, "basepoint"),
    (AFFINE, {"direction": [], "basepoint": []}, "basepoint"),
]


@pytest.mark.parametrize("mode,change,what", FROM_JSON_LENGTHS,
                         ids=["vector_short_row", "vector_long_row",
                              "vector_second_row", "affine_short_row",
                              "affine_long_row", "short_basepoint",
                              "long_basepoint", "empty_basepoint"])
def test_from_json_checks_lengths_first(mode, change, what):
    data = {"mode": mode, "q": 2, "ambient_len": 2, "direction": [[0, 1]]}
    if mode == AFFINE:
        data["basepoint"] = [0, 0]
    Subspace.from_json(data)
    with pytest.raises(ValueError,
                       match=f"^{what} length differs from ambient_len$"):
        Subspace.from_json({**data, **change})


def test_mode_mismatch_rejected():
    f = make_field(2)
    u = span(f, VECTOR, [(1, 0)], 2)
    v = span(f, AFFINE, [(1, 0)], 2)
    with pytest.raises(ValueError):
        u.contains_subspace(v)


def test_rank_and_dimension_conventions():
    f = make_field(2)
    full = full_space(f, VECTOR, 2)
    assert full.rank == 2 and len(full.direction) == 2
    pt = span(f, AFFINE, [(1, 0)])
    assert pt.rank == 1 and len(pt.direction) == 0
    line = span(f, AFFINE, [(0, 0), (1, 1)], 2)
    assert line.rank == 2 and len(line.direction) == 1


# -- counting ------------------------------------------------------------


def test_gaussian_binomial_golden():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(1, 1, 5) == 1
    assert gaussian_binomial(3, 0, 3) == 1
    assert gaussian_binomial(2, 3, 2) == 0
    # Pascal-style recurrence as an independent identity
    for n in range(1, 6):
        for k in range(1, n + 1):
            for q in (2, 3, 4):
                assert gaussian_binomial(n, k, q) == (
                    gaussian_binomial(n - 1, k - 1, q)
                    + q**k * gaussian_binomial(n - 1, k, q))


def test_count_golden_affine():
    # rank-1 affine subspaces are points; AG(2,2) has 4 of them
    assert count_subspaces(3, 1, 2, AFFINE) == 4
    # and 6 lines
    assert count_subspaces(3, 2, 2, AFFINE) == 6
    assert count_subspaces(3, 0, 2, AFFINE) == 0


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("mode", [VECTOR, AFFINE])
def test_enumeration_matches_count(q, mode):
    f = make_field(q)
    for n in range(0 if mode == VECTOR else 1, 4):
        amb = full_space(f, mode, n)
        for k in range(0, n + 1):
            subs = enumerate_subspaces(amb, k)
            assert len(subs) == count_subspaces(n, k, q, mode)
            keys = [s.key() for s in subs]
            assert keys == sorted(keys) and len(set(keys)) == len(keys)
            for s in subs:
                assert s.rank == k and amb.contains_subspace(s)


SUPPORTED_QS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


def json_key(s):
    return json.dumps(s.to_json(), separators=(",", ":"))


# -- the stored rows against the direction-and-basepoint form ---------------
#
# The reference computes a flat's direction rows and basepoint without
# homogenizing: the RREF of the points' differences from the first point,
# and that point reduced by those rows.  The stored rows must give back
# exactly that form, and its key; the affine count, a difference of
# Gaussian binomials, must match the closed form q^(d - k + 1) [d; k - 1]_q
# of the rank-k flats in AG(d, q).


def ref_span_form(f, mode, pts):
    """The canonical direction rows and basepoint of the points' span,
    from their differences."""
    if mode == VECTOR:
        return rref(f, pts)[0], None
    base = pts[0]
    rows, piv = rref(f, [vec_sub(f, p, base) for p in pts[1:]])
    for row, p in zip(rows, piv):  # rows are zero on each other's pivots
        base = vec_sub(f, base, vec_scale(f, base[p], row))
    return rows, base


def ref_affine_count(rank, k, q):
    if not 1 <= k <= rank:
        return 0
    d = rank - 1
    return q ** (d - k + 1) * gaussian_binomial(d, k - 1, q)


@pytest.mark.parametrize("q", SUPPORTED_QS)
def test_stored_rows_match_the_direction_and_basepoint_form(q):
    f = make_field(q)
    rng = random.Random(f"homogenized:{q}")
    for trial in range(240):
        mode = (VECTOR, AFFINE)[trial % 2]
        length = rng.randint(0, 6)
        density = rng.choice(DENSITIES)
        pts = [random_vec(rng, q, length, density)
               for _ in range(rng.randint(1 if mode == AFFINE else 0, 5))]
        s = span(f, mode, pts, length)
        direction, basepoint = ref_span_form(f, mode, pts)
        assert (s.direction, s.basepoint) == (direction, basepoint)
        assert s.rows == (direction if mode == VECTOR else
                          (b"\1" + basepoint,) + tuple(b"\0" + r for r in direction))
        assert s.rank == len(direction) + (mode == AFFINE)
        want = {"mode": mode, "q": q, "ambient_len": length,
                "direction": [list(r) for r in direction]}
        if mode == AFFINE:
            want["basepoint"] = list(basepoint)
        assert s.key() == json.dumps(want, separators=(",", ":"))
        # the join of two spans is the span of both point sets
        more = [random_vec(rng, q, length, density) for _ in range(2)]
        t = span(f, mode, more, length)
        assert space.join(s, t) == span(f, mode, pts + more, length)
        assert s.contains_subspace(t) == all(map(s.is_member, more))


def test_from_rows_round_trips_and_refuses_a_flat_without_its_first_row():
    f = make_field(3)
    for mode in (VECTOR, AFFINE):
        s = span(f, mode, [(1, 2, 0), (0, 1, 1)], 3)
        assert Subspace.from_rows(mode, f, 3, s.rows) == s
    for rows, message in [((), "affine-mode subspaces need a basepoint"),
                          (vecs((0, 1, 0)), "affine-mode subspaces need a basepoint"),
                          (vecs((1, 0, 0), (1, 1, 0)),
                           "non-reduced entry above/below a pivot"),
                          (vecs((1, 1, 0), (0, 1, 0)),
                           "basepoint must be zero on pivot columns")]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Subspace.from_rows(AFFINE, f, 2, rows)


def test_affine_count_matches_the_closed_form():
    for q in SUPPORTED_QS:
        for rank in range(1, 9):
            for k in range(rank + 2):
                assert count_subspaces(rank, k, q, AFFINE) == \
                    ref_affine_count(rank, k, q)


def key_cases(f, rng):
    """Random subspaces of both modes, plus the edge shapes of the key."""
    top = f.order - 1
    cases = [
        zero_space(f, 0),                       # vector rank 0, ambient_len 0
        zero_space(f, 3),                       # vector rank 0: direction []
        full_space(f, AFFINE, 1),               # affine rank 1, ambient_len 0
        span(f, AFFINE, [(top, 1, 0)]),         # affine rank 1: a point
        full_space(f, VECTOR, 1),               # one-entry row
        span(f, AFFINE, [(top,), (0,)]),        # one-entry row and basepoint
        span(f, VECTOR, [(1, top, top, 0)]),    # largest entries
        span(f, AFFINE, [(0, top, top), (1, top, 0)]),
    ]
    for mode in (VECTOR, AFFINE):
        for length in range(0 if mode == VECTOR else 1, 5):
            for _ in range(6):
                pts = [tuple(rng.randrange(f.order) for _ in range(length))
                       for _ in range(rng.randrange(1, 4))]
                cases.append(span(f, mode, pts, length))
    return cases


@pytest.mark.parametrize("q", SUPPORTED_QS)
def test_key_is_compact_json(q):
    f = make_field(q)
    for s in key_cases(f, random.Random(q)):
        assert s.key() == json_key(s), s
    if q > 10:  # two-digit entries, 10 to q - 1
        for s in (Subspace(VECTOR, f, 3, vecs((1, 0, 10), (0, 1, q - 1))),
                  Subspace(AFFINE, f, 3, vecs((1, q - 1, 0)), bytes((0, 10, q - 1)))):
            assert "10" in s.key() and s.key() == json_key(s)


@pytest.mark.parametrize("q", SUPPORTED_QS)
def test_json_text_is_default_json(q):
    # written from the bytes, without formatting a key
    f = make_field(q)
    cases = key_cases(f, random.Random(q))
    cases += [Subspace(VECTOR, f, 3, vecs((1, 0, 10 % q), (0, 1, q - 1))),
              Subspace(AFFINE, f, 3, vecs((1, q - 1, 0)), bytes((0, q // 2, q - 1)))]
    for s in cases:
        fresh = Subspace(s.mode, f, s.ambient_len, s.direction, s.basepoint)
        assert space.json_text(fresh) == json.dumps(s.to_json())
        assert fresh._key is None
    assert 0 in {s.ambient_len for s in cases} and any(not s.direction for s in cases)


@pytest.mark.parametrize("q", [2, 3, 4, 11])
@pytest.mark.parametrize("mode", [VECTOR, AFFINE])
def test_enumeration_order_is_json_order(q, mode):
    f = make_field(q)
    rng = random.Random(7 * q)
    ambients = [full_space(f, mode, n)
                for n in range(0 if mode == VECTOR else 1, 4 if q < 11 else 3)]
    for _ in range(4):  # proper subspaces of GF(q)^3
        ambients.append(span(f, mode, [tuple(rng.randrange(q) for _ in range(3))
                                       for _ in range(3)], 3))
    for amb in ambients:
        for k in range(amb.rank + 1):
            subs = enumerate_subspaces(amb, k)
            assert [json_key(s) for s in subs] == sorted(map(json_key, subs))


def same_shape_group(f, mode, width, rank, rng, size=12):
    """`size` random subspaces of GF(q)^width of one mode and rank, each
    the span of rank random points redrawn until independent."""
    out = []
    while len(out) < size:
        pts = [tuple(rng.randrange(f.order) for _ in range(width))
               for _ in range(rank)]
        s = span(f, mode, pts, width)
        if s.rank == rank:
            out.append(s)
    return out


@pytest.mark.parametrize("q", SUPPORTED_QS)
@pytest.mark.parametrize("mode", [VECTOR, AFFINE])
def test_key_order_sorts_like_the_key(q, mode):
    f = make_field(q)
    rng = random.Random(31 * q + (mode == AFFINE))
    for width in range(1, 6):
        for rank in range(1 if mode == AFFINE else 0, min(3, width) + 1):
            group = same_shape_group(f, mode, width, rank, rng)
            keys = sorted(s.key() for s in group)
            order = space.rows_order(q, mode, rank) or tuple
            by_rows = sorted(group, key=lambda s: order(s.rows))
            assert [s.key() for s in by_rows] == keys
            assert len({order(s.rows) for s in group}) == len(set(keys))


@pytest.mark.parametrize("q", [11, 13, 16])
def test_plain_byte_order_is_not_key_order_for_two_digit_entries(q):
    # "[1,10]" sorts before "[1,2]" and "[1,1]", and "[1,10," before "[1,2,"
    f = make_field(q)
    for a, b in [((1, 2), (1, 10)), ((1, 1), (1, 10)), ((1, 2, 0), (1, 10, 0))]:
        low, high = span(f, VECTOR, [a]), span(f, VECTOR, [b])
        assert low.direction < high.direction and high.key() < low.key()
        order = space.rows_order(q, VECTOR, 1)
        assert order(high.rows) < order(low.rows)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
@pytest.mark.parametrize("mode", [VECTOR, AFFINE])
def test_walk_rows_sort_as_enumerate_subspaces(q, mode):
    # every rank N <= 3 and every k: the walk's rows in the order of the
    # subspaces enumerate_subspaces lists.  From q = 11 on, plain byte
    # order (a flat's basepoint row last, as its key writes it) is not key
    # order, so there the rank tables must do the sorting
    f = make_field(q)
    misordered = 0
    for rank in range(1 if mode == AFFINE else 0, 4):
        for k in range(1 if mode == AFFINE else 0, rank + 1):
            want = [s.rows for s in enumerate_subspaces(full_space(f, mode, rank), k)]
            rows = space.walk_rows(f, mode, rank, k)
            assert rows == want, (rank, k)
            plain = sorted(rows, key=lambda r: r[1:] + r[:1] if mode == AFFINE else r)
            misordered += plain != want
    assert (misordered > 0) == (q >= 11)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize("mode", [VECTOR, AFFINE])
def test_points_run_in_coefficient_product_order(q, mode):
    # the arrow families rely on this order: point j of every rank-n
    # space is the image of point j of the coordinate space
    f = make_field(q)
    for n in range(0 if mode == VECTOR else 1, 4):
        amb = full_space(f, mode, n + 1)
        for s in enumerate_subspaces(amb, n):
            base = tuple(s.basepoint) if mode == AFFINE else (0,) * s.ambient_len
            want = []
            for coeffs in itertools.product(range(q), repeat=len(s.direction)):
                p = base
                for c, row in zip(coeffs, s.direction):
                    p = tuple(f.add(x, f.mul(c, y)) for x, y in zip(p, row))
                want.append(p)
            assert list(tup(s.points())) == want


def test_enumeration_inside_proper_ambient():
    # enumerate within a rank-2 subspace of a rank-3 space
    f = make_field(2)
    big = full_space(f, VECTOR, 3)
    amb = span(f, VECTOR, [(1, 0, 1), (0, 1, 1)], 3)
    subs = enumerate_subspaces(amb, 1)
    assert len(subs) == count_subspaces(2, 1, 2, VECTOR) == 3
    for s in subs:
        assert amb.contains_subspace(s) and big.contains_subspace(s)


def test_num_points():
    f = make_field(3)
    assert full_space(f, VECTOR, 2).num_points == 9
    assert full_space(f, AFFINE, 2).num_points == 3
    assert zero_space(f, 4).num_points == 1
    assert span(f, AFFINE, [(1, 2)]).num_points == 1


def test_point_cap_enforced():
    f = make_field(2)
    s = full_space(f, VECTOR, 17)  # 131,072 points
    with pytest.raises(SizeCapError):
        next(s.points())  # refused before the first point
    with pytest.raises(SizeCapError):
        sorted(s.points())
    with pytest.raises(SizeCapError):
        enumerate_subspaces(s, 1)
    with pytest.raises(SizeCapError):
        enumerate_subspaces(full_space(f, VECTOR, 12), 6)  # 4096 points


# -- independence, bases, complements ------------------------------------


def test_is_independent_modes():
    f = make_field(3)
    assert is_independent(f, VECTOR, [(1, 0), (0, 1)])
    assert not is_independent(f, VECTOR, [(1, 0), (2, 0)])
    assert not is_independent(f, VECTOR, [(0, 0)])
    # three collinear affine points are dependent
    assert not is_independent(f, AFFINE, [(0, 0), (1, 1), (2, 2)])
    assert is_independent(f, AFFINE, [(0, 0), (1, 1), (1, 2)])
    assert is_independent(f, AFFINE, [(2, 2)])


def test_extend_to_basis_golden():
    f = make_field(2)
    got = extend_to_basis(BasisSet(VECTOR, f, ()), full_space(f, VECTOR, 2))
    assert tup(got.points) == ((0, 1), (1, 0))  # lex scan order, frozen
    f3 = make_field(3)
    amb = full_space(f3, AFFINE, 2)
    got = extend_to_basis(BasisSet(AFFINE, f3, ()), amb)
    assert tup(got.points) == ((0,), (1,))


def test_extend_to_basis_identity_on_full_basis():
    f = make_field(2)
    basis = BasisSet(VECTOR, f, vecs((0, 1), (1, 0)))
    assert extend_to_basis(basis, full_space(f, VECTOR, 2)).points == basis.points
    flat = span(f, AFFINE, [(0, 1), (1, 0)], 2)
    got = extend_to_basis(BasisSet(AFFINE, f, vecs((0, 1))), flat)
    assert tup(got.points) == ((0, 1), (1, 0))  # the only other point of the flat


def test_extend_to_basis_keeps_prefix():
    f = make_field(2)
    target = full_space(f, VECTOR, 3)
    start = BasisSet(VECTOR, f, vecs((1, 1, 0)))
    got = extend_to_basis(start, target)
    assert tuple(got.points[0]) == (1, 1, 0) and len(got.points) == 3
    assert span(f, VECTOR, got.points) == target


def test_extend_to_basis_rejects_outsiders():
    f = make_field(2)
    target = span(f, VECTOR, [(1, 0, 0)], 3)
    with pytest.raises(ValueError):
        extend_to_basis(BasisSet(VECTOR, f, vecs((0, 1, 0))), target)


class ReferenceTracker:
    """Independence by forward elimination, one point at a time: the
    oracle for `is_independent` and `extend_to_basis`.

    Each point (in affine mode, its difference from the first) is
    reduced at its leading column by the rows kept so far; a nonzero
    residual is kept, scaled to lead with 1, and the point is
    independent of the earlier ones.
    """

    def __init__(self, f, mode):
        self.f = f
        self.mode = mode
        self.origin = None  # affine mode: the first point
        self.rows = {}  # pivot -> echelon row, led by 1

    def try_add(self, point):
        """Add the point if it keeps the set independent; report success."""
        f = self.f
        v = bytes(point)
        if self.mode == AFFINE:
            if self.origin is None:
                self.origin = v
                return True
            v = vec_sub(f, v, self.origin)
        while any(v):
            p = next(j for j, x in enumerate(v) if x)
            row = self.rows.get(p)
            if row is None:
                self.rows[p] = vec_scale(f, f.inv(v[p]), v)
                return True
            v = vec_sub(f, v, vec_scale(f, v[p], row))
        return False

    @property
    def rank(self):
        return len(self.rows) + (self.origin is not None)


def reference_independent(f, mode, points):
    tracker = ReferenceTracker(f, mode)
    return all(tracker.try_add(p) for p in points)


def listing_completion(basis, target):
    """The lexicographic greedy over every listed point of the target."""
    tracker = ReferenceTracker(basis.field, basis.mode)
    for p in basis.points:
        assert tracker.try_add(p)
    chosen = list(basis.points)
    for cand in sorted(target.points()):
        if tracker.rank == target.rank:
            break
        if tracker.try_add(cand):
            chosen.append(cand)
    return tuple(chosen)


@pytest.mark.parametrize("q", SUPPORTED_QS)
@pytest.mark.parametrize("mode", [VECTOR, AFFINE])
def test_full_target_completion_matches_listing(q, mode):
    # a target that fills its ambient is completed from the origin and
    # the unit vectors, never listed; the lexicographic scan agrees
    f = make_field(q)
    rng = random.Random(f"complete:{q}:{mode}")
    max_len = max(d for d in range(8) if q ** d <= 1024)
    for trial in range(150):
        length = trial % (max_len + 1)
        target = full_space(f, mode, length + (mode == AFFINE))
        size = rng.randint(1 if mode == AFFINE else 0, target.rank)
        pts = random_independent(rng, f, mode, length, size, rng.choice(DENSITIES))
        basis = BasisSet(mode, f, tuple(pts))
        assert extend_to_basis(basis, target).points == listing_completion(basis, target)


@pytest.mark.parametrize("q", SUPPORTED_QS)
@pytest.mark.parametrize("mode", [VECTOR, AFFINE])
def test_proper_target_completion_matches_listing(q, mode):
    # a target inside a longer ambient is completed from its pivot
    # coordinates, never listed; the lexicographic scan agrees
    f = make_field(q)
    rng = random.Random(f"proper:{q}:{mode}")
    max_dim = max(d for d in range(8) if q ** d <= 1024)
    for trial in range(40):
        width = rng.randint(1, max_dim + 2)
        gens = [random_vec(rng, q, width, rng.choice(DENSITIES))
                for _ in range(rng.randint(1, min(width, max_dim + 1)))]
        target = span(f, mode, gens, width)
        if len(target.direction) == width or target.num_points > 1024:
            continue
        listed = sorted(target.points())
        rng.shuffle(listed)
        tracker, pts = ReferenceTracker(f, mode), []
        size = rng.randint(0, target.rank)
        for p in listed:
            if len(pts) == size:
                break
            if tracker.try_add(p):
                pts.append(p)
        basis = BasisSet(mode, f, tuple(pts))
        assert extend_to_basis(basis, target).points == listing_completion(basis, target)


def target_point(rng, target):
    """A random point of the target: its basepoint (the origin in vector
    mode) plus a random combination of its direction rows."""
    f = target.field
    p = target.basepoint if target.mode == AFFINE else bytes(target.ambient_len)
    for row in target.direction:
        p = vec_add(f, p, vec_scale(f, rng.randrange(f.order), row))
    return p


@pytest.mark.parametrize("mode", [VECTOR, AFFINE])
def test_proper_target_past_the_point_cap_completes(mode):
    # a target of 17 directions in GF(2)^18 has 131,072 points, too many
    # to list; a partial basis of it completes all the same, and so does
    # a complement inside it
    f = make_field(2)
    rng = random.Random(f"past-cap:{mode}")
    rank = 17 + (mode == AFFINE)
    while True:
        target = span(f, mode, [random_vec(rng, 2, 18, 0.5) for _ in range(rank)], 18)
        if target.rank == rank:
            break
    assert target.num_points > space.POINT_CAP
    with pytest.raises(SizeCapError):
        next(target.points())
    inner = span(f, mode, [target_point(rng, target) for _ in range(5)], 18)
    basis = BasisSet(mode, f, inner.basis_points())
    got = extend_to_basis(basis, target)
    assert got.points[:len(basis)] == basis.points
    assert len(got) == target.rank and span(f, mode, got.points, 18) == target
    comp = complement(inner, target)
    assert inner.rank + comp.rank == target.rank
    assert direct_sum([inner, comp]) == target


def test_points_of_differing_length_are_refused():
    # a reduction of rows of differing lengths need not end, so a child
    # process with a timeout runs the checks: a regression fails here
    # rather than hanging the suite
    code = (
        "from qramsey import BasisSet, is_independent, make_field\n"
        "f = make_field(2)\n"
        "for mode in ('vector', 'affine'):\n"
        "    for pts in ([(1,), (1, 0)], [(1, 0), (1,)]):\n"
        "        for check in (lambda: is_independent(f, mode, pts),\n"
        "                      lambda: BasisSet(mode, f, tuple(map(bytes, pts)))):\n"
        "            try:\n"
        "                check()\n"
        "            except ValueError as e:\n"
        "                print(e)\n")
    src = pathlib.Path(space.__file__).resolve().parent.parent
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": str(src),
                              "PYTHONDONTWRITEBYTECODE": "1"})
    assert out.stdout == "points of differing length\n" * 8


def test_linear_extension_past_the_point_cap():
    # GF(7)^6 has 117,649 points, more than POINT_CAP: a partial basis is
    # completed all the same
    f = make_field(7)
    assert 7 ** 6 > space.POINT_CAP
    for mode, pts in ((VECTOR, vecs((0, 3, 1, 0, 0, 5), (1, 0, 0, 2, 0, 0))),
                      (AFFINE, vecs((1, 1, 1, 1, 1, 1), (0, 3, 1, 0, 0, 5)))):
        imgs = vecs((1, 2), (3, 4))
        m = linear_extension(BasisSet(mode, f, pts), imgs)
        assert [apply(m, p) for p in pts] == list(imgs)
        assert m.domain_len == 6 and m.codomain_len == 2


def test_complement_golden():
    f = make_field(2)
    w = span(f, VECTOR, [(1, 0)], 2)
    comp = complement(w, full_space(f, VECTOR, 2))
    assert comp == span(f, VECTOR, [(0, 1)], 2)
    assert w.num_points * comp.num_points == full_space(f, VECTOR, 2).num_points


def test_complement_direct_sum_law():
    rng = random.Random(5)
    f = make_field(2)
    outer = full_space(f, VECTOR, 4)
    pts = all_points(f, 4)
    for _ in range(25):
        gens = [rng.choice(pts) for _ in range(rng.randint(1, 3))]
        inner = span(f, VECTOR, gens, 4)
        comp = complement(inner, outer)
        assert direct_sum([inner, comp]) == outer
        assert inner.rank + comp.rank == outer.rank


def test_complement_edge_cases():
    f = make_field(2)
    outer = full_space(f, VECTOR, 3)
    assert complement(outer, outer) == zero_space(f, 3)
    assert complement(zero_space(f, 3), outer) == outer
    a_outer = full_space(f, AFFINE, 3)
    with pytest.raises(ValueError):
        complement(a_outer, a_outer)  # an affine flat has no empty complement
    inner = span(f, AFFINE, [(0, 0), (1, 0)], 2)
    comp = complement(inner, full_space(f, AFFINE, 3))
    assert direct_sum([inner, comp]) == full_space(f, AFFINE, 3)


def test_direct_sum_rejects_overlap():
    f = make_field(2)
    u = span(f, VECTOR, [(1, 0)], 2)
    with pytest.raises(ValueError):
        direct_sum([u, u])


def test_direct_sum_single_part_is_that_part():
    f = make_field(3)
    u = span(f, VECTOR, [(1, 2, 0)], 3)
    assert direct_sum([u]) == u


@pytest.mark.parametrize("mode", [VECTOR, AFFINE])
def test_direct_sum_is_one_reduction_and_rejects_as_independence_does(
        mode, monkeypatch):
    # random parts of GF(3)^4; the sum spans the joint basis once and
    # rejects exactly the joint bases the reference tracker rejects
    f = make_field(3)
    rng = random.Random(11 + (mode == AFFINE))
    real, calls = space.rref, []

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(space, "rref", counted)
    for _ in range(60):
        parts = [span(f, mode, [tuple(rng.randrange(3) for _ in range(4))
                                for _ in range(rng.randint(1, 2))], 4)
                 for _ in range(rng.randint(1, 3))]
        joint = [p for part in parts for p in part.basis_points()]
        calls.clear()
        if reference_independent(f, mode, joint):
            total = direct_sum(parts)
            assert len(calls) == 1 and total == span(f, mode, joint, 4)
        else:
            with pytest.raises(ValueError, match="parts overlap"):
                direct_sum(parts)
            assert len(calls) == 1
    assert direct_sum([zero_space(f, 4)]) == zero_space(f, 4)


# -- linear and affine maps ----------------------------------------------


def test_identity_and_compose():
    f = make_field(3)
    ident = identity_map(f, VECTOR, 3)
    assert tuple(apply(ident, (1, 2, 0))) == (1, 2, 0)
    m = linear_extension(
        BasisSet(VECTOR, f, vecs((1, 0), (0, 1))), [(1, 1), (0, 2)])
    assert compose(ident_2d := identity_map(f, VECTOR, 2), m).columns == m.columns
    assert compose(m, ident_2d).columns == m.columns


def test_linear_extension_maps_basis():
    f = make_field(2)
    basis = BasisSet(VECTOR, f, vecs((1, 1, 0), (0, 0, 1)))
    images = [(1, 0), (1, 1)]
    m = linear_extension(basis, images)
    for b, y in zip(basis.points, images):
        assert tuple(apply(m, b)) == y
    assert m.domain_len == 3 and m.codomain_len == 2


def test_affine_extension_and_translation():
    f = make_field(3)
    basis = BasisSet(AFFINE, f, vecs((0, 0), (1, 0), (0, 1)))
    images = [(1,), (2,), (1,)]
    m = linear_extension(basis, images)
    for b, y in zip(basis.points, images):
        assert tuple(apply(m, b)) == y
    # affine maps preserve affine combinations
    rng = random.Random(9)
    for _ in range(20):
        u, v = rng.choice(all_points(f, 2)), rng.choice(all_points(f, 2))
        for a in range(3):
            b = f.sub(1, a)
            comb = tuple(f.add(f.mul(a, x), f.mul(b, y)) for x, y in zip(u, v))
            img = tuple(f.add(f.mul(a, x), f.mul(b, y))
                        for x, y in zip(apply(m, u), apply(m, v)))
            assert tuple(apply(m, comb)) == img


def test_extension_identity_and_swap_goldens():
    f = make_field(2)
    e = BasisSet(VECTOR, f, vecs((1, 0), (0, 1)))
    ident = linear_extension(e, [(1, 0), (0, 1)])
    assert ident.columns == identity_map(f, VECTOR, 2).columns
    s = span(f, VECTOR, [(1, 1)], 2)
    assert apply(ident, s) == s
    swap = linear_extension(e, [(0, 1), (1, 0)])
    assert tup(swap.columns) == ((0, 1), (1, 0))
    assert apply(swap, span(f, VECTOR, [(1, 0)], 2)) == span(f, VECTOR, [(0, 1)], 2)


def test_affine_extension_translation_golden():
    # 0 -> (1,1) pins the translation; 1 -> (0,1) then pins the matrix's
    # one column, (0,1) - (1,1)
    f = make_field(2)
    m = linear_extension(BasisSet(AFFINE, f, vecs((0,), (1,))), [(1, 1), (0, 1)])
    assert m == affine_map(f, 1, 2, vecs((1, 0)), bytes((1, 1)))


def test_extension_determined_by_any_basis():
    # two maps that agree on one basis agree on every point of the span
    f = make_field(2)
    m = linear_extension(
        BasisSet(VECTOR, f, vecs((1, 0, 0), (0, 1, 0), (0, 0, 1))),
        [(1, 1), (0, 1), (1, 0)])
    other = BasisSet(VECTOR, f, vecs((1, 1, 0), (0, 1, 1), (1, 1, 1)))
    m2 = linear_extension(other, [apply(m, p) for p in other.points])
    for p in full_space(f, VECTOR, 3).points():
        assert apply(m2, p) == apply(m, p)


def combine(f, coeffs, points):
    """The combination sum(c_i * p_i), one field operation at a time."""
    out = [0] * len(points[0])
    for c, p in zip(coeffs, points):
        out = [f.add(x, f.mul(c, y)) for x, y in zip(out, p)]
    return tuple(out)


@pytest.mark.parametrize("mode", [VECTOR, AFFINE])
def test_apply_preserves_combinations(mode):
    rng = random.Random(77)
    f = make_field(3)
    pts = all_points(f, 2)
    basis_pts = ((0, 0), (1, 0), (0, 1)) if mode == AFFINE else ((1, 0), (0, 1))
    m = linear_extension(BasisSet(mode, f, vecs(*basis_pts)),
                         [rng.choice(pts) for _ in basis_pts])
    for _ in range(40):
        ps = [rng.choice(pts) for _ in range(3)]
        cs = [rng.randrange(3) for _ in range(3)]
        if mode == AFFINE:
            cs[-1] = f.sub(1, f.add(cs[0], cs[1]))
        x = combine(f, cs, ps)
        assert tuple(apply(m, x)) == combine(f, cs, [apply(m, p) for p in ps])


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("mode", [VECTOR, AFFINE])
def test_apply_refuses_a_point_entry_outside_the_field(q, mode):
    # q is the least byte that is no element of GF(q), and 255 lies past
    # every field's tables
    f = make_field(q)
    m = identity_map(f, mode, 2)
    assert apply(m, [q - 1, 0]) == bytes((q - 1, 0))
    for point in ([q, 0], [0, q], [5, 0], [255, 255]):
        with pytest.raises(ValueError, match="^point entries out of field range$"):
            apply(m, point)


def test_apply_to_subspace_is_pointwise_image():
    f = make_field(2)
    basis = BasisSet(VECTOR, f, vecs((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    m = linear_extension(basis, [(1, 1), (1, 1), (0, 1)])
    s = span(f, VECTOR, [(1, 1, 0), (0, 0, 1)], 3)
    img = apply(m, s)
    assert set(img.points()) == {apply(m, p) for p in s.points()}


def kernel(m):
    """Null space of a vector-mode map, as a canonical subspace."""
    rows = transpose(m.columns, m.codomain_len)
    return span(m.field, VECTOR, nullspace_rows(m.field, rows, m.domain_len),
                m.domain_len)


def test_rank_nullity():
    rng = random.Random(31)
    f = make_field(3)
    for _ in range(100):
        rows = tuple(bytes(rng.randrange(3) for _ in range(4)) for _ in range(2))
        m = LinearMap(VECTOR, f, 4, 2, transpose(rows, 4))
        assert kernel(m).rank + image_space(m).rank == 4


def test_image_space_modes():
    f = make_field(2)
    # both columns are (1, 0)
    m = LinearMap(VECTOR, f, 2, 2, vecs((1, 0), (1, 0)))
    assert image_space(m) == span(f, VECTOR, [(1, 0)], 2)
    ma = affine_map(f, 2, 2, vecs((1, 0), (1, 0)), bytes((0, 1)))
    img = image_space(ma)
    assert img.mode == AFFINE
    assert set(img.points()) == {apply(ma, p) for p in all_points(f, 2)}


# -- row reduction internals ---------------------------------------------


def test_rref_properties_random():
    rng = random.Random(2024)
    f = make_field(3)
    for _ in range(40):
        rows = [bytes(rng.randrange(3) for _ in range(4))
                for _ in range(rng.randint(1, 4))]
        red, piv = rref(f, rows)
        assert list(piv) == sorted(piv) and len(red) == len(piv)
        for i, p in enumerate(piv):
            assert red[i][p] == 1
            assert all(red[j][p] == 0 for j in range(len(red)) if j != i)
        # the row space is preserved: every GF(3) combination of the (at
        # most 4) input rows, listed by brute force, is one of red's
        assert row_space(f, red, 4) == row_space(f, rows, 4)


def row_space(f, rows, width):
    """All combinations of the rows, one field operation at a time."""
    out = set()
    for cs in itertools.product(range(f.order), repeat=len(rows)):
        out.add(combine(f, cs, rows) if rows else (0,) * width)
    return out


# -- table-driven kernels against method-call references -------------------
#
# The kernels index the field tables and skip zero entries.  These
# references are the plain eliminations they replaced, written with one
# Field method call per entry and no zero skipping.

KERNEL_QS = (2, 3, 4, 5, 7, 8, 9, 16)
DENSITIES = (0.1, 0.7)


def ref_rref(f, rows):
    mat = [list(r) for r in rows]
    ncols = len(mat[0]) if mat else 0
    pivots, r = [], 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        s = f.inv(mat[r][c])
        mat[r] = [f.mul(s, x) for x in mat[r]]
        for i in range(len(mat)):
            if i != r:
                fac = mat[i][c]
                mat[i] = [f.sub(x, f.mul(fac, y)) for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in mat[:r]), tuple(pivots)


def scan_rref(f, rows):
    """The row reduction `rref` replaced, kept as its reference.

    Each pivot is the least leading column of the rows not yet pivoted,
    found by scanning them all, and every row with a nonzero entry in
    the pivot column is cleared at once.
    """
    mat = list(rows)
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    leads = [space._lead(row) for row in mat]  # ncols: zero row
    pivots = []
    for r in range(nrows):
        c = min(leads[r:])
        if c == ncols:
            break
        pr = leads.index(c, r)
        mat[r], mat[pr] = mat[pr], mat[r]
        leads[r], leads[pr] = c, leads[r]
        if mat[r][c] != 1:
            mat[r] = vec_scale(f, f.inv(mat[r][c]), mat[r])
        for i in range(nrows):
            if i != r and mat[i][c]:
                mat[i] = space._add_multiple(f, mat[i], f.neg(mat[i][c]), mat[r])
                if i > r:
                    leads[i] = space._lead(mat[i])
        pivots.append(c)
    return tuple(mat[:len(pivots)]), tuple(pivots)


def redundant_rows(rng, f, rows, count):
    """`count` zero rows, duplicates of rows, or combinations of two."""
    out = []
    for _ in range(count):
        kind = rng.randrange(3)
        if kind == 0:
            out.append(bytes(len(rows[0])))
        elif kind == 1:
            out.append(rng.choice(rows))
        else:
            out.append(vec_add(f, vec_scale(f, rng.randrange(f.order), rng.choice(rows)),
                               vec_scale(f, rng.randrange(f.order), rng.choice(rows))))
    return out


@pytest.mark.parametrize("q", SUPPORTED_QS)
def test_rref_matches_scan_reference(q):
    f = make_field(q)
    rng = random.Random(f"scan_rref:{q}")
    for _ in range(200):
        ncols = rng.randint(1, 12)
        rows = [random_vec(rng, q, ncols, rng.choice(DENSITIES))
                for _ in range(rng.randint(0, 6))]
        for extra in redundant_rows(rng, f, rows, rng.randint(0, 3)) if rows else ():
            rows.insert(rng.randrange(len(rows) + 1), extra)
        assert rref(f, rows) == scan_rref(f, rows)
    assert rref(f, []) == ((), ())


@pytest.mark.parametrize("q", [2, 3, 16])
def test_rref_matches_scan_reference_at_block_rank(q):
    # 385 is the block rank at N0 = 4: identity rows with a few entries
    # right of their 1, shuffled, then whole and partial blocks with
    # dependent rows appended
    f = make_field(q)
    rng = random.Random(f"block_rref:{q}")
    width = 385
    rows = [row[:i + 1] + random_vec(rng, q, width - i - 1, 0.01)
            for i, row in enumerate(space.identity_rows(width))]
    rng.shuffle(rows)
    for block in (rows, rows[:300]):
        redundant = block + redundant_rows(rng, f, block, 20)
        for case in (block, redundant):
            red, piv = rref(f, case)
            assert (red, piv) == scan_rref(f, case)
            assert len(piv) == len(block)


def ref_mat_vec(f, rows, v):
    out = []
    for row in rows:
        acc = 0
        for c, x in zip(row, v):
            acc = f.add(acc, f.mul(c, x))
        out.append(acc)
    return tuple(out)


def random_vec(rng, q, length, density):
    return bytes(rng.randrange(1, q) if rng.random() < density else 0
                 for _ in range(length))


def first_nonzero_scan(direction):
    return tuple(next(i for i, x in enumerate(row) if x) for row in direction)


@pytest.mark.parametrize("q", KERNEL_QS)
@pytest.mark.parametrize("density", DENSITIES)
def test_rref_matches_method_call_reference(q, density):
    f = make_field(q)
    rng = random.Random(f"rref:{q}:{density}")
    for _ in range(60):
        ncols = rng.randint(1, 24)
        rows = [random_vec(rng, q, ncols, density)
                for _ in range(rng.randint(1, 10))]
        if rng.random() < 0.3:  # dependent rows
            rows.append(vec_add(f, rows[0], vec_scale(f, rng.randrange(q), rows[-1])))
        red, piv = rref(f, rows)
        assert (tup(red), piv) == ref_rref(f, rows)


@pytest.mark.parametrize("q", KERNEL_QS)
@pytest.mark.parametrize("density", DENSITIES)
def test_mat_vec_matches_method_call_reference(q, density):
    f = make_field(q)
    rng = random.Random(f"mat_vec:{q}:{density}")
    for _ in range(60):
        width = rng.randint(0, 30)
        rows = tuple(random_vec(rng, q, width, density)
                     for _ in range(rng.randint(0, 8)))
        v = random_vec(rng, q, width, density)
        assert tuple(mat_vec(f, transpose(rows, width), v, bytes(len(rows)))) == \
            ref_mat_vec(f, rows, v)


@pytest.mark.parametrize("q", KERNEL_QS)
@pytest.mark.parametrize("density", DENSITIES)
def test_vector_ops_match_method_calls(q, density):
    f = make_field(q)
    rng = random.Random(f"vec:{q}:{density}")
    for _ in range(60):
        n = rng.randint(0, 20)
        a, b = random_vec(rng, q, n, density), random_vec(rng, q, n, density)
        c = rng.randrange(q)
        assert tuple(vec_add(f, a, b)) == tuple(f.add(x, y) for x, y in zip(a, b))
        assert tuple(vec_sub(f, a, b)) == tuple(f.sub(x, y) for x, y in zip(a, b))
        assert tuple(vec_scale(f, c, a)) == tuple(f.mul(c, x) for x in a)
        # the product of two matrices, as the composition of their maps
        left = tuple(random_vec(rng, q, 4, density) for _ in range(3))
        right = tuple(random_vec(rng, q, n, density) for _ in range(4))
        both = compose(LinearMap(VECTOR, f, 4, 3, transpose(left, 4)),
                       LinearMap(VECTOR, f, n, 4, transpose(right, n)))
        assert tup(transpose(both.columns, 3)) == tuple(
            ref_mat_vec(f, tuple(zip(*right)), row) if n else ()
            for row in left)


@pytest.mark.parametrize("q", KERNEL_QS)
@pytest.mark.parametrize("density", DENSITIES)
@pytest.mark.parametrize("mode", [VECTOR, AFFINE])
def test_is_member_matches_point_set(q, density, mode):
    f = make_field(q)
    rng = random.Random(f"is_member:{q}:{density}:{mode}")
    length = 3 if q > 5 else 4
    for _ in range(6):
        gens = [random_vec(rng, q, length, density)
                for _ in range(rng.randint(1, 3))]
        s = span(f, mode, gens, length)
        pts = set(s.points())
        probes = list(pts) + [random_vec(rng, q, length, density)
                              for _ in range(40)]
        for v in probes:
            assert s.is_member(v) == (v in pts)


@pytest.mark.parametrize("q", KERNEL_QS)
@pytest.mark.parametrize("density", DENSITIES)
def test_pivots_cache_matches_first_nonzero_scan(q, density):
    """The pivot map: built lazily, equal to a scan of the stored rows (a
    flat's homogenized rows, pivoting at column 0 first)."""
    f = make_field(q)
    rng = random.Random(f"pivots:{q}:{density}")
    for _ in range(20):
        length = rng.randint(1, 12)
        mode = rng.choice([VECTOR, AFFINE])
        gens = [random_vec(rng, q, length, density)
                for _ in range(rng.randint(1, 5))]
        s = span(f, mode, gens, length)
        expect = dict(zip(first_nonzero_scan(s.rows), s.rows))
        if mode == AFFINE:
            assert s.rows == ((b"\1" + s.basepoint,)
                              + tuple(b"\0" + r for r in s.direction))
            assert list(expect) == [0] + [p + 1 for p in
                                          first_nonzero_scan(s.direction)]
        else:
            assert s.rows == s.direction
        assert s._pivot_rows is None  # computed lazily, not at construction
        s.key()
        assert s._pivot_rows is None  # keying does not build it
        assert s.pivots() == expect
        assert tuple(s.pivots()) == first_nonzero_scan(s.rows)
        assert s.pivots() is s.pivots()  # cached
        t = Subspace.from_json(s.to_json(), f)
        assert t._pivot_rows is None
        t.is_member(random_vec(rng, q, length, density))
        assert t._pivot_rows == expect and t.pivots() == expect and t == s


# -- sparse membership against the point set and the full pivot walk -------
#
# `Subspace.is_member` reduces only along the point's own nonzero entries
# that sit on pivot columns.  The reference is the walk it replaced: one
# row operation per direction row, with the row's pivot entry of the
# point as its multiple, then a test of the whole remainder.

def ref_is_member(s, v):
    f = s.field
    w = list(v if s.mode == VECTOR else vec_sub(f, v, s.basepoint))
    for row, p in zip(s.direction, first_nonzero_scan(s.direction)):
        c = w[p]
        w = [f.sub(x, f.mul(c, y)) for x, y in zip(w, row)]
    return not any(w)


WIDE_DENSITIES = (0.005, 0.03, 0.1)


@pytest.mark.parametrize("q", KERNEL_QS)
@pytest.mark.parametrize("mode", [VECTOR, AFFINE])
def test_sparse_is_member_wide_ambients(q, mode):
    f = make_field(q)
    rng = random.Random(f"wide_member:{q}:{mode}")
    for density in WIDE_DENSITIES:
        for _ in range(3):
            length = rng.randint(1, 400)
            # small ranks: the point set is listed and is the oracle
            gens = [random_vec(rng, q, length, density)
                    for _ in range(rng.randint(1, 3 if q <= 4 else 2))]
            s = span(f, mode, gens, length)
            pts = list(s.points())
            members = set(pts)
            probes = rng.sample(pts, min(len(pts), 20))
            probes += [random_vec(rng, q, length, density) for _ in range(20)]
            for p in rng.sample(pts, min(len(pts), 10)):
                j = rng.randrange(length)
                bumped = list(p)
                bumped[j] = f.add(bumped[j], rng.randrange(1, q))
                probes.append(bytes(bumped))
            for v in probes:
                assert s.is_member(v) == (v in members) == ref_is_member(s, v)


@pytest.mark.parametrize("q", KERNEL_QS)
@pytest.mark.parametrize("mode", [VECTOR, AFFINE])
def test_sparse_is_member_high_rank_matches_walk(q, mode):
    # ranks far beyond any point listing: the full walk is the oracle, and
    # combinations of the basis must be members
    f = make_field(q)
    rng = random.Random(f"rank_member:{q}:{mode}")
    for density in WIDE_DENSITIES:
        length = rng.randint(40, 400)
        gens = [random_vec(rng, q, length, density)
                for _ in range(rng.randint(5, 30))]
        s = span(f, mode, gens, length)
        basis = s.basis_points()
        for _ in range(25):
            coeffs = [rng.randrange(q) for _ in basis]
            if mode == AFFINE:  # affine combinations: coefficients sum to 1
                total = 0
                for c in coeffs[1:]:
                    total = f.add(total, c)
                coeffs[0] = f.sub(1, total)
            member = bytes(combine(f, coeffs, basis))
            assert s.is_member(member) and ref_is_member(s, member)
            v = random_vec(rng, q, length, density)
            assert s.is_member(v) == ref_is_member(s, v)
            j = rng.randrange(length)
            bumped = list(member)
            bumped[j] = f.add(bumped[j], rng.randrange(1, q))
            assert s.is_member(bytes(bumped)) == ref_is_member(s, bytes(bumped))


def test_is_member_rejects_wrong_length():
    s = full_space(make_field(2), VECTOR, 3)
    with pytest.raises(ValueError):
        s.is_member((1, 0))


# -- one-RREF linear extension against an inverse-matrix reference ---------
#
# The reference is the extension this replaced: invert the matrix whose
# columns are the extended basis (differences from the first point in
# affine mode) and multiply the image columns by the inverse.

def ref_mat_inv(f, rows):
    n = len(rows)
    aug = [tuple(r) + tuple(1 if i == j else 0 for j in range(n))
           for i, r in enumerate(rows)]
    red, piv = ref_rref(f, aug)
    assert piv == tuple(range(n)), "matrix is singular"
    return tuple(bytes(row[n:]) for row in red)


def ref_columns(rows, width):
    return tuple(bytes(row[j] for row in rows) for j in range(width))


def ref_linear_extension(basis, imgs, codomain_len):
    f, mode = basis.field, basis.mode
    domain_len = len(basis.points[0]) if basis.points else 0
    ambient = full_space(f, mode, domain_len + (1 if mode == AFFINE else 0))
    pts_all = list(extend_to_basis(basis, ambient).points)
    extras = len(pts_all) - len(imgs)
    if mode == VECTOR:
        imgs_all = list(imgs) + [bytes(codomain_len)] * extras
        src, dst = pts_all, imgs_all
    else:
        imgs_all = list(imgs) + [imgs[0]] * extras
        src = [vec_sub(f, p, pts_all[0]) for p in pts_all[1:]]
        dst = [vec_sub(f, y, imgs_all[0]) for y in imgs_all[1:]]
    if domain_len:
        inv = ref_mat_inv(f, ref_columns(src, domain_len))
        mtx = tuple(bytes(ref_mat_vec(f, ref_columns(inv, domain_len), row))
                    for row in ref_columns(dst, codomain_len))
    else:
        mtx = (b"",) * codomain_len
    cols = ref_columns(mtx, domain_len)
    if mode == VECTOR:
        return LinearMap(VECTOR, f, domain_len, codomain_len, cols)
    t = vec_sub(f, imgs_all[0], bytes(ref_mat_vec(f, mtx, pts_all[0])))
    return affine_map(f, domain_len, codomain_len, cols, t)


def random_independent(rng, f, mode, length, size, density):
    out = []
    while len(out) < size:
        cand = random_vec(rng, f.order, length, density)
        if is_independent(f, mode, out + [cand]):
            out.append(cand)
    return out


@pytest.mark.parametrize("q", KERNEL_QS)
@pytest.mark.parametrize("mode", [VECTOR, AFFINE])
def test_linear_extension_matches_inverse_reference(q, mode):
    f = make_field(q)
    rng = random.Random(f"extension:{q}:{mode}")
    # a partial basis is completed from the listed points of the domain
    max_len = max(d for d in range(7) if q ** d <= 4096)
    for trial in range(40):
        domain_len = trial % (max_len + 1)
        rank = domain_len + (1 if mode == AFFINE else 0)
        # full bases, partial bases and (vector mode) the empty basis
        size = rank if trial % 3 == 0 else rng.randint(
            1 if mode == AFFINE else 0, rank)
        density = rng.choice(DENSITIES)
        pts = random_independent(rng, f, mode, domain_len, size, density)
        basis = BasisSet(mode, f, tuple(pts))
        codomain_len = rng.randint(0, 6)
        imgs = [random_vec(rng, q, codomain_len, density) for _ in pts]
        m = linear_extension(basis, imgs, codomain_len=codomain_len)
        assert m == ref_linear_extension(basis, imgs, codomain_len)
        for p, y in zip(pts, imgs):
            assert apply(m, p) == y


def test_linear_extension_domain_len_zero():
    f = make_field(3)
    vec = linear_extension(BasisSet(VECTOR, f, ()), [], codomain_len=2)
    assert vec.columns == () and vec.codomain_len == 2
    aff = linear_extension(BasisSet(AFFINE, f, vecs(())), [(1, 2)])
    assert aff == affine_map(f, 0, 2, (), bytes((1, 2)))
    assert tuple(apply(aff, ())) == (1, 2)


@pytest.mark.parametrize("q", KERNEL_QS)
@pytest.mark.parametrize("mode", [VECTOR, AFFINE])
def test_coordinate_map_matches_linear_extension(q, mode):
    f = make_field(q)
    rng = random.Random(q)
    for rank in range(1 if mode == AFFINE else 0, 5):
        basis = full_space(f, mode, rank).basis_points()
        for codomain_len in (0, 1, 3, 6):
            for _ in range(3):
                imgs = [bytes(rng.randrange(q) for _ in range(codomain_len))
                        for _ in basis]
                m = coordinate_map(f, mode, imgs, codomain_len)
                assert m == linear_extension(BasisSet(mode, f, basis), imgs,
                                             codomain_len=codomain_len)
                assert [apply(m, p) for p in basis] == imgs


# -- maps kept as their columns -------------------------------------------

COLUMN_QS = (2, 3, 4, 16)


def ref_column_product(f, columns, codomain_len, v, base):
    """base + sum of v[j] * columns[j], one Field method call per entry."""
    out = list(base)
    for j, x in enumerate(v):
        for i in range(codomain_len):
            out[i] = f.add(out[i], f.mul(x, columns[j][i]))
    return tuple(out)


@pytest.mark.parametrize("q", COLUMN_QS)
def test_mat_vec_matches_per_entry_reference_on_columns(q):
    # wide maps (many short columns), tall ones (few long columns), and
    # the empty domain and codomain
    f = make_field(q)
    rng = random.Random(f"columns:{q}")
    shapes = ((40, 3), (385, 2), (3, 40), (2, 385), (0, 5), (5, 0), (0, 0))
    for domain_len, codomain_len in shapes:
        for density in DENSITIES:
            cols = tuple(random_vec(rng, q, codomain_len, density)
                         for _ in range(domain_len))
            for base in (bytes(codomain_len), random_vec(rng, q, codomain_len, 0.5)):
                for v in (bytes(domain_len), random_vec(rng, q, domain_len, density)):
                    assert tuple(mat_vec(f, cols, v, base)) == \
                        ref_column_product(f, cols, codomain_len, v, base)


def random_map(rng, f, mode, domain_len, codomain_len):
    cols = tuple(random_vec(rng, f.order, codomain_len, rng.choice(DENSITIES))
                 for _ in range(domain_len))
    if mode == VECTOR:
        return LinearMap(VECTOR, f, domain_len, codomain_len, cols)
    t = random_vec(rng, f.order, codomain_len, 0.5)
    return affine_map(f, domain_len, codomain_len, cols, t)


@pytest.mark.parametrize("q", COLUMN_QS)
@pytest.mark.parametrize("mode", [VECTOR, AFFINE])
def test_compose_matches_pointwise_apply(q, mode):
    f = make_field(q)
    rng = random.Random(f"compose:{q}:{mode}")
    for _ in range(30):
        a, b, c = (rng.randint(0, 6) for _ in range(3))
        inner, outer = random_map(rng, f, mode, a, b), random_map(rng, f, mode, b, c)
        both = compose(outer, inner)
        assert (both.domain_len, both.codomain_len) == (a, c)
        # the origin and the unit vectors determine a map; random points too
        points = [bytes(a), *space.identity_rows(a),
                  *(random_vec(rng, q, a, 0.5) for _ in range(3))]
        for x in points:
            assert apply(both, x) == apply(outer, apply(inner, x))


@pytest.mark.parametrize("q", COLUMN_QS)
@pytest.mark.parametrize("mode", [VECTOR, AFFINE])
def test_coordinate_map_keeps_the_images_as_columns(q, mode):
    # vector mode: the images are the columns; affine mode: the first is
    # the translation and the columns are the others' offsets from it
    f = make_field(q)
    rng = random.Random(f"coordinate:{q}:{mode}")
    for rank in range(1 if mode == AFFINE else 0, 5):
        for codomain_len in (0, 1, 4):
            imgs = [random_vec(rng, q, codomain_len, 0.5) for _ in range(rank)]
            m = coordinate_map(f, mode, imgs, codomain_len)
            if mode == VECTOR:
                assert m.columns == tuple(imgs)
            else:
                assert m == affine_map(f, rank - 1, codomain_len,
                                       [bytes(ref_sub(f, y, imgs[0]))
                                        for y in imgs[1:]], imgs[0])


@pytest.mark.parametrize("codomain_len", [0, 2])
def test_affine_coordinate_map_needs_the_image_of_the_origin(codomain_len,
                                                              monkeypatch):
    # a vector map of no images is the map of the zero space; an affine
    # one is refused by its own message before any map is built, not by
    # a negative count in the lift check
    f = make_field(3)
    assert coordinate_map(f, VECTOR, [], codomain_len).columns == ()
    built = []
    monkeypatch.setattr(space, "LinearMap", lambda *args: built.append(args))
    with pytest.raises(ValueError, match="^an affine coordinate map needs at "
                                         "least the image of the origin$"):
        coordinate_map(f, AFFINE, [], codomain_len)
    assert built == []


# an affine map's columns as stored, [1 | t] then [0 | M e_j], but with
# M e_0's lifted entry 1: read as a vector map, one column too many
STORED_LIFT_WRONG = vecs((1, 0, 0), (1, 1, 0), (0, 0, 1))


@pytest.mark.parametrize("columns, error, message", [
    (vecs((1, 0)), ValueError, "matrix column count differs from domain_len"),
    (vecs((1, 0), (0, 1), (1, 1)), ValueError,
     "matrix column count differs from domain_len"),
    (vecs((1, 0), (0, 1, 1)), ValueError,
     "matrix column length differs from codomain_len"),
    ((bytes((1, 0)), (0, 1)), TypeError, "matrix columns must be bytes, not tuple"),
    (vecs((1, 0), (0, 2)), ValueError, "matrix entries out of field range"),
    (STORED_LIFT_WRONG, ValueError,
     {VECTOR: "matrix column count differs from domain_len",
      AFFINE: "affine-mode maps must fix the lifted coordinate"}),
], ids=["too_few", "too_many", "length", "type", "range", "lift"])
@pytest.mark.parametrize("mode", [VECTOR, AFFINE])
def test_linear_map_rejects_malformed_columns(columns, error, message, mode):
    # an affine map is built from (M, t) with these as M's columns, but
    # for the "lift" case, whose columns are given as stored
    f = make_field(2)

    def build(cols):
        if mode == VECTOR or cols is STORED_LIFT_WRONG:
            return LinearMap(mode, f, 2, 2, cols)
        return affine_map(f, 2, 2, cols, bytes(2))

    build(vecs((1, 0), (0, 1)))
    if isinstance(message, dict):
        message = message[mode]
    with pytest.raises(error, match=f"^{message}$"):
        build(columns)


# -- the RREF matrix walk against the generator it replaced ----------------

def ref_rref_matrices(f, k, d):
    """Every k x d full-rank RREF matrix, filling all free entries at once."""
    if k == 0:
        yield (), ()
        return
    if k > d:
        return
    elems = f.elements()
    for piv in itertools.combinations(range(d), k):
        pivset = set(piv)
        free = [(i, j) for i in range(k) for j in range(piv[i] + 1, d)
                if j not in pivset]
        for vals in itertools.product(elems, repeat=len(free)):
            rows = [[0] * d for _ in range(k)]
            for i in range(k):
                rows[i][piv[i]] = 1
            for (i, j), v in zip(free, vals):
                rows[i][j] = v
            yield tuple(tuple(r) for r in rows), piv


@pytest.mark.parametrize("q", [2, 3, 4])
def test_rref_matrices_order_matches_reference(q):
    f = make_field(q)
    for d in range(6 if q == 2 else 5):
        for k in range(d + 2):
            walk = [(tup(rows), piv)
                    for piv, choices in space._rref_patterns(f, k, d, False)
                    for rows in itertools.product(*choices)]
            assert walk == list(ref_rref_matrices(f, k, d))


def ref_full_space_subspaces(f, mode, k, d):
    """The rank-k subspaces of the full coordinate space on d columns, in
    walk order, each built by the validating constructor."""
    if mode == VECTOR:
        for rows, _ in ref_rref_matrices(f, k, d):
            yield Subspace(VECTOR, f, d, vecs(*rows), None)
        return
    if k == 0:
        return
    for rows, piv in ref_rref_matrices(f, k - 1, d):
        free = [c for c in range(d) if c not in piv]
        for vals in itertools.product(f.elements(), repeat=len(free)):
            base = [0] * d
            for c, v in zip(free, vals):
                base[c] = v
            yield Subspace(AFFINE, f, d, vecs(*rows), bytes(base))


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("mode", [VECTOR, AFFINE])
def test_iter_subspaces_order_matches_reference(q, mode):
    f = make_field(q)
    # the full space's walk builds from checked patterns, so it is compared
    # with the reference matrices through the validating constructor
    full = full_space(f, mode, 4)
    for k in range(full.rank + 1):
        assert list(space.iter_subspaces(full, k)) == \
            list(ref_full_space_subspaces(f, mode, k, full.ambient_len))


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("mode", [VECTOR, AFFINE])
def test_proper_ambient_subspaces_match_containment_filter(q, mode):
    f = make_field(q)
    gens = [(1, 0, 1, 1), (0, 1, 1, 0), (0, 0, 1, 1), (1, 1, 0, 0)]
    ambient = span(f, mode, gens[:3] if mode == VECTOR else gens, 4)
    full = full_space(f, mode, 4 if mode == VECTOR else 5)
    assert ambient.rank == full.rank - 1 and full.ambient_len == 4
    for k in range(ambient.rank + 1):
        want = [s for s in enumerate_subspaces(full, k)
                if ambient.contains_subspace(s)]
        assert enumerate_subspaces(ambient, k) == want
        assert len(want) == count_subspaces(ambient.rank, k, q, mode)


# -- the checked pattern walk ------------------------------------------------
#
# Over a full coordinate space, iter_subspaces builds its subspaces without
# Subspace.__init__, from row choices and basepoints checked once per
# pivot pattern.  Every subspace it yields must still pass the full check.

ORACLE_Q_POWER_CAP = 4096


def oracle_cases(q):
    """(mode, rank, k) for every rank with q^rank <= 4,096 and every k
    whose subspace count the size guard admits."""
    rank = 0
    while q ** rank <= ORACLE_Q_POWER_CAP:
        for mode in (VECTOR, AFFINE):
            if mode == AFFINE and rank == 0:
                continue
            for k in range(rank + 1):
                if count_subspaces(rank, k, q, mode) <= space.POINT_CAP:
                    yield mode, rank, k
        rank += 1


@pytest.mark.parametrize("q", SUPPORTED_QS)
def test_full_space_walk_passes_the_full_check(q):
    f = make_field(q)
    cases = list(oracle_cases(q))
    assert {mode for mode, _, _ in cases} == {VECTOR, AFFINE}
    for mode, rank, k in cases:
        ambient = full_space(f, mode, rank)
        got = list(space.iter_subspaces(ambient, k))
        checked = [Subspace(s.mode, s.field, s.ambient_len, s.direction,
                            s.basepoint) for s in got]
        assert got == checked
        assert len(got) == count_subspaces(rank, k, q, mode)
        listed = enumerate_subspaces(ambient, k)
        assert len(listed) == len(got) and set(listed) == set(checked)


@pytest.mark.parametrize("q", SUPPORTED_QS)
@pytest.mark.parametrize("mode", [VECTOR, AFFINE])
def test_keyed_walk_presets_the_checked_keys(q, mode):
    # every k, with k = 0 in vector mode and k = 1 (an empty direction) in
    # affine mode; q >= 11 writes two-digit entries
    f = make_field(q)
    lo = 1 if mode == AFFINE else 0
    for rank in range(lo, 6 if q <= 3 else 5 if q <= 5 else 4):
        ambient = full_space(f, mode, rank)
        for k in range(lo, rank + 1):
            keyed = list(space.iter_subspaces(ambient, k))
            assert all(s._key is not None for s in keyed)
            # rebuilt through the checked constructor, which has no key yet
            fresh = [Subspace(s.mode, s.field, s.ambient_len, s.direction,
                              s.basepoint) for s in keyed]
            assert [s.key() for s in keyed] == [t.key() for t in fresh]
            unkeyed = list(space.iter_subspaces(ambient, k, keyed=False))
            assert unkeyed == keyed
            assert all(s._key is None for s in unkeyed)
            listed = enumerate_subspaces(ambient, k)
            assert listed == sorted(unkeyed, key=Subspace.key)
            assert [s.key() for s in listed] == sorted(t.key() for t in fresh)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
@pytest.mark.parametrize("mode", [VECTOR, AFFINE])
def test_count_walk_counts_the_walk(q, mode):
    # every rank N <= 4 and every k, with the k past N, and k = 0 in
    # affine mode, that have no subspace
    f = make_field(q)
    for rank in range(1 if mode == AFFINE else 0, 5):
        ambient = full_space(f, mode, rank)
        for k in range(rank + 2):
            walked = len(list(space.iter_subspaces(ambient, k)))
            assert space.count_walk(f, mode, rank, k) == walked
            assert walked == count_subspaces(rank, k, q, mode)


def corrupt_row(col, value, row=0):
    """A corruption of the first choice of row `row`: entry `col` set to
    `value`."""
    def corrupt(piv, choices):
        options = choices[row]
        bad = bytearray(options[0])
        bad[col] = value
        return piv, choices[:row] + [[bytes(bad)] + options[1:]] + choices[row + 1:]
    return corrupt


def reverse_pivots(piv, choices):
    """The last two rows swapped; a flat's basepoint row stays first."""
    return piv[:-2] + piv[:-3:-1], choices[:-2] + choices[:-3:-1]


# (q, mode, rank, k, corruption, the message Subspace.__init__ gives that
# fault); the first pattern of rank-k rows in `rank` columns has pivots
# (0, 1, ...), and a flat's row 0 is its basepoint row, so a flat's
# direction faults are made in row 1
PATTERN_FAULTS = [
    (2, VECTOR, 4, 2, corrupt_row(1, 1),
     "non-reduced entry above/below a pivot"),
    (3, AFFINE, 5, 3, corrupt_row(2, 1, 1),
     "non-reduced entry above/below a pivot"),
    (3, VECTOR, 4, 2, corrupt_row(0, 2), "pivot entries must be 1"),
    (3, AFFINE, 4, 2, corrupt_row(1, 2, 1), "pivot entries must be 1"),
    (3, VECTOR, 4, 2, corrupt_row(3, 3), "direction entries out of field range"),
    (3, AFFINE, 5, 3, corrupt_row(4, 3, 1), "direction entries out of field range"),
    (2, VECTOR, 4, 2, reverse_pivots, "pivots must be strictly increasing"),
    (3, AFFINE, 5, 3, reverse_pivots, "pivots must be strictly increasing"),
]


@pytest.mark.parametrize("q,mode,rank,k,corrupt,message", PATTERN_FAULTS)
def test_pattern_check_catches_a_corrupted_row(q, mode, rank, k, corrupt,
                                               message, monkeypatch):
    f = make_field(q)
    ambient = full_space(f, mode, rank)
    piv, choices = corrupt(*next(space._rref_patterns(f, k, rank, mode == AFFINE)))
    # the validating constructor names the fault so
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Subspace.from_rows(mode, f, ambient.ambient_len,
                           tuple(options[0] for options in choices))
    # and the walk's pattern check, corrupted inside the walk, names it alike
    check = space._check_pattern
    monkeypatch.setattr(space, "_check_pattern",
                        lambda f, d, piv, choices: check(f, d, *corrupt(piv, choices)))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        list(space.iter_subspaces(ambient, k))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        space.count_walk(f, mode, rank, k)


@pytest.mark.parametrize("row,message", [
    ((0, 1), "direction row length differs from ambient_len"),
    ((0, 0, 0), "pivot entries must be 1"),
    ((1, 1, 0), "nonzero direction entry before its pivot"),
])
def test_pattern_check_rejects_a_malformed_row(row, message):
    f = make_field(2)
    space._check_pattern(f, 3, (1,), [vecs((0, 1, 0), (0, 1, 1))])
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        space._check_pattern(f, 3, (1,), [vecs((0, 1, 0), row)])


# the row fault the pattern check finds where the constructor names a
# basepoint fault: a flat's basepoints are its first row [1 | b]
BASEPOINT_ROW_FAULTS = {
    "basepoint must be zero on pivot columns": "non-reduced entry above/below a pivot",
    "basepoint entries out of field range": "direction entries out of field range",
}


@pytest.mark.parametrize("index,value,message", [
    (0, 1, "basepoint must be zero on pivot columns"),
    (2, 5, "basepoint entries out of field range"),
])
def test_basepoint_check_catches_a_corrupted_basepoint(index, value, message,
                                                       monkeypatch):
    f = make_field(5)
    ambient = full_space(f, AFFINE, 4)  # rank-2 flats: pivots 0 and 1 first
    check = space._check_pattern

    def corrupted(f, width, piv, choices):
        bad = bytearray(choices[0][-1])
        bad[1 + index] = value  # entry `index` of the basepoint
        check(f, width, piv, [choices[0][:-1] + [bytes(bad)]] + choices[1:])

    monkeypatch.setattr(space, "_check_pattern", corrupted)
    row_message = BASEPOINT_ROW_FAULTS[message]
    with pytest.raises(ValueError, match=f"^{re.escape(row_message)}$"):
        list(space.iter_subspaces(ambient, 2))
    with pytest.raises(ValueError, match=f"^{re.escape(row_message)}$"):
        space.count_walk(f, AFFINE, 4, 2)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Subspace(AFFINE, f, 3, vecs((1, 0, 0)), bytes((value, 0, 0) if index == 0
                                                      else (0, 0, value)))


def test_pattern_check_survives_python_O():
    # the checks raise explicitly, so -O, which strips asserts, keeps them
    code = (
        "from qramsey import full_space, make_field, space\n"
        "check = space._check_pattern\n"
        "space._check_pattern = lambda f, d, piv, choices: check(\n"
        "    f, d, piv[::-1], choices)\n"
        "try:\n"
        "    list(space.iter_subspaces(full_space(make_field(2), 'vector', 3), 2))\n"
        "except ValueError as e:\n"
        "    print(e)\n")
    src = pathlib.Path(space.__file__).resolve().parent.parent
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src),
                              "PYTHONDONTWRITEBYTECODE": "1"})
    assert out.stdout == "pivots must be strictly increasing\n"


# -- image of a map from its columns -----------------------------------------


@pytest.mark.parametrize("q", KERNEL_QS)
@pytest.mark.parametrize("mode", [VECTOR, AFFINE])
def test_image_space_matches_image_of_full_space(q, mode):
    # the reference applies the map to every basis point of its domain
    f = make_field(q)
    rng = random.Random(f"image:{q}:{mode}")
    for trial in range(40):
        domain_len = trial % 13
        codomain_len = rng.randint(0, 6)
        density = rng.choice(DENSITIES)
        mtx = tuple(random_vec(rng, q, domain_len, density)
                    for _ in range(codomain_len))
        cols = ref_columns(mtx, domain_len)
        m = (LinearMap(VECTOR, f, domain_len, codomain_len, cols) if mode == VECTOR
             else affine_map(f, domain_len, codomain_len, cols,
                             random_vec(rng, q, codomain_len, 0.5)))
        domain = full_space(f, mode, domain_len + (1 if mode == AFFINE else 0))
        assert image_space(m) == apply(m, domain)


# -- byte kernels against plain-tuple references ------------------------------
#
# Vectors are bytes, and the kernels act on whole vectors through the
# field's pair tables.  These references are independent tuple code: one
# Field method call per entry, over tuples of ints.  Every field order and
# the widths 0, 1, 7 (the search sizes) and 385 (a block space at N0 = 4).

ORACLE_WIDTHS = (0, 1, 7, 385)


def ref_add(f, a, b):
    return tuple(f.add(x, y) for x, y in zip(a, b))


def ref_sub(f, a, b):
    return tuple(f.sub(x, y) for x, y in zip(a, b))


def ref_scale(f, c, v):
    return tuple(f.mul(c, x) for x in v)


def ref_axpy(f, v, c, row):
    return tuple(f.add(x, f.mul(c, y)) for x, y in zip(v, row))


def ref_member(f, mode, direction, basepoint, v):
    """Reduce v by each RREF row at the row's pivot, all in tuples."""
    w = tuple(v) if mode == VECTOR else ref_sub(f, v, basepoint)
    for row in map(tuple, direction):
        p = next(i for i, x in enumerate(row) if x)
        w = ref_sub(f, w, ref_scale(f, w[p], row))
    return not any(w)


def oracle_vecs(rng, q, width):
    """A zero vector, a full one, and random sparse and dense ones."""
    out = [bytes(width), bytes([q - 1] * width)]
    out += [random_vec(rng, q, width, d) for d in (0.02, 0.5, 1.0)]
    return out


@pytest.mark.parametrize("q", SUPPORTED_QS)
def test_byte_kernels_match_tuple_references(q):
    f = make_field(q)
    rng = random.Random(f"byte_kernels:{q}")
    scalars = range(q) if q <= 4 else [0, 1, 2, q - 1, rng.randrange(q)]
    for width in ORACLE_WIDTHS:
        vs = oracle_vecs(rng, q, width)
        for a, b in zip(vs, vs[1:] + vs[:1]):
            assert tuple(vec_add(f, a, b)) == ref_add(f, a, b)
            assert tuple(vec_sub(f, a, b)) == ref_sub(f, a, b)
            for c in scalars:
                assert tuple(vec_scale(f, c, a)) == ref_scale(f, c, a)
                assert tuple(space._add_multiple(f, a, c, b)) == ref_axpy(f, a, c, b)
        # rref: a few rows, one of them a combination of the others
        for _ in range(3):
            rows = [random_vec(rng, q, width, rng.choice((0.02, 0.5)))
                    for _ in range(rng.randint(1, 4))]
            rows.append(vec_add(f, rows[0], vec_scale(f, rng.randrange(q), rows[-1])))
            red, piv = rref(f, rows)
            assert (tup(red), piv) == ref_rref(f, rows)
        # mat_vec: a wide matrix, and a tall one whose columns are long
        for rows, v in ((vs[2:], vs[3]),
                        (tuple(random_vec(rng, q, 3, 0.5) for _ in range(width)),
                         random_vec(rng, q, 3, 0.7))):
            assert tuple(mat_vec(f, transpose(rows, len(v)), v,
                                 bytes(len(rows)))) == ref_mat_vec(f, rows, v)


@pytest.mark.parametrize("q", SUPPORTED_QS)
def test_byte_membership_and_keys_match_tuple_references(q):
    f = make_field(q)
    rng = random.Random(f"byte_members:{q}")
    for width in ORACLE_WIDTHS:
        for mode in (VECTOR, AFFINE):
            gens = [random_vec(rng, q, width, rng.choice((0.02, 0.5)))
                    for _ in range(rng.randint(1, 3))]
            s = span(f, mode, gens, width)
            base = s.basepoint if mode == AFFINE else bytes(width)
            # members: the basepoint plus combinations of the direction rows
            probes = [base]
            for _ in range(4):
                p = tuple(base)
                for row in s.direction:
                    p = ref_axpy(f, p, rng.randrange(q), row)
                probes.append(bytes(p))
            probes += oracle_vecs(rng, q, width)
            for p in probes[1:5]:
                if width:
                    j = rng.randrange(width)
                    probes.append(p[:j] + bytes([f.add(p[j], 1)]) + p[j + 1:])
            for v in probes:
                want = ref_member(f, mode, s.direction, s.basepoint, v)
                assert s.is_member(v) == want
            assert all(s.is_member(v) for v in probes[:5])
            assert s.key() == json_key(s)
            # a point whose every entry is the field's largest element
            top = span(f, AFFINE, [bytes([q - 1] * width)], width)
            assert top.key() == json_key(top)


@pytest.mark.parametrize("make", [
    lambda f: Subspace(VECTOR, f, 2, ((1, 0),)),
    lambda f: Subspace(VECTOR, f, 2, (bytearray((1, 0)),)),
    lambda f: Subspace(AFFINE, f, 2, vecs((1, 0)), (0, 1)),
    lambda f: LinearMap(VECTOR, f, 2, 1, ((1,), (0,))),
    lambda f: affine_map(f, 2, 1, vecs((1,), (0,)), (1,)),
    lambda f: BasisSet(VECTOR, f, ((1, 0),)),
], ids=["subspace_row", "subspace_bytearray_row", "subspace_basepoint",
        "map_column", "map_translation", "basis_point"])
def test_value_types_reject_non_bytes_vectors(make):
    # a tuple would compare unequal to the bytes of the same entries, so
    # an equality or dictionary lookup would fail without any error
    f = make_field(2)
    assert (1, 0) != bytes((1, 0))
    with pytest.raises(TypeError, match="must be bytes"):
        make(f)
