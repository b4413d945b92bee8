"""Arrow relation search and configuration isomorphism.

The arrow oracle is fully exhaustive: every coloring of the k-spaces is
generated with itertools.product and checked against containment
families rebuilt here by a double loop, so the pruned DFS inside
arrow_holds is tested against something with no shared search code.
"""

import itertools
import math
import random

import pytest

from qramsey import (AFFINE, POINT_CAP, VECTOR, ArrowInstance, BasisSet,
                     Budget, BudgetExceededError, ColoringTable, ConfigFamily,
                     HostSpec, LinearMap, SizeCapError, Subspace,
                     VerifyResult, apply, arrow, arrow_holds, arrow_structure,
                     build_base_host, build_product_host, count_subspaces,
                     enumerate_subspaces, family_isomorphic,
                     find_monochromatic_subspace, find_proper_coloring,
                     full_space, induced_host_verify, is_independent,
                     linear_extension, make_field, min_arrow_N, span,
                     structure_generators)
from qramsey import construction
from qramsey import space as qspace

from affine_maps import affine_map


def oracle_families(host, n, k):
    """(k_spaces, families) rebuilt by brute containment."""
    k_spaces = enumerate_subspaces(host, k)
    fams = []
    for u in enumerate_subspaces(host, n):
        fams.append(frozenset(i for i, s in enumerate(k_spaces)
                              if u.contains_subspace(s)))
    return k_spaces, fams


def oracle_arrow(q, mode, N, n, k, r):
    """Exhaustive verdict plus the lex-least bad coloring if any."""
    host = full_space(make_field(q), mode, N)
    k_spaces, fams = oracle_families(host, n, k)
    for colors in itertools.product(range(r), repeat=len(k_spaces)):
        if not any(len({colors[i] for i in fam}) == 1 for fam in fams if fam):
            return False, colors
    return True, None


SMALL_INSTANCES = [
    (2, VECTOR, 2, 2, 1, 2),
    (2, VECTOR, 3, 2, 1, 2),
    (2, VECTOR, 2, 1, 1, 2),
    (2, VECTOR, 3, 2, 2, 2),
    (2, VECTOR, 2, 2, 1, 3),
    (2, AFFINE, 2, 2, 1, 2),
    (2, AFFINE, 3, 2, 1, 2),
    (3, VECTOR, 2, 2, 1, 2),
    (3, VECTOR, 2, 1, 1, 3),
]


@pytest.mark.parametrize("q,mode,N,n,k,r", SMALL_INSTANCES)
def test_arrow_agrees_with_exhaustive_oracle(q, mode, N, n, k, r):
    inst = ArrowInstance(q, mode, N, n, k, r)
    want_holds, want_witness = oracle_arrow(q, mode, N, n, k, r)
    for symmetry in (True, False):
        res = arrow_holds(inst, symmetry=symmetry)
        assert res.holds == want_holds
        if want_holds:
            assert res.witness is None
        else:
            struct = arrow_structure(inst)
            got = tuple(res.witness.entries[s.key()] for s in struct.k_spaces)
            assert got == want_witness  # identical lex-least witness


def test_arrow_golden_witness():
    # three rank-1 subspaces of GF(2)^2, canonical key order: frozen witness
    res = arrow_holds(ArrowInstance(2, VECTOR, 2, 2, 1, 2))
    assert not res.holds
    assert list(res.witness.entries.values()) == [0, 0, 1]


def test_arrow_structure_families():
    inst = ArrowInstance(2, VECTOR, 3, 2, 1, 2)
    struct = arrow_structure(inst)
    k_spaces, fams = oracle_families(struct.host, 2, 1)
    assert [s.key() for s in struct.k_spaces] == [s.key() for s in k_spaces]
    assert list(struct.families) == [tuple(sorted(fam)) for fam in fams]
    # Fano: 7 points, 7 lines, 3 points per line
    assert len(struct.k_spaces) == 7 and len(struct.n_rows) == 7
    assert all(len(fam) == 3 for fam in struct.families)


def family_grid():
    for q, max_n in ((2, 5), (3, 4), (4, 4)):
        for mode in (VECTOR, AFFINE):
            lo = 0 if mode == VECTOR else 1
            for big_n in range(lo, max_n + 1):
                yield q, mode, big_n


@pytest.mark.parametrize("q,mode,N", list(family_grid()))
def test_arrow_structure_families_grid(q, mode, N):
    # every k <= n <= N, k = n and vector k = 0 included, against brute
    # containment; the generators against their images through apply()
    host = full_space(make_field(q), mode, N)
    for n in range(0 if mode == VECTOR else 1, N + 1):
        for k in range(0 if mode == VECTOR else 1, n + 1):
            struct = arrow_structure(ArrowInstance(q, mode, N, n, k, 2))
            k_spaces, fams = oracle_families(host, n, k)
            assert struct.host == host
            assert list(struct.k_spaces) == k_spaces
            assert list(struct.n_rows) == [s.rows for s in
                                           enumerate_subspaces(host, n)]
            assert list(struct.families) == [tuple(sorted(fam))
                                             for fam in fams], (n, k)
            assert structure_generators(struct) == oracle_generators(struct)


@pytest.mark.parametrize("q", [11, 13, 16])
@pytest.mark.parametrize("mode", [VECTOR, AFFINE])
def test_arrow_structure_families_increase_from_q_11(q, mode):
    # from q = 11 on, byte order is not key order, and a basis map need
    # not keep key order: the lookup's rows are sorted into increasing
    # tuples, here checked against the point-set reference
    host = full_space(make_field(q), mode, 3)
    for n in range(0 if mode == VECTOR else 1, 4):
        for k in range(0 if mode == VECTOR else 1, n + 1):
            struct = arrow_structure(ArrowInstance(q, mode, 3, n, k, 2))
            ref = point_set_lookup(list(struct.k_spaces), n)
            assert list(struct.families) == [
                tuple(sorted(ref(u))) for u in enumerate_subspaces(host, n)]


def coordinate_only(monkeypatch, *allowed):
    """Make arrow.enumerate_subspaces refuse every ambient not allowed."""
    real = arrow.enumerate_subspaces

    def guarded(ambient, k, *args):
        assert ambient in allowed, f"enumerated inside {ambient}"
        return real(ambient, k, *args)

    monkeypatch.setattr(arrow, "enumerate_subspaces", guarded)


@pytest.mark.parametrize("q,mode,N,n,k", [
    (2, VECTOR, 5, 3, 1), (3, VECTOR, 3, 2, 1), (2, AFFINE, 5, 3, 2),
    (3, AFFINE, 3, 2, 1), (2, VECTOR, 3, 2, 0)])
def test_arrow_structure_enumerates_only_host_and_coordinates(
        monkeypatch, q, mode, N, n, k):
    want = arrow_structure(ArrowInstance(q, mode, N, n, k, 2))
    f = make_field(q)
    coordinate_only(monkeypatch, full_space(f, mode, N), full_space(f, mode, n))
    got = arrow_structure(ArrowInstance(q, mode, N, n, k, 2))
    assert got == want


def test_min_arrow_value_golden():
    assert min_arrow_N(2, VECTOR, 2, 1, 2, 6) == 3
    assert min_arrow_N(2, AFFINE, 2, 1, 2, 6) == 3
    assert min_arrow_N(2, VECTOR, 2, 1, 2, 6, symmetry=False) == 3


def test_min_arrow_value_verified_exhaustively():
    # at N=3 every one of the 128 colorings of the Fano points has a
    # monochromatic line; at N=2 a bad coloring exists
    holds3, _ = oracle_arrow(2, VECTOR, 3, 2, 1, 2)
    holds2, bad = oracle_arrow(2, VECTOR, 2, 2, 1, 2)
    assert holds3 and not holds2 and bad is not None


def test_min_arrow_none_when_out_of_range():
    assert min_arrow_N(2, VECTOR, 2, 1, 2, 2) is None


def test_arrow_trivial_holds():
    # k = n: every target is a single colored item, mono for free
    res = arrow_holds(ArrowInstance(2, VECTOR, 2, 1, 1, 5))
    assert res.holds
    # one color always holds
    res = arrow_holds(ArrowInstance(2, VECTOR, 3, 2, 1, 1))
    assert res.holds


def test_arrow_budget_exhaustion():
    with pytest.raises(BudgetExceededError):
        arrow_holds(ArrowInstance(2, VECTOR, 3, 2, 1, 2),
                    budget=Budget(max_nodes=2))


def test_arrow_json_shapes():
    inst = ArrowInstance(3, AFFINE, 3, 2, 1, 2)
    assert inst.to_json() == {"q": 3, "mode": "affine", "N": 3, "n": 2,
                              "k": 1, "r": 2}
    res = arrow_holds(ArrowInstance(2, VECTOR, 2, 2, 1, 2))
    data = res.to_json()
    assert data["verdict"] == "fails"
    assert set(data) == {"instance", "verdict", "witness", "nodes_explored"}
    assert data["witness"]["entries"] == res.witness.entries


def test_instance_validation():
    with pytest.raises(ValueError):
        ArrowInstance(2, VECTOR, 2, 3, 1, 2)  # n > N
    with pytest.raises(ValueError):
        ArrowInstance(2, AFFINE, 2, 2, 0, 2)  # affine k = 0
    with pytest.raises(ValueError):
        ArrowInstance(6, VECTOR, 2, 2, 1, 2)  # bad field order
    with pytest.raises(ValueError):
        ArrowInstance(2, VECTOR, 2, 2, 1, 0)


# -- structural symmetry ------------------------------------------------------


def elementary_maps(f, mode, d):
    """The maps structure_generators uses, as LinearMaps, in its order."""
    identity = [[int(i == j) for j in range(d)] for i in range(d)]

    def linear(cols, t=bytes(d)):
        if mode == VECTOR:
            return LinearMap(VECTOR, f, d, d, cols)
        return affine_map(f, d, d, cols, t)

    maps = []
    for i in range(d - 1):
        swap = [row[:] for row in identity]
        swap[i], swap[i + 1] = swap[i + 1], swap[i]
        shear = [row[:] for row in identity]
        shear[i][i + 1] = 1  # x_i += x_{i+1}
        for m in (swap, shear):
            maps.append(linear(qspace.transpose(tuple(map(bytes, m)), d)))
    if mode == AFFINE and d:
        maps.append(linear(tuple(map(bytes, identity)), b"\1" + bytes(d - 1)))
    return maps


def generator_sweep():
    for q, max_n in ((2, 4), (3, 3), (4, 3)):
        for mode in (VECTOR, AFFINE):
            for big_n in range(0 if mode == VECTOR else 1, max_n + 1):
                for n in range(big_n + 1):
                    for k in range(0 if mode == VECTOR else 1, n + 1):
                        yield q, mode, big_n, n, k


@pytest.mark.parametrize("q,mode,N,n,k", list(generator_sweep()))
def test_structure_generators_are_family_automorphisms(q, mode, N, n, k):
    struct = arrow_structure(ArrowInstance(q, mode, N, n, k, 2))
    gens = structure_generators(struct)
    families = set(struct.families)
    items = list(range(len(struct.k_spaces)))
    for perm in gens:
        assert sorted(perm) == items and list(perm) != items
        assert {tuple(sorted(perm[i] for i in fam))
                for fam in families} == families
    assert gens == oracle_generators(struct)


def oracle_generators(struct):
    """structure_generators' permutations, through apply() and keys."""
    host = struct.host
    index = {s.key(): i for i, s in enumerate(struct.k_spaces)}
    items = list(range(len(struct.k_spaces)))
    want = []
    for m in elementary_maps(host.field, host.mode, host.ambient_len):
        perm = tuple(index[apply(m, s).key()] for s in struct.k_spaces)
        if list(perm) != items:
            want.append(perm)
    return want


def point_elementary_maps(f, mode, d):
    """`_elementary_maps` as point maps of GF(q)^d, kept as the reference
    for its homogenized LinearMaps, in its order: the adjacent coordinate
    swaps and transvections x_i += x_{i+1} and, in affine mode, x_0 += 1."""
    add = f.add
    maps = []
    for i in range(d - 1):
        maps += [lambda p, i=i: p[:i] + bytes((p[i + 1], p[i])) + p[i + 2:],
                 lambda p, i=i: p[:i] + bytes((add(p[i], p[i + 1]),)) + p[i + 1:]]
    if mode == AFFINE and d:
        maps.append(lambda p: bytes((add(p[0], 1),)) + p[1:])
    return maps


def point_orbit_maps(f, mode, d):
    """`orbit_maps` as point maps: `point_elementary_maps` and the
    scalings x_0 -> a x_0, a not 0 or 1."""
    return point_elementary_maps(f, mode, d) + [
        lambda p, a=a: bytes((f.mul(a, p[0]),)) + p[1:]
        for a in range(2, f.order) if d]


def point_permutations(space, subspaces, maps):
    """The permutation of `subspaces` each point map induces, each point
    of `space` mapped one at a time: subspace i goes to the one covering
    the image of its point set."""
    points = list(space.points())
    where = {p: i for i, p in enumerate(points)}
    covers = [[where[p] for p in s.points()] for s in subspaces]
    item_of = {frozenset(cov): i for i, cov in enumerate(covers)}
    tos = ([where[g(p)] for p in points] for g in maps)
    return [tuple(item_of[frozenset([to[j] for j in cov])] for cov in covers)
            for to in tos]


@pytest.mark.parametrize("q,mode,rank", [
    (q, mode, rank) for q in (2, 3, 4) for mode in (VECTOR, AFFINE)
    for rank in range(0 if mode == VECTOR else 1, 5)])
def test_generators_match_the_point_map_reference(q, mode, rank):
    # the homogenized generators move every point as the point maps do,
    # and the permutations they induce, of the k-spaces in
    # structure_generators and of the templates in copy_orbit, are the
    # reference's
    f = make_field(q)
    coord = full_space(f, mode, rank)
    d, points = coord.ambient_len, list(coord.points())
    maps, ref = arrow.orbit_maps(f, mode, d), point_orbit_maps(f, mode, d)
    assert len(maps) == len(ref)
    for g, h in zip(maps, ref):
        assert [apply(g, p) for p in points] == list(map(h, points))
    for k in range(0 if mode == VECTOR else 1, rank + 1):
        templates = qspace.subspace_templates(f, mode, rank, k)
        assert (arrow._permutations(coord, templates, maps)
                == point_permutations(coord, templates, ref))
        struct = arrow_structure(ArrowInstance(q, mode, rank, rank, k, 2))
        identity = tuple(range(len(struct.k_spaces)))
        assert structure_generators(struct) == [
            perm for perm in point_permutations(
                struct.host, struct.k_spaces, point_elementary_maps(f, mode, d))
            if perm != identity]


def test_structure_generators_edge_cases():
    # affine rank 1 (ambient length 0), vector rank 0, and k = 0: nothing
    # moves, and the searches still answer
    for q, mode, big_n, n, k in [(2, AFFINE, 1, 1, 1), (3, AFFINE, 1, 1, 1),
                                 (2, VECTOR, 0, 0, 0), (2, VECTOR, 3, 2, 0),
                                 (3, VECTOR, 2, 0, 0)]:
        inst = ArrowInstance(q, mode, big_n, n, k, 2)
        assert structure_generators(arrow_structure(inst)) == []
        assert arrow_holds(inst).holds == arrow_holds(inst, symmetry=False).holds
    # affine rank 2 (the line GF(q)^1): only the translation remains
    struct = arrow_structure(ArrowInstance(3, AFFINE, 2, 2, 1, 2))
    assert structure_generators(struct) == [(1, 2, 0)]


def arrow_sweep():
    for mode in (VECTOR, AFFINE):
        for big_n in range(1, 6):
            for n in range(1, big_n + 1):
                for k in range(0 if mode == VECTOR else 1, n + 1):
                    for r in (2, 3):
                        yield mode, big_n, n, k, r


def test_symmetry_keeps_the_witness_on_the_q2_sweep():
    checked = 0
    for mode, big_n, n, k, r in arrow_sweep():
        struct = arrow_structure(ArrowInstance(2, mode, big_n, n, k, r))
        args = (len(struct.k_spaces), r, struct.families)
        plain = Budget(max_nodes=100_000)
        try:
            want = find_proper_coloring(*args, budget=plain)
        except BudgetExceededError:
            continue
        pruned = Budget()
        got = find_proper_coloring(*args, budget=pruned,
                                   generators=structure_generators(struct))
        assert got == want, (mode, big_n, n, k, r)
        assert pruned.nodes <= plain.nodes
        checked += 1
    assert checked >= 160


def test_arrow_holds_breaks_structural_symmetry():
    inst = ArrowInstance(2, VECTOR, 5, 2, 1, 3)
    assert arrow_holds(inst).nodes == 2440  # 68784 with colors alone
    struct = arrow_structure(inst)
    assert find_proper_coloring(31, 3, struct.families) is None


# -- monochromatic subspace scan --------------------------------------------


@pytest.mark.parametrize("host_rank", [3, 4])
def test_find_mono_subspace_against_double_loop(host_rank):
    f = make_field(2)
    host = full_space(f, VECTOR, host_rank)
    k_spaces = enumerate_subspaces(host, 1)
    scan = [(u, enumerate_subspaces(u, 1)) for u in enumerate_subspaces(host, 2)]
    rng = random.Random(88 + host_rank)
    for _ in range(50):
        coloring = {s.key(): rng.randrange(2) for s in k_spaces}
        got = find_monochromatic_subspace(host, 1, 2, coloring)
        expect = None
        for u, subs in scan:
            cs = {coloring[s.key()] for s in subs}
            if len(cs) == 1:
                expect = (u.key(), cs.pop())
                break
        if expect is None:
            assert got is None
        else:
            assert got is not None
            assert (got[0].key(), got[1]) == expect


@pytest.mark.parametrize("mode", [VECTOR, AFFINE])
def test_find_mono_subspace_inside_a_proper_ambient(monkeypatch, mode):
    # the ambient is a rank-3 subspace of GF(3)^4, not a coordinate space;
    # only it and the rank-2 coordinate space are enumerated
    f = make_field(3)
    amb = span(f, mode, [(1, 2, 0, 1), (0, 1, 1, 2), (2, 2, 1, 0)], 4)
    assert amb.rank == 3
    k_spaces = enumerate_subspaces(amb, 1)
    scan = [(u, [s.key() for s in enumerate_subspaces(u, 1)])
            for u in enumerate_subspaces(amb, 2)]
    coordinate_only(monkeypatch, amb, full_space(f, mode, 2))
    rng = random.Random(5)
    for trial in range(40):
        coloring = {s.key(): rng.randrange(2) for s in k_spaces}
        if trial % 2:  # make one copy monochromatic, mostly a late one
            for key in scan[-1 - trial // 2 % len(scan)][1]:
                coloring[key] = 1
        expect = None
        for u, keys in scan:
            cs = {coloring[key] for key in keys}
            if len(cs) == 1:
                expect = (u, cs.pop())
                break
        assert find_monochromatic_subspace(amb, 1, 2, coloring) == expect


def test_find_mono_subspace_requires_total_coloring():
    f = make_field(2)
    host = full_space(f, VECTOR, 2)
    with pytest.raises(KeyError):
        find_monochromatic_subspace(host, 1, 2, {})


# -- configuration families --------------------------------------------------


def test_config_family_normalizes():
    f = make_field(2)
    amb = full_space(f, VECTOR, 2)
    subs = enumerate_subspaces(amb, 1)
    fam = ConfigFamily(amb, (subs[2], subs[0], subs[2]))
    assert [s.key() for s in fam.members] == sorted(
        {subs[0].key(), subs[2].key()})
    assert fam.member_rank == 1
    assert ConfigFamily(amb, ()).member_rank is None


def test_config_family_validation():
    f = make_field(2)
    amb = span(f, VECTOR, [(1, 0, 0), (0, 1, 0)], 3)
    outside = span(f, VECTOR, [(0, 0, 1)], 3)
    inside = span(f, VECTOR, [(1, 0, 0)], 3)
    with pytest.raises(ValueError):
        ConfigFamily(amb, (outside,))
    with pytest.raises(ValueError):
        ConfigFamily(amb, (inside, amb))  # mixed ranks


def test_config_family_json_roundtrip():
    f = make_field(3)
    amb = full_space(f, AFFINE, 2)
    fam = ConfigFamily(amb, tuple(enumerate_subspaces(amb, 1)))
    rt = ConfigFamily.from_json(fam.to_json())
    assert rt == fam


# -- family isomorphism -------------------------------------------------------


def fano_family(collinear):
    """Three rank-1 subspaces of GF(2)^3, on a common line or not."""
    f = make_field(2)
    amb = full_space(f, VECTOR, 3)
    if collinear:
        pts = [(1, 0, 0), (0, 1, 0), (1, 1, 0)]
    else:
        pts = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    return ConfigFamily(amb, tuple(span(f, VECTOR, [p], 3) for p in pts))


def reference_isomorphic(fam1, fam2, bud):
    """family_isomorphic by backtracking, the oracle for the orbit lookup:
    ordered bases of fam2's ambient are tried in lexicographic point
    order, each full basis is solved with `linear_extension`, and the
    members' images are compared with fam2's by canonical key."""
    if fam1.ambient.rank != fam2.ambient.rank:
        return None
    if len(fam1.members) != len(fam2.members):
        return None
    if fam1.members and fam1.members[0].rank != fam2.members[0].rank:
        return None
    f, mode = fam2.ambient.field, fam2.ambient.mode
    basis = BasisSet(fam1.ambient.mode, fam1.ambient.field,
                     fam1.ambient.basis_points())
    target_keys = {m.key() for m in fam2.members}
    chosen = []

    def search():
        if len(chosen) == len(basis):
            iso = linear_extension(basis, chosen,
                                   codomain_len=fam2.ambient.ambient_len)
            if {apply(iso, m).key() for m in fam1.members} == target_keys:
                return iso
            return None
        for cand in sorted(fam2.ambient.points()):
            bud.spend()
            chosen.append(cand)
            if is_independent(f, mode, chosen):
                found = search()
                if found is not None:
                    return found
            chosen.pop()
        return None

    return search()


def random_family_pair(rng, f, mode):
    """(fam1, fam2): fam1 in a coordinate space of at most 16 points (rank
    3, or 2 for vector q = 3 and for q = 4), fam2 in a random subspace of
    a longer coordinate space, and half the time fam1's image under a
    random isomorphism."""
    q = f.order
    rank = rng.randint(1 if mode == VECTOR else 2,
                       2 if (q, mode) == (3, VECTOR) or q == 4 else 3)
    amb1 = full_space(f, mode, rank)
    k = rng.randint(1, rank - 1) if rank > 1 else 1
    pool = enumerate_subspaces(amb1, k)
    fam1 = ConfigFamily(amb1, tuple(rng.sample(pool, rng.randint(
        0, min(4, len(pool))))))
    width = rank + rng.randint(0, 2) - (mode == AFFINE)
    while True:
        pts = [tuple(rng.randrange(q) for _ in range(width))
               for _ in range(rank)]
        amb2 = span(f, mode, pts, width)
        if amb2.rank == rank:
            break
    if rng.random() < 0.5:
        iso = linear_extension(BasisSet(mode, f, amb1.basis_points()), pts,
                               codomain_len=width)
        members = tuple(apply(iso, m) for m in fam1.members)
    else:
        pool2 = enumerate_subspaces(amb2, k)
        members = tuple(rng.sample(pool2, min(len(fam1.members), len(pool2))))
    return fam1, ConfigFamily(amb2, members)


def flat_and_spread_families(f, mode):
    """Two families of points that no isomorphism matches: in a rank-3
    vector space three lines through one plane or not; in an affine
    space three points (four at q = 2) on one line (plane) or not."""
    if mode == VECTOR:
        amb = full_space(f, VECTOR, 3)
        flat = [(1, 0, 0), (0, 1, 0), (1, 1, 0)]
        spread = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    elif f.order == 2:
        amb = full_space(f, AFFINE, 4)
        flat = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]
        spread = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    else:
        amb = full_space(f, AFFINE, 3)
        flat = [(0, 0), (1, 0), (2, 0)]
        spread = [(0, 0), (1, 0), (0, 1)]
    return [ConfigFamily(amb, tuple(span(f, mode, [p], amb.ambient_len)
                                    for p in pts)) for pts in (flat, spread)]


def carries(m, fam1, fam2):
    """Whether the map carries fam1's ambient onto fam2's and its members
    onto fam2's, compared by canonical key."""
    return (apply(m, fam1.ambient) == fam2.ambient
            and {apply(m, s).key() for s in fam1.members}
            == {s.key() for s in fam2.members})


@pytest.mark.parametrize("mode", [VECTOR, AFFINE])
@pytest.mark.parametrize("q", [2, 3, 4])
def test_point_set_isomorphism_matches_key_reference(q, mode):
    # the orbit lookup answers as the backtracking reference does, and a
    # map it returns carries fam1 onto fam2.  At q = 4 the ranks are at
    # most 2, where equal counts and ranks always match, so a pair with
    # one member dropped gives the negative answers.
    rng = random.Random(31 * q + len(mode))
    f = make_field(q)
    pairs = []
    if q < 4:
        flat, spread = flat_and_spread_families(f, mode)
        pairs += [(flat, spread), (flat, flat)]
    pairs += [random_family_pair(rng, f, mode) for _ in range(40)]
    if q == 4:
        pairs += [(fam1, ConfigFamily(fam2.ambient, fam2.members[1:]))
                  for fam1, fam2 in pairs[:10] if fam2.members]
    found = set()
    for fam1, fam2 in pairs:
        want = reference_isomorphic(fam1, fam2, Budget())
        got = family_isomorphic(fam1, fam2)
        assert (got is None) == (want is None)
        if got is not None:
            assert carries(got, fam1, fam2)
        found.add(want is not None)
    assert found == {True, False}


def test_family_isomorphic_reflexive():
    for fam in (fano_family(True), fano_family(False)):
        m = family_isomorphic(fam, fam)
        assert m is not None
        assert {apply(m, s).key() for s in fam.members} == {
            s.key() for s in fam.members}


def test_family_isomorphic_symmetric():
    f = make_field(2)
    amb = full_space(f, VECTOR, 2)
    subs = enumerate_subspaces(amb, 1)
    f1 = ConfigFamily(amb, (subs[0], subs[1]))
    f2 = ConfigFamily(amb, (subs[1], subs[2]))
    fwd = family_isomorphic(f1, f2)
    bwd = family_isomorphic(f2, f1)
    assert fwd is not None and bwd is not None
    assert {apply(fwd, s).key() for s in f1.members} == {
        s.key() for s in f2.members}


def test_family_isomorphic_detects_collinearity():
    # a linear bijection cannot merge a coplanar triple with a spanning one
    assert family_isomorphic(fano_family(True), fano_family(False)) is None
    assert family_isomorphic(fano_family(False), fano_family(True)) is None


def test_family_isomorphic_counts_and_ranks():
    f = make_field(2)
    amb = full_space(f, VECTOR, 2)
    subs = enumerate_subspaces(amb, 1)
    one = ConfigFamily(amb, (subs[0],))
    two = ConfigFamily(amb, (subs[0], subs[1]))
    lines = ConfigFamily(amb, (amb,))
    assert family_isomorphic(one, two) is None
    assert family_isomorphic(one, lines) is None
    # ambient rank mismatch
    amb3 = full_space(f, VECTOR, 3)
    assert family_isomorphic(one, ConfigFamily(
        amb3, (span(f, VECTOR, [(1, 0, 0)], 3),))) is None


def test_family_isomorphic_affine():
    f = make_field(2)
    amb = full_space(f, AFFINE, 2)
    pts = enumerate_subspaces(amb, 1)
    f1 = ConfigFamily(amb, (pts[0],))
    f2 = ConfigFamily(amb, (pts[1],))
    m = family_isomorphic(f1, f2)
    assert m is not None and m.mode == AFFINE
    assert apply(m, pts[0]).key() == pts[1].key()


def test_family_isomorphic_answers_rank_5():
    # no cap on the rank: two crossing planes of GF(2)^5 go onto two
    # others by a map that carries them, and onto no pair meeting in a
    # point, or in nothing but the origin
    f = make_field(2)
    amb = full_space(f, VECTOR, 5)

    def planes(*pairs):
        return ConfigFamily(amb, tuple(span(f, VECTOR, p, 5) for p in pairs))

    fam1 = planes([(1, 0, 0, 0, 0), (0, 1, 0, 0, 0)],
                  [(1, 0, 0, 0, 0), (0, 0, 1, 0, 0)])
    fam2 = planes([(0, 0, 0, 1, 1), (1, 1, 0, 0, 0)],
                  [(0, 0, 0, 1, 1), (0, 1, 1, 1, 0)])
    m = family_isomorphic(fam1, fam2)
    assert m is not None and carries(m, fam1, fam2)
    apart = planes([(1, 0, 0, 0, 0), (0, 1, 0, 0, 0)],
                   [(0, 0, 1, 0, 0), (0, 0, 0, 1, 0)])
    assert family_isomorphic(fam1, apart) is None


def test_copy_orbit_stops_at_the_size_cap(monkeypatch):
    # one point of GF(2)^3 has an orbit of all 7 points: a cap of 7 holds
    # it, and a cap of 6 stops the search as it would take a 7th set
    f = make_field(2)
    fam = ConfigFamily(full_space(f, VECTOR, 3),
                       (span(f, VECTOR, [(1, 0, 0)], 3),))
    monkeypatch.setattr(arrow, "POINT_CAP", 7)
    assert len(arrow.copy_orbit(fam)) == 7
    monkeypatch.setattr(arrow, "POINT_CAP", 6)
    with pytest.raises(SizeCapError, match="more than 6 template sets"):
        arrow.copy_orbit(fam)


def group_order(q, d, affine):
    """|GL(d, q)|, times q^d for |AGL(d, q)|."""
    order = math.prod(q ** d - q ** i for i in range(d))
    return order * q ** d if affine else order


@pytest.mark.parametrize("q,mode,w", [
    (q, mode, w) for q, top in ((2, 3), (3, 3), (4, 2))
    for mode in (VECTOR, AFFINE) for w in range(1, top + 1)])
def test_orbit_maps_generate_the_group(q, mode, w):
    # the closure of the coordinate basis under the orbit's maps is one
    # basis per group element: every ordered basis of GF(q)^w in vector
    # mode, every affine frame of GF(q)^(w-1) in affine mode.  Without
    # the scalings q = 4 and q = 3 at one coordinate fall short; without
    # the translation every affine case with a coordinate does.
    f = make_field(q)
    coord = full_space(f, mode, w)
    maps = arrow.orbit_maps(f, mode, coord.ambient_len)
    start = coord.basis_points()
    seen, queue = {start}, [start]
    for basis in queue:
        for g in maps:
            image = tuple(apply(g, p) for p in basis)
            if image not in seen:
                seen.add(image)
                queue.append(image)
    d = coord.ambient_len
    assert len(seen) == group_order(q, d, mode == AFFINE)


def test_family_isomorphic_empty_families():
    f = make_field(2)
    amb = full_space(f, VECTOR, 2)
    m = family_isomorphic(ConfigFamily(amb, ()), ConfigFamily(amb, ()))
    assert m is not None  # any isomorphism of ambients carries () to ()


# -- induced host verification ------------------------------------------------


def test_induced_host_verify_holds_single_member():
    f = make_field(2)
    host = full_space(f, VECTOR, 2)
    member = span(f, VECTOR, [(0, 1)], 2)
    config = ConfigFamily(host, (member,))
    for r in (1, 2, 3):
        res = induced_host_verify(host, [member], config, r)
        assert res.holds and res.witness is None


def test_induced_host_verify_fails_on_count_mismatch():
    # H carries three members inside the only rank-2 subspace, F wants one:
    # no induced copy is isomorphic to F, so any coloring is a witness
    f = make_field(2)
    host = full_space(f, VECTOR, 2)
    members = enumerate_subspaces(host, 1)
    config = ConfigFamily(host, (members[0],))
    res = induced_host_verify(host, members, config, 1)
    assert not res.holds
    assert set(res.witness.entries.values()) == {0}


def test_induced_host_verify_empty_cases():
    f = make_field(2)
    host = full_space(f, VECTOR, 2)
    member = span(f, VECTOR, [(0, 1)], 2)
    config = ConfigFamily(host, (member,))
    empty_config = ConfigFamily(host, ())
    # F empty: the empty family shows up in any U, property holds
    assert induced_host_verify(host, [], empty_config, 2).holds
    # H empty but F wants a member: fails with the empty witness
    res = induced_host_verify(host, [], config, 2)
    assert not res.holds and res.witness.entries == {}


def test_induced_host_verify_names_the_config_rank_in_its_range_error():
    # the config's ambient has rank n = 2, above the host's rank 1
    f = make_field(2)
    host = full_space(f, VECTOR, 1)
    config = ConfigFamily(full_space(f, VECTOR, 2), ())
    with pytest.raises(ValueError, match=r"^n=2 out of range for rank 1$"):
        induced_host_verify(host, [], config, 2)


def test_induced_host_verify_respects_symmetry_flag():
    f = make_field(2)
    host = full_space(f, VECTOR, 2)
    members = enumerate_subspaces(host, 1)
    config = ConfigFamily(host, (members[0],))
    a = induced_host_verify(host, members, config, 2, symmetry=True)
    b = induced_host_verify(host, members, config, 2, symmetry=False)
    assert a.holds == b.holds
    if a.witness is not None:
        assert a.witness.entries == b.witness.entries


# -- one copy walk over member spans -------------------------------------------


def reference_verify(host_space, members, config, num_colors):
    """induced_host_verify by listing every rank-n subspace of the host.

    The scan `induced_host_verify` ran on every family before candidates
    were built from member spans and their members looked up by point
    set: U ∩ H by testing every member with `contains_subspace`, and the
    isomorphism by `reference_isomorphic`.  It stays here as the oracle.
    Its induced count is the number of distinct member sets U ∩ H, all
    the coloring search sees; a spanning F has one U per set.  Its nodes
    are the coloring search's alone: the isomorphism search spends a
    budget of its own.
    """
    iso_bud, bud = Budget(), Budget()
    fam = {m.key(): m for m in members}
    keys = sorted(fam)
    index = {k: i for i, k in enumerate(keys)}
    host_members = [fam[k] for k in keys]
    candidates = enumerate_subspaces(host_space, config.ambient.rank)
    good = []
    for u in candidates:
        inter = tuple(m for m in host_members if u.contains_subspace(m))
        if reference_isomorphic(config, ConfigFamily(u, inter),
                                iso_bud) is not None:
            good.append(frozenset(index[m.key()] for m in inter))
    coloring = find_proper_coloring(len(host_members), num_colors, good,
                                    budget=bud)
    witness = None
    if coloring is not None:
        witness = ColoringTable(host_space.key(), dict(zip(keys, coloring)))
    return VerifyResult(coloring is None, witness, len(candidates),
                        len(set(good)), bud.nodes)


def spans_ambient(config):
    amb = config.ambient
    return bool(config.members) and span(
        amb.field, amb.mode, [p for m in config.members
                              for p in m.basis_points()],
        amb.ambient_len) == amb


def answers(res):
    return res.holds, res.witness, res.num_candidates, res.num_induced


def assert_same_answers(want, *args):
    """Run induced_host_verify on args: its answers, and the nodes its
    coloring search spends (its own count adds the spans the walk
    builds), equal the reference's."""
    spent = []

    def counted(*fargs, budget, plain=arrow.find_proper_coloring, **kwargs):
        before = budget.nodes
        out = plain(*fargs, budget=budget, **kwargs)
        spent.append(budget.nodes - before)
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(arrow, "find_proper_coloring", counted)
        got = induced_host_verify(*args)
    assert answers(got) == answers(want)
    assert spent == [want.nodes]


def grid_hosts(q, n1_values, cap=POINT_CAP):
    """(spec, host) for the construction grid at N0 = n, k = 1, with at
    most `cap` rank-n subspaces in the host."""
    f = make_field(q)
    out = []
    for mode in (VECTOR, AFFINE):
        for n in (1, 2):
            amb = full_space(f, mode, n)
            members = enumerate_subspaces(amb, 1)
            for nf in range(1, len(members) + 1):
                fam = ConfigFamily(amb, tuple(members[:nf]))
                base = build_base_host(HostSpec(q, mode, 1, n, 2, fam, n, 1))
                for n1 in n1_values:
                    host = build_product_host(base, n1)
                    if count_subspaces(host.space.rank, n, q, mode) <= cap:
                        out.append((base.spec, host))
    return out


@pytest.fixture(scope="module")
def q2_grid():
    """Every q = 2 grid host below the cap, with the reference's answer."""
    return [(spec, host, reference_verify(host.space, host.members,
                                          spec.family, 2))
            for spec, host in grid_hosts(2, (1, 2, 3))]


def forbid_listing(monkeypatch, spaces):
    """Make listing the subspaces of any of these spaces fail, through
    arrow's `enumerate_subspaces` or the space walk under it."""
    ids = {id(s) for s in spaces}
    for module, name in ((arrow, "enumerate_subspaces"),
                         (qspace, "iter_subspaces")):
        def guarded(ambient, k, plain=getattr(module, name)):
            if id(ambient) in ids:
                raise AssertionError("rank-n subspaces of the host listed")
            return plain(ambient, k)

        monkeypatch.setattr(module, name, guarded)


def test_member_spans_match_enumeration_on_the_grid(q2_grid):
    assert len(q2_grid) == 20  # the 21 grid hosts less vector |F| = 3, N1 = 3
    for spec, host, want in q2_grid:
        assert_same_answers(want, host.space, host.members, spec.family, 2)


def test_member_spans_never_enumerate_the_host(q2_grid, monkeypatch):
    # regression gate without a timer: for every F, spanning or not, the
    # copies come from member spans and X's rank-n subspaces are never
    # listed (|F| = 1 at n = 2 is decided by counting the planes over it)
    forbid_listing(monkeypatch, [host.space for _, host, _ in q2_grid])
    assert sum(not spans_ambient(spec.family) for spec, _, _ in q2_grid) == 6
    for spec, host, want in q2_grid:
        assert spec.family.members
        assert_same_answers(want, host.space, host.members, spec.family, 2)


def test_member_spans_match_enumeration_at_q3():
    hosts = grid_hosts(3, (1,), cap=2000)
    assert len(hosts) == 8  # every N1 = 1 host but vector |F| = 4
    for spec, host in hosts:
        want = reference_verify(host.space, host.members, spec.family, 2)
        assert_same_answers(want, host.space, host.members, spec.family, 2)


@pytest.mark.parametrize("mode", [VECTOR, AFFINE])
def test_member_spans_match_enumeration_on_random_families(mode):
    # random spanning F in a rank-3 ambient, random H in a rank-3 or rank-4
    # host that sits inside a larger coordinate space
    rng = random.Random(2024)
    f = make_field(2)
    outcomes = set()
    for _ in range(24):
        k = rng.randint(1, 2)
        amb = full_space(f, mode, 3)
        pool = enumerate_subspaces(amb, k)
        while True:
            fam = ConfigFamily(amb, tuple(rng.sample(
                pool, rng.randint(2, min(4, len(pool))))))
            if spans_ambient(fam):
                break
        width = rng.randint(4, 5)
        rank = rng.randint(3, 4)
        while True:
            pts = [tuple(rng.randrange(2) for _ in range(width))
                   for _ in range(rank)]
            host = span(f, mode, pts, width)
            if host.rank == rank:
                break
        h_pool = enumerate_subspaces(host, k)
        members = rng.sample(h_pool, rng.randint(3, min(10, len(h_pool))))
        r = rng.randint(1, 2)
        want = reference_verify(host, members, fam, r)
        assert_same_answers(want, host, members, fam, r)
        outcomes.add((want.holds, want.num_induced > 0))
    assert outcomes == {(True, True), (False, True), (False, False)}


def walk_reference_verify(host_space, members, config, num_colors):
    """induced_host_verify as it ran before the orbit lookup: the same
    walk over member spans and the same free-space test, with each
    span's members found by `contains_subspace` and its copy decided by
    the backtracking `reference_isomorphic`.  Its nodes are the
    coloring search's alone.  It answers where the host's rank-n
    subspaces are too many for `reference_verify` to list."""
    fam = {m.key(): m for m in members}
    keys = sorted(fam)
    host_members = [fam[k] for k in keys]
    amb = config.ambient
    shape = ConfigFamily(span(amb.field, amb.mode,
                              [p for m in config.members
                               for p in m.basis_points()], amb.ambient_len),
                         config.members)
    good = []
    for d in arrow._member_spans(host_members, shape.ambient.rank, Budget()):
        inside = [i for i, m in enumerate(host_members)
                  if d.contains_subspace(m)]
        copy = ConfigFamily(d, tuple(host_members[i] for i in inside))
        if (reference_isomorphic(shape, copy, Budget()) is not None
                and arrow._free_space(host_space, amb.rank, d, host_members,
                                      frozenset(inside))):
            good.append(frozenset(inside))
    bud = Budget()
    coloring = find_proper_coloring(len(host_members), num_colors, good,
                                    budget=bud)
    witness = None
    if coloring is not None:
        witness = ColoringTable(host_space.key(), dict(zip(keys, coloring)))
    return VerifyResult(coloring is None, witness,
                        count_subspaces(host_space.rank, amb.rank,
                                        amb.field.order, amb.mode),
                        len(good), bud.nodes)


def ag22_lines(*pairs):
    """F: lines of the affine plane AG(2, 2), each through two points."""
    f = make_field(2)
    return ConfigFamily(full_space(f, AFFINE, 3),
                        tuple(span(f, AFFINE, p, 2) for p in pairs))


AG22_FAMILIES = {
    "one_line": [((0, 0), (1, 0))],
    "parallel": [((0, 0), (1, 0)), ((0, 1), (1, 1))],
    "crossing": [((0, 0), (1, 0)), ((0, 0), (0, 1))],
    "three_lines": [((0, 0), (1, 0)), ((0, 0), (0, 1)), ((1, 0), (0, 1))],
}


@pytest.mark.parametrize("n1", [1, 2])
@pytest.mark.parametrize("name", list(AG22_FAMILIES))
def test_orbit_lookup_matches_the_oracles_on_ag22_families(name, n1):
    # k = 2, n = 3, N0 = 3: the orbit lookup answers as the scan with
    # backtracking where the host's rank-3 subspaces number at most
    # 10,416, and as the walk with backtracking at three lines, N1 = 2,
    # where they number 690,880
    fam = ag22_lines(*AG22_FAMILIES[name])
    host = build_product_host(
        build_base_host(HostSpec(2, AFFINE, 2, 3, 2, fam, 3, n1)), n1)
    args = (host.space, host.members, fam, 2)
    listed = count_subspaces(host.space.rank, 3, 2, AFFINE) <= 10_416
    want = walk_reference_verify(*args)
    assert_same_answers(want, *args)
    if listed:
        assert answers(reference_verify(*args)) == answers(want)
    assert listed == ((name, n1) != ("three_lines", 2))


def test_member_spans_skip_coplanar_members():
    # F = three independent lines of GF(2)^3.  In the host GF(2)^4 the
    # rank-3 U = <e1, e2, e3 + e4> holds three members e1, e2, e1+e2, the
    # count F asks for, but they are coplanar and do not span U.  The
    # enumeration tests U with the isomorphism search; member spans never
    # build it.  The answers and the coloring nodes agree.
    f = make_field(2)
    amb = full_space(f, VECTOR, 3)
    config = ConfigFamily(amb, tuple(span(f, VECTOR, [e], 3) for e in
                                     ((1, 0, 0), (0, 1, 0), (0, 0, 1))))
    host = full_space(f, VECTOR, 4)
    members = [span(f, VECTOR, [v], 4) for v in
               ((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0),
                (0, 0, 0, 1))]
    for r in (1, 2):
        want = reference_verify(host, members, config, r)
        assert_same_answers(want, host, members, config, r)
    u = span(f, VECTOR, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1)], 4)
    assert u not in arrow._member_spans(members, 3, Budget())


def keyed_member_spans(members, n):
    """`_member_spans` with its spans kept by `Subspace.key`, unbudgeted:
    the spans, in the order the coloring search's families take."""
    found = {}

    def grow(cur, start):
        for j in range(start, len(members)):
            m = members[j]
            if cur is None:
                s = m
            elif cur.contains_subspace(m):
                continue
            else:
                s = span(m.field, m.mode, cur.basis_points() + m.basis_points(),
                         m.ambient_len)
            if s.rank == n:
                found.setdefault(s.key(), s)
            elif s.rank < n:
                grow(s, j + 1)

    grow(None, 0)
    return list(found.values())


def test_member_spans_format_no_key(monkeypatch):
    # the walk keeps its spans by canonical form: the spans and their
    # order are the keyed walk's, and no key is formatted
    cases = []
    for spec, host in grid_hosts(2, (1, 2)) + grid_hosts(3, (1,), cap=2000):
        members = sorted(host.members, key=Subspace.key)
        amb = spec.family.ambient
        w = span(amb.field, amb.mode, [p for m in spec.family.members
                                       for p in m.basis_points()],
                 amb.ambient_len).rank
        cases.append((members, w, keyed_member_spans(members, w)))

    def formatted(s):
        raise AssertionError("formatted a key")

    monkeypatch.setattr(Subspace, "key", formatted)
    assert sum(len(want) > 1 for _, _, want in cases) > 10
    for members, w, want in cases:
        assert arrow._member_spans(members, w, Budget()) == want


# -- candidate members by canonical image -----------------------------------------


@pytest.mark.parametrize("q", [2, 3])
def test_member_lookup_matches_the_scan_on_the_grid(q):
    # U ∩ H looked up by canonical image, every rank-n subspace of a grid
    # host in one batch, equals the scan with contains_subspace, both modes
    hosts = grid_hosts(q, (1, 2)) if q == 2 else grid_hosts(q, (1,), cap=2000)
    assert len(hosts) == (14 if q == 2 else 8)
    for spec, host in hosts:
        members = host.members
        n_spaces = enumerate_subspaces(host.space, spec.target_rank)
        got = arrow.member_lookup(members, spec.target_rank)(
            [u.rows for u in n_spaces])
        assert len(got) == len(n_spaces)
        for u, row in zip(n_spaces, got):
            want = [i for i, m in enumerate(members) if u.contains_subspace(m)]
            assert sorted(member_hits(row)) == want


def member_hits(row):
    """The member indices of a `member_lookup` row."""
    return [i for i in row if i is not None]


def random_flat(rng, f, mode, rank, points):
    """A random rank-`rank` subspace spanned by points drawn from `points`."""
    width = len(points[0])
    while True:
        s = span(f, mode, [rng.choice(points) for _ in range(rank)], width)
        if s.rank == rank:
            return s


def lookup_cases():
    """(q, mode, n, spaces, members): random rank-n spaces in one ambient,
    and members of mixed ranks, some inside a space and some in none."""
    rng = random.Random(25)
    for q in (2, 3, 4, 5, 7, 8, 9):
        f = make_field(q)
        for mode in (VECTOR, AFFINE):
            lo = 0 if mode == VECTOR else 1
            for width in range(0, 4):
                ambient = full_space(f, mode, width + lo)
                every = sorted(ambient.points())
                for n in range(lo, min(width + lo, 3) + 1):
                    spaces = [random_flat(rng, f, mode, n, every)
                              for _ in range(rng.randint(1, 5))]
                    members = {}
                    for _ in range(8):
                        r = rng.randint(lo, n)
                        pool = (sorted(rng.choice(spaces).points())
                                if rng.random() < 0.7 else every)
                        m = random_flat(rng, f, mode, r, pool)
                        members[m.key()] = m
                    yield q, mode, n, spaces, list(members.values())


def test_batched_member_lookup_matches_the_scan():
    # one batch answers as the contains_subspace scan, and as the same
    # spaces passed one at a time; an empty batch answers nothing.  A
    # row's entry t is the member that template t's image is, under the
    # space's basis map, or None when that image is no member
    seen, qs = set(), set()
    for q, mode, n, spaces, members in lookup_cases():
        inside = arrow.member_lookup(members, n)
        got = inside([u.rows for u in spaces])
        assert len(got) == len(spaces)
        index = {m.key(): i for i, m in enumerate(members)}
        for u, row in zip(spaces, got):
            want = [i for i, m in enumerate(members) if u.contains_subspace(m)]
            assert sorted(member_hits(row)) == want, (q, mode, n)
            to_u = qspace.coordinate_map(u.field, mode, u.basis_points(),
                                         u.ambient_len)
            assert list(row) == [index.get(apply(to_u, t).key())
                                 for t in inside.templates]
        assert [inside([u.rows])[0] for u in spaces] == got
        assert inside([]) == []
        hit = set(member_hits(itertools.chain(*got)))
        seen.add(("width", spaces[0].ambient_len))
        seen.update(("rank", mode, m.rank) for m in members)
        seen.update(("missed", mode) for i in range(len(members))
                    if i not in hit)
        qs.add(q)
    assert {("width", 0), ("rank", VECTOR, 0), ("rank", AFFINE, 1),
            ("missed", VECTOR), ("missed", AFFINE)} <= seen
    assert qs == {2, 3, 4, 5, 7, 8, 9}


def test_member_lookup_batches_its_input(monkeypatch):
    # `inside` builds the images of at most SPAN_CHUNK spaces at once,
    # whatever it is passed, and answers as one batch does
    cases = [(members, n, spaces) for _, _, n, spaces, members in lookup_cases()
             if len(spaces) > 3]
    want = [arrow.member_lookup(members, n)([u.rows for u in spaces])
            for members, n, spaces in cases]
    widths = []

    def recorded(f, template, rows, plain=arrow.stacked_images):
        widths.append(len(rows[0]) if rows else 0)
        return plain(f, template, rows)

    monkeypatch.setattr(arrow, "SPAN_CHUNK", 3)
    monkeypatch.setattr(arrow, "stacked_images", recorded)
    for (members, n, spaces), rows in zip(cases, want):
        widths.clear()
        assert arrow.member_lookup(members, n)([u.rows for u in spaces]) == rows
        # a flat's rows are one entry longer than its points
        d = spaces[0].ambient_len + (spaces[0].mode == AFFINE)
        assert widths and max(widths) <= 3 * d


def test_member_lookup_of_no_members():
    f = make_field(3)
    spaces = [s.rows for s in enumerate_subspaces(full_space(f, VECTOR, 2), 1)]
    assert arrow.member_lookup([], 1)(spaces) == [()] * len(spaces)
    assert arrow.member_lookup([], 1)([]) == []


def test_member_lookup_refuses_a_member_rank_above_n():
    f = make_field(2)
    members = enumerate_subspaces(full_space(f, VECTOR, 3), 2)
    with pytest.raises(ValueError, match="k=2 out of range for rank 1"):
        arrow.member_lookup(members, 1)


def point_set_lookup(members, n):
    """The lookup by point set that `member_lookup` replaced, kept as the
    reference: each member indexed by its point set, and each template
    of rank n read off U's points() at its positions."""
    index = {frozenset(m.points()): i for i, m in enumerate(members)}
    coord = full_space(members[0].field, members[0].mode, n)
    pos = {p: j for j, p in enumerate(coord.points())}
    templates = [[pos[p] for p in t.points()]
                 for r in sorted({m.rank for m in members})
                 for t in enumerate_subspaces(coord, r)]

    def inside(u):
        at = list(u.points())
        found = (index.get(frozenset(at[j] for j in t)) for t in templates)
        return {i for i in found if i is not None}

    return inside


def refuse_points(monkeypatch):
    """Make listing the points of any space raise."""
    def refused(*args):
        raise AssertionError("points listed")

    for module in (qspace, arrow, construction):
        if hasattr(module, "combination_points"):
            monkeypatch.setattr(module, "combination_points", refused)
    monkeypatch.setattr(Subspace, "points", refused)


def small_arrow_instances():
    for q in (2, 3):
        for mode in (VECTOR, AFFINE):
            lo = 0 if mode == VECTOR else 1
            for big_n in range(lo, 5):
                for n in range(lo, big_n + 1):
                    for k in range(lo, n + 1):
                        yield q, mode, big_n, n, k


def first_monochromatic(n_spaces, lookup, colors):
    """The first space, in list order, whose members share one color."""
    for u in n_spaces:
        found = {colors[i] for i in lookup(u)}
        if len(found) == 1:
            return u, found.pop()
    return None


def test_families_and_the_monochromatic_scan_list_no_points(monkeypatch):
    # regression gate without a timer: the families and the monochromatic
    # scan come out as the point-set lookup gives them, while listing
    # any point raises
    rng = random.Random(24)
    cases = []
    for q, mode, big_n, n, k in small_arrow_instances():
        host = full_space(make_field(q), mode, big_n)
        k_spaces = enumerate_subspaces(host, k)
        n_spaces = enumerate_subspaces(host, n)
        ref = point_set_lookup(k_spaces, n)
        families = tuple(tuple(sorted(ref(u))) for u in n_spaces)
        colorings = [{s.key(): rng.randrange(2) for s in k_spaces}
                     for _ in range(3)] + [{s.key(): 1 for s in k_spaces}]
        scans = []
        for coloring in colorings:
            colors = [coloring[s.key()] for s in k_spaces]
            scans.append((coloring, first_monochromatic(n_spaces, ref, colors)))
        cases.append(((q, mode, big_n, n, k), host, families, scans))
    refuse_points(monkeypatch)
    found = 0
    for (q, mode, big_n, n, k), host, families, scans in cases:
        struct = arrow_structure(ArrowInstance(q, mode, big_n, n, k, 2))
        assert struct.families == families, (q, mode, big_n, n, k)
        for coloring, first in scans:
            got = find_monochromatic_subspace(host, k, n, coloring)
            assert got == first, (q, mode, big_n, n, k)
            found += got is not None
    assert len(cases) == 110 and found > 2 * len(cases)


def test_arrow_structure_builds_no_subspace_per_n_space(monkeypatch):
    # regression gate without a timer: on the instance of the benchmark's
    # arrow_v7_2_1_2 job, the structure lists only the k-spaces through
    # enumerate_subspaces, and its 2,667 n-spaces are rows of the walk.
    # Every Subspace is built through space._write_slots, so counting
    # its calls counts them all
    inst = ArrowInstance(2, VECTOR, 7, 2, 1, 2)
    want = arrow_structure(inst)
    listed, built = [], []
    enumerate_real, write_real = arrow.enumerate_subspaces, qspace._write_slots

    def enumerated(ambient, k):
        listed.append(k)
        return enumerate_real(ambient, k)

    def written(s, *args):
        built.append(s)
        return write_real(s, *args)

    monkeypatch.setattr(arrow, "enumerate_subspaces", enumerated)
    monkeypatch.setattr(qspace, "_write_slots", written)
    got = arrow_structure(inst)
    assert got == want and len(got.n_rows) == 2667
    assert listed == [1]
    # the host, the 127 points, and the rank-2 coordinate space and its
    # three lines, the lookup's templates
    assert len(built) == 1 + len(got.k_spaces) + 1 + 3


def test_verify_tests_no_member_against_a_candidate(q2_grid, monkeypatch):
    # regression gate without a timer: a candidate span's members come
    # from the member index, so no candidate ever receives
    # contains_subspace, and X's rank-n subspaces are never listed
    candidates = []

    def recorded(*args, plain=arrow._member_spans):
        out = plain(*args)
        candidates.extend(out)
        return out

    monkeypatch.setattr(arrow, "_member_spans", recorded)
    forbid_listing(monkeypatch, [host.space for _, host, _ in q2_grid])
    plain_contains = Subspace.contains_subspace

    def guarded(self, other):
        if any(self is u for u in candidates):
            raise AssertionError("a member was tested against a candidate")
        return plain_contains(self, other)

    monkeypatch.setattr(Subspace, "contains_subspace", guarded)
    for spec, host, want in q2_grid:
        assert_same_answers(want, host.space, host.members, spec.family, 2)
    assert len(candidates) > len(q2_grid)


def random_host(rng, f, mode, ranks, widths):
    """A random rank-`ranks` space inside a coordinate space of `widths`."""
    rank, width = rng.randint(*ranks), rng.randint(*widths)
    while True:
        host = span(f, mode, [tuple(rng.randrange(f.order)
                                    for _ in range(width))
                              for _ in range(rank)], width)
        if host.rank == rank:
            return host


@pytest.mark.parametrize("mode", [VECTOR, AFFINE])
def test_one_walk_matches_enumeration_on_random_non_spanning_families(mode):
    # F: up to two members of rank 1 or 2 that do not span GF(2)^3, the
    # empty F included; H: random members of a rank-3 or rank-4 host
    # inside a larger coordinate space.  Node counts are not compared:
    # the walk runs its isomorphism searches on rank-w spans, which the
    # scan never builds.
    rng = random.Random(15)
    f = make_field(2)
    amb = full_space(f, mode, 3)
    outcomes = set()
    sizes = set()
    for _ in range(30):
        k = rng.randint(1, 2)
        pool = enumerate_subspaces(amb, k)
        while True:
            fam = ConfigFamily(amb, tuple(rng.sample(pool, rng.randint(0, 2))))
            if not spans_ambient(fam):
                break
        host = random_host(rng, f, mode, (3, 4), (4, 5))
        h_pool = enumerate_subspaces(host, k)
        members = rng.sample(h_pool, rng.randint(0, min(8, len(h_pool))))
        r = rng.randint(1, 2)
        got = induced_host_verify(host, members, fam, r)
        assert answers(got) == answers(reference_verify(host, members, fam, r))
        outcomes.add((got.holds, got.num_induced > 0))
        sizes.add(len(fam.members))
    assert outcomes == {(True, True), (False, True), (False, False)}
    assert sizes == {0, 1, 2}


def test_one_walk_on_rank_0_members():
    # vector k = 0: the only rank-0 space is the origin, inside every U
    f = make_field(2)
    amb, host = full_space(f, VECTOR, 3), full_space(f, VECTOR, 4)
    origin = span(f, VECTOR, [], 4)
    verdicts = {}
    for fam in ((), (span(f, VECTOR, [], 3),)):
        config = ConfigFamily(amb, fam)
        for members in ([], [origin]):
            got = induced_host_verify(host, members, config, 2)
            assert answers(got) == answers(
                reference_verify(host, members, config, 2))
            verdicts[len(fam), len(members)] = got.holds, got.num_induced
    assert verdicts == {(0, 0): (True, 1), (0, 1): (False, 0),
                       (1, 0): (False, 0), (1, 1): (True, 1)}


def lines(f, width, vectors):
    return [span(f, VECTOR, [v], width) for v in vectors]


def test_one_line_of_a_plane_decided_by_counting_planes(monkeypatch):
    # F = one line of a plane (w = 1, n = 2), X = GF(2)^3: the planes over
    # a member line L are its spans with the other members, and each is
    # one rank-n U, so counting them is exact and X is never listed
    f = make_field(2)
    amb = full_space(f, VECTOR, 2)
    config = ConfigFamily(amb, (enumerate_subspaces(amb, 1)[0],))
    host = full_space(f, VECTOR, 3)
    hosts = (
        # all seven lines: every plane over a line holds two more
        enumerate_subspaces(host, 1),
        # over e1, e2 and e1 + e2 exactly one of the three planes is
        # free; over e3 all three are taken
        lines(f, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)]))
    want = [reference_verify(host, members, config, 1) for members in hosts]
    forbid_listing(monkeypatch, [host])
    verdicts = []
    for members, ref in zip(hosts, want):
        got = induced_host_verify(host, members, config, 1)
        assert answers(got) == answers(ref)
        verdicts.append((got.holds, got.num_induced))
    assert verdicts == [(False, 0), (True, 3)]


def test_one_line_of_a_space_falls_back_to_the_scan(monkeypatch):
    # F = one line of GF(2)^3 (w = 1, n = 3), X = GF(2)^4: over a member
    # line the other three members give three planes, 9 >= 7 rank-3 U
    # counted with overlap, so only the listed U decide
    f = make_field(2)
    amb = full_space(f, VECTOR, 3)
    config = ConfigFamily(amb, (enumerate_subspaces(amb, 1)[0],))
    host = full_space(f, VECTOR, 4)
    scanned = []

    def recorded(ambient, k, plain=arrow.enumerate_subspaces):
        scanned.append(ambient is host)
        return plain(ambient, k)

    monkeypatch.setattr(arrow, "enumerate_subspaces", recorded)
    verdicts = []
    for members in (
            # the four axes: over each, a U through none of the others exists
            lines(f, 4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                         (0, 0, 0, 1)]),
            # over e1 the other three lie in one plane mod e1, which meets
            # every plane mod e1, so each U over e1 is taken
            lines(f, 4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                         (0, 1, 1, 0)])):
        scanned.clear()
        got = induced_host_verify(host, members, config, 1)
        assert answers(got) == answers(
            reference_verify(host, members, config, 1))
        assert scanned and all(scanned)
        verdicts.append((got.holds, got.num_induced))
    assert verdicts == [(True, 4), (True, 3)]
