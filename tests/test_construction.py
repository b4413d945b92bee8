"""Host construction, equalizers, line embeddings, extraction.

Builders re-verify their own algebra internally, so these tests focus on
extensional facts a caller can observe: point sets of equalizers, members
and word spaces against brute-force oracles, projection behavior on every
block, frozen sizes for the smallest host, and the success/diagnostic
split of the extraction walk.
"""

import hashlib
import itertools
import json
import random
import time

import pytest

from qramsey import (AFFINE, VECTOR, BasisSet, Budget, ConfigFamily,
                     ExtractionFailure, HostSpec, Line, LinearMap,
                     MonochromaticCopy, SizeCapError, apply, auto_word_length,
                     build_base_host, build_product_host, color_pattern,
                     complement, compose,
                     enumerate_subspaces, equalizer_subspace,
                     extract_monochromatic_copy, family_isomorphic,
                     find_monochromatic_subspace, full_space, hales_jewett,
                     host_from_json, host_to_json, identity_map, image_space,
                     induced_host_verify, line_embedding, linear_extension,
                     make_field, span, zero_space)
from qramsey import arrow, construction, space


def vector_spec(nf, word_len=1, num_colors=1, base_rank=2):
    """q=2 vector spec: n=2, k=1, first nf of the three rank-1 members."""
    f = make_field(2)
    amb = full_space(f, VECTOR, 2)
    members = enumerate_subspaces(amb, 1)[:nf]
    fam = ConfigFamily(amb, tuple(members))
    return HostSpec(2, VECTOR, 1, 2, num_colors, fam, base_rank, word_len)


def affine_spec(nf, word_len=1, num_colors=1, base_rank=2):
    f = make_field(2)
    amb = full_space(f, AFFINE, 2)
    members = enumerate_subspaces(amb, 1)[:nf]
    fam = ConfigFamily(amb, tuple(members))
    return HostSpec(2, AFFINE, 1, 2, num_colors, fam, base_rank, word_len)


@pytest.fixture(scope="module")
def tiny_host():
    return build_product_host(build_base_host(vector_spec(1)), 1)


@pytest.fixture(scope="module")
def two_cover_base():
    return build_base_host(vector_spec(2))


# -- spec validation --------------------------------------------------------


def test_spec_validation():
    f = make_field(2)
    amb = full_space(f, VECTOR, 2)
    fam = ConfigFamily(amb, tuple(enumerate_subspaces(amb, 1)[:1]))
    with pytest.raises(ValueError):
        HostSpec(2, VECTOR, 1, 3, 1, fam, 3, 1)  # ambient rank != n
    with pytest.raises(ValueError):
        HostSpec(2, VECTOR, 2, 2, 1, fam, 2, 1)  # member rank != k
    with pytest.raises(ValueError):
        HostSpec(2, VECTOR, 1, 2, 1, fam, 1, 1)  # N0 < n
    with pytest.raises(ValueError):
        HostSpec(2, VECTOR, 1, 2, 1, fam, 2, 0)  # N1 < 1
    with pytest.raises(ValueError):
        HostSpec(2, AFFINE, 1, 2, 1, fam, 2, 1)  # mode mismatch with family
    with pytest.raises(ValueError):
        HostSpec(2, VECTOR, 1, 2, 0, fam, 2, 1)  # no colors


def test_spec_json_roundtrip():
    spec = vector_spec(2, word_len=3, num_colors=2)
    rt = HostSpec.from_json(spec.to_json())
    assert rt == spec
    auto = vector_spec(1)
    data = auto.to_json()
    data["N1"] = "auto"
    assert HostSpec.from_json(data).word_len is None


# -- base host ---------------------------------------------------------------


def test_base_host_frozen_sizes(two_cover_base):
    base = two_cover_base
    # one target (E itself), two covers, rank 2 + 2*(2-1) slots
    assert base.space.rank == 4
    assert len(base.targets) == len(base.target_spans) == 1
    assert len(base.covers) == 2
    assert len(base.base_k_spaces) == 3
    assert len(base.cover_k_spaces) == 6
    assert base.projection.domain_len == 4 and base.projection.codomain_len == 2


def test_base_host_projection_behavior(two_cover_base):
    base = two_cover_base
    E = base.base_space
    pi = base.projection
    assert image_space(pi) == E
    for target, t_span in zip(base.targets, base.target_spans):
        # the projection carries the target's slots bijectively onto it
        assert apply(pi, t_span) == target and t_span.rank == target.rank
    for cover in base.covers:
        assert cover.rank == base.spec.base_rank
        assert apply(pi, cover) == E


def proper_ambient_spec(q, mode, base_rank):
    """F: two rank-1 members of a rank-2 proper subspace of the coordinate
    3-space whose canonical basis is not made of unit vectors."""
    pts = [(1, 1, 0), (0, 1, 1)] if mode == VECTOR else [(1, 0, 1), (0, 1, 1)]
    amb = span(make_field(q), mode, pts, 3)
    fam = ConfigFamily(amb, tuple(enumerate_subspaces(amb, 1)[:2]))
    return HostSpec(q, mode, 1, 2, 1, fam, base_rank, 1)


def test_base_host_embed_is_configuration_iso():
    # for each target, the cover k-spaces inside its slots project onto
    # F's members carried into the target by `linear_extension` from F's
    # ambient basis, a copy of F there
    specs = [vector_spec(2), affine_spec(2), vector_spec(2, base_rank=3),
             proper_ambient_spec(2, VECTOR, 3), proper_ambient_spec(3, VECTOR, 2),
             proper_ambient_spec(2, AFFINE, 3), proper_ambient_spec(3, AFFINE, 3)]
    for spec in specs:
        base = build_base_host(spec)
        fam = spec.family
        cfg = BasisSet(spec.mode, spec.field, fam.ambient.basis_points())
        assert len(base.covers) == len(base.targets) * len(fam.members)
        for target, t_span in zip(base.targets, base.target_spans):
            embed = linear_extension(cfg, target.basis_points(),
                                     codomain_len=target.ambient_len)
            assert apply(embed, fam.ambient) == target
            pushed = {apply(embed, m) for m in fam.members}
            inside = [g for g in base.cover_k_spaces
                      if t_span.contains_subspace(g)]
            assert len(inside) == len(fam.members)
            assert {apply(base.projection, g) for g in inside} == pushed
            assert family_isomorphic(
                fam, ConfigFamily(target, tuple(pushed))) is not None


def test_base_host_cover_k_spaces(two_cover_base):
    base = two_cover_base
    keys = [s.key() for s in base.cover_k_spaces]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    for s in base.cover_k_spaces:
        assert any(c.contains_subspace(s) for c in base.covers)
        assert apply(base.projection, s).rank == s.rank


def test_base_host_affine():
    base = build_base_host(affine_spec(2))
    # affine rank bookkeeping: 2 + 2*(2-1) slots like the vector case
    assert base.space.rank == 4
    assert image_space(base.projection) == base.base_space
    for target, t_span in zip(base.targets, base.target_spans):
        assert apply(base.projection, t_span) == target


def test_base_host_multiple_targets():
    # N0 = 3 gives seven rank-2 targets inside E, one cover per (U, member)
    spec = vector_spec(1, base_rank=3)
    base = build_base_host(spec)
    assert len(base.targets) == len(base.target_spans) == 7
    assert len(base.covers) == 7
    assert base.space.rank == 7 * (2 + (3 - 1) * 1)
    for target, t_span in zip(base.targets, base.target_spans):
        assert apply(base.projection, t_span) == target


# -- equalizer ----------------------------------------------------------------


def equalizer_oracle(pi, w):
    """All concatenated w-tuples of domain points with equal projection."""
    f = pi.field
    dom = list(itertools.product(range(f.order), repeat=pi.domain_len))
    groups = {}
    for p in dom:
        groups.setdefault(apply(pi, p), []).append(p)
    pts = set()
    for grp in groups.values():
        for tup in itertools.product(grp, repeat=w):
            pts.add(tuple(x for part in tup for x in part))
    return pts


def test_equalizer_word_one_is_identity(two_cover_base):
    X = equalizer_subspace(two_cover_base.projection, 1)
    assert X == two_cover_base.space


@pytest.mark.parametrize("w", [2, 3])
def test_equalizer_matches_oracle(w):
    # rank-3 block spaces: 8 and 27 points in vector mode, 4 and 9 in
    # affine mode
    for spec in (vector_spec(1), section_spec(3, VECTOR, 1, 2),
                 affine_spec(1), section_spec(3, AFFINE, 1, 2)):
        base = build_base_host(spec)
        X = equalizer_subspace(base.projection, w)
        assert set(map(tuple, X.points())) == equalizer_oracle(base.projection, w)


def test_equalizer_affine_matches_oracle():
    base = build_base_host(affine_spec(1))
    X = equalizer_subspace(base.projection, 2)
    assert set(map(tuple, X.points())) == equalizer_oracle(base.projection, 2)


def test_equalizer_rank_law_samples():
    import random
    rng = random.Random(606)
    f = make_field(2)
    for _ in range(10):
        dom = rng.randint(1, 3)
        cod = rng.randint(1, 2)
        rows = tuple(bytes(rng.randrange(2) for _ in range(dom))
                     for _ in range(cod))
        pi = LinearMap(VECTOR, f, dom, cod, space.transpose(rows, dom))
        for w in (1, 2, 3):
            X = equalizer_subspace(pi, w)
            r_im = image_space(pi).rank
            assert X.rank == w * dom - (w - 1) * r_im


def blocks_share_one_value(pi, point, w):
    """Reference: project each block with `apply` and compare."""
    d = pi.domain_len
    values = {apply(pi, point[i * d:(i + 1) * d]) for i in range(w)}
    return len(values) == 1


@pytest.mark.parametrize("mode", [VECTOR, AFFINE])
@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("w", [1, 2, 3])
def test_equalizer_rows_match_per_block_reference(mode, q, w):
    # `_blocks_agree`, the build's one equalizer test, answers as each
    # block projected with `apply`, point by point and for a batch of
    # points; in affine mode the translation cancels
    rng = random.Random(f"rows:{mode}:{q}:{w}")
    f = make_field(q)
    seen = set()
    for _ in range(12):
        dom, cod = rng.randint(1, 3), rng.randint(1, 2)
        rows = tuple(bytes(rng.randrange(q) for _ in range(dom))
                     for _ in range(cod))
        shift = bytes(rng.randrange(q) for _ in range(cod))
        pi = LinearMap(mode, f, dom, cod, space.transpose(rows, dom),
                       shift if mode == AFFINE else None)
        on = list(equalizer_subspace(pi, w).points())
        off = [bytes(rng.randrange(q) for _ in range(w * dom))
               for _ in range(8)]
        batch = rng.sample(on, min(8, len(on))) + off
        expect = [blocks_share_one_value(pi, p, w) for p in batch]
        assert [construction._blocks_agree(pi, w, [p]) for p in batch] == expect
        assert construction._blocks_agree(pi, w, batch) == all(expect)
        assert construction._blocks_agree(pi, w, on)
        seen.update(expect)
    assert seen == ({True} if w == 1 else {True, False})


# -- tuple spaces --------------------------------------------------------------


def compatible_tuples(pi, parts):
    """The points of the tuple space through the parts: over each point of
    their common image, the parts' points above it, concatenated.

    Each part's image -> point dict must be a bijection onto one common
    image, which the checks here assert.
    """
    by_image = []
    for part in parts:
        pts = list(part.points())
        inverse = {apply(pi, p): p for p in pts}
        assert len(inverse) == len(pts)  # pi is injective on the part
        by_image.append(inverse)
    assert all(inv.keys() == by_image[0].keys() for inv in by_image)
    return {tuple(c for inv in by_image for c in inv[y]) for y in by_image[0]}


# -- product host ---------------------------------------------------------------


def test_tiny_host_frozen_sizes(tiny_host):
    host = tiny_host
    assert host.space.rank == 3
    assert len(host.members) == 3
    assert len(host.base.covers) == 1
    assert host.space == host.base.space  # word length 1


def test_product_host_member_structure():
    base = build_base_host(vector_spec(2))
    host = build_product_host(base, 2)
    # |H| = sum over fibers of size^w, here 3 fibers of 2 -> 12
    assert len(host.members) == 12
    assert host.space.rank == 2 * 4 - 1 * 2
    seen = set()
    for member, parts in zip(host.members, host.member_parts):
        assert member.key() not in seen
        seen.add(member.key())
        assert set(map(tuple, member.points())) == compatible_tuples(
            base.projection, [base.cover_k_spaces[j] for j in parts])
        assert host.space.contains_subspace(member)
    # fibers partition the cover k-spaces
    flat = sorted(i for fib in host.fibers for i in fib)
    assert flat == list(range(len(base.cover_k_spaces)))


def test_product_host_member_count_cap(monkeypatch):
    # vector |F| = 3, N0 = 3: 7 fibers of 21 covers, so N1 = 4 would build
    # 7 * 21^4 members; the closed form is refused before any is built
    base = build_base_host(vector_spec(3, base_rank=3))
    assert [len(fib) for fib in base_fibers(base)] == [21] * 7

    def built(*args):
        raise AssertionError("a member was built before the size check")

    monkeypatch.setattr(construction, "_write_member", built)
    start = time.perf_counter()
    with pytest.raises(SizeCapError, match="1361367 members"):
        build_product_host(base, 4)
    assert time.perf_counter() - start < 1.0


def base_fibers(base):
    return [sorted({row[j] for row in base.cover_slot})
            for j in range(len(base.base_k_spaces))]


def test_product_host_projection(tiny_host):
    # the common-value map: the base projection on block 0, zero on the rest
    host = tiny_host
    base_pi = host.base.projection
    d, e = base_pi.domain_len, base_pi.codomain_len
    total = host.word_len * d
    pi_t = LinearMap(base_pi.mode, base_pi.field, total, e,
                     base_pi.columns + (bytes(e),) * (total - d),
                     base_pi.translation)
    assert pi_t.domain_len == host.word_len * host.base.space.ambient_len
    for m, parts in zip(host.members, host.member_parts):
        img = apply(base_pi, host.base.cover_k_spaces[parts[0]])
        assert apply(pi_t, m) == img


def test_cover_slot_table(tiny_host):
    host = tiny_host
    base = host.base
    for ci, row in enumerate(base.cover_slot):
        for j, gi in enumerate(row):
            g = base.cover_k_spaces[gi]
            assert base.covers[ci].contains_subspace(g)
            assert apply(base.projection, g) == base.base_k_spaces[j]


def q3_vector_spec(nf, base_rank):
    """q=3 vector spec: n=2, k=1, first nf of the four rank-1 members."""
    f = make_field(3)
    amb = full_space(f, VECTOR, 2)
    fam = ConfigFamily(amb, tuple(enumerate_subspaces(amb, 1)[:nf]))
    return HostSpec(3, VECTOR, 1, 2, 1, fam, base_rank, 1)


def reference_cover_pass(base):
    """cover_k_spaces and cover_slot by enumerating each cover's k-spaces
    and projecting and keying each one: the pass the templates replaced."""
    k = base.spec.colored_rank
    slot_index = {s.key(): j for j, s in enumerate(base.base_k_spaces)}
    seen, slot_keys = {}, []
    for cover in base.covers:
        row = [None] * len(base.base_k_spaces)
        for s in enumerate_subspaces(cover, k):
            img = apply(base.projection, s)
            assert img.rank == s.rank
            row[slot_index[img.key()]] = s.key()
            seen.setdefault(s.key(), s)
        assert None not in row
        slot_keys.append(row)
    order = sorted(seen)
    g_index = {key: i for i, key in enumerate(order)}
    return (tuple(seen[key] for key in order),
            tuple(tuple(g_index[key] for key in row) for row in slot_keys))


# N0 > n throughout: several targets, and covers with complement slots
ORACLE_SPECS = {
    "vector": lambda: vector_spec(2, base_rank=3),
    "affine": lambda: affine_spec(2, base_rank=3),
    "vector_N0_4": lambda: vector_spec(2, base_rank=4),
    "affine_N0_4": lambda: affine_spec(1, base_rank=4),
    "q3_vector": lambda: q3_vector_spec(1, base_rank=3),
}


@pytest.mark.parametrize("make_spec", list(ORACLE_SPECS.values()),
                         ids=list(ORACLE_SPECS))
def test_fibers_and_cover_slot_oracle(make_spec):
    host = build_product_host(build_base_host(make_spec()), 1)
    base = host.base
    pi = base.projection
    g = base.cover_k_spaces
    assert (g, base.cover_slot) == reference_cover_pass(base)
    images = [apply(pi, s) for s in g]
    assert len(host.fibers) == len(base.base_k_spaces)
    for j, b in enumerate(base.base_k_spaces):
        assert set(host.fibers[j]) == {i for i, img in enumerate(images)
                                       if img == b}
        assert list(host.fibers[j]) == sorted(host.fibers[j])
    assert len(base.cover_slot) == len(base.covers)
    for ci, cover in enumerate(base.covers):
        inside = [i for i, s in enumerate(g) if cover.contains_subspace(s)]
        for j, b in enumerate(base.base_k_spaces):
            over = {i for i in inside if images[i] == b}
            assert over == {base.cover_slot[ci][j]}


@pytest.mark.parametrize("make_spec", list(ORACLE_SPECS.values()),
                         ids=list(ORACLE_SPECS))
def test_cover_pass_enumerates_no_cover(make_spec, monkeypatch):
    # the covers' k-spaces come from templates of the base space's, so
    # only the base space is ever enumerated
    spec = make_spec()
    base_len = full_space(spec.field, spec.mode, spec.base_rank).ambient_len
    real = construction.enumerate_subspaces
    calls = []

    def base_only(ambient, k, *args, **kwargs):
        if ambient.ambient_len != base_len:
            raise AssertionError("enumerated the k-spaces of a cover")
        calls.append(k)
        return real(ambient, k, *args, **kwargs)

    monkeypatch.setattr(construction, "enumerate_subspaces", base_only)
    base = build_base_host(spec)
    assert sorted(calls) == sorted([spec.colored_rank, spec.target_rank])
    assert len(base.cover_k_spaces) == len(set(base.cover_k_spaces))


def reference_base_cover_pass(base):
    """sections, cover_k_spaces, cover_slot and cover_k_frames as the cover
    pass built them with `span` per cover k-space and sorted by
    `Subspace.key`, the projection applied point by point."""
    f, mode, pi = base.field, base.mode, base.projection
    where = {p: i for i, p in enumerate(base.base_space.points())}
    basis_at = [[where[p] for p in s.basis_points()] for s in base.base_k_spaces]
    frames, sections, slot_rows = {}, [], []
    for ci, cover in enumerate(base.covers):
        pts = list(cover.points())
        at = [where[apply(pi, p)] for p in pts]
        section = tuple(p for _, p in sorted(zip(at, pts)))
        over = dict(zip(pts, at))
        row = []
        for basis_pos in basis_at:
            s = span(f, mode, [section[i] for i in basis_pos], pi.domain_len)
            frames.setdefault(s, (ci, tuple(over[p] for p in s.basis_points())))
            row.append(s)
        sections.append(section)
        slot_rows.append(row)
    cover_k = sorted(frames, key=lambda s: s.key())
    g_index = {s: i for i, s in enumerate(cover_k)}
    return (tuple(sections), tuple(cover_k),
            tuple(tuple(map(g_index.__getitem__, row)) for row in slot_rows),
            tuple(map(frames.__getitem__, cover_k)))


# (mode, q, k, N0) with n = k + 1: q in {2, 3, 4, 11}, both modes, k in
# {1, 2}, N0 = n, and N0 = n + 1 where q^k <= 9; past that one build
# holds tens of thousands of cover k-spaces
BASE_ORACLE_CASES = [(mode, q, k, k + 1 + up) for mode in (VECTOR, AFFINE)
                     for q in (2, 3, 4, 11) for k in (1, 2) for up in (0, 1)
                     if not up or q ** k <= 9]


@pytest.mark.parametrize("case", BASE_ORACLE_CASES,
                         ids=["{}_q{}_k{}_N0_{}".format(*c)
                              for c in BASE_ORACLE_CASES])
def test_cover_pass_matches_span_and_key_reference(case):
    mode, q, k, base_rank = case
    base = build_base_host(section_spec(q, mode, 2, base_rank, k, k + 1))
    assert len(base.covers) > 1
    assert (base.sections, base.cover_k_spaces, base.cover_slot,
            base.cover_k_frames) == reference_base_cover_pass(base)


# (q, mode, first and last + 1 of F among the rank-2 space's lines, N0, N1)
# -> the `construct` bundle digest tests/test_cli.py pins for that spec
GATE_BUNDLES = {
    (2, VECTOR, 0, 3, 3, 1): "af99e9b2f685ad261cb07fa1178ade14f1af9ce18ec3598729183f35a90fa371",
    (11, VECTOR, 2, 4, 2, 2): "0099323f9ecf1ff3478cf33c25844067d8a1cd626aecb27d959cc7f11a1e9fa3",
}


@pytest.mark.parametrize("case", list(GATE_BUNDLES),
                         ids=["q{}_{}_F{}_{}_N0_{}_N1_{}".format(*c)
                              for c in GATE_BUNDLES])
def test_host_build_formats_no_key_and_spans_no_cover_k_space(case,
                                                              monkeypatch):
    # the build reads the keys the keyed walk of `enumerate_subspaces`
    # presets on the base space's subspaces, and formats none; it spans
    # each member of F pulled back, each target's slots and each cover's
    # complement slots, and writes the cover k-spaces from their section
    # points without `span`
    q, mode, lo, hi, base_rank, word_len = case
    amb = full_space(make_field(q), mode, 2)
    fam = ConfigFamily(amb, tuple(enumerate_subspaces(amb, 1)[lo:hi]))
    spec = HostSpec(q, mode, 1, 2, 2, fam, base_rank, word_len)

    def preset_only(s):
        if s._key is None:
            raise AssertionError("formatted a key")
        return s._key

    real, spans = construction.span, []

    def counted(*args, **kwargs):
        spans.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(space.Subspace, "key", preset_only)
    monkeypatch.setattr(construction, "span", counted)
    base = build_base_host(spec)
    assert len(spans) <= (len(fam.members) + len(base.targets)
                          + len(base.covers) + 2)
    assert len(base.cover_k_spaces) > len(base.targets) + len(base.covers)
    text = "".join(construction.bundle_text(build_product_host(base, word_len)))
    assert hashlib.sha256(text.encode()).hexdigest() == GATE_BUNDLES[case]


def test_cover_section_cap_admits_the_base_rank_5_host():
    # vector q = 2, n = 2, k = 1, F = the plane's three lines, N0 = 5:
    # 155 targets give 465 covers of 32 section points each, 14,880 under
    # the cap; the 109 MB bundle is hashed piece by piece
    amb = full_space(make_field(2), VECTOR, 2)
    fam = ConfigFamily(amb, tuple(enumerate_subspaces(amb, 1)))
    host = build_product_host(build_base_host(
        HostSpec(2, VECTOR, 1, 2, 2, fam, 5, 1)), 1)
    digest = hashlib.sha256()
    for piece in construction.bundle_text(host):
        digest.update(piece.encode())
    assert digest.hexdigest() == ("d8d9f6cd5e8ea2b01f8f70eb3d9e737e"
                                  "10823a3b7fc033c21949bbc39bdc3641")


def test_duplicate_member_is_caught(monkeypatch):
    # at word length 1 a member is its cover k-space; at 2 it is written
    # from the sections
    base = build_base_host(vector_spec(2))
    real = construction._write_member
    for word_len, count in [(1, 6), (2, 12)]:
        built = []

        def second_repeats_first(*args):
            built.append(real(*args))
            return built[0]

        monkeypatch.setattr(construction, "_write_member", second_repeats_first)
        with pytest.raises(construction.ConstructionCheckError,
                           match="member tuples collided"):
            build_product_host(base, word_len)
        assert len(built) == count


# -- members written from cover sections ----------------------------------------


def section_spec(q, mode, nf, base_rank, k=1, n=2):
    """Spec over GF(q) with the first nf rank-k members of the rank-n space."""
    f = make_field(q)
    amb = full_space(f, mode, n)
    fam = ConfigFamily(amb, tuple(enumerate_subspaces(amb, k)[:nf]))
    return HostSpec(q, mode, k, n, 1, fam, base_rank, 1)


def reference_pi_images(base):
    """The images of the block space's basis points, slot by slot: each
    target's basis, then the complement basis of each member of F carried
    into the target by `linear_extension` from F's ambient basis."""
    spec = base.spec
    cfg = BasisSet(spec.mode, spec.field, spec.family.ambient.basis_points())
    out = []
    for target in base.targets:
        out.extend(target.basis_points())
        if spec.base_rank > spec.colored_rank:
            embed = linear_extension(cfg, target.basis_points(),
                                     codomain_len=target.ambient_len)
            for m in spec.family.members:
                out.extend(complement(apply(embed, m),
                                      base.base_space).basis_points())
    return out


# (mode, q, N0, k, n); at k = 1 an affine member is a point, so k = 2
# gives members with rows beside the basepoint in both modes
SECTION_CASES = [(mode, q, n0, 1, 2) for mode in (VECTOR, AFFINE)
                 for q in (2, 3, 4) for n0 in (2, 3)]
SECTION_CASES += [(mode, q, 3, 2, 3) for mode in (VECTOR, AFFINE) for q in (2, 3)]


@pytest.mark.parametrize("case", SECTION_CASES,
                         ids=["{}_q{}_N0_{}_k{}_n{}".format(*c)
                              for c in SECTION_CASES])
def test_members_from_sections_oracle(case):
    mode, q, base_rank, k, n = case
    base = build_base_host(section_spec(q, mode, 2 if q < 4 else 1, base_rank,
                                        k, n))
    pi = base.projection
    assert pi == linear_extension(BasisSet(mode, base.field,
                                           base.space.basis_points()),
                                  reference_pi_images(base),
                                  codomain_len=pi.codomain_len)
    base_points = list(base.base_space.points())
    assert len(base.sections) == len(base.covers)
    for cover, section in zip(base.covers, base.sections):
        assert [apply(pi, p) for p in section] == base_points
        assert all(cover.is_member(p) for p in section)
    for word_len in (1, 2):
        host = build_product_host(base, word_len)
        for member, parts in zip(host.members, host.member_parts):
            assert set(map(tuple, member.points())) == compatible_tuples(
                pi, [base.cover_k_spaces[g] for g in parts])


@pytest.mark.parametrize("make_spec", [vector_spec, affine_spec])
def test_section_must_be_a_bijection(make_spec, monkeypatch):
    # a "complement" of the right rank inside the member itself: the
    # complement slots then project into the member, so every cover has
    # several points over some base points and none over others
    monkeypatch.setattr(construction, "complement", lambda inner, outer: inner)
    with pytest.raises(construction.ConstructionCheckError,
                       match="projection is not a bijection"):
        build_base_host(make_spec(2))


@pytest.mark.parametrize("make_spec", list(ORACLE_SPECS.values())
                         + [lambda: proper_ambient_spec(3, AFFINE, 3)],
                         ids=list(ORACLE_SPECS) + ["proper_affine"])
def test_base_host_solves_one_linear_extension(make_spec, monkeypatch):
    # no map is solved: F is pulled back to the coordinate space by
    # reading its members' basis points on the pivot columns of F's
    # ambient, and targets and slots take it by coordinate maps of their
    # basis points
    real, calls = space.linear_extension, []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for module in (space, arrow):
        monkeypatch.setattr(module, "linear_extension", counted)
    base = build_base_host(make_spec())
    assert len(base.targets) > 1 and len(calls) == 0
    assert not hasattr(construction, "linear_extension")


@pytest.mark.parametrize("make_spec", [vector_spec, affine_spec])
def test_corrupted_section_leaves_the_equalizer(make_spec):
    base = build_base_host(make_spec(2))
    build_product_host(base, 2)
    # cover 0 holds its k-spaces first, so members read their later
    # blocks from its section; swap its points over two base points
    section = list(base.sections[0])
    section[-1], section[-2] = section[-2], section[-1]
    bad = base._replace(sections=(tuple(section),) + base.sections[1:])
    with pytest.raises(construction.ConstructionCheckError,
                       match="a member leaves the equalizer"):
        build_product_host(bad, 2)


def off_its_fiber(base, member):
    """The span of member's basis points with the first one's second block
    moved along a column the projection keeps: that block then lies over
    another base point than the first block does."""
    f, pi = base.field, base.projection
    d = pi.domain_len
    j = next(j for j in range(d) if any(pi.columns[j]))
    pts = list(member.basis_points())
    p = pts[0]
    unit = bytes(j) + b"\1" + bytes(d - j - 1)
    pts[0] = p[:d] + space.vec_add(f, p[d:2 * d], unit) + p[2 * d:]
    return span(f, member.mode, pts, member.ambient_len)


@pytest.mark.parametrize("word_len", [2, 3])
@pytest.mark.parametrize("make_spec", [vector_spec, affine_spec],
                         ids=["vector", "affine"])
def test_member_off_its_fiber_leaves_the_equalizer(make_spec, word_len,
                                                   monkeypatch):
    # the check projects each distinct block once; one moved block of
    # the last member written must still be seen
    base = build_base_host(make_spec(2))
    last = build_product_host(base, word_len).member_parts[-1]
    real = construction._write_member

    def moved(base, parts):
        member = real(base, parts)
        return off_its_fiber(base, member) if parts == last else member

    monkeypatch.setattr(construction, "_write_member", moved)
    with pytest.raises(construction.ConstructionCheckError,
                       match="^a member leaves the equalizer$"):
        build_product_host(base, word_len)


def test_equalizer_is_checked_against_its_definition(monkeypatch):
    real = construction.equalizer_subspace

    def unit_rows(projection, word_len):
        # the right rank, but spanned by unit vectors of the first blocks
        x = real(projection, word_len)
        rows = [tuple(1 if j == i else 0 for j in range(x.ambient_len))
                for i in range(x.rank)]
        return span(x.field, x.mode, rows, x.ambient_len)

    base = build_base_host(vector_spec(2))
    monkeypatch.setattr(construction, "equalizer_subspace", unit_rows)
    with pytest.raises(construction.ConstructionCheckError,
                       match="the equalizer leaves its definition"):
        build_product_host(base, 2)


def test_product_host_runs_no_row_reduction_per_member(monkeypatch):
    # the projection's image is the only row reduction at word length 1,
    # where X is the domain's full space; above it, X's kernel basis and
    # span add two.  None depends on the member count
    rref_calls = []
    real_rref = space.rref

    def counted(*args):
        rref_calls.append(1)
        return real_rref(*args)

    monkeypatch.setattr(space, "rref", counted)
    bases = [build_base_host(vector_spec(2)), build_base_host(affine_spec(2)),
             build_base_host(vector_spec(3, base_rank=3))]
    for base in bases:
        for word_len in (1, 2):
            rref_calls.clear()
            host = build_product_host(base, word_len)
            assert len(host.members) > 3
            assert len(rref_calls) == (1 if word_len == 1 else 3)
    assert len(host.members) == 3087


# -- color patterns ---------------------------------------------------------------


def test_color_pattern_constant(tiny_host):
    host = tiny_host
    coloring = {m.key(): 5 for m in host.members}
    assert color_pattern(host, (0,), coloring) == (5, 5, 5)


def test_color_pattern_word_validation(tiny_host):
    coloring = {m.key(): 0 for m in tiny_host.members}
    with pytest.raises(ValueError):
        color_pattern(tiny_host, (0, 0), coloring)
    with pytest.raises(ValueError):
        color_pattern(tiny_host, (9,), coloring)
    with pytest.raises(KeyError):
        color_pattern(tiny_host, (0,), {})


def test_color_pattern_tracks_members():
    base = build_base_host(vector_spec(2))
    host = build_product_host(base, 1)
    coloring = {m.key(): 0 for m in host.members}
    # flipping one member's color must flip exactly one slot of the
    # patterns of the words whose covers contain it
    victim = host.members[0]
    coloring[victim.key()] = 1
    flips = 0
    for word in itertools.product(range(len(base.covers)), repeat=1):
        pat = color_pattern(host, word, coloring)
        flips += sum(1 for c in pat if c == 1)
    assert flips == 1


# -- line embeddings -----------------------------------------------------------


def test_line_embedding_flatten_section_inverse():
    base = build_base_host(vector_spec(2))
    host = build_product_host(base, 2)
    line = next(iter_lines(host))
    emb = line_embedding(host, line)
    f = base.field
    ident = identity_map(f, VECTOR, base.space.ambient_len)
    assert compose(emb.flatten, emb.section) == ident
    copy_pts = {apply(emb.section, p) for p in base.space.points()}
    assert copy_pts == set(emb.space.points())
    for p in copy_pts:
        assert host.space.is_member(p)


def iter_lines(host):
    from qramsey import enumerate_lines
    return enumerate_lines(host.word_len, len(host.base.covers))


def test_line_embedding_word_spaces():
    base = build_base_host(vector_spec(2))
    host = build_product_host(base, 2)
    for line in iter_lines(host):
        emb = line_embedding(host, line)
        t = len(base.covers)
        assert len(emb.word_spaces) == t
        for s in range(t):
            ws = emb.word_spaces[s]
            assert emb.space.contains_subspace(ws)
            assert apply(emb.flatten, ws) == base.covers[s]
        host_keys = {m.key() for m in host.members}
        for hm in emb.host_members:
            assert hm.key() in host_keys
        # members through the copy flatten onto the cover k-spaces
        assert len(emb.host_members) == len(base.cover_k_spaces)
        flat = sorted(apply(emb.flatten, hm).key() for hm in emb.host_members)
        assert flat == [g.key() for g in base.cover_k_spaces]


@pytest.mark.parametrize("make_spec", [vector_spec, affine_spec])
def test_word_spaces_match_compatible_tuples(make_spec):
    base = build_base_host(make_spec(2))
    for word_len in (1, 2):
        host = build_product_host(base, word_len)
        for line in iter_lines(host):
            emb = line_embedding(host, line)
            for s, ws in enumerate(emb.word_spaces):
                covers = [base.covers[c] for c in line.word(s)]
                assert set(map(tuple, ws.points())) == compatible_tuples(
                    base.projection, covers)


def test_line_embedding_trivial_word():
    host = build_product_host(build_base_host(vector_spec(1)), 1)
    emb = line_embedding(host, Line(1, (0,), ()))
    assert emb.space == host.space


@pytest.mark.parametrize("make_spec", [vector_spec, affine_spec])
def test_line_embedding_checks_format_no_key(make_spec, monkeypatch):
    # checks (a)-(c) compare canonical subspaces by value
    host = build_product_host(build_base_host(make_spec(2)), 2)
    lines = list(iter_lines(host))
    expected = [line_embedding(host, line) for line in lines]

    def no_key(self):
        raise AssertionError("line_embedding formatted a key")

    monkeypatch.setattr(space.Subspace, "key", no_key)
    assert [line_embedding(host, line) for line in lines] == expected


@pytest.mark.parametrize("word_len", [1, 2])
@pytest.mark.parametrize("make_spec", [vector_spec, affine_spec])
def test_line_embedding_applies_no_flatten(make_spec, word_len, monkeypatch):
    # flatten o section = id and the block test imply every fact that
    # flatten's images would show, so no check computes one
    host = build_product_host(build_base_host(make_spec(2)), word_len)
    maps = []
    real = construction.apply

    def recording(fn, x):
        maps.append(fn)
        return real(fn, x)

    monkeypatch.setattr(construction, "apply", recording)
    for line in iter_lines(host):
        maps.clear()
        emb = line_embedding(host, line)
        assert maps and all(fn is not emb.flatten for fn in maps)


@pytest.mark.parametrize("case", ["extra", "missing", "replaced"])
def test_check_c_fires_when_the_members_inside_the_copy_differ(case):
    host = build_product_host(build_base_host(vector_spec(2)), 2)
    line = next(iter_lines(host))
    emb = line_embedding(host, line)
    # a point of the copy off every cover k-space's section image
    covered = set(host.base.cover_k_spaces)
    extra = next(apply(emb.section, s)
                 for s in enumerate_subspaces(host.base.space, 1)
                 if s not in covered)
    kept = tuple(m for m in host.members if m != emb.host_members[0])
    members = {"extra": host.members + (extra,), "missing": kept,
               "replaced": kept + (extra,)}[case]
    with pytest.raises(construction.ConstructionCheckError,
                       match="copy members do not biject"):
        line_embedding(host._replace(members=members), line)


# -- extraction -----------------------------------------------------------------


def test_extract_tiny_success(tiny_host):
    host = tiny_host
    coloring = {m.key(): 0 for m in host.members}
    out = extract_monochromatic_copy(host, coloring)
    assert isinstance(out, MonochromaticCopy)
    assert out.color == 0 and len(out.members) == 1
    assert out.space.rank == 2
    data = out.to_json()
    assert data["status"] == "success"


def test_extract_respects_colors(tiny_host):
    host = tiny_host
    coloring = {m.key(): 3 for m in host.members}
    with pytest.raises(ValueError):
        extract_monochromatic_copy(host, coloring)  # r=1 allows color 0 only
    with pytest.raises(KeyError):
        extract_monochromatic_copy(host, {})


def test_extract_two_color_lucky_coloring():
    # no guarantee at this word length, but a cooperative coloring works
    spec = vector_spec(2, word_len=1, num_colors=2)
    host = build_product_host(build_base_host(spec), 1)
    coloring = {m.key(): 1 for m in host.members}
    out = extract_monochromatic_copy(host, coloring)
    assert isinstance(out, MonochromaticCopy)
    assert out.color == 1
    assert len(out.members) == 2


def test_extract_adversarial_line_diagnostic():
    # two covers, word length 1: color the covers apart and the single
    # moving line sees two different patterns
    spec = vector_spec(2, word_len=1, num_colors=2)
    base = build_base_host(spec)
    host = build_product_host(base, 1)
    coloring = {}
    for m, parts in zip(host.members, host.member_parts):
        cover_of = next(ci for ci, row in enumerate(base.cover_slot)
                        if parts[0] in row)
        coloring[m.key()] = 0 if cover_of == 0 else 1
    out = extract_monochromatic_copy(host, coloring)
    assert isinstance(out, ExtractionFailure)
    assert out.step == "line_search"
    assert out.to_json()["status"] == "diagnostic"


def test_extract_adversarial_subspace_diagnostic():
    # one cover keeps the line trivially monochromatic, but a rainbow
    # pattern leaves no monochromatic target inside the base space
    spec = vector_spec(1, word_len=1, num_colors=3)
    host = build_product_host(build_base_host(spec), 1)
    coloring = {m.key(): i for i, m in enumerate(host.members)}
    out = extract_monochromatic_copy(host, coloring)
    assert isinstance(out, ExtractionFailure)
    assert out.step == "subspace_search"
    assert out.pattern is not None and len(set(out.pattern)) == 3


def test_extract_empty_family():
    f = make_field(2)
    amb = full_space(f, VECTOR, 2)
    spec = HostSpec(2, VECTOR, 1, 2, 2, ConfigFamily(amb, ()), 2, 1)
    host = build_product_host(build_base_host(spec), 1)
    assert host.members == ()
    out = extract_monochromatic_copy(host, {})
    assert isinstance(out, MonochromaticCopy)
    assert out.members == () and out.space.rank == 2


@pytest.mark.parametrize("make_spec", [vector_spec, affine_spec],
                         ids=["vector", "affine"])
def test_extract_empty_family_base_rank_above_target_rank(make_spec):
    # N0 = 3 > n = 2: X has far more rank-2 subspaces than the size cap
    # allows listing, but any one of them is a vacuous copy
    spec = make_spec(0, base_rank=3, num_colors=2)
    host = build_product_host(build_base_host(spec), 1)
    assert host.members == () and host.space.rank > 2
    out = extract_monochromatic_copy(host, {})
    assert isinstance(out, MonochromaticCopy) and out.members == ()
    assert out.space.rank == spec.target_rank
    assert host.space.contains_subspace(out.space)


def test_extract_matches_verify_on_grid():
    # every r=1 grid host: extraction succeeds and the copy re-verifies;
    # at N1 <= 2 each host has at most 10,795 rank-2 subspaces, within the cap
    for nf in (1, 2, 3):
        for w in (1, 2):
            spec = vector_spec(nf)
            host = build_product_host(build_base_host(spec), w)
            coloring = {m.key(): 0 for m in host.members}
            out = extract_monochromatic_copy(host, coloring)
            assert isinstance(out, MonochromaticCopy)
            got = ConfigFamily(out.space, out.members)
            assert family_isomorphic(spec.family, got) is not None
            res = induced_host_verify(host.space, host.members, spec.family, 1)
            assert res.holds


@pytest.mark.parametrize("spec", [
    vector_spec(3, num_colors=2, base_rank=3),
    affine_spec(2, num_colors=2, base_rank=3),
], ids=["vector", "affine"])
def test_extract_base_rank_above_target_rank(spec):
    # the line embedding's copy has block rank (56 in vector mode), far
    # beyond any enumeration; extraction must still finish and verify
    host = build_product_host(build_base_host(spec), 1)
    host_keys = {m.key() for m in host.members}
    rng = random.Random(7)
    for coloring in ({m.key(): 0 for m in host.members},
                     {m.key(): rng.randrange(2) for m in host.members}):
        out = extract_monochromatic_copy(host, coloring)
        if isinstance(out, ExtractionFailure):
            assert len(set(coloring.values())) == 2
            assert out.step in ("line_search", "subspace_search")
            continue
        assert isinstance(out, MonochromaticCopy)
        assert {m.key() for m in out.members} <= host_keys
        assert {coloring[m.key()] for m in out.members} == {out.color}
        inside = {s.key() for s in enumerate_subspaces(out.space, 1)
                  if s.key() in host_keys}
        assert inside == {m.key() for m in out.members}
        assert family_isomorphic(spec.family,
                                 ConfigFamily(out.space, out.members))


def pullback_coloring(host, base_colors):
    """Each member colored as the base k-space under it."""
    under = {g: j for j, fiber in enumerate(host.fibers) for g in fiber}
    return {m.key(): base_colors[under[parts[0]]]
            for m, parts in zip(host.members, host.member_parts)}


@pytest.mark.parametrize("base_rank", [2, 3])
def test_extract_above_the_target_rank_follows_the_base(base_rank):
    # vector |F| = 3 (a plane's three lines), r = 2, N1 = 1.  Under a
    # pullback coloring every cover shows the base coloring, so extraction
    # succeeds exactly when the base holds a monochromatic target: always
    # at N0 = 3, where every 2-coloring of the Fano plane's points leaves
    # a monochromatic line, and at N0 = 2 only for a constant coloring
    spec = vector_spec(3, num_colors=2, base_rank=base_rank)
    host = build_product_host(build_base_host(spec), 1)
    base = host.base
    nk = len(base.base_k_spaces)
    rng = random.Random(base_rank)
    colorings = [[0] * nk, [j % 2 for j in range(nk)]]
    colorings += [[rng.randrange(2) for _ in range(nk)] for _ in range(3)]
    for colors in colorings:
        table = {s.key(): c for s, c in zip(base.base_k_spaces, colors)}
        found = find_monochromatic_subspace(base.base_space, 1, 2, table)
        coloring = pullback_coloring(host, colors)
        out = extract_monochromatic_copy(host, coloring)
        assert (found is not None) == (base_rank == 3 or len(set(colors)) == 1)
        if found is None:
            assert isinstance(out, ExtractionFailure)
            assert out.step == "subspace_search" and out.pattern == tuple(colors)
            continue
        assert isinstance(out, MonochromaticCopy)
        assert (out.target, out.color) == found
        assert {coloring[m.key()] for m in out.members} == {out.color}
        assert family_isomorphic(spec.family, ConfigFamily(out.space, out.members))
    # colored by the cover holding them, the covers show two patterns, and
    # a word of length 1 has no monochromatic line
    by_cover = {m.key(): base.cover_k_frames[parts[0]][0] % 2
                for m, parts in zip(host.members, host.member_parts)}
    out = extract_monochromatic_copy(host, by_cover)
    assert isinstance(out, ExtractionFailure) and out.step == "line_search"


@pytest.mark.parametrize("base_rank", [2, 3])
@pytest.mark.parametrize("make_spec", [vector_spec, affine_spec],
                         ids=["vector", "affine"])
def test_extract_tests_no_member_against_the_copy(make_spec, base_rank,
                                                  monkeypatch):
    # regression gate without a timer: the copy's members come from the
    # canonical-form index of H, so the copy never receives contains_subspace
    host = build_product_host(build_base_host(
        make_spec(2, num_colors=2, base_rank=base_rank)), 1)
    coloring = {m.key(): 0 for m in host.members}
    want = extract_monochromatic_copy(host, coloring)
    assert isinstance(want, MonochromaticCopy) and len(want.members) == 2
    plain = space.Subspace.contains_subspace

    def guarded(self, other):
        if self.key() == want.space.key():
            raise AssertionError("a member was tested against the copy")
        return plain(self, other)

    monkeypatch.setattr(space.Subspace, "contains_subspace", guarded)
    assert extract_monochromatic_copy(host, coloring) == want


@pytest.mark.parametrize("make_spec", [vector_spec, affine_spec],
                         ids=["vector", "affine"])
def test_extract_rejects_a_copy_that_is_not_induced(make_spec, monkeypatch):
    # add to H a k-space of the extracted copy that is not one of its
    # members: the copy then meets the family outside F's image.  The
    # line embedding, which would see the extra member first, is taken
    # on the host without it.
    host = build_product_host(build_base_host(make_spec(1, num_colors=2)), 1)
    coloring = {m.key(): 0 for m in host.members}
    out = extract_monochromatic_copy(host, coloring)
    assert isinstance(out, MonochromaticCopy)
    extra = next(s for s in enumerate_subspaces(out.space, 1)
                 if s not in out.members)
    assert extra not in host.members
    coloring[extra.key()] = 0
    bad = host._replace(members=host.members + (extra,))
    real = construction.line_embedding
    monkeypatch.setattr(construction, "line_embedding",
                        lambda _, line: real(host, line))
    with pytest.raises(construction.ConstructionCheckError,
                       match="not an induced copy"):
        extract_monochromatic_copy(bad, coloring)


def test_extract_rejects_a_target_that_is_not_monochromatic(monkeypatch):
    # color the members over one base k-space of the first target 1 and
    # all others 0; a base search that answers (first target, 0) anyway
    # must be caught on the copy's members
    host = build_product_host(
        build_base_host(vector_spec(2, num_colors=2, base_rank=3)), 1)
    base = host.base
    first = base.targets[0]
    j = next(j for j, s in enumerate(base.base_k_spaces)
             if first.contains_subspace(s))
    coloring = {m.key(): int(parts[0] in host.fibers[j])
                for m, parts in zip(host.members, host.member_parts)}
    out = extract_monochromatic_copy(host, coloring)
    assert isinstance(out, MonochromaticCopy) and out.target != first
    monkeypatch.setattr(construction, "find_monochromatic_subspace",
                        lambda *args: (first, 0))
    with pytest.raises(construction.ConstructionCheckError,
                       match="wrong color"):
        extract_monochromatic_copy(host, coloring)


# -- automatic word length --------------------------------------------------------


def test_auto_word_length_values():
    assert auto_word_length(1, 5, 10) == 1
    assert auto_word_length(7, 1, 10) == 1
    assert auto_word_length(2, 2, 1) == 2  # hj(2, 2) = 2
    start = time.perf_counter()
    assert auto_word_length(2, 2, 3) is None  # HJ(2, 8) = 8 > 3
    assert time.perf_counter() - start < 1.0
    assert auto_word_length(2, 2, 1, budget=Budget(max_nodes=1)) is None


def test_auto_word_length_size_cap():
    # 1000 covers: the length-2 word list would hold 10^6 words
    with pytest.raises(SizeCapError):
        auto_word_length(1000, 2, 1)


def test_auto_word_length_huge_pattern_alphabet(monkeypatch):
    # 2 colors on 40 base k-spaces make 2^40 pattern colors; the search
    # must get at most one color per word instead of a 2^40-bit mask
    real = hales_jewett.find_proper_coloring

    def guarded(item_count, num_colors, families, **kwargs):
        assert num_colors <= item_count
        return real(item_count, num_colors, families, **kwargs)

    monkeypatch.setattr(hales_jewett, "find_proper_coloring", guarded)
    start = time.perf_counter()
    assert auto_word_length(2, 2, 40) is None  # no line forced up to length 3
    assert time.perf_counter() - start < 1.0


# -- bundle serialization -----------------------------------------------------------


def test_bundle_roundtrip(tiny_host):
    host = tiny_host
    data = host_to_json(host)
    rt = host_from_json(data)
    assert rt.space == host.space
    assert rt.word_len == host.word_len
    assert [m.key() for m in rt.members] == [m.key() for m in host.members]
    assert rt.base.projection == host.base.projection
    assert rt.member_parts == host.member_parts
    assert rt.base.cover_slot == host.base.cover_slot
    assert json.dumps(host_to_json(rt)) == json.dumps(data)


def test_bundle_keys(tiny_host):
    data = host_to_json(tiny_host)
    assert list(data) == ["spec", "X", "H", "fibers"]
    assert data["spec"]["N1"] == 1


@pytest.mark.parametrize("path", [
    ("H", 0, "direction", 0, -1),
    ("X", "direction", 0, -1),
    ("fibers", 0, 0),
], ids=["H", "X", "fibers"])
def test_bundle_rejects_tampered_entry(tiny_host, path):
    data = json.loads(json.dumps(host_to_json(tiny_host)))
    host_from_json(data)
    node = data
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] ^= 1
    with pytest.raises(ValueError):
        host_from_json(data)


def test_bundle_requires_resolved_word_len(tiny_host):
    data = host_to_json(tiny_host)
    data["spec"]["N1"] = "auto"
    with pytest.raises(ValueError):
        host_from_json(data)
