"""Host construction for induced Ramsey families over GF(q).

Given a configuration (a rank-n space with a family of rank-k
subspaces), build the host pair: a base space carrying one private
full-rank cover per (target, family member), a projection collapsing
every cover onto one rank-N0 space, the equalizer of several projection
coordinates, and the family of compatible member tuples.  A separate
extraction step turns any coloring of the family into a monochromatic
induced copy of the configuration, or reports exactly which search (line
or subspace) came up empty.

Every structural claim the construction relies on is re-verified
extensionally at build time; a miss raises ConstructionCheckError and is
a bug, never a tolerable condition.
"""

from __future__ import annotations

import itertools
import json
from collections import namedtuple

from .arrow import (ConfigFamily, copy_orbit, find_monochromatic_subspace,
                    hit_templates, member_lookup)
from .budget import Budget, BudgetExceededError
from .field import Field, make_field
from .hales_jewett import Line, all_words, find_monochromatic_line, hj_number, word_index
from .space import (AFFINE, POINT_CAP, LinearMap, SizeCapError,
                    Subspace, Vec, apply, combination_points, complement,
                    compose, coordinate_map, count_subspaces, count_text,
                    direct_sum, enumerate_subspaces, full_space,
                    guard_subspace_count, identity_map, image_rows,
                    image_space, json_expect, json_field, json_int, json_text,
                    lifted_rows, nullspace_rows, rows_order, rref, span,
                    transpose)


class ConstructionCheckError(RuntimeError):
    """An internal re-verification of the construction failed."""


class HostSpec(namedtuple("HostSpec", "q mode colored_rank target_rank "
                                     "num_colors family base_rank word_len")):
    """Parameters of one host construction.

    base_rank is the rank of the projection target (it should arrow the
    configuration's parameters for the extraction guarantee to hold, but
    any value >= the config rank builds).  word_len is the equalizer
    word length; None means "derive it from a Hales-Jewett search".
    """

    __slots__ = ()

    def __new__(cls, q: int, mode: str, colored_rank: int, target_rank: int,
                num_colors: int, family: ConfigFamily, base_rank: int,
                word_len: int | None = 1):
        make_field(q)
        lo = 1 if mode == AFFINE else 0
        if not lo <= colored_rank <= target_rank:
            raise ValueError("need colored_rank <= target_rank "
                             f"(at least {lo} in {mode} mode)")
        if num_colors < 1:
            raise ValueError("need at least one color")
        amb = family.ambient
        if amb.mode != mode or amb.field.order != q:
            raise ValueError("family mode or field differs from the spec")
        if amb.rank != target_rank:
            raise ValueError("family ambient rank differs from target_rank")
        if family.member_rank not in (None, colored_rank):
            raise ValueError("family member rank differs from colored_rank")
        if base_rank < target_rank:
            raise ValueError("base_rank must be at least target_rank")
        if word_len is not None and word_len < 1:
            raise ValueError("word_len must be at least 1")
        return super().__new__(cls, q, mode, colored_rank, target_rank,
                               num_colors, family, base_rank, word_len)

    @property
    def field(self) -> Field:
        return make_field(self.q)

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "mode": self.mode,
            "k": self.colored_rank,
            "n": self.target_rank,
            "r": self.num_colors,
            "F": self.family.to_json(),
            "N0": self.base_rank,
            "N1": "auto" if self.word_len is None else self.word_len,
        }

    @staticmethod
    def from_json(data: dict) -> "HostSpec":
        json_expect(data, dict, "a host spec")
        n1 = data.get("N1", "auto")

        def get(key):
            return json_field(data, key, "a host spec")

        return HostSpec(
            q=json_int(get("q"), "q"),
            mode=get("mode"),
            colored_rank=json_int(get("k"), "k"),
            target_rank=json_int(get("n"), "n"),
            num_colors=json_int(get("r"), "r"),
            family=ConfigFamily.from_json(get("F")),
            base_rank=json_int(get("N0"), "N0"),
            word_len=None if n1 == "auto" else json_int(n1, "N1"),
        )


class BaseHost(namedtuple("BaseHost", (
        "spec",
        "base_space",      # rank-N0 projection target
        "base_k_spaces",   # its rank-k subspaces, canonical order
        "space",           # the block space carrying all covers
        "targets",         # base rank-n subspaces, canonical order
        "target_spans",    # [target] -> span of the slots holding its copy
        "covers",          # all covers, (target, member) order
        "cover_k_spaces",  # union of the covers' rank-k subspaces
        "projection",      # block space -> base space
        "cover_slot",      # [cover][base k-space] -> cover_k index
        "sections",        # [cover][base point] -> cover point over it
        "cover_k_frames",  # [cover_k] -> (a cover holding it,
                           #   the base point under each basis point)
        ))):
    """The block space with its covers and its projection onto the base."""

    __slots__ = ()

    @property
    def field(self) -> Field:
        return self.spec.field

    @property
    def mode(self) -> str:
        return self.spec.mode


def build_base_host(spec: HostSpec) -> BaseHost:
    """Build the block space, covers, and projection for the spec."""
    f = spec.field
    mode = spec.mode
    k, n, big_n = spec.colored_rank, spec.target_rank, spec.base_rank
    nfam = len(spec.family.members)
    # the cover pass holds one section point per cover and base point;
    # the guards read closed forms, before the base is built
    held = (count_subspaces(big_n, n, f.order, mode) * nfam
            * f.order ** (big_n - (mode == AFFINE)))
    if held > POINT_CAP:
        raise SizeCapError(f"{count_text(held)} cover section points, "
                           f"cap {POINT_CAP}")
    guard_subspace_count(f, mode, big_n, n)
    base = full_space(f, mode, big_n)
    e_amb = base.ambient_len
    targets = enumerate_subspaces(base, n)
    comp_size = big_n - k
    room = full_space(f, mode, len(targets) * (n + comp_size * nfam))
    v_amb = room.ambient_len
    v_basis = room.basis_points()

    # pull F back onto the rank-n coordinate space once: a point of F's
    # canonical ambient has its entries on the ambient's pivot columns as
    # its coordinates, and a member's rows cut to those columns are its
    # pull-back's rows.  The coordinate maps of a target's basis points and
    # of its slots then push each member into the target and into the slots
    amb = spec.family.ambient
    cols = list(amb.pivots())
    members = [Subspace.from_rows(mode, f, len(amb.direction),
                                  tuple(bytes(map(r.__getitem__, cols)) for r in m.rows))
               for m in spec.family.members]
    target_spans: list[Subspace] = []
    parts: list[Subspace] = []    # the slot spans, whose direct sum is the room
    covers: list[Subspace] = []
    pi_images: list[Vec] = []
    cursor = 0
    for target in targets:
        t_basis = target.basis_points()
        slots = v_basis[cursor:cursor + n]
        cursor += n
        pi_images.extend(t_basis)
        t_span = span(f, mode, slots, v_amb)
        target_spans.append(t_span)
        parts.append(t_span)
        push = coordinate_map(f, mode, t_basis, e_amb)
        lift = coordinate_map(f, mode, slots, v_amb)
        for member in members:
            cover = lifted = apply(lift, member)
            if comp_size:
                comp = complement(apply(push, member), base)
                if comp.rank != comp_size:
                    raise ConstructionCheckError("complement has wrong rank")
                comp_slots = v_basis[cursor:cursor + comp_size]
                cursor += comp_size
                pi_images.extend(comp.basis_points())
                comp_span = span(f, mode, comp_slots, v_amb)
                parts.append(comp_span)
                cover = direct_sum([lifted, comp_span])
            if cover.rank != big_n:
                raise ConstructionCheckError("cover has wrong rank")
            covers.append(cover)
    if cursor != len(v_basis):
        raise ConstructionCheckError("block slots do not exhaust the basis")
    projection = coordinate_map(f, mode, pi_images, e_amb)

    # re-verify the structural claims the rest of the pipeline leans on;
    # canonical subspaces are equal exactly when their keys are
    if parts and direct_sum(parts) != room:
        raise ConstructionCheckError("blocks do not sum to the whole space")
    for target, t_span in zip(targets, target_spans):
        if apply(projection, t_span) != target:
            raise ConstructionCheckError("projection misses a target block")

    base_k, cover_k, cover_slot, sections, frames = _cover_pass(base, k, covers,
                                                                projection)
    return BaseHost(spec, base, base_k, room, tuple(targets), tuple(target_spans),
                    tuple(covers), cover_k, projection, cover_slot, sections, frames)


def _cover_pass(base: Subspace, k: int, covers, projection: LinearMap):
    """The base's rank-k subspaces, then the `BaseHost` fields from
    `cover_k_spaces` to `cover_k_frames` in one pass over the covers.

    A cover's section is the projection's inverse on its points, whose
    images, in `points()` order, are the `combination_points` of its
    rows' `image_rows`.  The cover k-space over base k-space j is spanned
    by the section at j's basis points: one `rref` of their `lifted_rows`
    gives its canonical rows, which key it and sort it (`rows_order`),
    and a Subspace is built, and checked, for a new one only.
    """
    f, mode, width = base.field, base.mode, base.ambient_len
    base_k = tuple(enumerate_subspaces(base, k))
    where = {p: i for i, p in enumerate(base.points())}
    basis_at = [[where[p] for p in s.basis_points()] for s in base_k]
    frames: dict[tuple, tuple[Subspace, int, tuple[int, ...]]] = {}
    sections: list[tuple[Vec, ...]] = []
    slot_rows: list[list[tuple]] = []
    for ci, cover in enumerate(covers):
        pts = list(cover.points())
        images = combination_points(f, image_rows(projection, cover.rows), width)
        at = [where[x] for x in images]
        if len(at) != len(where) or len(set(at)) != len(at):
            raise ConstructionCheckError("projection is not a bijection from "
                                         "a cover onto the base space")
        section = tuple(p for _, p in sorted(zip(at, pts)))
        sections.append(section)
        over = dict(zip(pts, at))
        row = []
        for basis_pos in basis_at:
            form = rref(f, lifted_rows(f, mode, [section[i] for i in basis_pos]))[0]
            if form not in frames:
                s = Subspace.from_rows(mode, f, projection.domain_len, form)
                frames[form] = (s, ci, tuple(map(over.__getitem__, s.basis_points())))
            row.append(form)
        slot_rows.append(row)
    forms = sorted(frames, key=rows_order(f.order, mode, k))
    g_index = {form: i for i, form in enumerate(forms)}
    return (base_k, tuple(frames[form][0] for form in forms),
            tuple(tuple(map(g_index.__getitem__, row)) for row in slot_rows),
            tuple(sections), tuple(frames[form][1:] for form in forms))


def equalizer_subspace(projection: LinearMap, word_len: int) -> Subspace:
    """Tuples of word_len points sharing one projection value, canonically.

    The result lives on word_len concatenated copies of the projection's
    domain coordinates.  A tuple is on it exactly when each later block
    differs from the first by a vector of ker M, M the projection's
    linear part, so it is the span of the domain's basis points repeated
    in every block and of a kernel basis placed in each later block: that
    of the stored matrix, [0 | k] for k in ker M, as a map fixes the
    lifted coordinate.  At word length 1 it is the domain's full space.
    """
    if word_len < 1:
        raise ValueError("word_len must be at least 1")
    f, d, rank = projection.field, projection.domain_len, len(projection.columns)
    domain = full_space(f, projection.mode, rank)
    if word_len == 1:
        return domain
    total, lift = word_len * d, rank - d
    kernel = nullspace_rows(f, transpose(projection.columns,
                                         lift + projection.codomain_len), rank)
    points = [p * word_len for p in domain.basis_points()]
    for i in range(1, word_len):
        points += [bytes(i * d) + v[lift:] + bytes((word_len - 1 - i) * d)
                   for v in kernel]
    return span(f, projection.mode, points, total)


def _blocks_agree(pi: LinearMap, word_len: int, points) -> bool:
    """Whether each point's word_len blocks share one value under pi.

    The points share few distinct blocks, so each distinct block is
    mapped once with `apply` and the images compared.  At word length 1
    there is nothing to compare.
    """
    if word_len == 1:
        return True
    d = pi.domain_len
    blocks = [[p[i * d:(i + 1) * d] for p in points] for i in range(word_len)]
    images = {b: apply(pi, b) for b in set().union(*blocks)}
    first = list(map(images.__getitem__, blocks[0]))
    return all(list(map(images.__getitem__, column)) == first
               for column in blocks[1:])


def _write_member(base: BaseHost, parts: tuple[int, ...]) -> Subspace:
    """The member through the cover k-spaces `parts`, in canonical form.

    Its pivots all lie in the first block, where it is the first part.
    So its RREF rows are the `lifted_rows` of the first part's basis
    points, each extended by the other parts' sections at the base point
    under it: the first part's rows, extended.
    """
    first = base.cover_k_spaces[parts[0]]
    if len(parts) == 1:
        return first
    anchors = base.cover_k_frames[parts[0]][1]
    secs = [base.sections[base.cover_k_frames[g][0]] for g in parts[1:]]
    points = [p + b"".join([s[a] for s in secs])
              for p, a in zip(first.basis_points(), anchors)]
    return Subspace.from_rows(base.mode, base.field,
                              len(parts) * base.projection.domain_len,
                              tuple(lifted_rows(base.field, base.mode, points)))


class ProductHost(namedtuple("ProductHost", (
        "base", "word_len",
        "space",         # equalizer of word_len projections
        "members",       # the colored family, part-index order
        "member_parts",  # cover_k_spaces indices per member
        "fibers"))):     # cover_k_spaces indices per base k-space
    """The equalizer space with its family of compatible member tuples."""

    __slots__ = ()

    @property
    def spec(self) -> HostSpec:
        return self.base.spec


def build_product_host(base: BaseHost, word_len: int) -> ProductHost:
    """Equalize word_len copies of the base host and collect member tuples."""
    if word_len < 1:
        raise ValueError("word_len must be at least 1")
    # fiber j: the distinct cover k-spaces over base k-space j
    fibers = tuple(tuple(sorted({row[j] for row in base.cover_slot}))
                   for j in range(len(base.base_k_spaces)))
    count = sum(len(fiber) ** word_len for fiber in fibers)
    if count > POINT_CAP:
        raise SizeCapError(f"{count_text(count)} members at word_len {word_len}, "
                           f"cap {POINT_CAP}")
    pi = base.projection
    big_x = equalizer_subspace(pi, word_len)
    v_rank = base.space.rank
    image_rank = image_space(pi).rank
    expect = word_len * v_rank - (word_len - 1) * image_rank
    if big_x.rank != expect:
        raise ConstructionCheckError(
            f"equalizer rank {big_x.rank} differs from the rank law {expect}")
    # the tuples whose blocks share one projection value form a space of
    # the law's rank, so X, of that rank, is that space exactly when its
    # basis lies in it; members are then checked against the definition
    if not _blocks_agree(pi, word_len, big_x.basis_points()):
        raise ConstructionCheckError("the equalizer leaves its definition")

    member_parts = tuple(sorted(
        parts for fiber in fibers
        for parts in itertools.product(fiber, repeat=word_len)))
    members = tuple(_write_member(base, parts) for parts in member_parts)
    if len({m.rows for m in members}) != len(members):
        raise ConstructionCheckError("member tuples collided")
    if not _blocks_agree(pi, word_len, [p for m in members for p in m.basis_points()]):
        raise ConstructionCheckError("a member leaves the equalizer")
    return ProductHost(base, word_len, big_x, members, member_parts, fibers)


def color_pattern(host: ProductHost, word, coloring) -> tuple[int, ...]:
    """Colors induced on the base k-spaces by one word of cover indices.

    Entry j is the color of the unique family member that runs through
    the word's covers above base k-space j.  `coloring` maps member keys
    to colors.
    """
    parts_index = {p: i for i, p in enumerate(host.member_parts)}
    word = tuple(word)
    if len(word) != host.word_len:
        raise ValueError("word length differs from the host's")
    if any(not 0 <= s < len(host.base.covers) for s in word):
        raise ValueError("word symbol out of range")
    return _pattern(host, word, coloring, parts_index)


def _pattern(host: ProductHost, word, entries, parts_index) -> tuple[int, ...]:
    out = []
    for j in range(len(host.base.base_k_spaces)):
        parts = tuple(host.base.cover_slot[ci][j] for ci in word)
        member = host.members[parts_index[parts]]
        key = member.key()
        if key not in entries:
            raise KeyError(f"coloring not total: missing {key}")
        out.append(entries[key])
    return tuple(out)


class LineEmbedding(namedtuple("LineEmbedding", (
        "line",
        "space",          # the copy inside the equalizer
        "flatten",        # equalizer coords -> block coords
        "section",        # block coords -> equalizer coords
        "word_spaces",    # tuple spaces of the line's words
        "host_members"))):  # family members inside the copy
    """A flattened copy of the block space inside the equalizer.

    `flatten` projects the copy isomorphically back onto the block space
    (inverse on the copy: `section`); the line's word spaces map onto the
    covers and the copy's family members map onto the cover k-spaces.
    """

    __slots__ = ()


def line_embedding(host: ProductHost, line: Line) -> LineEmbedding:
    """Embed the block space along a combinatorial line over the covers.

    Each claim is checked once: each fixed cover's inverse is a section
    of the projection, flatten is a left inverse of section, the copy's
    basis lies in the equalizer, section carries the covers onto distinct
    word spaces, and the members inside the copy are the section images
    of the cover k-spaces.  Canonical subspaces are compared by value, so
    no key is formatted.
    """
    base = host.base
    f = base.field
    mode = base.mode
    t = len(base.covers)
    if t == 0:
        raise ValueError("host has no covers, so no lines exist")
    if line.length != host.word_len:
        raise ValueError("line length differs from the host word length")
    if any(not 0 <= sym < t for _, sym in line.fixed):
        raise ValueError("line fixes a symbol outside the cover alphabet")
    pi = base.projection
    v_amb = pi.domain_len
    total = host.word_len * v_amb
    e_basis = base.base_space.basis_points()

    # the base points under the base basis points, as section positions
    where = {p: i for i, p in enumerate(base.base_space.points())}
    at = [where[e] for e in e_basis]
    block_maps: dict[int, LinearMap] = {}
    for pos, sym in line.fixed:
        section = base.sections[sym]
        if len(section) != len(where):
            raise ConstructionCheckError("a cover does not project onto the "
                                         "base space")
        back = coordinate_map(f, mode, [section[i] for i in at], v_amb)
        for e in e_basis:
            if apply(pi, apply(back, e)) != e:
                raise ConstructionCheckError("cover inverse is not a section")
        block_maps[pos] = compose(back, pi)

    ident = identity_map(f, mode, v_amb)
    lift = len(ident.columns) - v_amb  # 1 for a lifted coordinate, else 0
    blocks = [block_maps.get(pos, ident) for pos in range(host.word_len)]
    # column j of the section stacks the blocks' columns j, each past
    # the lifted entry, which all blocks share
    section = LinearMap(mode, f, v_amb, total, tuple(
        cols[0][:lift] + b"".join([c[lift:] for c in cols])
        for cols in zip(*(b.columns for b in blocks))))
    # the moving block's coordinates: the identity's columns, between
    # zero columns for the other blocks
    i0, zero = line.moving[0], bytes(lift + v_amb)
    flatten = LinearMap(mode, f, total, v_amb,
                        ident.columns[:lift] + (zero,) * (i0 * v_amb)
                        + ident.columns[lift:]
                        + (zero,) * (total - (i0 + 1) * v_amb))
    copy = apply(section, base.space)

    # (a) the copy is section(V), V the block space, and flatten o section
    # = id: so section o flatten is the identity on the copy, flatten(copy)
    # = V, and, as a copy point's blocks share one image under pi,
    # the equalizer's common-value map (pi on block 0) is pi o flatten there
    if compose(flatten, section) != ident:
        raise ConstructionCheckError("flatten is not a left inverse of section")
    if not _blocks_agree(pi, host.word_len, copy.basis_points()):
        raise ConstructionCheckError("the copy leaves the equalizer")

    # (b) word spaces, spanned as members are written, correspond to the
    # covers: ws = section(cover) lies in section(V), the copy, and
    # flattens back onto its cover, by (a)
    word_spaces = []
    for s in range(t):
        secs = [base.sections[c] for c in line.word(s)]
        pts = [b"".join([sec[i] for sec in secs]) for i in at]
        ws = span(f, mode, pts, total)
        if apply(section, base.covers[s]) != ws:
            raise ConstructionCheckError("section misses a word space")
        word_spaces.append(ws)
    if len(set(word_spaces)) != t:
        raise ConstructionCheckError("word spaces are not distinct")

    # (c) members inside the copy correspond to cover k-spaces.  By (a)
    # flatten is a left inverse of section, so section is injective and
    # flatten carries each section image back to its g; members are
    # distinct ("member tuples collided").  So the members inside are the
    # section images exactly when g -> section(g) is a bijection onto them
    inside = [m for m in host.members if copy.contains_subspace(m)]
    if set(inside) != {apply(section, g) for g in base.cover_k_spaces}:
        raise ConstructionCheckError("copy members do not biject onto the "
                                     "cover k-spaces")
    return LineEmbedding(line, copy, flatten, section, tuple(word_spaces),
                         tuple(inside))


class MonochromaticCopy(namedtuple("MonochromaticCopy", (
        "target",   # the rank-n subspace of the base space used, or None
        "space",    # the rank-n subspace of the equalizer
        "members",  # the copy of the family inside it
        "color", "line", "pattern"))):
    """A monochromatic induced copy of the configuration, fully verified."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "status": "success",
            "target": self.target.to_json() if self.target else None,
            "space": self.space.to_json(),
            "members": [m.to_json() for m in self.members],
            "color": self.color,
            "line": self.line.to_json() if self.line else None,
            "pattern": list(self.pattern) if self.pattern is not None else None,
        }


class ExtractionFailure(namedtuple("ExtractionFailure", (
        "step",  # "line_search" or "subspace_search"
        "message", "line", "pattern"), defaults=(None, None))):
    """A structured miss: which search came up empty, and with what input."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "status": "diagnostic",
            "step": self.step,
            "message": self.message,
            "line": self.line.to_json() if self.line else None,
            "pattern": list(self.pattern) if self.pattern is not None else None,
        }


def extract_monochromatic_copy(host: ProductHost, coloring):
    """Walk a coloring of the host family down to a monochromatic copy.

    `coloring` maps member keys to colors and must be total on the family.

    Returns a MonochromaticCopy on success, an ExtractionFailure when the
    line search or the pattern-monochromatic subspace search finds
    nothing (the honest outcome of undersized word length or base rank).
    Internal postcondition misses raise ConstructionCheckError.
    """
    base = host.base
    spec = base.spec
    for m in host.members:
        key = m.key()
        if key not in coloring:
            raise KeyError(f"coloring not total: missing {key}")
        if not 0 <= coloring[key] < spec.num_colors:
            raise ValueError("coloring uses a color outside the spec range")
    if not spec.family.members:
        # an empty family makes every rank-n subspace of X a vacuous copy;
        # take the span of X's first n canonical basis points, which costs
        # nothing even where listing X's rank-n subspaces would not fit
        space = host.space
        if spec.target_rank > space.rank:
            return ExtractionFailure(
                "subspace_search",
                "the equalizer has lower rank than the target")
        copy_space = span(space.field, space.mode,
                          space.basis_points()[:spec.target_rank], space.ambient_len)
        return MonochromaticCopy(None, copy_space, (), 0, None, None)

    t = len(base.covers)
    parts_index = {p: i for i, p in enumerate(host.member_parts)}
    patterns = [_pattern(host, word, coloring, parts_index)
                for word in all_words(host.word_len, t)]
    line = find_monochromatic_line(patterns, host.word_len, t)
    if line is None:
        return ExtractionFailure(
            "line_search",
            "no monochromatic line of covers: the word length is too small "
            "for this coloring")
    emb = line_embedding(host, line)
    pattern = patterns[word_index(line.word(0), t)]
    table = {s.key(): c for s, c in zip(base.base_k_spaces, pattern)}
    found = find_monochromatic_subspace(base.base_space, spec.colored_rank,
                                        spec.target_rank, table)
    if found is None:
        return ExtractionFailure(
            "subspace_search",
            "no pattern-monochromatic target subspace: the base rank is too "
            "small for this coloring", line, pattern)
    target, color = found
    copy_space = apply(emb.section,
                       base.target_spans[base.targets.index(target)])
    # take the copy's members to be the host members inside it: the copy
    # is then induced and a copy of F exactly when it is isomorphic to F
    [row] = member_lookup(host.members, spec.target_rank)([copy_space.rows])
    members = tuple(sorted((host.members[i] for i in row if i is not None),
                           key=Subspace.key))
    if any(coloring[m.key()] != color for m in members):
        raise ConstructionCheckError("copy member has the wrong color")
    if hit_templates(row) not in copy_orbit(spec.family):
        raise ConstructionCheckError("copy is not an induced copy of the "
                                     "family: its members are not F's image")
    return MonochromaticCopy(target, copy_space, members, color, line, pattern)


def auto_word_length(cover_count: int, num_colors: int, pattern_slots: int,
                     budget: Budget | None = None) -> int | None:
    """Word length with the monochromatic-line guarantee, honestly or not at all.

    A single color or at most one cover needs length 1.  Otherwise run
    the Hales-Jewett search with the full pattern alphabet up to word
    length 3; None means the search was infeasible within that length
    and the budget, never a fabricated bound.
    """
    if num_colors < 1:
        raise ValueError("need at least one color")
    if num_colors == 1 or cover_count <= 1:
        return 1
    try:
        return hj_number(cover_count, num_colors ** pattern_slots, 3,
                         budget=budget)[0]
    except BudgetExceededError:
        return None


# ---------------------------------------------------------------------------
# bundle serialization

_HEAD = '{"spec": '


def bundle_text(host: ProductHost):
    """The bundle file's text in pieces: json.dumps of the spec with its
    word length resolved, X, H and the fibers, plus a newline.

    The head holds the spec and X, then each member of H is one piece.
    X and the members are written from their bytes (`json_text`), so the
    whole text is never held at once.  This is the format's one writer:
    `host_to_json` parses it, and `host_from_text` compares files with it.
    """
    resolved = HostSpec(*host.spec[:-1], word_len=host.word_len)
    yield (_HEAD + json.dumps(resolved.to_json()) + ', "X": '
           + json_text(host.space) + ', "H": [')
    for i, m in enumerate(host.members):
        yield ", " + json_text(m) if i else json_text(m)
    yield '], "fibers": ' + json.dumps([list(fb) for fb in host.fibers]) + "}\n"


def host_to_json(host: ProductHost) -> dict:
    """The bundle as JSON data: the parsed `bundle_text`."""
    return json.loads("".join(bundle_text(host)))


def host_from_text(text: str) -> ProductHost:
    """Rebuild the host from a bundle file's spec; ValueError if the file differs.

    Every field of a loaded host is thus re-derived and re-verified by the
    construction instead of trusted from disk.  Text as `bundle_text`
    writes it has only its spec decoded, and is compared in place piece by
    piece.  Other text is parsed and compared as data: equal data in
    another layout loads, and the error names each section that differs.
    """
    data = None
    if text.startswith(_HEAD):
        spec_data = json.JSONDecoder().raw_decode(text, len(_HEAD))[0]
    else:
        data = json_expect(json.loads(text), dict, "a host bundle")
        spec_data = json_field(data, "spec", "a host bundle")
    spec = HostSpec.from_json(spec_data)
    if spec.word_len is None:
        raise ValueError("bundle spec must carry a resolved word length")
    host = build_product_host(build_base_host(spec), spec.word_len)
    at = 0
    for piece in bundle_text(host):
        if not text.startswith(piece, at):
            break
        at += len(piece)
    else:
        if at == len(text):
            return host
    if data is None:
        data = json_expect(json.loads(text), dict, "a host bundle")
    rebuilt = host_to_json(host)
    if rebuilt != data:
        diffs = [f"{key} ({'missing' if key not in data else 'differs'})"
                 for key in rebuilt if data.get(key) != rebuilt[key]]
        diffs += [f"{key} (unexpected)" for key in sorted(set(data) - set(rebuilt))]
        raise ValueError("bundle differs from the host rebuilt from its spec: "
                         + ", ".join(diffs))
    return host


def host_from_json(data: dict) -> ProductHost:
    """`host_from_text` of json.dumps(data): a parsed bundle dumps back to
    the text `construct` wrote, so it loads with only its spec decoded."""
    return host_from_text(json.dumps(data) + "\n")
