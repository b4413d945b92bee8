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
from dataclasses import dataclass

from .arrow import (ConfigFamily, _entries_of, family_isomorphic,
                    find_monochromatic_subspace)
from .budget import Budget, BudgetExceededError
from .field import Field, make_field
from .hales_jewett import Line, all_words, find_monochromatic_line, hj_number, word_index
from .space import (AFFINE, POINT_CAP, VECTOR, BasisSet, LinearMap, Subspace,
                    Vec, apply, complement, compose, direct_sum,
                    enumerate_subspaces, full_space, identity_map,
                    identity_rows, image_space, json_expect, json_int,
                    linear_extension, nullspace_rows, span, zero_space)


class ConstructionCheckError(RuntimeError):
    """An internal re-verification of the construction failed."""


@dataclass(frozen=True)
class HostSpec:
    """Parameters of one host construction.

    base_rank is the rank of the projection target (it should arrow the
    configuration's parameters for the extraction guarantee to hold, but
    any value >= the config rank builds).  word_len is the equalizer
    word length; None means "derive it from a Hales-Jewett search".
    """

    q: int
    mode: str
    colored_rank: int
    target_rank: int
    num_colors: int
    family: ConfigFamily
    base_rank: int
    word_len: int | None = 1

    def __post_init__(self):
        make_field(self.q)
        lo = 1 if self.mode == AFFINE else 0
        if not lo <= self.colored_rank <= self.target_rank:
            raise ValueError("need colored_rank <= target_rank "
                             f"(at least {lo} in {self.mode} mode)")
        if self.num_colors < 1:
            raise ValueError("need at least one color")
        amb = self.family.ambient
        if amb.mode != self.mode or amb.field.order != self.q:
            raise ValueError("family mode or field differs from the spec")
        if amb.rank != self.target_rank:
            raise ValueError("family ambient rank differs from target_rank")
        if self.family.member_rank not in (None, self.colored_rank):
            raise ValueError("family member rank differs from colored_rank")
        if self.base_rank < self.target_rank:
            raise ValueError("base_rank must be at least target_rank")
        if self.word_len is not None and self.word_len < 1:
            raise ValueError("word_len must be at least 1")

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
        return HostSpec(
            q=json_int(data["q"], "q"),
            mode=data["mode"],
            colored_rank=json_int(data["k"], "k"),
            target_rank=json_int(data["n"], "n"),
            num_colors=json_int(data["r"], "r"),
            family=ConfigFamily.from_json(data["F"]),
            base_rank=json_int(data["N0"], "N0"),
            word_len=None if n1 == "auto" else json_int(n1, "N1"),
        )


@dataclass(frozen=True)
class CoverBlock:
    """Per family member inside one target: its cover and bookkeeping."""

    member: Subspace              # family member pushed into the target
    complement: Subspace | None   # complement of member in the base space
    comp_slots: tuple[Vec, ...]   # basis points allotted to the complement copy
    comp_span: Subspace | None    # span of comp_slots
    lifted: Subspace              # member pulled up beside the target's slots
    cover: Subspace               # lifted (+) comp_span, full base rank


@dataclass(frozen=True)
class SubspaceBlock:
    """Per rank-n target subspace of the base space."""

    target: Subspace              # the subspace of the base space
    embed: LinearMap              # config ambient -> target
    slots: tuple[Vec, ...]        # basis points allotted to the target copy
    span: Subspace                # span of slots
    lift: LinearMap               # base-space coords -> block coords, inverse of the projection on target
    covers: tuple[CoverBlock, ...]


@dataclass(frozen=True)
class BaseHost:
    spec: HostSpec
    base_space: Subspace                    # rank-N0 projection target
    base_k_spaces: tuple[Subspace, ...]     # its rank-k subspaces, canonical order
    space: Subspace                         # the block space carrying all covers
    blocks: tuple[SubspaceBlock, ...]       # one per rank-n target, canonical order
    covers: tuple[Subspace, ...]            # all covers, (target, member) order
    cover_k_spaces: tuple[Subspace, ...]    # union of the covers' rank-k subspaces
    projection: LinearMap                   # block space -> base space

    @property
    def field(self) -> Field:
        return self.spec.field

    @property
    def mode(self) -> str:
        return self.spec.mode


def build_base_host(spec: HostSpec, cap: int = POINT_CAP) -> BaseHost:
    """Build the block space, covers, and projection for the spec."""
    f = spec.field
    mode = spec.mode
    k, n, big_n = spec.colored_rank, spec.target_rank, spec.base_rank
    base = full_space(f, mode, big_n)
    e_amb = base.ambient_len
    targets = enumerate_subspaces(base, n, cap)
    nfam = len(spec.family.members)
    comp_size = big_n - k
    block_rank = n + comp_size * nfam
    total_rank = len(targets) * block_rank
    if mode == AFFINE and total_rank < 1:
        raise ValueError("affine block space would be empty")
    room = full_space(f, mode, total_rank)
    v_amb = room.ambient_len
    v_basis = room.basis_points()
    cfg_basis = BasisSet(mode, f, spec.family.ambient.basis_points())

    blocks: list[SubspaceBlock] = []
    covers: list[Subspace] = []
    pi_images: list[Vec] = []
    cursor = 0
    for target in targets:
        t_basis = target.basis_points()
        embed = linear_extension(cfg_basis, t_basis, codomain_len=e_amb)
        slots = v_basis[cursor:cursor + n]
        cursor += n
        pi_images.extend(t_basis)
        lift = linear_extension(BasisSet(mode, f, t_basis), slots,
                                codomain_len=v_amb)
        t_span = span(f, mode, slots, v_amb)
        cblocks: list[CoverBlock] = []
        for fmember in spec.family.members:
            member = apply(embed, fmember)
            if member.rank != k:
                raise ConstructionCheckError("pushed member lost rank")
            lifted = apply(lift, member)
            if comp_size == 0:
                comp = zero_space(f, e_amb) if mode == VECTOR else None
                comp_slots: tuple[Vec, ...] = ()
                comp_span = zero_space(f, v_amb) if mode == VECTOR else None
                cover = lifted
            else:
                comp = complement(member, base)
                if comp.rank != comp_size:
                    raise ConstructionCheckError("complement has wrong rank")
                comp_slots = v_basis[cursor:cursor + comp_size]
                cursor += comp_size
                pi_images.extend(comp.basis_points())
                comp_span = span(f, mode, comp_slots, v_amb)
                cover = direct_sum([lifted, comp_span])
            if cover.rank != big_n:
                raise ConstructionCheckError("cover has wrong rank")
            cblocks.append(CoverBlock(member, comp, comp_slots, comp_span,
                                      lifted, cover))
            covers.append(cover)
        blocks.append(SubspaceBlock(target, embed, slots, t_span, lift,
                                    tuple(cblocks)))
    if cursor != len(v_basis):
        raise ConstructionCheckError("block slots do not exhaust the basis")
    projection = linear_extension(BasisSet(mode, f, v_basis), pi_images,
                                  codomain_len=e_amb)

    # re-verify the structural claims the rest of the pipeline leans on
    parts = []
    for b in blocks:
        parts.append(b.span)
        parts.extend(c.comp_span for c in b.covers if c.comp_span is not None
                     and c.comp_span.rank > 0)
    if parts and direct_sum(parts).key() != room.key():
        raise ConstructionCheckError("blocks do not sum to the whole space")
    for b in blocks:
        if apply(projection, b.span).key() != b.target.key():
            raise ConstructionCheckError("projection misses a target block")
        for c in b.covers:
            back = apply(projection, c.cover)
            if back.key() != base.key() or c.cover.rank != back.rank:
                raise ConstructionCheckError("projection is not onto the base "
                                             "space on a cover")

    seen: dict[str, Subspace] = {}
    for cover in covers:
        for s in enumerate_subspaces(cover, k, cap):
            seen.setdefault(s.key(), s)
    cover_k = tuple(seen[key] for key in sorted(seen))
    base_k = tuple(enumerate_subspaces(base, k, cap))
    return BaseHost(spec, base, base_k, room, tuple(blocks), tuple(covers),
                    cover_k, projection)


def equalizer_subspace(projection: LinearMap, word_len: int) -> Subspace:
    """Tuples of word_len points sharing one projection value, canonically.

    The result lives on word_len concatenated copies of the projection's
    domain coordinates.  Affine translations cancel in the defining
    equations, so both modes reduce to one nullspace computation.
    """
    if word_len < 1:
        raise ValueError("word_len must be at least 1")
    f = projection.field
    d = projection.domain_len
    total = word_len * d
    rows: list[Vec] = []
    for i in range(1, word_len):
        for mrow in projection.matrix:
            row = [0] * total
            for j, x in enumerate(mrow):
                row[j] = x
                row[i * d + j] = f.neg(x)
            rows.append(tuple(row))
    directions = nullspace_rows(f, tuple(rows), total)
    if projection.mode == VECTOR:
        return span(f, VECTOR, directions, total)
    origin = tuple([0] * total)
    return span(f, AFFINE, [origin, *directions], total)


def _inverse_point_map(projection: LinearMap, part: Subspace,
                       cap: int = POINT_CAP) -> dict[Vec, Vec]:
    """Point dictionary image -> preimage; requires injectivity on the part."""
    out: dict[Vec, Vec] = {}
    for p in part.points(cap):
        img = apply(projection, p)
        if img in out and out[img] != p:
            raise ValueError("projection is not injective on a part")
        out[img] = p
    return out


def _tuple_space_from_maps(f: Field, mode: str, image: Subspace,
                           inverse_maps, total: int) -> Subspace:
    pts = []
    for e in image.basis_points():
        pieces: list[int] = []
        for inv in inverse_maps:
            pieces.extend(inv[e])
        pts.append(tuple(pieces))
    out = span(f, mode, pts, total)
    if out.rank != image.rank:
        raise ConstructionCheckError("tuple space has wrong rank")
    return out


def tuple_space(projection: LinearMap, parts, cap: int = POINT_CAP) -> Subspace:
    """The subspace of projection-compatible tuples through the given parts.

    All parts must share one projection image and the projection must be
    injective on each; the result has the parts' common rank and lives on
    len(parts) concatenated copies of the domain coordinates.
    """
    parts = list(parts)
    if not parts:
        raise ValueError("tuple_space needs at least one part")
    f = projection.field
    mode = projection.mode
    image = apply(projection, parts[0])
    for p in parts:
        if p.ambient_len != projection.domain_len:
            raise ValueError("part ambient differs from the projection domain")
        img = apply(projection, p)
        if img.key() != image.key():
            raise ValueError("parts have different projection images")
        if img.rank != p.rank:
            raise ValueError("projection is not injective on a part")
    inv = [_inverse_point_map(projection, p, cap) for p in parts]
    return _tuple_space_from_maps(f, mode, image, inv,
                                  len(parts) * projection.domain_len)


@dataclass(frozen=True)
class ProductHost:
    """The equalizer space with its family of compatible member tuples."""

    base: BaseHost
    word_len: int
    space: Subspace                          # equalizer of word_len projections
    projection: LinearMap                    # common-value map onto the base space
    members: tuple[Subspace, ...]            # the colored family, part-index order
    member_parts: tuple[tuple[int, ...], ...]  # cover_k_spaces indices per member
    fibers: tuple[tuple[int, ...], ...]      # cover_k_spaces indices per base k-space
    cover_slot: tuple[tuple[int, ...], ...]  # [cover][base k-space] -> cover_k index

    @property
    def spec(self) -> HostSpec:
        return self.base.spec


def _cover_slot_table(base: BaseHost, cap: int = POINT_CAP) -> tuple[tuple[int, ...], ...]:
    slot_index = {s.key(): j for j, s in enumerate(base.base_k_spaces)}
    g_index = {g.key(): i for i, g in enumerate(base.cover_k_spaces)}
    k = base.spec.colored_rank
    table = []
    for cover in base.covers:
        row = [-1] * len(base.base_k_spaces)
        for s in enumerate_subspaces(cover, k, cap):
            j = slot_index[apply(base.projection, s).key()]
            row[j] = g_index[s.key()]
        if any(x < 0 for x in row):
            raise ConstructionCheckError("a cover misses a base k-space")
        table.append(tuple(row))
    return tuple(table)


def build_product_host(base: BaseHost, word_len: int,
                       cap: int = POINT_CAP) -> ProductHost:
    """Equalize word_len copies of the base host and collect member tuples."""
    if word_len < 1:
        raise ValueError("word_len must be at least 1")
    f = base.field
    mode = base.mode
    pi = base.projection
    big_x = equalizer_subspace(pi, word_len)
    v_rank = base.space.rank
    image_rank = image_space(pi).rank
    expect = word_len * v_rank - (word_len - 1) * image_rank
    if big_x.rank != expect:
        raise ConstructionCheckError(
            f"equalizer rank {big_x.rank} differs from the rank law {expect}")
    total = word_len * pi.domain_len
    pi_tilde = LinearMap(
        mode, f, total, pi.codomain_len,
        tuple(tuple(row) + (0,) * (total - pi.domain_len) for row in pi.matrix),
        pi.translation if mode == AFFINE else None)

    groups: dict[str, list[int]] = {}
    images: dict[str, Subspace] = {}
    inv_maps: list[dict[Vec, Vec]] = []
    for gi, g in enumerate(base.cover_k_spaces):
        img = apply(pi, g)
        if img.rank != g.rank:
            raise ConstructionCheckError("projection not injective on a "
                                         "cover k-space")
        groups.setdefault(img.key(), []).append(gi)
        images.setdefault(img.key(), img)
        inv_maps.append(_inverse_point_map(pi, g, cap))
    fiber_keys = sorted(groups)
    if base.covers:
        if fiber_keys != [s.key() for s in base.base_k_spaces]:
            raise ConstructionCheckError("fibers do not align with the base "
                                         "k-spaces")
    entries: list[tuple[tuple[int, ...], Subspace]] = []
    for key in fiber_keys:
        image = images[key]
        for parts in itertools.product(groups[key], repeat=word_len):
            member = _tuple_space_from_maps(f, mode, image,
                                            [inv_maps[i] for i in parts], total)
            entries.append((parts, member))
    entries.sort(key=lambda e: e[0])
    members = tuple(m for _, m in entries)
    member_parts = tuple(p for p, _ in entries)
    if len({m.key() for m in members}) != len(members):
        raise ConstructionCheckError("member tuples collided")
    for m in members:
        if any(not big_x.is_member(p) for p in m.basis_points()):
            raise ConstructionCheckError("a member leaves the equalizer")
    fibers = tuple(tuple(groups[key]) for key in fiber_keys)
    return ProductHost(base, word_len, big_x, pi_tilde, members, member_parts,
                       fibers, _cover_slot_table(base, cap))


def color_pattern(host: ProductHost, word, coloring) -> tuple[int, ...]:
    """Colors induced on the base k-spaces by one word of cover indices.

    Entry j is the color of the unique family member that runs through
    the word's covers above base k-space j.
    """
    entries = _entries_of(coloring)
    parts_index = {p: i for i, p in enumerate(host.member_parts)}
    word = tuple(word)
    if len(word) != host.word_len:
        raise ValueError("word length differs from the host's")
    if any(not 0 <= s < len(host.base.covers) for s in word):
        raise ValueError("word symbol out of range")
    return _pattern(host, word, entries, parts_index)


def _pattern(host: ProductHost, word, entries, parts_index) -> tuple[int, ...]:
    out = []
    for j in range(len(host.base.base_k_spaces)):
        parts = tuple(host.cover_slot[ci][j] for ci in word)
        member = host.members[parts_index[parts]]
        key = member.key()
        if key not in entries:
            raise KeyError(f"coloring not total: missing {key}")
        out.append(entries[key])
    return tuple(out)


@dataclass(frozen=True)
class LineEmbedding:
    """A flattened copy of the block space inside the equalizer.

    `flatten` projects the copy isomorphically back onto the block space
    (inverse on the copy: `section`); the line's word spaces map onto the
    covers and the copy's family members map onto the cover k-spaces.
    """

    line: Line
    space: Subspace                       # the copy inside the equalizer
    flatten: LinearMap                    # equalizer coords -> block coords
    section: LinearMap                    # block coords -> equalizer coords
    word_spaces: tuple[Subspace, ...]     # tuple spaces of the line's words
    host_members: tuple[Subspace, ...]    # family members inside the copy


def line_embedding(host: ProductHost, line: Line,
                   cap: int = POINT_CAP) -> LineEmbedding:
    """Embed the block space along a combinatorial line over the covers.

    All three structural postconditions are re-verified extensionally:
    the flatten/section pair is a mutually inverse isomorphism compatible
    with both projections, the line's word spaces map bijectively onto
    the covers, and the family members inside the copy map bijectively
    onto the cover k-spaces.
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

    block_maps: dict[int, LinearMap] = {}
    for pos, sym in line.fixed:
        cover = base.covers[sym]
        inv = _inverse_point_map(pi, cover, cap)
        try:
            imgs = [inv[e] for e in e_basis]
        except KeyError:
            raise ConstructionCheckError("a cover does not project onto the "
                                         "base space") from None
        back = linear_extension(BasisSet(mode, f, e_basis), imgs,
                                codomain_len=v_amb)
        for e in e_basis:
            if apply(pi, apply(back, e)) != e:
                raise ConstructionCheckError("cover inverse is not a section")
        block_maps[pos] = compose(back, pi)

    ident = identity_rows(v_amb)
    rows: list[Vec] = []
    trans: list[int] = []
    for pos in range(host.word_len):
        if pos in block_maps:
            rows.extend(block_maps[pos].matrix)
            if mode == AFFINE:
                trans.extend(block_maps[pos].translation)
        else:
            rows.extend(ident)
            if mode == AFFINE:
                trans.extend([0] * v_amb)
    section = LinearMap(mode, f, v_amb, total, tuple(rows),
                        tuple(trans) if mode == AFFINE else None)
    i0 = line.moving[0]
    sel = tuple(tuple(1 if j == i0 * v_amb + r else 0 for j in range(total))
                for r in range(v_amb))
    flatten = LinearMap(mode, f, total, v_amb, sel,
                        tuple([0] * v_amb) if mode == AFFINE else None)
    copy = apply(section, base.space)

    # (a) mutually inverse isomorphism staying inside the equalizer
    if compose(flatten, section) != identity_map(f, mode, v_amb):
        raise ConstructionCheckError("flatten is not a left inverse of section")
    for p in copy.basis_points():
        if not host.space.is_member(p):
            raise ConstructionCheckError("the copy leaves the equalizer")
        if apply(section, apply(flatten, p)) != p:
            raise ConstructionCheckError("section is not inverse on the copy")
        if apply(host.projection, p) != apply(pi, apply(flatten, p)):
            raise ConstructionCheckError("projections disagree on the copy")
    if apply(flatten, copy).key() != base.space.key():
        raise ConstructionCheckError("the copy does not flatten onto the "
                                     "block space")

    # (b) word spaces correspond to covers
    word_spaces = []
    seen_words = set()
    for s in range(t):
        word = line.word(s)
        ws = tuple_space(pi, [base.covers[c] for c in word], cap)
        if any(not copy.is_member(p) for p in ws.basis_points()):
            raise ConstructionCheckError("a word space leaves the copy")
        if apply(flatten, ws).key() != base.covers[s].key():
            raise ConstructionCheckError("a word space misses its cover")
        if apply(section, base.covers[s]).key() != ws.key():
            raise ConstructionCheckError("section misses a word space")
        seen_words.add(ws.key())
        word_spaces.append(ws)
    if len(seen_words) != t:
        raise ConstructionCheckError("word spaces are not distinct")

    # (c) members inside the copy correspond to cover k-spaces
    inside = [m for m in host.members if copy.contains_subspace(m)]
    flat_keys = {apply(flatten, s).key() for s in inside}
    g_keys = {g.key() for g in base.cover_k_spaces}
    if flat_keys != g_keys or len(inside) != len(g_keys):
        raise ConstructionCheckError("copy members do not biject onto the "
                                     "cover k-spaces")
    if {apply(section, g).key() for g in base.cover_k_spaces} != \
            {s.key() for s in inside}:
        raise ConstructionCheckError("section misses a copy member")
    return LineEmbedding(line, copy, flatten, section, tuple(word_spaces),
                         tuple(inside))


@dataclass(frozen=True)
class MonochromaticCopy:
    """A monochromatic induced copy of the configuration, fully verified."""

    target: Subspace | None        # the rank-n subspace of the base space used
    space: Subspace                # the rank-n subspace of the equalizer
    members: tuple[Subspace, ...]  # the copy of the family inside it
    color: int
    line: Line | None
    pattern: tuple[int, ...] | None

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


@dataclass(frozen=True)
class ExtractionFailure:
    """A structured miss: which search came up empty, and with what input."""

    step: str                      # "line_search" or "subspace_search"
    message: str
    line: Line | None = None
    pattern: tuple[int, ...] | None = None

    def to_json(self) -> dict:
        return {
            "status": "diagnostic",
            "step": self.step,
            "message": self.message,
            "line": self.line.to_json() if self.line else None,
            "pattern": list(self.pattern) if self.pattern is not None else None,
        }


def extract_monochromatic_copy(host: ProductHost, coloring,
                               cap: int = POINT_CAP):
    """Walk a coloring of the host family down to a monochromatic copy.

    Returns a MonochromaticCopy on success, an ExtractionFailure when the
    line search or the pattern-monochromatic subspace search finds
    nothing (the honest outcome of undersized word length or base rank).
    Internal postcondition misses raise ConstructionCheckError.
    """
    base = host.base
    spec = base.spec
    entries = _entries_of(coloring)
    for m in host.members:
        key = m.key()
        if key not in entries:
            raise KeyError(f"coloring not total: missing {key}")
        if not 0 <= entries[key] < spec.num_colors:
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
    patterns = [_pattern(host, word, entries, parts_index)
                for word in all_words(host.word_len, t)]
    line = find_monochromatic_line(patterns, host.word_len, t)
    if line is None:
        return ExtractionFailure(
            "line_search",
            "no monochromatic line of covers: the word length is too small "
            "for this coloring")
    emb = line_embedding(host, line, cap)
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
    block = next(b for b in base.blocks if b.target.key() == target.key())
    members = tuple(sorted((apply(emb.section, c.lifted) for c in block.covers),
                           key=lambda s: s.key()))
    copy_space = apply(emb.section, block.span)

    member_keys = {m.key() for m in members}
    for m in members:
        if m.key() not in entries:
            raise ConstructionCheckError("copy member is not in the host family")
        if entries[m.key()] != color:
            raise ConstructionCheckError("copy member has the wrong color")
    inside = {m.key() for m in host.members
              if copy_space.contains_subspace(m)}
    if inside != member_keys:
        raise ConstructionCheckError("copy is not induced: its space meets "
                                     "the family elsewhere")
    if family_isomorphic(spec.family, ConfigFamily(copy_space, members)) is None:
        raise ConstructionCheckError("copy is not isomorphic to the family")
    return MonochromaticCopy(target, copy_space, members, color, line, pattern)


def auto_word_length(cover_count: int, num_colors: int, pattern_slots: int,
                     n_max: int = 3, budget: Budget | None = None) -> int | None:
    """Word length with the monochromatic-line guarantee, honestly or not at all.

    A single color or at most one cover needs length 1.  Otherwise run
    the Hales-Jewett search with the full pattern alphabet; None means
    the search was infeasible within n_max and the budget, never a
    fabricated bound.
    """
    if num_colors < 1:
        raise ValueError("need at least one color")
    if num_colors == 1 or cover_count <= 1:
        return 1
    try:
        return hj_number(cover_count, num_colors ** pattern_slots, n_max,
                         budget=budget)[0]
    except BudgetExceededError:
        return None


def auto_n1(spec: HostSpec, base: BaseHost, n_max: int = 3,
            budget: Budget | None = None) -> int | None:
    return auto_word_length(len(base.covers), spec.num_colors,
                            len(base.base_k_spaces), n_max=n_max, budget=budget)


# ---------------------------------------------------------------------------
# bundle serialization

def host_to_json(host: ProductHost) -> dict:
    base = host.base
    spec = base.spec
    resolved = HostSpec(spec.q, spec.mode, spec.colored_rank, spec.target_rank,
                        spec.num_colors, spec.family, spec.base_rank,
                        host.word_len)
    return {
        "spec": resolved.to_json(),
        "E": base.base_space.to_json(),
        "V": base.space.to_json(),
        "blocks": {
            "targets": [{
                "target": b.target.to_json(),
                "embed": b.embed.to_json(),
                "slots": [list(p) for p in b.slots],
                "span": b.span.to_json(),
                "lift": b.lift.to_json(),
                "covers": [{
                    "member": c.member.to_json(),
                    "complement": c.complement.to_json() if c.complement else None,
                    "comp_slots": [list(p) for p in c.comp_slots],
                    "comp_span": c.comp_span.to_json() if c.comp_span else None,
                    "lifted": c.lifted.to_json(),
                    "cover": c.cover.to_json(),
                } for c in b.covers],
            } for b in base.blocks],
        },
        "G": [g.to_json() for g in base.cover_k_spaces],
        "pi": base.projection.to_json(),
        "Y": [c.to_json() for c in base.covers],
        "X": host.space.to_json(),
        "H": [m.to_json() for m in host.members],
        "pi_tilde": host.projection.to_json(),
        "pi_image": image_space(base.projection).to_json(),
        "fibers": [list(fb) for fb in host.fibers],
        "member_parts": [list(p) for p in host.member_parts],
    }


def host_from_json(data: dict) -> ProductHost:
    """Rebuild the host from the bundle's spec; ValueError if the file differs.

    Every field of a loaded host is thus re-derived and re-verified by the
    construction instead of trusted from disk."""
    json_expect(data, dict, "a host bundle")
    spec = HostSpec.from_json(data["spec"])
    if spec.word_len is None:
        raise ValueError("bundle spec must carry a resolved word length")
    host = build_product_host(build_base_host(spec), spec.word_len)
    if host_to_json(host) != data:
        raise ValueError("bundle differs from the host rebuilt from its spec")
    return host
