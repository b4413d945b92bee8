"""Arrow relations, configuration isomorphism, and induced-host checks.

The arrow relation here: a rank-N host space "arrows" (n, k, r) when
every r-coloring of its rank-k subspaces contains a rank-n subspace all
of whose rank-k subspaces share one color.  Deciding it at desk scale is
a backtracking search over colorings; everything below fixes canonical
orderings so witnesses are reproducible.  A configuration's copies are
found by one lookup in the orbit of its coordinate templates
(`copy_orbit`), with no search over bases.
"""

from __future__ import annotations

import math
from collections import namedtuple
from struct import Struct

from .budget import Budget, ensure_budget
from .coloring_search import find_proper_coloring
from .field import make_field
from .space import (AFFINE, POINT_CAP, BasisSet, LinearMap, SizeCapError,
                    Subspace, apply, combination_points, coordinate_map,
                    count_subspaces, count_text, enumerate_subspaces,
                    full_space, gaussian_binomial, guard_subspace_count,
                    identity_map, image_rows, join, json_expect, json_field,
                    linear_extension, span, stacked_images, subspace_templates,
                    vec_add, vec_scale, walk_rows)

# spaces per batch of `member_lookup`, whose image buffers a batch holds at once
SPAN_CHUNK = 1024


class ColoringTable(namedtuple("ColoringTable", "host entries")):
    """A color assignment on a family of subspaces, keyed by canonical form:
    the host's key, and a dict of subspace key -> color."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {"host": self.host, "entries": dict(self.entries)}


class ArrowInstance(namedtuple("ArrowInstance", "q mode host_rank target_rank "
                                               "colored_rank num_colors")):
    """Parameters of one arrow question."""

    __slots__ = ()

    def __new__(cls, q: int, mode: str, host_rank: int, target_rank: int,
                colored_rank: int, num_colors: int):
        make_field(q)
        lo = 1 if mode == AFFINE else 0
        if not lo <= colored_rank <= target_rank <= host_rank:
            raise ValueError("need colored_rank <= target_rank <= host_rank "
                             f"(at least {lo} in {mode} mode)")
        if num_colors < 1:
            raise ValueError("need at least one color")
        return super().__new__(cls, q, mode, host_rank, target_rank,
                               colored_rank, num_colors)

    def to_json(self) -> dict:
        return {"q": self.q, "mode": self.mode, "N": self.host_rank,
                "n": self.target_rank, "k": self.colored_rank,
                "r": self.num_colors}


class ArrowStructure(namedtuple("ArrowStructure",
                                "host k_spaces n_rows families")):
    """The incidence data an arrow search colors: items and families.

    The items are the host's rank-k subspaces, in key order.  `n_rows`
    holds the canonical rows of each rank-n subspace U, in key order,
    from the checked walk (`walk_rows`), with no Subspace built.  The
    families, one per U, are the tuples of the indices of the k-spaces
    inside U, in increasing order, the form `find_proper_coloring` takes
    as it is.  `member_lookup` finds them for every U in one batch, by
    the canonical images of the coordinate templates, listing no point.
    """

    __slots__ = ()


def arrow_structure(instance: ArrowInstance) -> ArrowStructure:
    f = make_field(instance.q)
    # both listings' size guards, on the shape alone, before the host
    for rank in (instance.colored_rank, instance.target_rank):
        guard_subspace_count(f, instance.mode, instance.host_rank, rank)
    host = full_space(f, instance.mode, instance.host_rank)
    k_spaces = tuple(enumerate_subspaces(host, instance.colored_rank))
    n_rows = tuple(walk_rows(f, instance.mode, instance.host_rank,
                             instance.target_rank))
    # every rank-k subspace of an n-space is a k-space: no row holds None
    rows = member_lookup(k_spaces, instance.target_rank)(n_rows)
    # A basis map keeps the byte order of rows, so below q = 11, where
    # byte order is key order, the k-spaces inside U come in increasing
    # index along the templates; from q = 11 on they need not.
    families = tuple(rows if f.order < 11 else map(tuple, map(sorted, rows)))
    return ArrowStructure(host, k_spaces, n_rows, families)


def _elementary_maps(f, mode: str, d: int) -> list[LinearMap]:
    """Invertible maps of GF(q)^d, homogenized (`identity_map`'s columns,
    moved): the adjacent coordinate swaps and transvections x_i += x_{i+1}
    and, after a lifted coordinate e_0, the shift x_0 += 1 as the
    transvection e_0 -> e_0 + e_1."""
    cols = identity_map(f, mode, d).columns
    lift = len(cols) - d  # 1 for a lifted coordinate, else 0
    moved = []
    for j in range(lift, len(cols) - 1):
        moved += [cols[:j] + (cols[j + 1], cols[j]) + cols[j + 2:],
                  cols[:j + 1] + (vec_add(f, cols[j + 1], cols[j]),) + cols[j + 2:]]
    if lift and d:
        moved.append((vec_add(f, cols[0], cols[1]),) + cols[1:])
    return [LinearMap(mode, f, d, d, c) for c in moved]


def orbit_maps(f, mode: str, d: int) -> list[LinearMap]:
    """`_elementary_maps` and the scalings x_0 -> a x_0, a not 0 or 1:
    generators of GL(d, q), or AGL(d, q) in affine mode.  The other maps
    have determinant +-1, and the scalings give every other unit."""
    cols = identity_map(f, mode, d).columns
    j = len(cols) - d  # x_0's column
    return _elementary_maps(f, mode, d) + [
        LinearMap(mode, f, d, d, cols[:j] + (vec_scale(f, a, cols[j]),) + cols[j + 1:])
        for a in range(2, f.order) if d]


def _permutations(space: Subspace, subspaces, maps) -> list[tuple[int, ...]]:
    """The permutation of `subspaces` each map of `space` induces:
    subspace i goes to the one covering the image of its point set.  The
    images of the points, in `points()` order, are the
    `combination_points` of the stored rows' `image_rows`."""
    f, width = space.field, space.ambient_len
    where = {p: i for i, p in enumerate(space.points())}
    covers = [[where[p] for p in s.points()] for s in subspaces]
    item_of = {frozenset(cov): i for i, cov in enumerate(covers)}
    tos = ([where[p] for p in combination_points(f, image_rows(g, space.rows), width)]
           for g in maps)
    return [tuple(item_of[frozenset([to[j] for j in cov])] for cov in covers)
            for to in tos]


def structure_generators(struct: ArrowStructure) -> list[tuple[int, ...]]:
    """The permutations of the k-spaces that the host's `_elementary_maps`
    induce, identities left out.  An invertible map carries k-spaces onto
    k-spaces and n-spaces onto n-spaces."""
    host = struct.host
    identity = tuple(range(len(struct.k_spaces)))
    maps = _elementary_maps(host.field, host.mode, host.ambient_len)
    return [perm for perm in _permutations(host, struct.k_spaces, maps)
            if perm != identity]


class ArrowResult(namedtuple("ArrowResult", "instance holds witness nodes")):
    """An arrow verdict: the lex-least bad coloring when it fails, else
    None, and the search nodes spent."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "instance": self.instance.to_json(),
            "verdict": "holds" if self.holds else "fails",
            "witness": self.witness.to_json() if self.witness else None,
            "nodes_explored": self.nodes,
        }


def arrow_holds(instance: ArrowInstance, budget: Budget | None = None,
                symmetry: bool = True) -> ArrowResult:
    """Decide the arrow relation; on failure return the lex-least bad coloring.

    `symmetry` turns on both color-symmetry pruning and the lex-leader
    constraints of `structure_generators`; neither changes the answer.
    """
    bud = ensure_budget(budget)
    before = bud.nodes
    struct = arrow_structure(instance)
    generators = structure_generators(struct) if symmetry else ()
    coloring = find_proper_coloring(len(struct.k_spaces), instance.num_colors,
                                    struct.families, budget=bud,
                                    symmetry=symmetry, generators=generators)
    witness = None
    if coloring is not None:
        witness = ColoringTable(struct.host.key(),
                                {s.key(): c for s, c in zip(struct.k_spaces, coloring)})
    return ArrowResult(instance, coloring is None, witness, bud.nodes - before)


def min_arrow_N(q: int, mode: str, n: int, k: int, r: int, n_max: int,
                budget: Budget | None = None, symmetry: bool = True) -> int | None:
    """Least host rank <= n_max for which the arrow relation holds, or None."""
    bud = ensure_budget(budget)
    for big_n in range(n, n_max + 1):
        inst = ArrowInstance(q, mode, big_n, n, k, r)
        if arrow_holds(inst, budget=bud, symmetry=symmetry).holds:
            return big_n
    return None


def find_monochromatic_subspace(ambient: Subspace, k: int, n: int,
                                coloring) -> tuple[Subspace, int] | None:
    """First rank-n subspace (canonical order) with monochromatic [.;k].

    `coloring` maps canonical keys to colors and must be total on the
    rank-k subspaces of `ambient` (missing entries raise KeyError).
    """
    k_spaces = enumerate_subspaces(ambient, k)
    for s in k_spaces:
        if s.key() not in coloring:
            raise KeyError(f"coloring not total: missing {s.key()}")
    colors = [coloring[s.key()] for s in k_spaces]
    n_spaces = enumerate_subspaces(ambient, n)
    # every rank-k subspace of an n-space is listed: no row holds None
    rows = member_lookup(k_spaces, n)([u.rows for u in n_spaces])
    for u, hits in zip(n_spaces, rows):
        found = {colors[i] for i in hits}
        if len(found) == 1:
            return u, found.pop()
    return None


class ConfigFamily(namedtuple("ConfigFamily", "ambient members")):
    """A space together with a distinguished family of its subspaces,
    kept deduplicated in key order."""

    __slots__ = ()

    def __new__(cls, ambient: Subspace, members: tuple[Subspace, ...]):
        dedup = {m.key(): m for m in members}
        members = tuple(dedup[k] for k in sorted(dedup))
        ranks = set()
        for m in members:
            if (m.mode != ambient.mode or m.field != ambient.field
                    or m.ambient_len != ambient.ambient_len):
                raise ValueError("member lives in a different ambient")
            if not ambient.contains_subspace(m):
                raise ValueError("member not contained in the ambient space")
            ranks.add(m.rank)
        if len(ranks) > 1:
            raise ValueError("members must all have the same rank")
        return super().__new__(cls, ambient, members)

    @property
    def member_rank(self) -> int | None:
        return self.members[0].rank if self.members else None

    def to_json(self) -> dict:
        return {"ambient": self.ambient.to_json(),
                "members": [m.to_json() for m in self.members]}

    @staticmethod
    def from_json(data: dict) -> "ConfigFamily":
        what = "a configuration family"
        json_expect(data, dict, what)
        amb = Subspace.from_json(json_field(data, "ambient", what))
        members = json_expect(json_field(data, "members", what), list, "members")
        return ConfigFamily(amb, tuple(Subspace.from_json(m, amb.field)
                                       for m in members))


def family_isomorphic(fam1: ConfigFamily,
                      fam2: ConfigFamily) -> LinearMap | None:
    """An isomorphism of ambients carrying fam1's members onto fam2's.

    fam2's template set looked up in fam1's `copy_orbit`: fam1's basis
    map inverted, the group element found, then fam2's basis map, solved
    from the basis images, so the result is deterministic.
    """
    amb1, amb2 = fam1.ambient, fam2.ambient
    if amb1.rank != amb2.rank or fam1.member_rank != fam2.member_rank:
        return None
    [row] = member_lookup(fam2.members, amb2.rank)([amb2.rows])
    images = copy_orbit(fam1).get(hit_templates(row))
    if images is None:
        return None
    to2 = coordinate_map(amb2.field, amb2.mode, amb2.basis_points(), amb2.ambient_len)
    return linear_extension(BasisSet(amb1.mode, amb1.field, amb1.basis_points()),
                            [apply(to2, p) for p in images],
                            codomain_len=amb2.ambient_len)


def copy_orbit(config: ConfigFamily) -> dict[frozenset[int], tuple]:
    """The orbit of config's template set T, each set with the images of
    the coordinate basis under one group element reaching it.

    config's members are the images of the templates in T under its
    ambient's basis map (`member_lookup`).  An isomorphism onto a space
    D is that map inverted, an element of GL (AGL in affine mode), then
    D's basis map, so D with the members inside it is a copy of config
    exactly when its template set is in the orbit.  Breadth first over
    the permutations of `orbit_maps`, refused by SizeCapError before it
    holds more than POINT_CAP sets.
    """
    amb = config.ambient
    lookup = member_lookup(config.members, amb.rank)
    coord = full_space(amb.field, amb.mode, amb.rank)
    maps = orbit_maps(amb.field, amb.mode, coord.ambient_len)
    moves = list(zip(maps, _permutations(coord, lookup.templates, maps)))
    start = hit_templates(lookup([amb.rows])[0])
    orbit, queue = {start: coord.basis_points()}, [start]
    for s in queue:
        for g, perm in moves:
            t = frozenset(map(perm.__getitem__, s))
            if t not in orbit:
                if len(orbit) == POINT_CAP:
                    raise SizeCapError(f"an orbit of more than {POINT_CAP} "
                                       "template sets")
                orbit[t] = tuple([apply(g, p) for p in orbit[s]])
                queue.append(t)
    return orbit


def hit_templates(row) -> frozenset[int]:
    """The template indices of a `member_lookup` row: where it holds a member."""
    return frozenset(t for t, i in enumerate(row) if i is not None)


def member_lookup(members, n: int):
    """A function taking a list of the canonical rows of rank-n spaces,
    all in one ambient (a Subspace's `rows`), to one row per space: for
    each template, the index of the member its image is, or None.

    Each member is indexed once by its canonical bytes, its rows joined.
    The `subspace_templates` of rank n, carried through a space U's basis
    map, are U's subspaces of the members' ranks, so the members inside
    U are the templates' images found in the index, and no member is
    tested against U.  The images are canonical as built
    (`stacked_images`), for SPAN_CHUNK spaces at once, so a batch's
    buffers are bounded whatever the caller passes, and each buffer is
    cut into one slice per space; no point of U is listed.  The function
    keeps the templates as `templates`.
    """
    index = {b"".join(m.rows): i for i, m in enumerate(members)}
    templates = [t for r in sorted({m.rank for m in members})
                 for t in subspace_templates(members[0].field, members[0].mode,
                                             n, r)]
    get = index.get

    def batch(spaces) -> list[tuple[int | None, ...]]:
        f = templates[0].field
        rows = list(map(b"".join, zip(*spaces)))
        width = len(rows[0]) // len(spaces) if rows else 0
        cut = Struct(f"{width}s" * len(spaces)).unpack
        found = []  # per template, its image's member index (or None) per space
        for t in templates:
            parts = [cut(buf) for buf in stacked_images(f, t, rows)]
            keys = (map(b"".join, zip(*parts)) if parts  # else the zero space
                    else [b""] * len(spaces))
            found.append(list(map(get, keys)))
        return list(zip(*found))

    def inside(spaces) -> list[tuple[int | None, ...]]:
        if not templates:
            return [()] * len(spaces)
        out = []
        for start in range(0, len(spaces), SPAN_CHUNK):
            out += batch(spaces[start:start + SPAN_CHUNK])
        return out

    inside.templates = templates
    return inside


class VerifyResult(namedtuple("VerifyResult", "holds witness num_candidates "
                                             "num_induced nodes")):
    """An induced-host verdict: the bad coloring when it fails, the
    candidate and copy counts, and the search nodes spent."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "verdict": "holds" if self.holds else "fails",
            "witness": self.witness.to_json() if self.witness else None,
            "candidates": self.num_candidates,
            "induced_copies": self.num_induced,
            "nodes_explored": self.nodes,
        }


def _member_spans(members: list[Subspace], n: int, budget: Budget) -> list[Subspace]:
    """The distinct rank-n spans of chains of `members`.

    A chain takes members in index order and adds one only when it
    raises the span's rank.  Every subspace spanned by the members it
    contains is found: those members, taken in index order, form such a
    chain.  A member already inside the current span is skipped by
    containment before any span is built, and each span built (`join`)
    spends one budget node.  Spans are told apart by their canonical
    rows, so no key is formatted.
    """
    found: dict[tuple, Subspace] = {}  # by rows

    def grow(cur: Subspace | None, start: int) -> None:
        for j in range(start, len(members)):
            m = members[j]
            if cur is None:
                s = m
            elif cur.contains_subspace(m):
                continue
            else:
                budget.spend()
                s = join(cur, m)
            if s.rank == n:
                found.setdefault(s.rows, s)
            elif s.rank < n:
                grow(s, j + 1)

    grow(None, 0)
    return list(found.values())


def _free_space(host: Subspace, n: int, base: Subspace | None,
                members, inside=()) -> bool:
    """Whether a rank-n U with base ⊆ U ⊆ host holds no member whose
    index is not in `inside`.

    A rank-r space lies in [R - r; n - r]_q of the rank-n U in the rank-R
    host, in either mode, so counting the spans of base with each other
    member decides first (base None: every U counts, the spans are the
    members).  The count is exact when each span of rank <= n is one U;
    otherwise the host's rank-n subspaces are listed, under the size cap.
    """
    f, mode, big_r = host.field, host.mode, host.rank

    def through(r: int) -> int:
        return gaussian_binomial(big_r - r, n - r, f.order)

    others = (m for i, m in enumerate(members) if i not in inside)
    if base is None:
        total, spans = count_subspaces(big_r, n, f.order, mode), list(others)
    else:
        total = through(base.rank)
        if (len(members) - len(inside)) * through(base.rank + 1) < total:
            return True
        spans = {join(base, m) for m in others}
    if sum(through(d.rank) for d in spans) < total:
        return True
    if all(d.rank >= n for d in spans):
        return False
    return any((base is None or u.contains_subspace(base))
               and not any(u.contains_subspace(d) for d in spans)
               for u in enumerate_subspaces(host, n))


def induced_host_verify(host_space: Subspace, members, config: ConfigFamily,
                        num_colors: int, budget: Budget | None = None,
                        symmetry: bool = True) -> VerifyResult:
    """Check the induced host property of (host_space, members) for config.

    Holds when every num_colors-coloring of `members` admits a rank-n
    subspace U of host_space whose member intersection [U;k] cap members
    is monochromatic and carried onto config.members by an isomorphism
    config.ambient -> U.  The coloring sees only the member sets
    S = U cap members, so the distinct copies S are found once and the
    coloring search runs over them.

    An isomorphism carries the span W of config's members, of rank w,
    onto span S.  So S is D cap members, looked up by canonical image
    (`member_lookup`), for a rank-w span D of members
    (`_member_spans`), with (D, S) isomorphic to
    (W, config.members) and some rank-n U over D holding no other
    member (`_free_space`): D's template set, from the same lookup row,
    is in the `copy_orbit` of (W, config.members).  A chain adds at most
    w - k + 1 members, so the closed-form number of chains is checked
    against the size cap before the walk.  The reported candidate count
    is the closed-form number of rank-n subspaces; the nodes are the
    spans the walk builds and the coloring search's.
    """
    if num_colors < 1:
        raise ValueError("need at least one color")
    amb = config.ambient
    n = amb.rank
    f, mode = host_space.field, host_space.mode
    if n > host_space.rank:
        raise ValueError(f"n={n} out of range for rank {host_space.rank}")
    num_candidates = count_subspaces(host_space.rank, n, f.order, mode)
    bud = ensure_budget(budget)
    before = bud.nodes
    fam = {}
    for m in members:
        if not host_space.contains_subspace(m):
            raise ValueError("family member not contained in the host space")
        if config.member_rank is not None and m.rank != config.member_rank:
            raise ValueError("family member rank differs from the config's")
        fam[m.key()] = m
    keys = sorted(fam)
    host_members = [fam[k] for k in keys]
    good: list[tuple[int, ...]] = []
    if not config.members:
        if _free_space(host_space, n, None, host_members):
            good.append(())
    else:
        pts = [p for m in config.members for p in m.basis_points()]
        shape = ConfigFamily(span(amb.field, amb.mode, pts, amb.ambient_len),
                             config.members)
        w = shape.ambient.rank
        chains = sum(math.comb(len(host_members), j)
                     for j in range(1, w - config.member_rank + 2))
        if chains > POINT_CAP:
            raise SizeCapError(f"{count_text(chains)} member chains, "
                               f"cap {POINT_CAP}")
        orbit = copy_orbit(shape)
        spans = _member_spans(host_members, w, bud)
        rows = member_lookup(host_members, w)([d.rows for d in spans])
        for d, row in zip(spans, rows):
            inside = tuple(sorted(i for i in row if i is not None))
            if (hit_templates(row) in orbit
                    and _free_space(host_space, n, d, host_members, inside)):
                good.append(inside)
    coloring = find_proper_coloring(len(host_members), num_colors, tuple(good),
                                    budget=bud, symmetry=symmetry)
    witness = None
    if coloring is not None:
        witness = ColoringTable(host_space.key(),
                                {k: c for k, c in zip(keys, coloring)})
    return VerifyResult(coloring is None, witness, num_candidates, len(good),
                        bud.nodes - before)
