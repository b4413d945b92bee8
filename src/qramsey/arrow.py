"""Arrow relations, configuration isomorphism, and induced-host checks.

The arrow relation here: a rank-N host space "arrows" (n, k, r) when
every r-coloring of its rank-k subspaces contains a rank-n subspace all
of whose rank-k subspaces share one color.  Deciding it at desk scale is
a backtracking search over colorings; everything below fixes canonical
orderings so witnesses are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .budget import Budget, ensure_budget
from .coloring_search import find_proper_coloring
from .field import make_field
from .space import (AFFINE, VECTOR, BasisSet, LinearMap, Subspace, apply,
                    enumerate_subspaces, full_space, is_independent,
                    json_expect, linear_extension)

ISO_RANK_CAP = 4


@dataclass
class ColoringTable:
    """A color assignment on a family of subspaces, keyed by canonical form."""

    host: str
    entries: dict[str, int]

    def color_of(self, member) -> int:
        key = member.key() if isinstance(member, Subspace) else member
        return self.entries[key]

    def to_json(self) -> dict:
        return {"host": self.host, "entries": dict(self.entries)}

    @staticmethod
    def from_json(data: dict) -> "ColoringTable":
        return ColoringTable(data["host"],
                             {str(k): int(v) for k, v in data["entries"].items()})

    @staticmethod
    def constant(host_key: str, members, color: int) -> "ColoringTable":
        return ColoringTable(host_key, {m.key(): color for m in members})


def _entries_of(coloring) -> dict:
    if isinstance(coloring, ColoringTable):
        return coloring.entries
    return dict(coloring)


@dataclass(frozen=True)
class ArrowInstance:
    """Parameters of one arrow question."""

    q: int
    mode: str
    host_rank: int
    target_rank: int
    colored_rank: int
    num_colors: int

    def __post_init__(self):
        make_field(self.q)
        lo = 1 if self.mode == AFFINE else 0
        if not lo <= self.colored_rank <= self.target_rank <= self.host_rank:
            raise ValueError("need colored_rank <= target_rank <= host_rank "
                             f"(at least {lo} in {self.mode} mode)")
        if self.num_colors < 1:
            raise ValueError("need at least one color")

    def to_json(self) -> dict:
        return {"q": self.q, "mode": self.mode, "N": self.host_rank,
                "n": self.target_rank, "k": self.colored_rank,
                "r": self.num_colors}

    @staticmethod
    def from_json(data: dict) -> "ArrowInstance":
        return ArrowInstance(int(data["q"]), data["mode"], int(data["N"]),
                             int(data["n"]), int(data["k"]), int(data["r"]))


@dataclass(frozen=True)
class ArrowStructure:
    """The incidence data an arrow search colors: items and families."""

    host: Subspace
    k_spaces: tuple[Subspace, ...]
    n_spaces: tuple[Subspace, ...]
    families: tuple[frozenset[int], ...]  # k-space indices, per n-space


def arrow_structure(instance: ArrowInstance) -> ArrowStructure:
    f = make_field(instance.q)
    host = full_space(f, instance.mode, instance.host_rank)
    k_spaces = tuple(enumerate_subspaces(host, instance.colored_rank))
    index = {s.key(): i for i, s in enumerate(k_spaces)}
    n_spaces = tuple(enumerate_subspaces(host, instance.target_rank))
    families = tuple(
        frozenset(index[s.key()]
                  for s in enumerate_subspaces(u, instance.colored_rank))
        for u in n_spaces)
    return ArrowStructure(host, k_spaces, n_spaces, families)


@dataclass
class ArrowResult:
    instance: ArrowInstance
    holds: bool
    witness: ColoringTable | None
    nodes: int

    def to_json(self) -> dict:
        return {
            "instance": self.instance.to_json(),
            "verdict": "holds" if self.holds else "fails",
            "witness": self.witness.to_json() if self.witness else None,
            "nodes_explored": self.nodes,
        }


def arrow_holds(instance: ArrowInstance, budget: Budget | None = None,
                symmetry: bool = True) -> ArrowResult:
    """Decide the arrow relation; on failure return the lex-least bad coloring."""
    bud = ensure_budget(budget)
    before = bud.nodes
    struct = arrow_structure(instance)
    coloring = find_proper_coloring(len(struct.k_spaces), instance.num_colors,
                                    struct.families, budget=bud,
                                    symmetry=symmetry)
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

    `coloring` is a ColoringTable or mapping, total on the rank-k
    subspaces of `ambient` (missing entries raise KeyError).
    """
    entries = _entries_of(coloring)
    for s in enumerate_subspaces(ambient, k):
        if s.key() not in entries:
            raise KeyError(f"coloring not total: missing {s.key()}")
    for u in enumerate_subspaces(ambient, n):
        colors = {entries[s.key()] for s in enumerate_subspaces(u, k)}
        if len(colors) == 1:
            return u, colors.pop()
    return None


@dataclass(frozen=True)
class ConfigFamily:
    """A space together with a distinguished family of its subspaces."""

    ambient: Subspace
    members: tuple[Subspace, ...]

    def __post_init__(self):
        dedup = {m.key(): m for m in self.members}
        members = tuple(dedup[k] for k in sorted(dedup))
        object.__setattr__(self, "members", members)
        ranks = set()
        for m in members:
            if (m.mode != self.ambient.mode or m.field != self.ambient.field
                    or m.ambient_len != self.ambient.ambient_len):
                raise ValueError("member lives in a different ambient")
            if not self.ambient.contains_subspace(m):
                raise ValueError("member not contained in the ambient space")
            ranks.add(m.rank)
        if len(ranks) > 1:
            raise ValueError("members must all have the same rank")

    @property
    def member_rank(self) -> int | None:
        return self.members[0].rank if self.members else None

    def to_json(self) -> dict:
        return {"ambient": self.ambient.to_json(),
                "members": [m.to_json() for m in self.members]}

    @staticmethod
    def from_json(data: dict) -> "ConfigFamily":
        json_expect(data, dict, "a configuration family")
        amb = Subspace.from_json(data["ambient"])
        members = json_expect(data["members"], list, "members")
        return ConfigFamily(amb, tuple(Subspace.from_json(m, amb.field)
                                       for m in members))


def family_isomorphic(fam1: ConfigFamily, fam2: ConfigFamily,
                      budget: Budget | None = None) -> LinearMap | None:
    """An isomorphism of ambients carrying fam1's members onto fam2's.

    Brute force over ordered bases of fam2.ambient as images of the
    canonical basis of fam1.ambient, in lexicographic point order; the
    first success is returned, so the result is deterministic.
    """
    if fam1.ambient.rank != fam2.ambient.rank:
        return None
    if fam1.ambient.rank > ISO_RANK_CAP:
        raise ValueError(f"ambient rank above the isomorphism cap {ISO_RANK_CAP}")
    if len(fam1.members) != len(fam2.members):
        return None
    if fam1.members and fam1.members[0].rank != fam2.members[0].rank:
        return None
    bud = ensure_budget(budget)
    f = fam2.ambient.field
    mode = fam2.ambient.mode
    basis1 = fam1.ambient.basis_points()
    candidates = fam2.ambient.sorted_points()
    target_keys = frozenset(m.key() for m in fam2.members)
    base_set = BasisSet(fam1.ambient.mode, fam1.ambient.field, basis1)
    chosen: list = []

    def search() -> LinearMap | None:
        if len(chosen) == len(basis1):
            iso = linear_extension(base_set, chosen,
                                   codomain_len=fam2.ambient.ambient_len)
            image_keys = frozenset(apply(iso, m).key() for m in fam1.members)
            if image_keys == target_keys:
                return iso
            return None
        for cand in candidates:
            bud.spend()
            chosen.append(cand)
            if is_independent(f, mode, chosen):
                found = search()
                if found is not None:
                    return found
            chosen.pop()
        return None

    return search()


@dataclass
class VerifyResult:
    holds: bool
    witness: ColoringTable | None
    num_candidates: int
    num_induced: int
    nodes: int

    def to_json(self) -> dict:
        return {
            "verdict": "holds" if self.holds else "fails",
            "witness": self.witness.to_json() if self.witness else None,
            "candidates": self.num_candidates,
            "induced_copies": self.num_induced,
            "nodes_explored": self.nodes,
        }


def induced_host_verify(host_space: Subspace, members, config: ConfigFamily,
                        num_colors: int, budget: Budget | None = None,
                        symmetry: bool = True) -> VerifyResult:
    """Check the induced host property of (host_space, members) for config.

    Holds when every num_colors-coloring of `members` admits a rank-n
    subspace U of host_space whose member intersection [U;k] cap members
    is monochromatic and carried onto config.members by an isomorphism
    config.ambient -> U.  The per-U intersections are independent of the
    coloring, so candidate copies are found once and the coloring search
    runs over them.
    """
    if num_colors < 1:
        raise ValueError("need at least one color")
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
    index = {k: i for i, k in enumerate(keys)}
    host_members = [fam[k] for k in keys]
    n = config.ambient.rank
    candidates = enumerate_subspaces(host_space, n)
    good: list[frozenset[int]] = []
    for u in candidates:
        inter = tuple(m for m in host_members if u.contains_subspace(m))
        if family_isomorphic(config, ConfigFamily(u, inter), budget=bud) is not None:
            good.append(frozenset(index[m.key()] for m in inter))
    coloring = find_proper_coloring(len(host_members), num_colors, good,
                                    budget=bud, symmetry=symmetry)
    witness = None
    if coloring is not None:
        witness = ColoringTable(host_space.key(),
                                {k: c for k, c in zip(keys, coloring)})
    return VerifyResult(coloring is None, witness, len(candidates), len(good),
                        bud.nodes - before)
