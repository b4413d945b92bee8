"""Backtracking search for colorings with no monochromatic family.

One engine serves both the combinatorial-line searches and the subspace
arrow checks: given `item_count` items and a list of families (each a
set of item indices), find a coloring of the items in `num_colors`
colors under which no family is monochromatic, or prove none exists.

The search assigns colors to items 0, 1, 2, ... in order and tries
colors in increasing order, so the first witness found is the
lexicographically least proper coloring.  It forward-checks (Haralick &
Elliott 1980): each item keeps a bitmask of forbidden colors, and each
family is indexed by its second-highest member.  When that member gets
color c and every lower member already has c, c is forbidden at the
family's highest member, so a family can never be completed
monochromatically.  A color choice that leaves some later item with
every color forbidden is rejected at once; forbids are undone from a
trail on backtrack.  Pruning only removes subtrees without a proper
coloring, so the witness is the same as plain backtracking would find.

Two kinds of symmetry are broken without changing the witness.  Colors:
the lex-least proper coloring c* brings in new colors in order, so each
item may use at most one more than the largest color used before it.
Items: for each given generator g, a permutation of the items that maps
the families onto themselves, c* o g is proper too, so c* <=lex c* o g
and the search may demand c <=lex c o g (the lex-leader constraints of
Crawford, Ginsberg, Luks & Roy 1996).  Before the search, each g is
checked to permute the items and to map the families onto themselves:
g passes when the key of every family's image is a family's key.  A key
is a family's bitmask, the OR of `1 << item` over its members, as bytes.
The generators are checked m at a time in one pass over the families:
each item carries one int whose m byte-aligned slices hold its images'
bits, so a family's OR holds its image masks under all m at once.  m is
max(1, families // items), so this packed table never outweighs the
family masks; where one bit per item would outweigh them even at m = 1
(many items, few families), the keys are frozensets.  Each generator
keeps a pointer to its first position p whose pair (p, g(p)) is not
settled equal, and waits on the item whose coloring next changes that
pair.  Once p is colored, the colors below c[p] are forbidden at g(p),
in the same masks and trail as the forward check; once both are
colored, a smaller c[p] satisfies the constraint for good and an equal
one moves the pointer on, where a settled pair with c[p] > c[g(p)]
rejects the color.  Pointers are restored from their own trail.

A node is one color tried at an item where it was not already
forbidden.  Nodes are counted locally and settled through
`Budget.spend` in chunks that end on multiples of 4096 and never pass
the node cap, so the cap trips at exactly `max_nodes + 1` and
`Budget.nodes` is exact when the search returns.
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import or_
from struct import Struct

from .budget import Budget, ensure_budget

_CHUNK = 4096


def _chunk(bud: Budget) -> int:
    """Nodes to count locally before the next settlement with `bud`."""
    room = _CHUNK - bud.nodes % _CHUNK
    if bud.max_nodes is not None:
        room = min(room, bud.max_nodes - bud.nodes)
    return max(room, 1)


def _ored(columns, image):
    """Lazily, the OR of `image[member]` over each family of one size;
    `columns[j]` holds the j-th member of every family."""
    masks = map(image.__getitem__, columns[0])
    for column in columns[1:]:
        masks = map(or_, masks, map(image.__getitem__, column))
    return masks


def _closed_under(item_count: int, fams, perms) -> bool:
    """Whether each permutation of the items maps every nonempty family
    onto a family.

    A family's key is its bitmask, the OR of `1 << member`, as a w-byte
    string, w = ceil(item_count / 8).  The permutations are packed m at a
    time: item i carries one int whose w-byte slice j holds the bit of
    g_j(i), so one lazy OR over a family's members gives its image masks
    under all m at once, and `to_bytes` and one `unpack` cut them apart.
    m is max(1, the number of family keys // item_count), so the packed
    table (item_count ints of m*w bytes) never outweighs the keys.  When
    a table of one bit per item would outweigh them even at m = 1 (many
    items, few families), the keys are frozensets instead.
    """
    fams = [members for members in fams if members]
    if item_count > 2 * len(fams):
        family_set = set(map(frozenset, fams))
        return all(family_set.issuperset(frozenset(map(perm.__getitem__, members))
                                         for members in fams)
                   for perm in perms)
    by_size = {}
    for members in fams:
        by_size.setdefault(len(members), []).append(members)
    groups = [list(zip(*group)) for group in by_size.values()]
    w = (item_count + 7) // 8

    def images(batch):
        """Every family's image keys under the permutations of `batch`."""
        packed = [0] * item_count
        for j, perm in enumerate(batch):
            packed = list(map(or_, packed, map((1).__lshift__,
                                               map((8 * w * j).__add__, perm))))
        cut = Struct(f"{w}s" * len(batch)).unpack
        masks = chain.from_iterable(_ored(columns, packed) for columns in groups)
        return chain.from_iterable(map(cut, map(int.to_bytes, masks,
                                                repeat(w * len(batch)),
                                                repeat("little"))))

    family_keys = set(images([range(item_count)]))
    per = max(1, len(family_keys) // max(item_count, 1))
    return all(family_keys.issuperset(images(perms[i:i + per]))
               for i in range(0, len(perms), per))


def _lex_leader_generators(item_count: int, fams, generators
                           ) -> list[tuple[tuple[int, ...], list[int]]]:
    """(permutation, positions it moves) of each non-identity generator.

    ValueError unless every generator permutes the items and maps the
    families onto themselves: that is what makes its constraint sound.
    A bijection maps distinct families to distinct images, so the image
    keys lie in the family keys exactly when the image families lie in
    the families (`_closed_under`); the empty family is its own image.
    The permutations are checked up to the first that is not one, and
    the generators before it against the families, so the first bad
    generator in list order names the fault.
    """
    items = list(range(item_count))
    perms = []
    fault = None
    for gen in generators:
        perm = tuple(gen)
        if sorted(perm) != items:
            fault = "generator is not a permutation of the items"
            break
        perms.append(perm)
    if not _closed_under(item_count, fams, perms):
        raise ValueError("generator maps a family outside the families")
    if fault:
        raise ValueError(fault)
    out = []
    for perm in perms:
        moved = [p for p in items if perm[p] != p]
        if moved:
            out.append((perm, moved))
    return out


def _settle(idx, watching, colors, gens, ptr, watch, gtrail, forbidden,
            trail, full) -> bool:
    """Update the generators waiting on item idx, just colored.

    Returns False when some constraint c <=lex c o g is broken or a
    forbid leaves an item no color; the caller then undoes both trails.
    While a generator's position p is uncolored, g(p) > p: following
    p's cycle from g(p) < p through settled pairs would reach a colored
    item above p.  So a generator waits on p, then on g(p).
    """
    for gi in watching:
        perm, moved = gens[gi]
        k = ptr[gi]
        while True:
            p = moved[k]
            if p > idx:
                nxt = p
                break
            gp = perm[p]
            if gp > idx:
                # forbid at g(p) the colors that would break c[p] <= c[g(p)]
                ban = (1 << colors[p]) - 1
                old = forbidden[gp]
                if ban & ~old:
                    trail.append((gp, old))
                    forbidden[gp] = old | ban
                    if old | ban == full:
                        return False
                nxt = gp
                break
            a = colors[p]
            b = colors[gp]
            if a == b:
                k += 1
                if k < len(moved):
                    continue
            elif a > b:
                return False
            nxt = -1  # satisfied for good
            break
        gtrail.append((gi, ptr[gi], nxt))
        ptr[gi] = k
        if nxt >= 0:
            watch[nxt].append(gi)
    return True


def find_proper_coloring(item_count: int,
                         num_colors: int,
                         families,
                         budget: Budget | None = None,
                         symmetry: bool = True,
                         generators=()) -> list[int] | None:
    """Lexicographically least coloring avoiding monochromatic families.

    Returns a list of colors (ints in range(num_colors)) indexed by item,
    or None when every coloring makes some family monochromatic.  With
    `symmetry` on, candidate colors at each item are capped at one more
    than the largest color used so far; the lex-least proper coloring
    always has that first-use form, so the answer is unchanged and the
    flag only trades search order for pruning.  `generators` are item
    permutations that map the families onto themselves (ValueError
    otherwise); for each one g the search keeps only colorings with
    c <=lex c o g, which again never excludes the answer.
    """
    if num_colors < 1:
        raise ValueError("need at least one color")
    bud = ensure_budget(budget)
    full = (1 << num_colors) - 1
    fams = []
    for fam in families:
        members = sorted(set(fam))
        if members and (members[-1] >= item_count or members[0] < 0):
            raise ValueError("family member out of range")
        fams.append(members)
    gens = []
    if generators:
        gens = _lex_leader_generators(item_count, fams, generators)
    forbidden = [0] * item_count  # bitmask of the colors ruled out per item
    # triggers[s]: (bitmask of the members below s, highest member) of each
    # family whose second-highest member is s
    triggers: list[list[tuple[int, int]]] = [[] for _ in range(item_count)]
    for members in fams:
        if not members:
            return None  # an empty family is monochromatic under any coloring
        if len(members) == 1:
            forbidden[members[0]] = full
            continue
        below = 0
        for i in members[:-2]:
            below |= 1 << i
        triggers[members[-2]].append((below, members[-1]))
    if item_count == 0:
        return []
    if full in forbidden:
        return None

    colors = [-1] * item_count
    colored = [0] * num_colors        # bitmask of the items holding each color
    trail: list[tuple[int, int]] = []  # (item, its mask before a forbid)
    marks = [0] * item_count          # trail length on entering each item
    limits = [0] * item_count         # color cap in force at each item
    # lex-leader state: ptr[g] indexes the positions generator g moves;
    # watch[i] lists the generators waiting on item i
    ptr = [0] * len(gens)
    watch: list[list[int]] = [[] for _ in range(item_count)]
    for gi, (_, moved) in enumerate(gens):
        watch[moved[0]].append(gi)
    gtrail: list[tuple[int, int, int]] = []  # (generator, old ptr, new watch)
    gmarks = [0] * item_count         # gtrail length on entering each item
    chunk = left = _chunk(bud)
    idx = 0
    start = 0
    limit = 1 if symmetry else num_colors
    while True:
        banned = forbidden[idx]
        here = triggers[idx]
        watching = watch[idx]
        mark = len(trail)
        gmark = len(gtrail)
        for c in range(start, limit):
            if banned >> c & 1:
                continue
            left -= 1
            if not left:
                bud.spend(chunk)
                chunk = left = _chunk(bud)
            have = colored[c]
            bit = 1 << c
            for below, high in here:
                if below & have == below:
                    old = forbidden[high]
                    if not old & bit:
                        trail.append((high, old))
                        forbidden[high] = old | bit
                        if old | bit == full:
                            break
            else:
                if not watching:
                    break  # no item was wiped out: c stands
                colors[idx] = c
                if _settle(idx, watching, colors, gens, ptr, watch, gtrail,
                           forbidden, trail, full):
                    break
            while len(trail) > mark:
                high, old = trail.pop()
                forbidden[high] = old
            while len(gtrail) > gmark:
                gi, k, nxt = gtrail.pop()
                ptr[gi] = k
                if nxt >= 0:
                    watch[nxt].pop()
        else:
            # every color at idx failed: undo the previous item's choice
            idx -= 1
            if idx < 0:
                bud.spend(chunk - left)
                return None
            c = colors[idx]
            colored[c] ^= 1 << idx
            mark = marks[idx]
            while len(trail) > mark:
                high, old = trail.pop()
                forbidden[high] = old
            gmark = gmarks[idx]
            while len(gtrail) > gmark:
                gi, k, nxt = gtrail.pop()
                ptr[gi] = k
                if nxt >= 0:
                    watch[nxt].pop()
            start = c + 1
            limit = limits[idx]
            continue
        colors[idx] = c
        colored[c] |= 1 << idx
        marks[idx] = mark
        gmarks[idx] = gmark
        limits[idx] = limit
        if c + 1 == limit and limit < num_colors:
            limit += 1
        idx += 1
        if idx == item_count:
            bud.spend(chunk - left)
            return colors
        start = 0
