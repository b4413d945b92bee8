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

A node is one color tried at an item where it was not already
forbidden.  Nodes are counted locally and settled through
`Budget.spend` in chunks that end on multiples of 4096 and never pass
the node cap, so the cap trips at exactly `max_nodes + 1` and
`Budget.nodes` is exact when the search returns.
"""

from __future__ import annotations

from .budget import Budget, ensure_budget

_CHUNK = 4096


def _chunk(bud: Budget) -> int:
    """Nodes to count locally before the next settlement with `bud`."""
    room = _CHUNK - bud.nodes % _CHUNK
    if bud.max_nodes is not None:
        room = min(room, bud.max_nodes - bud.nodes)
    return max(room, 1)


def find_proper_coloring(item_count: int,
                         num_colors: int,
                         families,
                         budget: Budget | None = None,
                         symmetry: bool = True) -> list[int] | None:
    """Lexicographically least coloring avoiding monochromatic families.

    Returns a list of colors (ints in range(num_colors)) indexed by item,
    or None when every coloring makes some family monochromatic.  With
    `symmetry` on, candidate colors at each item are capped at one more
    than the largest color used so far; the lex-least proper coloring
    always has that first-use form, so the answer is unchanged and the
    flag only trades search order for pruning.
    """
    if num_colors < 1:
        raise ValueError("need at least one color")
    bud = ensure_budget(budget)
    full = (1 << num_colors) - 1
    forbidden = [0] * item_count  # bitmask of the colors ruled out per item
    # triggers[s]: (bitmask of the members below s, highest member) of each
    # family whose second-highest member is s
    triggers: list[list[tuple[int, int]]] = [[] for _ in range(item_count)]
    for fam in families:
        members = sorted(set(fam))
        if not members:
            return None  # an empty family is monochromatic under any coloring
        if members[-1] >= item_count or members[0] < 0:
            raise ValueError("family member out of range")
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
    chunk = left = _chunk(bud)
    idx = 0
    start = 0
    limit = 1 if symmetry else num_colors
    while True:
        banned = forbidden[idx]
        here = triggers[idx]
        mark = len(trail)
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
                break  # no item was wiped out: c stands
            while len(trail) > mark:
                high, old = trail.pop()
                forbidden[high] = old
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
            start = c + 1
            limit = limits[idx]
            continue
        colors[idx] = c
        colored[c] |= 1 << idx
        marks[idx] = mark
        limits[idx] = limit
        if c + 1 == limit and limit < num_colors:
            limit += 1
        idx += 1
        if idx == item_count:
            bud.spend(chunk - left)
            return colors
        start = 0
