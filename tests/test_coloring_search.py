"""The forward-checking coloring search against three references.

`chronological` below is the plain backtracking search the engine
replaced: same item order, same color order, same first-use cap, but a
family is only checked once its highest item is colored.  On seeded
random hypergraphs the engine must return the same witness and never
explore more nodes.  `forward_checking` is a slow recursive statement of
the engine's own rules, so it pins the exact node count.  Small cases are
also checked against the first proper coloring in `itertools.product`
order.  The budget tests pin the
node accounting: where the cap trips, and that counts stay exact when
one budget is shared by several searches.
"""

import itertools
import random

import pytest

from qramsey import (VECTOR, ArrowInstance, Budget, BudgetExceededError,
                     arrow_holds, enumerate_lines, find_proper_coloring,
                     hj_number, line_free_coloring, min_arrow_N, word_index)


def chronological(item_count, num_colors, families, budget=None,
                  symmetry=True):
    """Reference search: chronological backtracking, one node per color tried."""
    if num_colors < 1:
        raise ValueError("need at least one color")
    bud = budget if budget is not None else Budget()
    fams = []
    for fam in families:
        members = tuple(sorted(set(fam)))
        if not members:
            return None
        if members[-1] >= item_count or members[0] < 0:
            raise ValueError("family member out of range")
        fams.append(members)
    if item_count == 0:
        return []
    finish_at = [[] for _ in range(item_count)]
    for members in fams:
        finish_at[members[-1]].append(members)
    colors = [-1] * item_count
    idx = 0
    max_used = -1
    max_stack = [0] * (item_count + 1)
    while idx >= 0:
        if idx == item_count:
            return colors[:]
        start = colors[idx] + 1
        if colors[idx] == -1:
            max_stack[idx] = max_used
        else:
            max_used = max_stack[idx]
        limit = num_colors
        if symmetry:
            limit = min(num_colors, max_stack[idx] + 2)
        placed = False
        for c in range(start, limit):
            bud.spend()
            colors[idx] = c
            ok = True
            for members in finish_at[idx]:
                first = colors[members[0]]
                if first == c and all(colors[i] == first for i in members[1:-1]):
                    ok = False
                    break
            if ok:
                max_used = max(max_stack[idx], c)
                idx += 1
                placed = True
                break
        if not placed:
            colors[idx] = -1
            max_used = max_stack[idx]
            idx -= 1
    return None


def forward_checking(item_count, num_colors, families, symmetry=True):
    """Reference for the engine's node count: recursive forward checking.

    Domains are recomputed from the families at every step instead of
    kept in bitmasks and a trail.  Returns (witness, nodes)."""
    fams = [sorted(set(f)) for f in families]
    if any(not f for f in fams):
        return None, 0
    colors = [None] * item_count

    def forbidden(h):
        """Colors that would complete a family at its highest item h."""
        out = set()
        for f in fams:
            if f[-1] == h:
                below = {colors[i] for i in f[:-1]}
                if len(f) == 1:
                    out.update(range(num_colors))
                elif len(below) == 1 and None not in below:
                    out |= below
        return out

    if any(len(forbidden(h)) == num_colors for h in range(item_count)):
        return None, 0
    nodes = 0

    def extend(idx, top):
        nonlocal nodes
        if idx == item_count:
            return True
        limit = min(num_colors, top + 2) if symmetry else num_colors
        banned = forbidden(idx)
        for c in range(limit):
            if c in banned:
                continue
            nodes += 1
            colors[idx] = c
            if all(len(forbidden(h)) < num_colors
                   for h in range(idx + 1, item_count)):
                if extend(idx + 1, max(top, c)):
                    return True
        colors[idx] = None
        return False

    return (colors if extend(0, -1) else None), nodes


def exhaustive(item_count, num_colors, families):
    """First proper coloring in lexicographic order, or None.

    An empty family counts as monochromatic under every coloring."""
    fams = [set(f) for f in families]
    for colors in itertools.product(range(num_colors), repeat=item_count):
        if not any(len({colors[i] for i in f}) <= 1 for f in fams):
            return list(colors)
    return None


def is_proper(colors, families):
    return all(len({colors[i] for i in f}) > 1 for f in families)


def random_hypergraph(rng, max_items, max_families=14, max_size=4):
    n = rng.randint(0, max_items)
    fams = []
    if n:
        for _ in range(rng.randint(0, max_families)):
            fams.append(rng.sample(range(n), rng.randint(1, min(max_size, n))))
        if fams and rng.random() < 0.2:
            fams.append(list(reversed(rng.choice(fams))))  # a duplicate
        if rng.random() < 0.05:
            fams.append([])
    return n, fams


def run(engine, n, r, fams, symmetry):
    bud = Budget()
    return engine(n, r, fams, budget=bud, symmetry=symmetry), bud.nodes


@pytest.mark.parametrize("symmetry", [True, False])
@pytest.mark.parametrize("num_colors", [1, 2, 3, 4])
def test_matches_chronological_on_random_hypergraphs(num_colors, symmetry):
    rng = random.Random(1000 * num_colors + symmetry)
    for _ in range(300):
        # keep the reference's worst case, num_colors ** n nodes, small
        n, fams = random_hypergraph(
            rng, max_items=(12, 12, 10, 8)[num_colors - 1])
        got, nodes = run(find_proper_coloring, n, num_colors, fams, symmetry)
        want, ref_nodes = run(chronological, n, num_colors, fams, symmetry)
        assert got == want, (n, fams)
        assert nodes <= ref_nodes, (n, fams)
        assert (got, nodes) == forward_checking(n, num_colors, fams, symmetry)
        if got is not None:
            assert is_proper(got, fams)


@pytest.mark.parametrize("symmetry", [True, False])
@pytest.mark.parametrize("num_colors", [1, 2, 3, 4])
def test_matches_exhaustive_oracle(num_colors, symmetry):
    rng = random.Random(77 + 10 * num_colors + symmetry)
    for _ in range(120):
        n, fams = random_hypergraph(rng, max_items=6, max_families=8)
        got = find_proper_coloring(n, num_colors, fams, symmetry=symmetry)
        assert got == exhaustive(n, num_colors, fams), (n, fams)


@pytest.mark.parametrize("symmetry", [True, False])
def test_matches_chronological_on_line_families(symmetry):
    for length, t, r in [(2, 3, 2), (3, 2, 3), (2, 4, 2), (3, 3, 2)]:
        fams = [frozenset(word_index(w, t) for w in line.words(t))
                for line in enumerate_lines(length, t)]
        got, nodes = run(find_proper_coloring, t ** length, r, fams, symmetry)
        want, ref_nodes = run(chronological, t ** length, r, fams, symmetry)
        assert got == want
        assert nodes <= ref_nodes
        assert (got, nodes) == forward_checking(t ** length, r, fams, symmetry)


def test_edge_cases():
    assert find_proper_coloring(0, 1, []) == []
    assert find_proper_coloring(0, 3, []) == []
    assert find_proper_coloring(3, 2, []) == [0, 0, 0]
    assert find_proper_coloring(3, 2, [[]]) is None          # empty family
    assert find_proper_coloring(0, 2, [[]]) is None
    assert find_proper_coloring(3, 4, [[2]]) is None          # singleton
    assert find_proper_coloring(3, 2, [[0, 1], [1, 0]]) == [0, 1, 0]
    assert find_proper_coloring(3, 1, [[0, 2]]) is None
    with pytest.raises(ValueError):
        find_proper_coloring(3, 2, [[0, 3]])
    with pytest.raises(ValueError):
        find_proper_coloring(3, 2, [[-1, 1]])
    with pytest.raises(ValueError):
        find_proper_coloring(0, 2, [[0]])
    with pytest.raises(ValueError):
        find_proper_coloring(3, 0, [])


def test_singleton_family_costs_no_nodes():
    bud = Budget()
    assert find_proper_coloring(12, 3, [[0, 1], [11]], budget=bud) is None
    assert bud.nodes == 0


def test_accepts_a_generator_of_families():
    fams = [[0, 1], [1, 2], [0, 2]]
    assert (find_proper_coloring(3, 3, (f for f in fams))
            == find_proper_coloring(3, 3, fams) == [0, 1, 2])


# -- budget accounting ---------------------------------------------------------

# no 7-coloring of K_8 is proper; without the first-use cap the search
# needs 13699 nodes, a little over three chunks of 4096
CLIQUE = list(itertools.combinations(range(8), 2))


def clique_search(bud):
    return find_proper_coloring(8, 7, CLIQUE, budget=bud, symmetry=False)


def clique_nodes():
    bud = Budget()
    assert clique_search(bud) is None
    return bud.nodes


def test_node_cap_trips_at_one_past_max_nodes():
    total = clique_nodes()
    assert total > 3 * 4096 and total % 4096
    for k in [0, 1, 2, 4095, 4096, 4097, 8193, total - 1]:
        with pytest.raises(BudgetExceededError) as info:
            clique_search(Budget(max_nodes=k))
        assert info.value.nodes == k + 1
    for k in [total, total + 1, total + 5000]:
        bud = Budget(max_nodes=k)
        assert clique_search(bud) is None
        assert bud.nodes == total


def test_returning_search_flushes_its_partial_chunk():
    total = clique_nodes()
    for already in [1, 100, 4095, 4096, 9000]:
        bud = Budget()
        bud.spend(already)
        clique_search(bud)
        assert bud.nodes == already + total
    bud = Budget()
    assert find_proper_coloring(3, 2, [[0, 1], [1, 2]], budget=bud) == [0, 1, 0]
    assert bud.nodes == 3
    bud = Budget()
    assert find_proper_coloring(3, 1, [[0, 1]], budget=bud) is None
    assert bud.nodes == 1  # color 0 at item 0 leaves item 1 no color


def test_wall_cap_is_checked_on_multiples_of_4096():
    with pytest.raises(BudgetExceededError) as info:
        clique_search(Budget(max_ms=0))
    assert info.value.nodes == 4096
    bud = Budget()
    bud.spend(4000)
    bud.max_ms = 0
    with pytest.raises(BudgetExceededError) as info:
        clique_search(bud)
    assert info.value.nodes == 4096


def test_shared_budget_across_hj_lengths_sums_per_call_counts():
    per_call = []
    for length in (1, 2, 3):
        bud = Budget()
        line_free_coloring(length, 3, 2, budget=bud)
        per_call.append(bud.nodes)
    bud = Budget()
    assert hj_number(3, 2, 3, budget=bud)[0] is None
    assert bud.nodes == sum(per_call)
    with pytest.raises(BudgetExceededError) as info:
        hj_number(3, 2, 3, budget=Budget(max_nodes=sum(per_call) - 1))
    assert info.value.nodes == sum(per_call)


def test_shared_budget_across_min_arrow_ranks_sums_per_call_counts():
    per_call = [arrow_holds(ArrowInstance(2, VECTOR, big_n, 2, 1, 2)).nodes
                for big_n in (2, 3)]
    bud = Budget()
    assert min_arrow_N(2, VECTOR, 2, 1, 2, 5, budget=bud) == 3
    assert bud.nodes == sum(per_call)
