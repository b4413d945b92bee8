"""The forward-checking coloring search against three references.

`chronological` below is the plain backtracking search the engine
replaced: same item order, same color order, same first-use cap, but a
family is only checked once its highest item is colored.  On seeded
random hypergraphs the engine must return the same witness and never
explore more nodes.  `forward_checking` is a slow recursive statement of
the engine's own rules, lex-leader constraints included, so it pins the
exact node count.  Small cases are also checked against the first proper
coloring in `itertools.product` order.  On hypergraphs closed under a
random permutation group, the group's generators must leave the witness
unchanged and never add nodes.  The budget tests pin the node
accounting: where the cap trips, and that counts stay exact when one
budget is shared by several searches.
"""

import itertools
import random
import tracemalloc

import pytest

from qramsey import (AFFINE, POINT_CAP, VECTOR, ArrowInstance, Budget,
                     BudgetExceededError, arrow_holds, coloring_search,
                     enumerate_lines, find_proper_coloring, hj_number,
                     line_free_coloring, min_arrow_N, word_generators,
                     word_index)


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


def forward_checking(item_count, num_colors, families, symmetry=True,
                     generators=()):
    """Reference for the engine's node count: recursive forward checking.

    Domains and lex-leader states are recomputed from the families and
    generators at every step instead of kept in bitmasks, pointers and
    trails.  Returns (witness, nodes)."""
    fams = [sorted(set(f)) for f in families]
    if any(not f for f in fams):
        return None, 0
    colors = [None] * item_count

    def first_open(g):
        """(p, g[p]) of the first pair not settled equal, or a verdict."""
        for p in range(item_count):
            if g[p] == p:
                continue
            a, b = colors[p], colors[g[p]]
            if a is None or b is None:
                return p, g[p]
            if a != b:
                return a < b
        return True

    def forbidden(h):
        """Colors that would complete a family or break a constraint at h."""
        out = set()
        for f in fams:
            if f[-1] == h:
                below = {colors[i] for i in f[:-1]}
                if len(f) == 1:
                    out.update(range(num_colors))
                elif len(below) == 1 and None not in below:
                    out |= below
        for g in generators:
            state = first_open(g)
            if isinstance(state, tuple):
                p, gp = state
                if gp == h and colors[p] is not None:
                    out.update(range(colors[p]))          # need c[p] <= c[h]
                if p == h and colors[gp] is not None:
                    out.update(range(colors[gp] + 1, num_colors))
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
            if (all(first_open(g) is not False for g in generators)
                    and all(len(forbidden(h)) < num_colors
                            for h in range(idx + 1, item_count))):
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


def random_symmetric_hypergraph(rng, max_items):
    """(items, families, generators): families closed under the generators.

    Each generator is a random transposition or a random permutation."""
    n = rng.randint(2, max_items)
    gens = []
    for _ in range(rng.randint(1, 3)):
        perm = list(range(n))
        if rng.random() < 0.5:
            i, j = rng.sample(range(n), 2)
            perm[i], perm[j] = j, i
        else:
            rng.shuffle(perm)
        gens.append(perm)
    fams = {frozenset(rng.sample(range(n), rng.randint(2, min(3, n))))
            for _ in range(rng.randint(1, 12))}
    todo = list(fams)
    while todo:
        fam = todo.pop()
        for g in gens:
            image = frozenset(g[i] for i in fam)
            if image not in fams:
                fams.add(image)
                todo.append(image)
    return n, sorted(sorted(f) for f in fams), gens


def run(engine, n, r, fams, symmetry, **kwargs):
    bud = Budget()
    return engine(n, r, fams, budget=bud, symmetry=symmetry, **kwargs), bud.nodes


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


@pytest.mark.parametrize("symmetry", [True, False])
@pytest.mark.parametrize("num_colors", [2, 3, 4])
def test_generators_keep_the_witness_on_symmetric_hypergraphs(num_colors,
                                                              symmetry):
    rng = random.Random(500 + 10 * num_colors + symmetry)
    for _ in range(150):
        n, fams, gens = random_symmetric_hypergraph(
            rng, max_items=(12, 11, 10)[num_colors - 2])
        got, nodes = run(find_proper_coloring, n, num_colors, fams, symmetry,
                         generators=gens)
        want, plain_nodes = run(find_proper_coloring, n, num_colors, fams,
                                symmetry)
        assert got == want, (n, fams, gens)
        assert nodes <= plain_nodes, (n, fams, gens)
        assert (got, nodes) == forward_checking(n, num_colors, fams, symmetry,
                                                gens)


def test_generators_prune_a_symmetric_clique():
    # K_6 is invariant under every permutation of its vertices, and has
    # no proper coloring in fewer than six colors
    fams = list(itertools.combinations(range(6), 2))
    gens = [[1, 0, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0]]
    for r in (4, 5):
        got, nodes = run(find_proper_coloring, 6, r, fams, False,
                         generators=gens)
        want, plain_nodes = run(find_proper_coloring, 6, r, fams, False)
        assert got is want is None and nodes < plain_nodes
        assert (got, nodes) == forward_checking(6, r, fams, False, gens)


def test_generators_are_validated():
    fams = [[0, 1], [1, 2]]  # a path, whose only symmetry reverses it
    assert find_proper_coloring(3, 2, fams, generators=[[2, 1, 0]]) == [0, 1, 0]
    assert find_proper_coloring(3, 2, fams, generators=[[0, 1, 2]]) == [0, 1, 0]
    for not_a_permutation in ([0, 1], [0, 1, 2, 3], [0, 0, 2], [1, 2, 3]):
        with pytest.raises(ValueError, match="not a permutation"):
            find_proper_coloring(3, 2, fams, generators=[not_a_permutation])
    with pytest.raises(ValueError, match="outside the families"):
        find_proper_coloring(3, 2, fams, generators=[[1, 0, 2]])
    with pytest.raises(ValueError, match="outside the families"):
        find_proper_coloring(3, 2, fams, generators=[[2, 1, 0], [0, 2, 1]])


def frozenset_generators(item_count, fams, generators):
    """The generator check on one frozenset per family and generator, the
    reference for the engine's check on family keys."""
    family_set = set(map(frozenset, fams))
    out = []
    items = list(range(item_count))
    for gen in generators:
        perm = tuple(gen)
        if sorted(perm) != items:
            raise ValueError("generator is not a permutation of the items")
        image = perm.__getitem__
        if not family_set.issuperset(frozenset(map(image, fam))
                                     for fam in family_set):
            raise ValueError("generator maps a family outside the families")
        moved = [p for p in items if perm[p] != p]
        if moved:
            out.append((perm, moved))
    return out


def generator_outcome(check, item_count, fams, generators):
    """What a generator check returns, or the message it raises."""
    try:
        return check(item_count, fams, generators)
    except ValueError as exc:
        return str(exc)


def short_cycle_hypergraph(rng, max_items):
    """(items, families, automorphism): families of 1 to 6 members closed
    under a product of disjoint 2-, 3- and 4-cycles, whose order divides
    12, so no orbit is longer than 12 at any item count."""
    n = rng.randint(1, max_items)
    perm = list(range(n))
    pool = rng.sample(range(n), rng.randint(0, n))
    while len(pool) >= 2:
        cycle = [pool.pop() for _ in range(min(rng.randint(2, 4), len(pool)))]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            perm[a] = b
    fams = set()
    for _ in range(rng.randint(1, 20)):
        fam = frozenset(rng.sample(range(n), rng.randint(1, min(6, n))))
        for _ in range(12):
            fams.add(fam)
            fam = frozenset(perm[i] for i in fam)
    return n, [sorted(f) for f in fams], perm


def pass_size(item_count, fams):
    """How many generators one packed pass of the engine's check holds:
    the distinct nonempty families per item, at least one."""
    return max(1, len({tuple(f) for f in fams if f}) // max(item_count, 1))


def test_bitmask_generator_check_matches_the_frozenset_check():
    rng = random.Random(23)
    verdicts = {True: 0, False: 0}
    # which check ran: the engine packs bitmasks unless the items
    # outnumber twice the nonempty families, where it takes frozensets
    key_kinds = {"packed": 0, "frozenset": 0}
    multi_pass = 0  # packed cases with more than one generator per pass
    for trial in range(400):
        if trial % 2:
            n, fams, gens = random_symmetric_hypergraph(rng, max_items=12)
        else:
            n, fams, auto = short_cycle_hypergraph(rng, max_items=300)
            gens = [auto]
        # repeated families, and now and then the empty family, in the
        # sorted member lists the engine passes
        fams = fams + [rng.choice(fams) for _ in range(rng.randint(0, 3))]
        if rng.random() < 0.1:
            fams.append([])
        fams = [sorted(set(f)) for f in fams]
        packed = n <= 2 * sum(map(bool, fams))
        key_kinds["packed" if packed else "frozenset"] += 1
        per = pass_size(n, fams)
        multi_pass += packed and per > 1
        shuffled = list(range(n))
        rng.shuffle(shuffled)
        candidates = [*gens, shuffled, list(range(n)), list(range(n + 1))]
        # three passes of generators that pass, the last holding one
        passes = [gens[i % len(gens)] for i in range(2 * per + 1)]
        spoiled_passes = []
        if n >= 2:
            spoiled = list(rng.choice(gens))
            i, j = rng.sample(range(n), 2)
            spoiled[i], spoiled[j] = spoiled[j], spoiled[i]
            candidates.append(spoiled)
            # the spoiled generator in the last slice of the first, the
            # second and the third pass
            spoiled_passes = [passes[:at] + [spoiled] + passes[at + 1:]
                              for at in (per - 1, 2 * per - 1, 2 * per)]
        for generators in ([[g] for g in candidates]
                           + [gens, candidates, passes, *spoiled_passes]):
            got = generator_outcome(coloring_search._lex_leader_generators,
                                    n, fams, generators)
            want = generator_outcome(frozenset_generators, n, fams, generators)
            assert got == want, (n, fams, generators)
            verdicts[isinstance(got, list)] += 1
    # both verdicts and both kinds of check are common, and passes of
    # several generators are, so no side of the check goes untested
    assert min(verdicts.values()) > 500, verdicts
    assert min(key_kinds.values()) > 100, key_kinds
    assert multi_pass > 50, multi_pass


OK, NOT_PERM, OUTSIDE = [2, 1, 0], [0, 0, 2], [1, 0, 2]


@pytest.mark.parametrize("fams", [
    [[0, 1], [1, 2]],                                  # one generator a pass
    [[0, 1], [1, 2], [0], [2], [0, 1, 2], [0, 2]],     # two a pass
])
@pytest.mark.parametrize("generators,message", [
    ([OK, NOT_PERM, OUTSIDE], "not a permutation"),
    ([OUTSIDE, NOT_PERM], "outside the families"),
    ([OK, OK, OUTSIDE, NOT_PERM], "outside the families"),
    ([NOT_PERM, OUTSIDE], "not a permutation"),
])
def test_first_bad_generator_names_the_fault(fams, generators, message):
    assert coloring_search._lex_leader_generators(3, fams, [OK]) == \
        [(tuple(OK), [0, 2])]
    assert generator_outcome(frozenset_generators, 3, fams, [OUTSIDE]) == \
        "generator maps a family outside the families"
    for check in (coloring_search._lex_leader_generators, frozenset_generators):
        with pytest.raises(ValueError, match=message):
            check(3, fams, generators)


def test_packed_check_holds_one_pass_at_a_time():
    # the translates {i, i+1, i+3} of Z_2048 under 64 shifts: 2048 families
    # of 2048 items, so a pass holds one generator.  Packed all at once,
    # the table would hold 2048 ints of 64 * 256 bytes, about 33 MB.
    n = 2048
    families = [sorted({i, (i + 1) % n, (i + 3) % n}) for i in range(n)]
    generators = [[(i + s) % n for i in range(n)] for s in range(1, 65)]
    tracemalloc.start()
    try:
        got = coloring_search._lex_leader_generators(n, families, generators)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20, peak
    assert [perm for perm, _ in got] == list(map(tuple, generators))


@pytest.mark.parametrize("length,t", [(1, POINT_CAP), (2, 256)])
def test_generator_check_stays_small_on_many_items(length, t):
    # POINT_CAP words: at length 1 one line holds them all, at length 2
    # there are 1028 lines of 256.  A table of one bitmask per word would
    # take about 286 MB.
    families = [sorted(word_index(w, t) for w in line.words(t))
                for line in enumerate_lines(length, t)]
    generators = word_generators(length, t)
    tracemalloc.start()
    try:
        got = coloring_search._lex_leader_generators(t ** length, families,
                                                     generators)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20
    assert got == frozenset_generators(t ** length, families, generators)


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


def test_node_cap_trips_at_one_past_max_nodes_with_generators():
    gens = [[1, 0] + list(range(2, 8)), [*range(1, 8), 0]]

    def search(bud):
        return find_proper_coloring(8, 7, CLIQUE, budget=bud, symmetry=False,
                                    generators=gens)

    bud = Budget()
    assert search(bud) is None
    total = bud.nodes
    assert 4096 < total < clique_nodes()
    for k in [0, 1, 4095, 4096, 4097, total - 1]:
        with pytest.raises(BudgetExceededError) as info:
            search(Budget(max_nodes=k))
        assert info.value.nodes == k + 1
    bud = Budget(max_nodes=total)
    assert search(bud) is None
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


def arrow_nodes(q, mode, big_n, n, k, r):
    return arrow_holds(ArrowInstance(q, mode, big_n, n, k, r)).nodes


def min_n_nodes(q, mode, n, k, r, n_max):
    bud = Budget()
    min_arrow_N(q, mode, n, k, r, n_max, budget=bud)
    return bud.nodes


def hj_nodes(t, length, n_max):
    bud = Budget()
    hj_number(t, length, n_max, budget=bud)
    return bud.nodes


# the nodes_explored that the arrow and hj jobs of perfbench/workloads.py
# print (arrow_v5_2_1_3's 2440 is pinned in test_arrow.py): the generator
# check decides which generators prune, so a change to it that kept the
# verdicts could still move these
@pytest.mark.parametrize("count,args,nodes", [
    (arrow_nodes, (2, VECTOR, 7, 2, 1, 2), 13),      # arrow_v7_2_1_2
    (arrow_nodes, (2, VECTOR, 6, 3, 1, 3), 63),      # arrow_v6_3_1_3
    (arrow_nodes, (2, AFFINE, 6, 3, 1, 2), 36),      # arrow_a6_3_1_2
    (arrow_nodes, (2, AFFINE, 6, 3, 1, 3), 5553),    # arrow_a6_3_1_3
    (arrow_nodes, (3, VECTOR, 3, 2, 1, 2), 13),      # arrow_v3_q3
    (min_n_nodes, (2, VECTOR, 2, 1, 2, 6), 16),      # minn_v_2_1_2
    (hj_nodes, (3, 2, 4), 43997),                    # hj_3_2
    (hj_nodes, (4, 2, 3), 88),                       # hj_4_2
])
def test_benchmark_search_jobs_keep_their_node_counts(count, args, nodes):
    assert count(*args) == nodes
