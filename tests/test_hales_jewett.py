"""Combinatorial line search.

The oracle builds lines a second way: choose a nonempty moving set via
itertools.combinations, then fix the complement symbol by symbol.  Word
sets from both generators must coincide, and the mono-line verdict on
random colorings must agree with a from-scratch scan.
"""

import itertools
import random

import pytest

from qramsey import (POINT_CAP, Budget, BudgetExceededError, Line,
                     SizeCapError, all_words, enumerate_lines,
                     find_monochromatic_line, find_proper_coloring,
                     hales_jewett, hj_number, line_free_coloring, word_generators,
                     word_index)


def oracle_lines(length, t):
    """Every line as a frozenset of its t words."""
    out = set()
    for m in range(1, length + 1):
        for moving in itertools.combinations(range(length), m):
            rest = [p for p in range(length) if p not in moving]
            for syms in itertools.product(range(t), repeat=len(rest)):
                words = []
                for s in range(t):
                    w = [s] * length
                    for p, v in zip(rest, syms):
                        w[p] = v
                    words.append(tuple(w))
                out.add(frozenset(words))
    return out


def oracle_has_mono_line(colors, length, t):
    return any(len({colors[word_index(w, t)] for w in ws}) == 1
               for ws in oracle_lines(length, t))


# -- line objects ---------------------------------------------------------


def test_line_words():
    ln = Line(3, (0, 2), ((1, 4),))
    assert ln.word(0) == (0, 4, 0)
    assert ln.word(2) == (2, 4, 2)
    assert ln.words(2) == [(0, 4, 0), (1, 4, 1)]


def test_line_validation():
    with pytest.raises(ValueError):
        Line(2, (), ((0, 1), (1, 0)))  # nothing moves
    with pytest.raises(ValueError):
        Line(2, (1, 0), ())  # moving not sorted
    with pytest.raises(ValueError):
        Line(2, (0,), ())  # position 1 unaccounted for
    with pytest.raises(ValueError):
        Line(2, (0, 1), ((1, 0),))  # overlap


def test_word_index_is_base_t():
    assert word_index((1, 0, 2), 3) == 11
    assert word_index((0, 0), 5) == 0
    words = list(all_words(2, 3))
    assert [word_index(w, 3) for w in words] == list(range(9))


@pytest.mark.parametrize("length,t", [(1, 2), (2, 2), (3, 2), (2, 3), (1, 4), (2, 4)])
def test_enumerate_lines_matches_oracle(length, t):
    got = [frozenset(line.words(t)) for line in enumerate_lines(length, t)]
    assert len(got) == (t + 1) ** length - t**length
    assert len(set(got)) == len(got)
    assert set(got) == oracle_lines(length, t)


def test_enumerate_lines_rejects_degenerate():
    with pytest.raises(ValueError):
        list(enumerate_lines(0, 2))
    with pytest.raises(ValueError):
        list(enumerate_lines(2, 0))


# -- mono-line search ------------------------------------------------------


@pytest.mark.parametrize("length,t,colors", [(2, 2, 2), (3, 2, 2), (2, 3, 2), (2, 2, 3)])
def test_find_mono_line_agrees_with_oracle(length, t, colors):
    rng = random.Random(400 + 10 * length + t)
    for _ in range(60):
        coloring = [rng.randrange(colors) for _ in range(t**length)]
        got = find_monochromatic_line(coloring, length, t)
        expect = oracle_has_mono_line(coloring, length, t)
        assert (got is not None) == expect
        if got is not None:
            assert len({coloring[word_index(w, t)] for w in got.words(t)}) == 1


def test_find_mono_line_accepts_tuple_colors():
    # color values only need equality; patterns are tuples downstream
    coloring = [(0, 1), (0, 1), (1, 0), (0, 1)]
    ln = find_monochromatic_line(coloring, 2, 2)
    assert ln is not None
    assert {word_index(w, 2) for w in ln.words(2)} == {0, 1}


def test_constant_coloring_always_has_line():
    for length in (1, 2, 3):
        assert find_monochromatic_line([7] * (2**length), length, 2) is not None


# -- line-free colorings and HJ numbers -----------------------------------


def test_line_free_coloring_golden():
    assert line_free_coloring(1, 2, 2) == [0, 1]
    assert line_free_coloring(1, 2, 1) is None  # one color cannot dodge


def test_line_free_coloring_is_line_free():
    col = line_free_coloring(2, 2, 3)
    assert col is not None
    assert not oracle_has_mono_line(col, 2, 2)
    assert col[0] == 0  # lex-least colorings always start at color 0


def test_line_free_coloring_none_when_forced():
    assert line_free_coloring(2, 2, 2) is None
    assert line_free_coloring(3, 2, 2) is None  # monotone above the threshold


def test_hj_trivial_values():
    for t in range(1, 6):
        assert hj_number(t, 1, 3) == (1, None)  # length 1 has no witness
    for l in range(1, 6):
        assert hj_number(1, l, 3) == (1, None)


def test_hj_2_2_golden():
    assert hj_number(2, 2, 4) == (2, [0, 1])  # witness at N = 1


def test_hj_none_within_range():
    # 2 symbols, 3 colors: N = 1, 2 are dodgeable, so a cap of 2 gives None
    value, witness = hj_number(2, 3, 2)
    assert value is None
    assert witness == line_free_coloring(2, 2, 3) == [0, 1, 1, 2]  # at N = 2


def test_hj_monotone_via_slice_embedding():
    # a coloring of the length-3 cube restricts to its last-letter-0 slice;
    # the slice's forced mono line lifts by pinning that letter, so a length
    # that works keeps working when extended
    rng = random.Random(13)
    for _ in range(25):
        col3 = [rng.randrange(2) for _ in range(2**3)]
        col2 = [0] * 4
        for w in all_words(2, 2):
            col2[word_index(w, 2)] = col3[word_index(w + (0,), 2)]
        ln2 = find_monochromatic_line(col2, 2, 2)
        assert ln2 is not None  # length 2 is at the 2-color threshold
        lifted = Line(3, ln2.moving, ln2.fixed + ((2, 0),))
        assert len({col3[word_index(w, 2)] for w in lifted.words(2)}) == 1


def unclamped_hj(t, num_colors, n_max, budget):
    """hj_number's loop, searching with every one of the num_colors colors."""
    witness = None
    for length in range(1, n_max + 1):
        families = [frozenset(word_index(w, t) for w in line.words(t))
                    for line in enumerate_lines(length, t)]
        coloring = find_proper_coloring(
            t ** length, num_colors, families, budget=budget,
            generators=word_generators(length, t))
        if coloring is None:
            return length, witness
        witness = coloring
    return None, witness


@pytest.mark.parametrize("t", [1, 2, 3])
def test_color_clamp_matches_unclamped_search(t):
    # more colors than words: the search gets one color per word, which
    # must leave the value, the witness and the node count unchanged
    for num_colors in (1, 2, 3, 5, 9, 30):
        for n_max in (1, 2, 3):
            bud, ref_bud = Budget(), Budget()
            got = hj_number(t, num_colors, n_max, budget=bud)
            assert got == unclamped_hj(t, num_colors, n_max, ref_bud)
            assert bud.nodes == ref_bud.nodes


def test_line_free_coloring_size_cap(monkeypatch):
    def no_lines(length, t):
        raise AssertionError("lines built before the size check")

    monkeypatch.setattr(hales_jewett, "enumerate_lines", no_lines)
    with pytest.raises(SizeCapError):
        line_free_coloring(3, 1000, 2)  # 10^9 words
    with pytest.raises(SizeCapError):
        # the least power of 2 above the cap
        line_free_coloring(POINT_CAP.bit_length(), 2, 2)


def test_line_free_coloring_line_cap(monkeypatch):
    def fail(*args):
        raise AssertionError("built before the size check")

    for name in ("enumerate_lines", "all_words", "word_generators"):
        monkeypatch.setattr(hales_jewett, name, fail)
    # 2,048 words pass the word cap, but 3^11 - 2^11 lines do not
    with pytest.raises(SizeCapError, match="175099 lines of length 11"):
        line_free_coloring(11, 2, 2)


# -- structural symmetry ---------------------------------------------------------


def oracle_line_indices(length, t):
    return {frozenset(word_index(w, t) for w in ws)
            for ws in oracle_lines(length, t)}


@pytest.mark.parametrize("t,max_length", [(1, 4), (2, 6), (3, 4), (4, 3)])
def test_word_generators_map_lines_onto_lines(t, max_length):
    for length in range(1, max_length + 1):
        lines = {frozenset(word_index(w, t) for w in line.words(t))
                 for line in enumerate_lines(length, t)}
        assert lines == oracle_line_indices(length, t)
        gens = word_generators(length, t)
        assert len(gens) == length - 1 + t - 1
        for perm in gens:
            assert sorted(perm) == list(range(t ** length))
            assert {frozenset(perm[i] for i in ln) for ln in lines} == lines


def test_word_generators_are_capped_for_large_alphabets():
    gens = word_generators(1, 1000)
    assert len(gens) == POINT_CAP // 1000
    assert gens[0][:3] == [1, 0, 2]  # symbols 0 and 1 swapped
    assert gens[-1][63:67] == [63, 65, 64, 66]
    assert len(word_generators(2, 256)) == 1  # the coordinate swap alone


@pytest.mark.parametrize("t,length,num_colors", [
    (2, 6, 2), (2, 6, 3), (3, 3, 2), (3, 3, 3), (3, 4, 3), (4, 3, 2),
    (4, 3, 3), (4, 4, 2)])
def test_word_generators_keep_the_witness(t, length, num_colors):
    families = [frozenset(word_index(w, t) for w in line.words(t))
                for line in enumerate_lines(length, t)]
    plain, pruned = Budget(), Budget()
    want = find_proper_coloring(t ** length, num_colors, families, budget=plain)
    assert line_free_coloring(length, t, num_colors, budget=pruned) == want
    assert pruned.nodes <= plain.nodes


def test_hj_number_size_cap():
    # length 1 (1000 words) is searched; length 2 (10^6 words) is refused
    with pytest.raises(SizeCapError):
        hj_number(1000, 2, 3)


def test_hj_budget_exhaustion():
    with pytest.raises(BudgetExceededError):
        hj_number(2, 2, 4, budget=Budget(max_nodes=3))


def test_hj_rejects_bad_cap():
    with pytest.raises(ValueError):
        hj_number(2, 2, 0)
