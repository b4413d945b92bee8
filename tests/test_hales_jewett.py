"""Combinatorial line search.

The oracle builds lines a second way: choose a nonempty moving set via
itertools.combinations, then fix the complement symbol by symbol.  Word
sets from both generators must coincide, and the mono-line verdict on
random colorings must agree with a from-scratch scan.
"""

import itertools
import random

import pytest

from qramsey import (Budget, BudgetExceededError, Line, all_words,
                     enumerate_lines, find_monochromatic_line, hj_number,
                     line_free_coloring, word_index)


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


def test_hj_budget_exhaustion():
    with pytest.raises(BudgetExceededError):
        hj_number(2, 2, 4, budget=Budget(max_nodes=3))


def test_hj_rejects_bad_cap():
    with pytest.raises(ValueError):
        hj_number(2, 2, 0)
