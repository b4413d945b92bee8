"""Combinatorial lines and Hales-Jewett style searches.

Words are length-N tuples over the alphabet {0, ..., t-1}, indexed
lexicographically (the word is its own base-t numeral, most significant
position first).  A combinatorial line fixes some positions and moves
the rest in lockstep through the alphabet, so it carries exactly t
words; at least one position must move.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .budget import Budget
from .coloring_search import find_proper_coloring
from .space import POINT_CAP, SizeCapError


class Line(namedtuple("Line", "length moving fixed")):
    """A combinatorial line in {0..t-1}^length."""

    __slots__ = ()

    def __new__(cls, length: int, moving: tuple[int, ...],
                fixed: tuple[tuple[int, int], ...]):
        if not moving:
            raise ValueError("a line needs at least one moving position")
        seen = set(moving)
        if len(seen) != len(moving) or tuple(sorted(seen)) != moving:
            raise ValueError("moving positions must be sorted and distinct")
        fixed_pos = [p for p, _ in fixed]
        if tuple(sorted(fixed_pos)) != tuple(fixed_pos):
            raise ValueError("fixed positions must be sorted")
        if seen | set(fixed_pos) != set(range(length)) or seen & set(fixed_pos):
            raise ValueError("moving and fixed must partition the positions")
        return super().__new__(cls, length, moving, fixed)

    def word(self, s: int) -> tuple[int, ...]:
        """The line's word at parameter value s."""
        out = [s] * self.length
        for p, v in self.fixed:
            out[p] = v
        return tuple(out)

    def words(self, t: int) -> list[tuple[int, ...]]:
        return [self.word(s) for s in range(t)]

    def to_json(self) -> dict:
        return {
            "length": self.length,
            "moving": list(self.moving),
            "fixed": [[p, v] for p, v in self.fixed],
        }


def word_index(word, t: int) -> int:
    idx = 0
    for x in word:
        idx = idx * t + x
    return idx


def all_words(length: int, t: int):
    """All words in lexicographic (= index) order."""
    return itertools.product(range(t), repeat=length)


def enumerate_lines(length: int, t: int):
    """All (t+1)^length - t^length lines, in a fixed deterministic order.

    Each position gets a code in {0..t}: a symbol to fix, or t for
    "moving".  Codes run in lexicographic order and all-fixed codes are
    skipped.
    """
    if length < 1 or t < 1:
        raise ValueError("length and alphabet size must be positive")
    for codes in itertools.product(range(t + 1), repeat=length):
        if t not in codes:
            continue
        moving = tuple(i for i, c in enumerate(codes) if c == t)
        fixed = tuple((i, c) for i, c in enumerate(codes) if c != t)
        yield Line(length, moving, fixed)


def find_monochromatic_line(colors_by_word, length: int, t: int) -> Line | None:
    """First line (enumeration order) whose t words share a color.

    `colors_by_word` is indexed by word index; entries may be any values
    comparable for equality.
    """
    for line in enumerate_lines(length, t):
        first = colors_by_word[word_index(line.word(0), t)]
        if all(colors_by_word[word_index(line.word(s), t)] == first
               for s in range(1, t)):
            return line
    return None


def word_generators(length: int, t: int) -> list[list[int]]:
    """Word permutations that carry combinatorial lines onto lines.

    The adjacent coordinate swaps, then the adjacent symbol swaps (one
    swap of two symbols applied at every position), each as the list of
    image word indices.  Only the first POINT_CAP // t^length of them are
    built, so a large alphabet costs at most about POINT_CAP word images;
    any subset of these symmetries may be broken.
    """
    words = list(all_words(length, t))

    def images():
        for i in range(length - 1):
            yield [w[:i] + (w[i + 1], w[i]) + w[i + 2:] for w in words]
        for s in range(t - 1):
            swap = list(range(t))
            swap[s], swap[s + 1] = s + 1, s
            yield [tuple([swap[x] for x in w]) for w in words]

    return [[word_index(w, t) for w in image]
            for image in itertools.islice(images(), POINT_CAP // len(words))]


def line_free_coloring(length: int, t: int, num_colors: int,
                       budget: Budget | None = None) -> list[int] | None:
    """Lex-least coloring of all words with no monochromatic line, or None.

    Raises SizeCapError, before building anything, when there are more
    than POINT_CAP words or more than POINT_CAP lines.  The lex-least
    coloring brings in at most one new color per word, so more colors
    than words change nothing and the search gets at most one color per
    word.  The search breaks the symmetry of `word_generators`.
    """
    words = t ** length
    if words > POINT_CAP:
        raise SizeCapError(f"{words} words of length {length}, cap {POINT_CAP}")
    lines = (t + 1) ** length - words
    if lines > POINT_CAP:
        raise SizeCapError(f"{lines} lines of length {length}, cap {POINT_CAP}")
    # a line's word indices increase with its parameter: the form the
    # search takes as it is
    families = tuple(tuple([word_index(w, t) for w in line.words(t)])
                     for line in enumerate_lines(length, t))
    return find_proper_coloring(words, min(num_colors, words), families,
                                budget=budget,
                                generators=word_generators(length, t))


def hj_number(t: int, num_colors: int, n_max: int,
              budget: Budget | None = None
              ) -> tuple[int | None, list[int] | None]:
    """Least N <= n_max forcing a monochromatic line, and the last witness.

    At the returned N every num_colors-coloring of {0..t-1}^N contains a
    monochromatic combinatorial line; at N - 1 some coloring avoids one.
    The witness is the lex-least line-free coloring at the largest length
    tried that has one: N - 1, or n_max when the value is None.  It is
    None when length 1 already forces a line.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    witness = None
    for length in range(1, n_max + 1):
        coloring = line_free_coloring(length, t, num_colors, budget=budget)
        if coloring is None:
            return length, witness
        witness = coloring
    return None, witness
