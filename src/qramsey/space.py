"""Vector and affine subspace algebra over GF(q), with canonical forms.

A computation fixes one mode.  In vector mode a subspace is the linear
span of its direction rows; in affine mode it is a flat: basepoint plus
the span of the direction rows.  Rank counts basis points, so an affine
flat of geometric dimension d has rank d + 1 (its basis is d + 1 points)
while a vector space of dimension d has rank d.

Canonical form: rows in reduced row echelon form with strictly
increasing pivots.  A flat is stored as its homogenized subspace, the
span of its points lifted to [1 | p]: rows [1 | b], for the unique
basepoint b zero on the direction's pivot columns, then [0 | r] for each
direction row r, so one vector code path serves both modes.  Two
Subspace values are equal exactly when they have the same point set.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache

from .field import Field, make_field

# A vector over GF(q) is a bytes object, one field element per byte.
# bytes order is tuple order, so sorting vectors sorts them
# lexicographically; bytes hash once and compare, slice and concatenate
# in C.
Vec = bytes

VECTOR = "vector"
AFFINE = "affine"
# what a point takes in front as a row of the mode's stored form: a flat's
# points are lifted to [1 | p]
_LIFT = {VECTOR: b"", AFFINE: b"\1"}

POINT_CAP = 1 << 16


def count_text(count: int) -> str:
    """A count for a message: exact up to 64 bits, else a power-of-two bound.

    Python refuses to turn integers of more than 4,300 digits into text,
    and the counts a size cap refuses can be that large.
    """
    if count.bit_length() <= 64:
        return str(count)
    return f"at least 2^{count.bit_length() - 1}"


class SizeCapError(ValueError):
    """An enumeration would exceed the configured point/item cap."""


def _check_mode(mode: str) -> None:
    if mode not in (VECTOR, AFFINE):
        raise ValueError(f"mode must be {VECTOR!r} or {AFFINE!r}, got {mode!r}")


@lru_cache(maxsize=None)
def _elements(q: int) -> bytes:
    """The elements of GF(q) as one bytes object.

    v.translate(None, _elements(q)) deletes every entry that is an
    element, so it is empty exactly when all of v's entries are.
    """
    return bytes(range(q))


def _check_bytes(vectors, what: str) -> None:
    """TypeError unless every vector is bytes: a tuple of the same entries
    would compare unequal to it without any error."""
    others = set(map(type, vectors)) - {bytes}
    if others:
        raise TypeError(f"{what} must be bytes, not {others.pop().__name__}")


def _direction_error(rows, message: str) -> ValueError:
    """The ValueError for a malformed direction row, unless some row is
    not bytes: that TypeError is raised here instead, as the type check
    comes before every row check."""
    _check_bytes(rows, "direction rows")
    return ValueError(message)


# ---------------------------------------------------------------------------
# vector / matrix primitives
#
# One code path serves every q.  An element fits in four bits, so `_pairs`
# packs two vectors into one whose byte j indexes the field's pair tables,
# and a single bytes.translate then adds or subtracts every entry at once.
# Scaling is one translate by the scalar's table.  Every row operation
# thus runs in C, whatever the width.

def _pairs(a: Vec, b: Vec) -> bytes:
    """Byte j is 16 * a[j] + b[j], the index of (a[j], b[j]) in a pair table.

    Entries are below 16, so shifting a's big-endian int four bits moves
    each entry into the high half of its own byte, with no carry.
    """
    return ((int.from_bytes(a) << 4) | int.from_bytes(b)).to_bytes(len(a))


def _lead(v: Vec) -> int:
    """The first nonzero column of v, or len(v) when v is zero."""
    return len(v) - len(v.lstrip(b"\0"))


def vec_add(f: Field, a: Vec, b: Vec) -> Vec:
    return _pairs(a, b).translate(f.add_pairs)


def vec_sub(f: Field, a: Vec, b: Vec) -> Vec:
    return _pairs(a, b).translate(f.sub_pairs)


def vec_scale(f: Field, c: int, v: Vec) -> Vec:
    return v.translate(f.scale[c])


def _add_multiple(f: Field, v: Vec, c: int, row: Vec) -> Vec:
    """v + c * row."""
    return _pairs(v, row.translate(f.scale[c])).translate(f.add_pairs)


_NONZERO = b"\0" + b"\1" * 255


def _support(v: Vec) -> list[int]:
    """The columns where v is nonzero, in order.

    Each is one memchr-speed find in a copy of v with every nonzero entry
    set to 1, so a sparse vector costs a step per nonzero entry, not per
    column.
    """
    marks = v.translate(_NONZERO)
    out = []
    j = marks.find(1)
    while j >= 0:
        out.append(j)
        j = marks.find(1, j + 1)
    return out


def mat_vec(f: Field, columns: tuple[Vec, ...], v: Vec, base: Vec) -> Vec:
    """base + M v, for the matrix M with these columns: base plus v[j]
    times columns[j], over v's nonzero entries.

    A map stores its columns, so each step reads one stored vector
    whole.  base is the zero vector of the codomain, or an affine map's
    translation; it also gives the length when there are no columns.
    """
    for j in _support(v):
        base = _add_multiple(f, base, v[j], columns[j])
    return base


def transpose(rows: tuple[Vec, ...], width: int) -> tuple[Vec, ...]:
    """The columns of the rows, each of length len(rows); width is the
    rows' length, which gives the column count when there are no rows."""
    return tuple(map(bytes, zip(*rows))) if rows else (b"",) * width


def identity_rows(n: int) -> tuple[Vec, ...]:
    zero = bytes(n)
    return tuple(zero[:i] + b"\1" + zero[i + 1:] for i in range(n))


def _reduce_at_lead(f: Field, rows: dict[int, Vec], v: Vec) -> tuple[int, Vec]:
    """Reduce v at its leading column while a row of `rows` pivots there.

    `rows` maps pivot columns to echelon rows led by 1.  A row is zero
    before its pivot, so each step moves the lead right.  Returns the
    final lead and the residual: the lead is len(v) when v reduced to
    zero, and otherwise a column that no row pivots on, where no
    further reduction by the rows could clear v.
    """
    while (p := _lead(v)) < len(v):
        row = rows.get(p)
        if row is None:
            break
        v = _add_multiple(f, v, f.neg(v[p]), row)
    return p, v


def rref(f: Field, rows) -> tuple[tuple[Vec, ...], tuple[int, ...]]:
    """Reduced row echelon form.  Returns (nonzero rows, pivot columns).

    The forward pass files each row under its leading column after
    `_reduce_at_lead` by the rows filed so far; a zero residual is
    dropped.  Back-substitution then clears each pivot column from the
    rightmost to the left, in the rows above it with a nonzero entry
    there.  A row is zero left of its pivot, so clearing a column
    changes no entry to its left: the rows' columns in one snapshot
    taken before the pass are read when their turn comes.
    """
    filed: dict[int, Vec] = {}  # lead column -> echelon row, led by 1
    for v in rows:
        p, v = _reduce_at_lead(f, filed, v)
        if p < len(v):
            filed[p] = v if v[p] == 1 else vec_scale(f, f.inv(v[p]), v)
    pivots = sorted(filed)
    mat = [filed[p] for p in pivots]
    if mat:
        width, joined = len(mat[0]), b"".join(mat)
        for i in range(len(mat) - 1, 0, -1):
            c, prow = pivots[i], mat[i]
            # column c of the rows above row i
            for r in _support(joined[c:i * width:width]):
                mat[r] = _add_multiple(f, mat[r], f.neg(mat[r][c]), prow)
    return tuple(mat), tuple(pivots)


def nullspace_rows(f: Field, rows: tuple[Vec, ...], ncols: int) -> tuple[Vec, ...]:
    """A basis of {x : rows . x = 0}, one vector per free column."""
    red, piv = rref(f, rows)
    pivset = set(piv)
    out = []
    for free in range(ncols):
        if free in pivset:
            continue
        v = bytearray(ncols)
        v[free] = 1
        for row, p in zip(red, piv):
            v[p] = f.neg(row[free])
        out.append(bytes(v))
    return tuple(out)


def combination_points(f: Field, origin: Vec, rows) -> list[Vec]:
    """origin + sum of c_i * rows[i] over every coefficient vector c.

    In itertools.product order, the last coefficient running fastest:
    each row multiplies the list built so far, each point followed by
    its sums with the row's nonzero multiples.
    """
    add, width = f.add_pairs, len(origin)
    pts = [origin]
    for row in rows:
        steps = [int.from_bytes(row.translate(m)) for m in f.scale[1:]]
        grown = []
        for p in pts:
            shifted = int.from_bytes(p) << 4
            grown.append(p)
            grown.extend([(shifted | s).to_bytes(width).translate(add)
                          for s in steps])
        pts = grown
    return pts


# ---------------------------------------------------------------------------
# subspaces

def _pivot_mask(width: int, pivots) -> int:
    """The int of a width-long vector with 0xFF on the pivot columns: ANDed
    with a vector's int, it keeps the vector's pivot entries alone."""
    mask = bytearray(width)
    for p in pivots:
        mask[p] = 0xFF
    return int.from_bytes(mask)


def _unit(width: int, p: int) -> int:
    """The int of the width-long unit vector with its 1 at column p."""
    return 1 << 8 * (width - 1 - p)


def _check_rows(rows: tuple[Vec, ...], width: int, elements: bytes) -> int:
    """Check direction rows in canonical form in one pass; return the
    int that is 0xFF on each pivot column.

    A row leads with its pivot, so it is zero on every earlier pivot; it
    is reduced when every earlier row is zero on its own pivot, which one
    OR of the earlier rows shows.  That miss is raised after every row's
    own checks, and a row that is not bytes raises before any of them
    (`_direction_error`).
    """
    many = len(rows) > 1  # a single row is reduced: its pivot entry is 1
    earlier = 0    # the OR of the earlier rows' ints
    on_pivots = 0  # 0xFF on each pivot column so far
    reduced = True
    piv_prev = -1
    for row in rows:
        if type(row) is not bytes or len(row) != width:
            raise _direction_error(rows, "direction row length differs "
                                         "from ambient_len")
        if row.translate(None, elements):
            raise _direction_error(rows, "direction entries out of field range")
        p = width - len(row.lstrip(b"\0"))
        if p == width:
            raise _direction_error(rows, "zero row in direction")
        if p <= piv_prev:
            raise _direction_error(rows, "pivots must be strictly increasing")
        if row[p] != 1:
            raise _direction_error(rows, "pivot entries must be 1")
        column = 0xFF << 8 * (width - 1 - p)
        if many:
            if earlier & column:
                reduced = False
            earlier |= int.from_bytes(row)
        on_pivots |= column
        piv_prev = p
    if not reduced:
        raise ValueError("non-reduced entry above/below a pivot")
    return on_pivots


def _check_basepoint(point: Vec, width: int, elements: bytes,
                     on_pivots: int) -> None:
    """Check a flat's basepoint, `width` entries zero on the pivot
    columns `on_pivots` (`_check_rows`)."""
    if type(point) is not bytes:
        _check_bytes([point], "the basepoint")
    if len(point) != width:
        raise ValueError("basepoint length differs from ambient_len")
    if point.translate(None, elements):
        raise ValueError("basepoint entries out of field range")
    if int.from_bytes(point) & on_pivots:
        raise ValueError("basepoint must be zero on pivot columns")


class Subspace:
    """A canonical vector subspace or affine flat of GF(q)^ambient_len,
    stored as its `rows`, which `direction` and `basepoint` read back.

    Slotted, because hosts and enumerations hold many thousands of them,
    and immutable.  Equality and the hash read the fields, never the
    `_key` and `_pivot_rows` caches that `key()` and `pivots()` fill.
    """

    __slots__ = ("mode", "field", "ambient_len", "rows", "_key", "_pivot_rows")

    def __init__(self, mode: str, field: Field, ambient_len: int,
                 direction: tuple[Vec, ...], basepoint: Vec | None = None):
        """Check the canonical form (`_check_rows`, then a flat's
        basepoint), then write the slots."""
        _check_mode(mode)
        elements = _elements(field.order)
        if ambient_len < 0:
            raise ValueError("ambient_len must be nonnegative")
        rows = tuple(direction)
        on_pivots = _check_rows(rows, ambient_len, elements)
        if mode == VECTOR:
            if basepoint is not None:
                raise ValueError("vector-mode subspaces carry no basepoint")
        else:
            if basepoint is None:
                raise ValueError("affine-mode subspaces need a basepoint")
            _check_basepoint(basepoint, ambient_len, elements, on_pivots)
            rows = (b"\1" + basepoint,) + tuple([b"\0" + r for r in rows])
        _write_slots(self, mode, field, ambient_len, rows, None)

    @staticmethod
    def from_rows(mode: str, field: Field, ambient_len: int,
                  rows: tuple[Vec, ...]) -> "Subspace":
        """The Subspace with these canonical rows, through the checks.

        A flat's rows are checked in place, one column wider than its
        ambient: rows 1.. as direction rows [0 | d], then row 0 as its
        basepoint [1 | b].  Column 0 is zero below row 0, so each fault
        gets the message the constructor gives it on (d, b).
        """
        if mode == VECTOR:
            return Subspace(VECTOR, field, ambient_len, rows)
        rows = tuple(rows)
        if not rows or rows[0][0] != 1:
            raise ValueError("affine-mode subspaces need a basepoint")
        if any(r[0] for r in rows[1:]):  # the constructor sees no column 0
            raise ValueError("non-reduced entry above/below a pivot")
        if ambient_len < 0:
            raise ValueError("ambient_len must be nonnegative")
        elements = _elements(field.order)
        width = ambient_len + 1
        _check_basepoint(rows[0], width, elements,
                         _check_rows(rows[1:], width, elements))
        s = object.__new__(Subspace)
        _write_slots(s, AFFINE, field, ambient_len, rows, None)
        return s

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not Subspace:
            return NotImplemented
        return (self.rows == other.rows and self.ambient_len == other.ambient_len
                and self.mode == other.mode and self.field == other.field)

    def __hash__(self):
        return hash((self.mode, self.field, self.ambient_len, self.rows))

    def __repr__(self):
        return (f"Subspace(mode={self.mode!r}, q={self.field.order}, "
                f"ambient_len={self.ambient_len}, direction={self.direction!r}, "
                f"basepoint={self.basepoint!r})")

    # -- conventions ---------------------------------------------------

    @property
    def direction(self) -> tuple[Vec, ...]:
        return (self.rows if self.mode == VECTOR
                else tuple([r[1:] for r in self.rows[1:]]))

    @property
    def basepoint(self) -> Vec | None:
        return self.rows[0][1:] if self.mode == AFFINE else None

    @property
    def rank(self) -> int:
        """Basis size: dimension in vector mode, dimension + 1 in affine."""
        return len(self.rows)

    @property
    def num_points(self) -> int:
        return self.field.order ** (len(self.rows) - (self.mode == AFFINE))

    def pivots(self) -> dict[int, Vec]:
        """Pivot column -> its row, in row order; built on first use."""
        if self._pivot_rows is None:
            _set_pivot_rows(self, {_lead(row): row for row in self.rows})
        return self._pivot_rows

    # -- point set -----------------------------------------------------

    def points(self):
        """All points, in a deterministic (not lexicographic) order.

        The `combination_points` of the direction rows over the
        basepoint (the origin in vector mode): base + sum of c_i * row_i,
        with the coefficient vectors in itertools.product order.
        """
        if self.num_points > POINT_CAP:
            raise SizeCapError(f"{count_text(self.num_points)} points exceeds cap "
                               f"{POINT_CAP}")
        origin = self.basepoint if self.mode == AFFINE else bytes(self.ambient_len)
        yield from combination_points(self.field, origin, self.direction)

    def _holds_row(self, v: Vec) -> bool:
        """Whether v reduces to zero by the rows: `_reduce_at_lead` stops
        at the first leading column that is no pivot, outside the span."""
        return _reduce_at_lead(self.field, self.pivots(), v)[0] == len(v)

    def is_member(self, v: Vec) -> bool:
        """Whether v, lifted to [1 | v] for a flat, is in the rows' span."""
        if len(v) != self.ambient_len:
            raise ValueError("point length differs from ambient_len")
        return self._holds_row(_LIFT[self.mode] + v)

    def basis_points(self) -> tuple[Vec, ...]:
        """The canonical basis: the rows, or a flat's first row [1 | b] and
        its sums with the others, without the leading 1."""
        if self.mode == VECTOR:
            return self.rows
        first = self.rows[0]
        return (first[1:],) + tuple([vec_add(self.field, first, row)[1:]
                                     for row in self.rows[1:]])

    def contains_subspace(self, other: "Subspace") -> bool:
        """Whether each of the other space's rows is in these rows' span."""
        _check_same_space(self, other)
        return all(map(self._holds_row, other.rows))

    # -- serialization -------------------------------------------------

    def to_json(self) -> dict:
        out: dict = {
            "mode": self.mode,
            "q": self.field.order,
            "ambient_len": self.ambient_len,
            "direction": [list(r) for r in self.direction],
        }
        if self.mode == AFFINE:
            out["basepoint"] = list(self.basepoint)
        return out

    def key(self) -> str:
        """Canonical serialization; doubles as the bytewise sort key.

        The compact JSON of `to_json()`, formatted directly from the
        vectors' bytes (`_json_list`) on first use, unless the keyed
        full-space walk of `iter_subspaces` preset it (`_pattern_texts`).
        """
        if self._key is None:
            key = _KEY_HEAD % (self.mode, self.field.order, self.ambient_len,
                               ",".join(map(_json_list, self.direction)))
            if self.mode == AFFINE:
                key += ',"basepoint":' + _json_list(self.basepoint)
            _set_key(self, key + "}")
        return self._key

    @staticmethod
    def from_json(data: dict, f: Field | None = None) -> "Subspace":
        """Load a subspace, accepting any generating set (re-canonicalized)."""
        what = "a serialized subspace"
        json_expect(data, dict, what)
        q = json_int(json_field(data, "q", what), "q")
        if f is None:
            f = make_field(q)
        elif f.order != q:
            raise ValueError("field order mismatch in serialized subspace")
        mode = json_field(data, "mode", what)
        _check_mode(mode)
        amb = json_int(json_field(data, "ambient_len", what), "ambient_len")
        rows = [_json_point(f, r, "a direction row")
                for r in json_expect(json_field(data, "direction", what), list,
                                     "direction")]
        # before the rows are added to the basepoint, which would pad a
        # short row and overflow on a long one
        if any(len(r) != amb for r in rows):
            raise ValueError("direction row length differs from ambient_len")
        bp = data.get("basepoint")
        if mode == AFFINE:
            if bp is None:
                raise ValueError("affine subspace needs a basepoint")
            base = _json_point(f, bp, "the basepoint")
            if len(base) != amb:
                raise ValueError("basepoint length differs from ambient_len")
            pts = [base] + [vec_add(f, base, r) for r in rows]
            return span(f, AFFINE, pts, amb)
        if bp is not None:
            raise ValueError("vector subspace cannot carry a basepoint")
        return span(f, VECTOR, rows, amb)


# A key up to its direction's closing bracket; the rows' compact lists
# fill the last %s
_KEY_HEAD = '{"mode":"%s","q":%d,"ambient_len":%d,"direction":[%s]'

# Entry x as the byte whose hex text is "c" and x's digit (x < 10) or "d"
# and the digit of x - 10, so the hex text of a vector is its entries'
# decimal text with "c" for "," and "d" for ",1"
_ENTRY_HEX = bytes(0xC0 + x if x < 10 else 0xD0 + x - 10 for x in range(16)) + bytes(240)


def _json_list(v: Vec) -> str:
    """The compact JSON text of v as a list of ints."""
    text = v.translate(_ENTRY_HEX).hex().replace("c", ",").replace("d", ",1")
    return "[" + text[1:] + "]"


def _text_ranks(end: str) -> bytes:
    """The translate table taking entry x to the rank of the text
    str(x) + end among those of the 16 entries."""
    texts = sorted(f"{x}{end}" for x in range(16))
    return bytes(texts.index(f"{x}{end}") for x in range(16)) + bytes(240)


# An entry ranked by its key text inside a row ("10," sorts before "2,")
# and as a row's last entry ("10]" sorts before "1]")
_INNER_RANK = _text_ranks(",")
_LAST_RANK = _text_ranks("]")


def key_order(s: Subspace) -> bytes:
    """Bytes that sort as `key()` does among subspaces of one shape.

    Subspaces of one mode, q, ambient_len and rank have keys that differ
    only in the entries' texts, each an entry's digits closed by "," or,
    as a row's last, by "]".  No such text is a prefix of another, so
    the first entry that differs orders two keys by its text.  Plain
    byte order agrees with that only below q = 11, where every entry is
    one digit; this ranks each entry by its text instead.
    """
    rows = s.direction if s.mode == VECTOR else s.direction + (s.basepoint,)
    return b"".join([r[:-1].translate(_INNER_RANK) + r[-1:].translate(_LAST_RANK)
                     for r in rows])


def _spaced_list(v: Vec) -> str:
    """The text json.dumps writes for v as a list of ints.

    `hex(",")` writes each entry as "c" or "d" and a digit, with "," in
    between; replacing "c" by " " and "d" by " 1" leaves a space before
    each entry's digits.  The first replace is one-for-one, which
    CPython does in a single copy, unlike replacing every "," by ", ".
    """
    text = v.translate(_ENTRY_HEX).hex(",").replace("c", " ").replace("d", " 1")
    return "[" + text[1:] + "]"


def json_text(s: Subspace) -> str:
    """json.dumps(s.to_json()), written from the vectors' bytes."""
    text = '{"mode": "%s", "q": %d, "ambient_len": %d, "direction": [%s]' % (
        s.mode, s.field.order, s.ambient_len, ", ".join(map(_spaced_list, s.direction)))
    if s.mode == AFFINE:
        text += ', "basepoint": ' + _spaced_list(s.basepoint)
    return text + "}"


def json_expect(value, kind: type, what: str):
    """`value` if it has the JSON type `kind` (dict or list), else ValueError."""
    if not isinstance(value, kind):
        name = "object" if kind is dict else "list"
        raise ValueError(f"{what} must be a JSON {name}")
    return value


def json_field(data: dict, key: str, what: str):
    """data[key], or a ValueError naming the key and the object, `what`,
    that lacks it."""
    if key not in data:
        raise ValueError(f"{what} is missing the key {key!r}")
    return data[key]


def json_int(value, what: str) -> int:
    """`value` if it is a JSON integer, else ValueError (1.5, "2", true too)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be a JSON integer")
    return value


def _json_point(f: Field, value, what: str) -> Vec:
    entries = [json_int(x, f"an entry of {what}")
               for x in json_expect(value, list, what)]
    if not all(0 <= x < f.order for x in entries):
        raise ValueError(f"{what} has an entry outside GF({f.order})")
    return bytes(entries)


def _check_same_space(a: Subspace, b: Subspace) -> None:
    if a.mode != b.mode or a.field != b.field or a.ambient_len != b.ambient_len:
        raise ValueError("subspaces live in different ambients or modes")


def span(f: Field, mode: str, points, ambient_len: int | None = None) -> Subspace:
    """Canonical span of the given points: one `rref` of the points,
    lifted to [1 | p] in affine mode."""
    _check_mode(mode)
    pts = [bytes(p) for p in points]
    if ambient_len is None:
        if not pts:
            raise ValueError("ambient_len needed for an empty span")
        ambient_len = len(pts[0])
    if any(len(p) != ambient_len for p in pts):
        raise ValueError("points of differing length")
    if mode == AFFINE and not pts:
        raise ValueError("affine span needs at least one point")
    return Subspace.from_rows(mode, f, ambient_len,
                              rref(f, [_LIFT[mode] + p for p in pts])[0])


def join(a: Subspace, b: Subspace) -> Subspace:
    """The least subspace holding both: one `rref` of their rows."""
    _check_same_space(a, b)
    return Subspace.from_rows(a.mode, a.field, a.ambient_len,
                              rref(a.field, a.rows + b.rows)[0])


def full_space(f: Field, mode: str, rank: int) -> Subspace:
    """The rank-`rank` space that fills its own coordinate ambient."""
    _check_mode(mode)
    if mode == VECTOR and rank < 0:
        raise ValueError("vector rank must be nonnegative")
    if mode == AFFINE and rank < 1:
        raise ValueError("affine rank must be at least 1")
    return Subspace.from_rows(mode, f, rank - (mode == AFFINE), identity_rows(rank))


def zero_space(f: Field, ambient_len: int) -> Subspace:
    return Subspace(VECTOR, f, ambient_len, (), None)


# ---------------------------------------------------------------------------
# counting and enumeration

def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of GF(q)^n."""
    if k < 0 or k > n:
        return 0
    out = 1
    for i in range(k):
        out = out * (q ** (n - i) - 1) // (q ** (i + 1) - 1)
    return out


def count_subspaces(n_rank: int, k: int, q: int, mode: str) -> int:
    """Number of rank-k subspaces of a rank-n_rank space over GF(q)."""
    _check_mode(mode)
    if n_rank < 0 or k < 0:
        raise ValueError("ranks must be nonnegative")
    if mode == VECTOR:
        return gaussian_binomial(n_rank, k, q)
    if n_rank < 1:
        raise ValueError("affine spaces have rank at least 1")
    # the rank-k subspaces of the homogenized space not inside x_0 = 0
    return gaussian_binomial(n_rank, k, q) - gaussian_binomial(n_rank - 1, k, q)


def _rref_patterns(f: Field, k: int, width: int, affine: bool):
    """The pivot patterns of the k x width full-rank RREF matrices, checked.

    When `affine`, only those with a pivot at column 0, the rows of the
    rank-k flats.  Yields (pivots, choices), where choices[i] lists every
    value of row i: a 1 at its pivot, zeros before it and on the other
    pivots, and its free entries running over the field, the last
    fastest.  The pattern's matrices are the products of its rows'
    choices.  Every choice has passed `_check_pattern`, so every product
    is canonical.
    """
    elems = f.elements()
    if k < affine:
        return  # no empty flats; mirrors count_subspaces
    for rest in itertools.combinations(range(affine, width), k - affine):
        piv = (0,) * affine + rest
        pivset = set(piv)
        choices = []
        for p in piv:
            free = [j for j in range(p + 1, width) if j not in pivset]
            row = bytearray(width)
            row[p] = 1
            options = []
            for vals in itertools.product(elems, repeat=len(free)):
                for j, v in zip(free, vals):
                    row[j] = v
                options.append(bytes(row))
            choices.append(options)
        _check_pattern(f, width, piv, choices)
        yield piv, choices


def _check_pattern(f: Field, width: int, piv: tuple[int, ...], choices) -> None:
    """Raise ValueError unless each row choice is canonical for `piv`.

    These are the direction checks of `_check_rows`, with its
    messages, made once per row choice instead of once per matrix, and
    made of a flat's first row [1 | b] too, so its basepoint options are
    checked as rows.  If the pivots strictly increase and each choice for
    row i is a length-width row over the field that leads with a 1 at
    piv[i] and is zero on the other pivots, then every matrix built from
    the choices is in reduced row echelon form.
    """
    if any(a >= b for a, b in zip(piv, piv[1:])):
        raise ValueError("pivots must be strictly increasing")
    elements = _elements(f.order)
    on_pivots = _pivot_mask(width, piv)
    for p, options in zip(piv, choices):
        _check_bytes(options, "direction rows")
        for row in options:
            if len(row) != width:
                raise ValueError("direction row length differs from ambient_len")
            if row.translate(None, elements):
                raise ValueError("direction entries out of field range")
            if row[p] != 1:
                raise ValueError("pivot entries must be 1")
            # the row's own pivot is its only nonzero pivot column
            if int.from_bytes(row) & on_pivots != _unit(width, p):
                raise ValueError("non-reduced entry above/below a pivot")
            if _lead(row) != p:
                raise ValueError("nonzero direction entry before its pivot")


def guard_subspace_count(f: Field, mode: str, rank: int, k: int) -> int:
    """The closed-form number of rank-k subspaces of a rank-`rank` space.

    Reads the space's shape only, so nothing is built, not even the
    space.  Raises SizeCapError when the space has more than POINT_CAP
    points or the count exceeds POINT_CAP, and ValueError when the rank
    does not fit the mode or k is not in 0..rank; callers run it before
    listing or scanning subspaces.
    """
    _check_mode(mode)
    lo = 1 if mode == AFFINE else 0
    if rank < lo:
        raise ValueError(f"{mode} rank must be at least {lo}")
    num_points = f.order ** (rank - lo)
    if num_points > POINT_CAP:
        raise SizeCapError(f"ambient has {count_text(num_points)} points, "
                           f"cap {POINT_CAP}")
    if not 0 <= k <= rank:
        raise ValueError(f"k={k} out of range for rank {rank}")
    count = count_subspaces(rank, k, f.order, mode)
    if count > POINT_CAP:
        raise SizeCapError(f"{count_text(count)} rank-{k} subspaces, cap {POINT_CAP}")
    return count


# The setters of Subspace's slots, in `__slots__` order.  Its __setattr__
# refuses every write, so `_write_slots` and the caches of `key()` and
# `pivots()` write through the slot descriptors.
(_set_mode, _set_field, _set_ambient_len, _set_rows, _set_key,
 _set_pivot_rows) = (Subspace.__dict__[name].__set__
                     for name in Subspace.__slots__)


def _write_slots(s: Subspace, mode: str, f: Field, ambient_len: int,
                 rows: tuple[Vec, ...], key: str | None) -> None:
    """Write a new Subspace's slots, its `pivots()` cache empty."""
    _set_mode(s, mode)
    _set_field(s, f)
    _set_ambient_len(s, ambient_len)
    _set_rows(s, rows)
    _set_key(s, key)
    _set_pivot_rows(s, None)


def _unchecked_subspace(mode: str, f: Field, ambient_len: int,
                        rows: tuple[Vec, ...], key: str | None) -> Subspace:
    """A Subspace whose canonical rows were checked before it was built.

    Writes the slots as `Subspace.__init__` does, without its check, and
    presets the key (None leaves it to `key()`).  Only the full-space
    walk of `iter_subspaces` calls it: its rows come from
    `_rref_patterns`, which checks them once per pattern, and its keys
    from `_pattern_texts`.
    """
    s = object.__new__(Subspace)
    _write_slots(s, mode, f, ambient_len, rows, key)
    return s


def _pattern_texts(f: Field, mode: str, width: int, choices, as_text):
    """The texts of one pivot pattern's subspaces, in walk order.

    `choices` are the pattern's row options in `_full_walk`'s product
    order, a flat's basepoint row last, as its key writes it.  `as_text`
    is `_json_list`, for the compact keys of `key()`, or `_spaced_list`,
    for `json_text`'s lines; the format string gets the matching
    separators.  Each row option is formatted once, a flat's without its
    leading entry, and each text is one `%` of the format string by a
    product of those texts, in the order `iter_subspaces` builds the
    subspaces.
    """
    affine = mode == AFFINE
    texts = [[as_text(row[affine:]) for row in options] for options in choices]
    # one "%s" per direction row where `key()` writes the rows' lists
    fmt = _KEY_HEAD % (mode, f.order, width - affine,
                       ",".join(["%s"] * (len(choices) - affine)))
    if affine:
        fmt += ',"basepoint":%s'
    fmt += "}"
    if as_text is _spaced_list:  # json.dumps's blank after "," and ":"
        fmt = fmt.replace(",", ", ").replace(":", ": ")
    return map(fmt.__mod__, itertools.product(*texts))


def _full_walk(f: Field, mode: str, k: int, width: int):
    """The rank-k subspaces of the rank-`width` coordinate space, whose
    rows have `width` columns in either mode.

    Yields (choices, rows) for each checked pivot pattern of
    `_rref_patterns`: the rows' options in product order, and an
    iterator over the pattern's row tuples in walk order.  A flat's
    product takes its first row, [1 | b], last, so the basepoints run
    fastest, and each tuple is turned back to row order.  Nothing is
    built but those tuples.
    """
    affine = mode == AFFINE
    for _, choices in _rref_patterns(f, k, width, affine):
        if affine:
            choices = choices[1:] + choices[:1]
        rows = itertools.product(*choices)
        if affine:
            rows = (t[-1:] + t[:-1] for t in rows)
        yield choices, rows


def count_walk(f: Field, mode: str, rank: int, k: int) -> int:
    """The number of rank-k subspaces of the rank-`rank` coordinate space
    (`full_space`), counted by iterating the checked walk
    `iter_subspaces` takes over it.

    Builds no Subspace, so it is a count of the walk, not a second
    closed form (`count_subspaces`).  Checks neither the mode nor any
    cap: callers run `guard_subspace_count` first.
    """
    return sum(sum(1 for _ in rows) for _, rows in _full_walk(f, mode, k, rank))


def walk_texts(f: Field, mode: str, rank: int, k: int) -> list[str]:
    """`json_text` of each rank-k subspace of the rank-`rank` coordinate
    space (`full_space`), sorted as `enumerate_subspaces` sorts them.

    The lines come from the checked walk `iter_subspaces` takes
    (`_pattern_texts` with `_spaced_list`); no Subspace and no compact
    key is built.  A plain string sort is key order at every q: a line
    is its key with a blank after each "," and ":", so two lines first
    differ at the character where their keys first differ, and no key
    is a prefix of another, since "}" ends a key and occurs nowhere
    else in it.  (Sorting the rows' bytes instead is wrong from q = 11
    on; see `key_order`.)  Checks neither the mode nor any cap: callers
    run `guard_subspace_count` first.
    """
    lines = []
    for choices, _ in _full_walk(f, mode, k, rank):
        lines += _pattern_texts(f, mode, rank, choices, _spaced_list)
    lines.sort()
    return lines


def iter_subspaces(ambient: Subspace, k: int, keyed: bool = True):
    """The rank-k subspaces of `ambient`, unsorted.

    Over a full coordinate space, whose rows are the identity, walks
    RREF matrices by `_full_walk`: a flat's are those of the homogenized
    space that pivot at column 0.  These are already canonical, and each
    pattern's row choices are checked once, so its subspaces skip the
    per-object check.  When `keyed`, the walk also presets each
    subspace's key from its pattern's formatted rows (`_pattern_texts`),
    for callers that sort; an unkeyed walk formats no key.  `walk_texts`
    lists the same walk as `json_text` lines and builds none of its
    subspaces.  A proper ambient's subspaces are the unkeyed walk over
    the coordinate space of its rank, carried through its basis map by
    `apply`, which re-canonicalizes and checks each and keys none.
    Checks no cap: callers run `guard_subspace_count` first.
    """
    f, mode, rank = ambient.field, ambient.mode, ambient.rank
    is_full = rank == ambient.ambient_len + (mode == AFFINE)
    if is_full:
        for choices, flats in _full_walk(f, mode, k, rank):
            keys = (_pattern_texts(f, mode, rank, choices, _json_list)
                    if keyed else itertools.repeat(None))
            for rows, key in zip(flats, keys):
                yield _unchecked_subspace(mode, f, ambient.ambient_len, rows, key)
    else:
        m = coordinate_map(f, mode, ambient.basis_points(), ambient.ambient_len)
        for s in iter_subspaces(full_space(f, mode, rank), k, keyed=False):
            yield apply(m, s)


def enumerate_subspaces(ambient: Subspace, k: int) -> list[Subspace]:
    """All rank-k subspaces of `ambient`, sorted by canonical key.

    `guard_subspace_count` runs first, so the size cap is checked before
    anything is listed.  The walk is keyed, so over a full coordinate
    space the sort reads keys that were formatted per row option, not
    per subspace.
    """
    guard_subspace_count(ambient.field, ambient.mode, ambient.rank, k)
    return sorted(iter_subspaces(ambient, k), key=Subspace.key)


def subspace_templates(f: Field, mode: str, rank: int, k: int) -> list[Subspace]:
    """The rank-k subspaces of the rank-`rank` coordinate space, in key order.

    A rank-`rank` space U with rows R is the image of that coordinate
    space under x -> x R (`stacked_images`), which carries the templates'
    rows exactly onto those of U's rank-k subspaces.
    """
    return enumerate_subspaces(full_space(f, mode, rank), k)


def stacked_images(f: Field, template: Subspace, rows: list[Vec]) -> list[Vec]:
    """The canonical rows of the template's image in each of a batch of
    spaces, one buffer apiece.

    Each space U has RREF rows R with pivots P; rows[j] is row j of
    every U's R laid end to end.  The template T, canonical in the
    coordinate space of U's rank, has rows C with pivots Q.  Its image,
    the span of C R, is already canonical: row i of C R leads at P[Q_i]
    with a 1, and column P[Q_j] of C R is column Q_j of C, which is e_j.
    A flat's rows are those of its homogenized space, so this holds in
    both modes.  So no `rref` runs: row i of the image is rows[Q_i] plus
    C[i][j] rows[j] over C's other nonzero entries, for the whole batch
    at once, one `_add_multiple` per entry.
    """
    # `mat_vec`'s loop, written out: `mat_vec` is kept to the columns a
    # `LinearMap` stores, and these rows are built per batch
    out = []
    for p, c in template.pivots().items():
        image = rows[p]
        for j in _support(c)[1:]:  # c leads at p with a 1
            image = _add_multiple(f, image, c[j], rows[j])
        out.append(image)
    return out


# ---------------------------------------------------------------------------
# independence, bases, sums

def is_independent(f: Field, mode: str, points) -> bool:
    """True when the points form an independent set in the given mode.

    One `rref` of the points, lifted to [1 | p] in affine mode: the set
    is independent when each of those rows gives a pivot.
    """
    _check_mode(mode)
    pts = [bytes(p) for p in points]
    if len(set(map(len, pts))) > 1:
        raise ValueError("points of differing length")
    return len(rref(f, [_LIFT[mode] + p for p in pts])[1]) == len(pts)


class BasisSet(namedtuple("BasisSet", "mode field points")):
    """An ordered independent set of points."""

    __slots__ = ()

    def __new__(cls, mode: str, field: Field, points: tuple[Vec, ...]):
        _check_mode(mode)
        points = tuple(points)
        _check_bytes(points, "basis points")
        if not is_independent(field, mode, points):
            raise ValueError("basis points are not independent")
        return super().__new__(cls, mode, field, points)

    def __len__(self) -> int:
        return len(self.points)


def extend_to_basis(basis: BasisSet, target: Subspace) -> BasisSet:
    """Grow an independent subset of `target` into a basis of it.

    It adds what a scan of the target's points in lexicographic order
    would take, without listing them; a basis comes back unchanged.  A
    point of the target has its pivot entries as its coordinates, and
    the basis map x -> b + x R keeps byte order (two images first differ
    on a pivot column), so the scan is that of the coordinate space.
    There every point led by a column right of j comes before e_j and is
    in the span by then.  So the scan takes the origin (affine mode)
    exactly when the points miss it, and then e_j, from the last column
    to the first, for each j that is no pivot of the coordinates' `rref`
    (in affine mode: of their differences from the first point, and that
    point).  Coordinate point i is the target's basis point i.
    """
    if basis.mode != target.mode or basis.field != target.field:
        raise ValueError("basis and target disagree on mode or field")
    for p in basis.points:
        if not target.is_member(p):
            raise ValueError("basis point outside the target space")
    if len(basis.points) == target.rank:
        return basis
    f, cols = target.field, tuple(map(_lead, target.direction))
    coords = [bytes(map(p.__getitem__, cols)) for p in basis.points]
    affine = target.mode == AFFINE
    if affine:
        coords = [vec_sub(f, c, coords[0]) for c in coords[1:]] + coords[:1]
    pivots = set(rref(f, coords)[1])
    points = target.basis_points()
    units = points[1:] if affine else points  # the images of the e_j
    # the points miss the origin when each coordinate row gives a pivot
    added = [points[0]] if affine and len(pivots) == len(coords) else []
    added += [units[j] for j in reversed(range(len(units))) if j not in pivots]
    return BasisSet(target.mode, f, basis.points + tuple(added))


def complement(inner: Subspace, outer: Subspace) -> Subspace:
    """A deterministic complement of `inner` inside `outer`.

    The direct sum of `inner` with the result is `outer`.  In vector mode
    the complement of `outer` in itself is the zero space; in affine mode
    that corner has no valid complement (the empty set is not a subspace)
    and raises.
    """
    _check_same_space(inner, outer)
    if not outer.contains_subspace(inner):
        raise ValueError("inner is not contained in outer")
    base = BasisSet(inner.mode, inner.field, inner.basis_points())
    ext = extend_to_basis(base, outer)
    added = ext.points[len(base.points):]
    if not added:
        if inner.mode == VECTOR:
            return zero_space(inner.field, inner.ambient_len)
        raise ValueError("an affine space has no complement in itself "
                         "(it would be empty)")
    return span(inner.field, inner.mode, added, inner.ambient_len)


def direct_sum(parts) -> Subspace:
    """Span of the parts' bases; requires the joint basis to be independent.

    One `rref` of the parts' rows: the joint basis is independent exactly
    when its span has a rank of one per row.
    """
    parts = list(parts)
    if not parts:
        raise ValueError("direct sum of no parts")
    first = parts[0]
    for p in parts[1:]:
        _check_same_space(first, p)
    rows = [r for p in parts for r in p.rows]
    total = Subspace.from_rows(first.mode, first.field, first.ambient_len,
                               rref(first.field, rows)[0])
    if total.rank < len(rows):
        raise ValueError("parts overlap: joint basis is dependent")
    return total


# ---------------------------------------------------------------------------
# combination-preserving maps

class LinearMap(namedtuple("LinearMap", (
        "mode", "field", "domain_len", "codomain_len",
        "columns",       # domain_len columns of length codomain_len
        "translation"))):
    """A total map GF(q)^domain_len -> GF(q)^codomain_len.

    Vector mode: x -> M x.  Affine mode: x -> M x + t.  Either way the
    map preserves the mode's combinations, so images of subspaces are
    subspaces.  M is kept as its columns, its only form: column j is
    M e_j, so products and compositions read the columns as stored.
    """

    __slots__ = ()

    def __new__(cls, mode: str, field: Field, domain_len: int,
                codomain_len: int, columns: tuple[Vec, ...],
                translation: Vec | None = None):
        _check_mode(mode)
        columns = tuple(columns)
        if len(columns) != domain_len:
            raise ValueError("matrix column count differs from domain_len")
        _check_bytes(columns, "matrix columns")
        if set(map(len, columns)) - {codomain_len}:
            raise ValueError("matrix column length differs from codomain_len")
        elements = _elements(field.order)
        if b"".join(columns).translate(None, elements):
            raise ValueError("matrix entries out of field range")
        if mode == VECTOR:
            if translation is not None:
                raise ValueError("vector-mode maps carry no translation")
        else:
            if translation is None or len(translation) != codomain_len:
                raise ValueError("affine-mode maps need a codomain-length translation")
            _check_bytes([translation], "the translation")
            if translation.translate(None, elements):
                raise ValueError("translation entries out of field range")
        return super().__new__(cls, mode, field, domain_len, codomain_len,
                               columns, translation)


def coordinate_map(f: Field, mode: str, images, codomain_len: int) -> LinearMap:
    """The map sending canonical basis point i of a full coordinate space
    to images[i].

    In vector mode that basis is the unit vectors, so the images are the
    map's columns as they stand; in affine mode the first basis point is
    the origin, so its image is the translation and the columns are the
    others' offsets from it.
    """
    t = images[0] if mode == AFFINE else None
    cols = (tuple(images) if t is None
            else tuple(vec_sub(f, p, t) for p in images[1:]))
    return LinearMap(mode, f, len(cols), codomain_len, cols, t)


def identity_map(f: Field, mode: str, n: int) -> LinearMap:
    t = bytes(n) if mode == AFFINE else None
    return LinearMap(mode, f, n, n, identity_rows(n), t)


def apply(m: LinearMap, x):
    """Apply a map to a point (a sequence of elements) or to a Subspace
    (image, canonical)."""
    if isinstance(x, Subspace):
        if x.mode != m.mode or x.field != m.field:
            raise ValueError("map and subspace disagree on mode or field")
        if x.ambient_len != m.domain_len:
            raise ValueError("subspace ambient differs from map domain")
        imgs = [apply(m, p) for p in x.basis_points()]
        return span(m.field, m.mode, imgs, m.codomain_len)
    v = bytes(x)
    if len(v) != m.domain_len:
        raise ValueError("point length differs from map domain")
    base = m.translation if m.mode == AFFINE else bytes(m.codomain_len)
    return mat_vec(m.field, m.columns, v, base)


def compose(outer: LinearMap, inner: LinearMap) -> LinearMap:
    """The map x -> outer(inner(x)).

    Its columns are inner's columns sent through outer's matrix, one
    product each; in affine mode its translation is outer's image of
    inner's.
    """
    if outer.mode != inner.mode or outer.field != inner.field:
        raise ValueError("maps disagree on mode or field")
    if inner.codomain_len != outer.domain_len:
        raise ValueError("inner codomain differs from outer domain")
    f, zero = outer.field, bytes(outer.codomain_len)
    cols = tuple(mat_vec(f, outer.columns, c, zero) for c in inner.columns)
    t = None if outer.mode == VECTOR else mat_vec(
        f, outer.columns, inner.translation, outer.translation)
    return LinearMap(outer.mode, f, inner.domain_len, outer.codomain_len, cols, t)


def linear_extension(basis: BasisSet, images, codomain_len: int | None = None) -> LinearMap:
    """The unique combination-preserving map with basis[i] -> images[i].

    Defined on the whole domain ambient: the basis is deterministically
    extended to an ambient basis, and the extension points map to zero
    (vector mode) or to the first image (affine mode).  Applying the map
    to each basis point reproduces its image exactly.
    """
    f = basis.field
    mode = basis.mode
    imgs = [bytes(p) for p in images]
    if len(imgs) != len(basis.points):
        raise ValueError("basis/image count mismatch")
    if codomain_len is None:
        if not imgs:
            raise ValueError("codomain_len needed when there are no images")
        codomain_len = len(imgs[0])
    if any(len(p) != codomain_len for p in imgs):
        raise ValueError("images of differing length")
    if basis.points:
        domain_len = len(basis.points[0])
    else:
        if mode == AFFINE:
            raise ValueError("affine extension needs at least one basis point")
        domain_len = 0
    ambient = full_space(f, mode, domain_len + (1 if mode == AFFINE else 0))
    pts_all = extend_to_basis(basis, ambient).points
    extras = len(pts_all) - len(imgs)
    if mode == VECTOR:
        pairs = zip(pts_all, imgs + [bytes(codomain_len)] * extras)
    else:
        p0, y0 = pts_all[0], imgs[0]
        pairs = [(vec_sub(f, p, p0), vec_sub(f, y, y0))
                 for p, y in zip(pts_all[1:], imgs[1:] + [y0] * extras)]
    # M b = y for each pair.  Row-reducing the rows [b | y] turns the b
    # block into the identity, so the row with pivot j reads [e_j | M e_j]:
    # its tail is M's column j, as the map stores it
    red, piv = rref(f, [b + y for b, y in pairs])
    if piv != tuple(range(domain_len)):
        raise RuntimeError("extended basis does not span the domain")
    cols = tuple(row[domain_len:] for row in red)
    t = None if mode == VECTOR else vec_sub(
        f, y0, mat_vec(f, cols, p0, bytes(codomain_len)))
    m = LinearMap(mode, f, domain_len, codomain_len, cols, t)
    for p, y in zip(basis.points, imgs):
        if apply(m, p) != y:
            raise RuntimeError("extension failed to reproduce a basis image")
    return m


def image_space(m: LinearMap) -> Subspace:
    """Image of the whole domain ambient under the map.

    The span of the map's columns; in affine mode the flat through the
    translation, which the columns move along.
    """
    f = m.field
    if m.mode == VECTOR:
        return span(f, VECTOR, m.columns, m.codomain_len)
    t = m.translation
    return span(f, AFFINE, [t, *(vec_add(f, t, c) for c in m.columns)], m.codomain_len)
