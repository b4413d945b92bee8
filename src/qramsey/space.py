"""Vector and affine subspace algebra over GF(q), with canonical forms.

A computation fixes one mode.  In vector mode a subspace is the linear
span of its direction rows; in affine mode it is a flat: basepoint plus
the span of the direction rows.  Rank counts basis points, so an affine
flat of geometric dimension d has rank d + 1 (its basis is d + 1 points)
while a vector space of dimension d has rank d.

Canonical form: direction rows in reduced row echelon form with strictly
increasing pivots, and (affine mode) the unique basepoint that is zero on
every pivot column.  Two Subspace values are equal exactly when they have
the same point set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field, fields
from functools import lru_cache
from itertools import compress
from operator import itemgetter

from .field import Field, make_field

Vec = tuple[int, ...]

VECTOR = "vector"
AFFINE = "affine"

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
def _elements(q: int) -> frozenset[int]:
    """The elements of GF(q), for validating entries at C speed."""
    return frozenset(range(q))


# ---------------------------------------------------------------------------
# vector / matrix primitives
#
# One code path serves every q.  The kernels index the field's add/mul/neg
# tables, fetching a per-scalar row such as mul_table[c] once per row
# operation, and visit only the nonzero entries of the rows they add in:
# compress(range(len(v)), v) yields the indices of v's nonzero entries,
# skipping the zeros at C speed.  The points and direction rows of the
# construction are mostly zero.

def _axpy(add, m: Vec, acc: list[int], row: Vec) -> None:
    """acc += c * row in place, where m = mul_table[c]."""
    for j in compress(range(len(row)), row):
        acc[j] = add[acc[j]][m[row[j]]]


def vec_add(f: Field, a: Vec, b: Vec) -> Vec:
    add = f.add_table
    out = list(a)
    for j in compress(range(len(b)), b):
        out[j] = add[out[j]][b[j]]
    return tuple(out)


def vec_sub(f: Field, a: Vec, b: Vec) -> Vec:
    add, neg = f.add_table, f.neg_table
    out = list(a)
    for j in compress(range(len(b)), b):
        out[j] = add[out[j]][neg[b[j]]]
    return tuple(out)


def vec_scale(f: Field, c: int, v: Vec) -> Vec:
    return tuple(map(f.mul_table[c].__getitem__, v))


def mat_vec(f: Field, rows: tuple[Vec, ...], v: Vec) -> Vec:
    """rows . v; each output entry costs O(nonzeros of v), not O(len(v))."""
    add, mul = f.add_table, f.mul_table
    terms = [(j, mul[v[j]]) for j in compress(range(len(v)), v)]
    out = []
    for row in rows:
        acc = 0
        for j, m in terms:
            c = row[j]
            if c:
                acc = add[acc][m[c]]
        out.append(acc)
    return tuple(out)


def mat_mul(f: Field, a: tuple[Vec, ...], b: tuple[Vec, ...]) -> tuple[Vec, ...]:
    add, mul = f.add_table, f.mul_table
    width = len(b[0]) if b else 0
    out = []
    for arow in a:
        row = [0] * width
        for i in compress(range(len(b)), arow):
            _axpy(add, mul[arow[i]], row, b[i])
        out.append(tuple(row))
    return tuple(out)


def transpose(rows: tuple[Vec, ...], width: int | None = None) -> tuple[Vec, ...]:
    if rows:
        return tuple(zip(*rows))
    if width is None:
        raise ValueError("width needed to transpose an empty matrix")
    return ((),) * width


def identity_rows(n: int) -> tuple[Vec, ...]:
    zero = (0,) * n
    return tuple(zero[:i] + (1,) + zero[i + 1:] for i in range(n))


def rref(f: Field, rows) -> tuple[tuple[Vec, ...], tuple[int, ...]]:
    """Reduced row echelon form.  Returns (nonzero rows, pivot columns).

    Each elimination walks only the nonzero columns of the pivot row, and
    the next pivot column is found from each row's leading column instead
    of by scanning the matrix column by column.
    """
    mat = [list(r) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    add, mul, neg = f.add_table, f.mul_table, f.neg_table
    cols = range(ncols)
    lead = [next(compress(cols, row), ncols) for row in mat]  # ncols: zero row
    pivots: list[int] = []
    for r in range(nrows):
        c = min(lead[r:])
        if c == ncols:
            break
        pr = lead.index(c, r)
        mat[r], mat[pr] = mat[pr], mat[r]
        lead[r], lead[pr] = c, lead[r]
        s = f.inv(mat[r][c])
        if s != 1:
            mat[r] = list(map(mul[s].__getitem__, mat[r]))
        prow = mat[r]
        entries = [(j, prow[j]) for j in compress(cols, prow)]
        for i in compress(range(nrows), map(itemgetter(c), mat)):
            if i != r:
                row = mat[i]
                m = mul[neg[row[c]]]
                for j, y in entries:
                    row[j] = add[row[j]][m[y]]
                if i > r:
                    lead[i] = next(compress(cols, row), ncols)
        pivots.append(c)
    return tuple(tuple(row) for row in mat[:len(pivots)]), tuple(pivots)


def _reduce_by(f: Field, rows: tuple[Vec, ...], pivots: tuple[int, ...], v: Vec) -> Vec:
    """Subtract multiples of RREF rows from v to zero its pivot columns.

    An RREF row is zero on every other row's pivot, so the multiple of
    each row is v's own entry at that row's pivot.
    """
    add, mul, neg = f.add_table, f.mul_table, f.neg_table
    out = list(v)
    coeffs = list(map(v.__getitem__, pivots))
    for row, c in compress(zip(rows, coeffs), coeffs):
        _axpy(add, mul[neg[c]], out, row)
    return tuple(out)


def nullspace_rows(f: Field, rows: tuple[Vec, ...], ncols: int) -> tuple[Vec, ...]:
    """A basis of {x : rows . x = 0}, one vector per free column."""
    red, piv = rref(f, rows)
    pivset = set(piv)
    out = []
    for free in range(ncols):
        if free in pivset:
            continue
        v = [0] * ncols
        v[free] = 1
        for row, p in zip(red, piv):
            v[p] = f.neg(row[free])
        out.append(tuple(v))
    return tuple(out)


def combination_points(f: Field, origin: Vec, rows) -> list[Vec]:
    """origin + sum of c_i * rows[i] over every coefficient vector c.

    In itertools.product order, the last coefficient running fastest:
    each row multiplies the list built so far, each point followed by
    its sums with the row's nonzero multiples.
    """
    add, mul = f.add_table, f.mul_table
    pts = [origin]
    for row in rows:
        grown = []
        for p in pts:
            grown.append(p)
            for c in range(1, f.order):
                acc = list(p)
                _axpy(add, mul[c], acc, row)
                grown.append(tuple(acc))
        pts = grown
    return pts


# ---------------------------------------------------------------------------
# subspaces

@dataclass(frozen=True, slots=True)
class Subspace:
    """A canonical vector subspace or affine flat of GF(q)^ambient_len.

    Slotted, because hosts and enumerations hold many thousands of them.
    """

    mode: str
    field: Field
    ambient_len: int
    direction: tuple[Vec, ...]
    basepoint: Vec | None = None
    _key: str | None = dc_field(default=None, init=False, compare=False, repr=False)
    _pivot_rows: dict[int, Vec] | None = dc_field(default=None, init=False,
                                                 compare=False, repr=False)

    def __post_init__(self):
        _check_mode(self.mode)
        elements = _elements(self.field.order)
        if self.ambient_len < 0:
            raise ValueError("ambient_len must be nonnegative")
        piv_prev = -1
        pivots = []
        for row in self.direction:
            if len(row) != self.ambient_len:
                raise ValueError("direction row length differs from ambient_len")
            if not elements.issuperset(row):
                raise ValueError("direction entries out of field range")
            p = next(compress(range(len(row)), row), None)
            if p is None:
                raise ValueError("zero row in direction")
            if p <= piv_prev:
                raise ValueError("pivots must be strictly increasing")
            if row[p] != 1:
                raise ValueError("pivot entries must be 1")
            pivots.append(p)
            piv_prev = p
        pivset = set(pivots)
        for row in self.direction:
            # the row's own pivot is its only nonzero pivot column
            if len(pivset.intersection(compress(range(len(row)), row))) != 1:
                raise ValueError("non-reduced entry above/below a pivot")
        if self.mode == VECTOR:
            if self.basepoint is not None:
                raise ValueError("vector-mode subspaces carry no basepoint")
        else:
            if self.basepoint is None:
                raise ValueError("affine-mode subspaces need a basepoint")
            if len(self.basepoint) != self.ambient_len:
                raise ValueError("basepoint length differs from ambient_len")
            if not elements.issuperset(self.basepoint):
                raise ValueError("basepoint entries out of field range")
            if any(self.basepoint[p] != 0 for p in pivots):
                raise ValueError("basepoint must be zero on pivot columns")

    # -- conventions ---------------------------------------------------

    @property
    def rank(self) -> int:
        """Basis size: dimension in vector mode, dimension + 1 in affine."""
        return len(self.direction) + (1 if self.mode == AFFINE else 0)

    @property
    def num_points(self) -> int:
        return self.field.order ** len(self.direction)

    def pivots(self) -> dict[int, Vec]:
        """Pivot column -> its direction row, in row order; built on first use."""
        if self._pivot_rows is None:
            object.__setattr__(self, "_pivot_rows", {
                next(compress(range(len(row)), row)): row for row in self.direction})
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
        origin = self.basepoint if self.mode == AFFINE else tuple([0] * self.ambient_len)
        yield from combination_points(self.field, origin, self.direction)

    def sorted_points(self) -> list[Vec]:
        return sorted(self.points())

    def is_member(self, v: Vec) -> bool:
        """Reduce v along its own nonzero entries that sit on pivots.

        An RREF row is zero on every other row's pivot column, so the
        multiple of each row is v's own entry at its pivot, and reducing
        by one row leaves the other pivot entries alone.  The remainder
        is kept on the columns it can reach: v's and the used rows'.
        """
        if len(v) != self.ambient_len:
            raise ValueError("point length differs from ambient_len")
        f = self.field
        w = v if self.mode == VECTOR else vec_sub(f, v, self.basepoint)
        add, mul, neg = f.add_table, f.mul_table, f.neg_table
        rows = self.pivots()
        rem = dict(zip(compress(range(len(w)), w), filter(None, w)))
        for j, c in list(rem.items()):
            row = rows.get(j)
            if row is not None:
                m = mul[neg[c]]
                for col in compress(range(len(row)), row):
                    rem[col] = add[rem.get(col, 0)][m[row[col]]]
        return not any(rem.values())

    def basis_points(self) -> tuple[Vec, ...]:
        """The canonical basis: direction rows, or basepoint plus offsets."""
        if self.mode == VECTOR:
            return self.direction
        b = self.basepoint
        return (b,) + tuple(vec_add(self.field, b, row) for row in self.direction)

    def contains_subspace(self, other: "Subspace") -> bool:
        _check_same_space(self, other)
        return all(self.is_member(p) for p in other.basis_points())

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

        The compact JSON of `to_json()`, formatted directly: str() of a
        list of ints differs from compact JSON only by its spaces.
        """
        if self._key is None:
            key = '{"mode":"%s","q":%d,"ambient_len":%d,"direction":%s' % (
                self.mode, self.field.order, self.ambient_len,
                str([list(r) for r in self.direction]).replace(" ", ""))
            if self.mode == AFFINE:
                key += ',"basepoint":%s' % str(list(self.basepoint)).replace(" ", "")
            object.__setattr__(self, "_key", key + "}")
        return self._key

    @staticmethod
    def from_json(data: dict, f: Field | None = None) -> "Subspace":
        """Load a subspace, accepting any generating set (re-canonicalized)."""
        json_expect(data, dict, "a serialized subspace")
        q = json_int(data["q"], "q")
        if f is None:
            f = make_field(q)
        elif f.order != q:
            raise ValueError("field order mismatch in serialized subspace")
        mode = data["mode"]
        _check_mode(mode)
        amb = json_int(data["ambient_len"], "ambient_len")
        rows = [_json_point(f, r, "a direction row")
                for r in json_expect(data["direction"], list, "direction")]
        bp = data.get("basepoint")
        if mode == AFFINE:
            if bp is None:
                raise ValueError("affine subspace needs a basepoint")
            base = _json_point(f, bp, "the basepoint")
            pts = [base] + [vec_add(f, base, r) for r in rows]
            return span(f, AFFINE, pts, amb)
        if bp is not None:
            raise ValueError("vector subspace cannot carry a basepoint")
        return span(f, VECTOR, rows, amb)


def json_expect(value, kind: type, what: str):
    """`value` if it has the JSON type `kind` (dict or list), else ValueError."""
    if not isinstance(value, kind):
        name = "object" if kind is dict else "list"
        raise ValueError(f"{what} must be a JSON {name}")
    return value


def json_int(value, what: str) -> int:
    """`value` if it is a JSON integer, else ValueError (1.5, "2", true too)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be a JSON integer")
    return value


def _json_point(f: Field, value, what: str) -> Vec:
    point = tuple(json_int(x, what) for x in json_expect(value, list, what))
    if not _elements(f.order).issuperset(point):
        raise ValueError(f"{what} has an entry outside GF({f.order})")
    return point


def _check_same_space(a: Subspace, b: Subspace) -> None:
    if a.mode != b.mode or a.field != b.field or a.ambient_len != b.ambient_len:
        raise ValueError("subspaces live in different ambients or modes")


def span(f: Field, mode: str, points, ambient_len: int | None = None) -> Subspace:
    """Canonical span of the given points (mode-appropriate combinations)."""
    _check_mode(mode)
    pts = [tuple(p) for p in points]
    if ambient_len is None:
        if not pts:
            raise ValueError("ambient_len needed for an empty span")
        ambient_len = len(pts[0])
    if any(len(p) != ambient_len for p in pts):
        raise ValueError("points of differing length")
    if mode == VECTOR:
        rows, _ = rref(f, pts)
        return Subspace(VECTOR, f, ambient_len, rows, None)
    if not pts:
        raise ValueError("affine span needs at least one point")
    base = pts[0]
    diffs = [vec_sub(f, p, base) for p in pts[1:]]
    rows, piv = rref(f, diffs)
    return Subspace(AFFINE, f, ambient_len, rows, _reduce_by(f, rows, piv, base))


def full_space(f: Field, mode: str, rank: int) -> Subspace:
    """The rank-`rank` space that fills its own coordinate ambient."""
    _check_mode(mode)
    if mode == VECTOR:
        if rank < 0:
            raise ValueError("vector rank must be nonnegative")
        return Subspace(VECTOR, f, rank, identity_rows(rank), None)
    if rank < 1:
        raise ValueError("affine rank must be at least 1")
    d = rank - 1
    return Subspace(AFFINE, f, d, identity_rows(d), tuple([0] * d))


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
    if k < 1 or k > n_rank:
        return 0
    d = n_rank - 1
    return q ** (d - (k - 1)) * gaussian_binomial(d, k - 1, q)


def _rref_patterns(f: Field, k: int, d: int):
    """The pivot patterns of the k x d full-rank RREF matrices, checked.

    Yields (pivots, choices), where choices[i] lists every value of row
    i: a 1 at its pivot, zeros before it and on the other pivots, and its
    free entries running over the field, the last fastest.  The
    pattern's matrices are the products of its rows' choices.  Every
    choice has passed `_check_pattern`, so every product is canonical.
    """
    elems = f.elements()
    for piv in itertools.combinations(range(d), k):
        pivset = set(piv)
        choices = []
        for p in piv:
            free = [j for j in range(p + 1, d) if j not in pivset]
            row = [0] * d
            row[p] = 1
            options = []
            for vals in itertools.product(elems, repeat=len(free)):
                for j, v in zip(free, vals):
                    row[j] = v
                options.append(tuple(row))
            choices.append(options)
        _check_pattern(f, d, piv, choices)
        yield piv, choices


def _check_pattern(f: Field, d: int, piv: tuple[int, ...], choices) -> None:
    """Raise ValueError unless each row choice is canonical for `piv`.

    These are the direction checks of `Subspace.__post_init__`, with its
    messages, made once per row choice instead of once per matrix.  If
    the pivots strictly increase and each choice for row i is a length-d
    row over the field that leads with a 1 at piv[i] and is zero on the
    other pivots, then every matrix built from the choices is a
    direction `__post_init__` accepts.
    """
    if any(a >= b for a, b in zip(piv, piv[1:])):
        raise ValueError("pivots must be strictly increasing")
    elements = _elements(f.order)
    pivset = set(piv)
    cols = range(d)
    for p, options in zip(piv, choices):
        for row in options:
            if len(row) != d:
                raise ValueError("direction row length differs from ambient_len")
            if not elements.issuperset(row):
                raise ValueError("direction entries out of field range")
            if row[p] != 1:
                raise ValueError("pivot entries must be 1")
            # the row's own pivot is its only nonzero pivot column
            if len(pivset.intersection(compress(cols, row))) != 1:
                raise ValueError("non-reduced entry above/below a pivot")
            if next(compress(cols, row)) != p:
                raise ValueError("nonzero direction entry before its pivot")


def _coset_bases(f: Field, d: int, piv: tuple[int, ...]) -> list[Vec]:
    """The canonical basepoints of the flats whose direction has pivots `piv`.

    They are the points that are zero on the pivots, their free entries
    in itertools.product order, checked by `_check_bases`.
    """
    pivset = set(piv)
    free = [c for c in range(d) if c not in pivset]
    point = [0] * d
    bases = []
    for vals in itertools.product(f.elements(), repeat=len(free)):
        for c, v in zip(free, vals):
            point[c] = v
        bases.append(tuple(point))
    _check_bases(f, d, piv, bases)
    return bases


def _check_bases(f: Field, d: int, piv: tuple[int, ...], bases) -> None:
    """Raise ValueError unless each basepoint is canonical for pivots `piv`.

    The basepoint checks of `Subspace.__post_init__`, with its messages.
    """
    elements = _elements(f.order)
    for b in bases:
        if len(b) != d:
            raise ValueError("basepoint length differs from ambient_len")
        if not elements.issuperset(b):
            raise ValueError("basepoint entries out of field range")
        if any(b[p] for p in piv):
            raise ValueError("basepoint must be zero on pivot columns")


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


# The slot descriptors of Subspace's fields, in field order.  The frozen
# dataclass's __init__ writes each slot through its descriptor as well
# (by object.__setattr__); calling the descriptors directly is cheaper.
(_set_mode, _set_field, _set_ambient_len, _set_direction, _set_basepoint,
 _set_key, _set_pivot_rows) = (Subspace.__dict__[fl.name].__set__
                               for fl in fields(Subspace))


def _unchecked_subspace(mode: str, f: Field, ambient_len: int,
                        direction: tuple[Vec, ...], basepoint: Vec | None) -> Subspace:
    """A Subspace whose canonical form was checked before it was built.

    Writes the slots as the dataclass's __init__ does, without running
    `__post_init__`.  Only the full-space walks of `iter_subspaces` call
    it: their rows and basepoints come from `_rref_patterns` and
    `_coset_bases`, which check them once per pattern.
    """
    s = object.__new__(Subspace)
    _set_mode(s, mode)
    _set_field(s, f)
    _set_ambient_len(s, ambient_len)
    _set_direction(s, direction)
    _set_basepoint(s, basepoint)
    _set_key(s, None)
    _set_pivot_rows(s, None)
    return s


def iter_subspaces(ambient: Subspace, k: int):
    """The rank-k subspaces of `ambient`, unsorted and unkeyed.

    Over a full coordinate space, walks RREF matrices (and coset
    representatives in affine mode).  These are already canonical, and
    each pattern's row choices and basepoints are checked once, so its
    subspaces skip the per-object check.  A proper ambient's subspaces
    are the walk over the coordinate space of its rank, carried through
    its basis map by `apply`, which re-canonicalizes and checks each.
    Checks no cap: callers run `guard_subspace_count` first.
    """
    f = ambient.field
    d = len(ambient.direction)
    is_full = d == ambient.ambient_len
    if is_full:
        if ambient.mode == VECTOR:
            for _, choices in _rref_patterns(f, k, d):
                for rows in itertools.product(*choices):
                    yield _unchecked_subspace(VECTOR, f, d, rows, None)
        elif k > 0:  # no empty flats; mirrors count_subspaces
            for piv, choices in _rref_patterns(f, k - 1, d):
                bases = _coset_bases(f, d, piv)
                for rows in itertools.product(*choices):
                    for b in bases:
                        yield _unchecked_subspace(AFFINE, f, d, rows, b)
    else:
        m = coordinate_map(f, ambient.mode, ambient.basis_points(),
                           ambient.ambient_len)
        for s in iter_subspaces(full_space(f, ambient.mode, ambient.rank), k):
            yield apply(m, s)


def enumerate_subspaces(ambient: Subspace, k: int) -> list[Subspace]:
    """All rank-k subspaces of `ambient`, sorted by canonical key.

    `guard_subspace_count` runs first, so the size cap is checked before
    anything is listed.
    """
    guard_subspace_count(ambient.field, ambient.mode, ambient.rank, k)
    return sorted(iter_subspaces(ambient, k), key=Subspace.key)


def subspace_templates(f: Field, mode: str, rank: int, k: int):
    """The rank-k subspaces of the rank-`rank` coordinate space, in key order.

    Each is given as (positions of its points, positions of its basis
    points) in that space's points() order.  Any rank-`rank` space U
    walks its points() over coefficient vectors in the same order, so
    U's position j is the image of coordinate point j under U's basis
    map, a linear (vector mode) or affine (affine mode) bijection onto
    U; it carries the templates exactly onto U's rank-k subspaces.
    """
    coord = full_space(f, mode, rank)
    pos = {p: j for j, p in enumerate(coord.points())}
    return [([pos[p] for p in t.points()], [pos[p] for p in t.basis_points()])
            for t in enumerate_subspaces(coord, k)]


# ---------------------------------------------------------------------------
# independence, bases, sums

class _RankTracker:
    """Incremental independence bookkeeping for one mode."""

    def __init__(self, f: Field, mode: str):
        self.f = f
        self.mode = mode
        self.origin: Vec | None = None  # affine mode: first point seen
        self.rows: dict[int, Vec] = {}  # pivot -> row echelon row, led by 1

    def _residual(self, v: Vec) -> list[int]:
        """v reduced by the rows at its nonzero pivot columns, in order.

        A row is zero before its pivot, so reducing at column p changes
        only later columns, which the live walk over `out` still reads.
        """
        add, mul, neg = self.f.add_table, self.f.mul_table, self.f.neg_table
        rows = self.rows
        out = list(v)
        for p in compress(range(len(out)), out):
            row = rows.get(p)
            if row is not None:
                _axpy(add, mul[neg[out[p]]], out, row)
        return out

    def try_add(self, point: Vec) -> bool:
        """Add the point if it keeps the set independent; report success."""
        if self.mode == AFFINE:
            if self.origin is None:
                self.origin = point
                return True
            v = vec_sub(self.f, point, self.origin)
        else:
            v = point
        res = self._residual(v)
        p = next(compress(range(len(res)), res), None)
        if p is None:
            return False
        self.rows[p] = (tuple(res) if res[p] == 1
                        else vec_scale(self.f, self.f.inv(res[p]), res))
        return True

    @property
    def rank(self) -> int:
        base = 1 if (self.mode == AFFINE and self.origin is not None) else 0
        return base + len(self.rows)


def is_independent(f: Field, mode: str, points) -> bool:
    """True when the points form an independent set in the given mode."""
    _check_mode(mode)
    tracker = _RankTracker(f, mode)
    return all(tracker.try_add(tuple(p)) for p in points)


@dataclass(frozen=True)
class BasisSet:
    """An ordered independent set of points."""

    mode: str
    field: Field
    points: tuple[Vec, ...]

    def __post_init__(self):
        _check_mode(self.mode)
        if not is_independent(self.field, self.mode, self.points):
            raise ValueError("basis points are not independent")

    def __len__(self) -> int:
        return len(self.points)


def extend_to_basis(basis: BasisSet, target: Subspace) -> BasisSet:
    """Grow an independent subset of `target` into a basis of it.

    Candidates are scanned in lexicographic point order, so the result is
    deterministic.  An input that is already a basis comes back unchanged.
    """
    if basis.mode != target.mode or basis.field != target.field:
        raise ValueError("basis and target disagree on mode or field")
    for p in basis.points:
        if not target.is_member(p):
            raise ValueError("basis point outside the target space")
    if len(basis.points) == target.rank:
        return basis
    tracker = _RankTracker(target.field, target.mode)
    for p in basis.points:
        if not tracker.try_add(p):
            raise ValueError("basis points are not independent")
    chosen = list(basis.points)
    for cand in target.sorted_points():
        if tracker.rank == target.rank:
            break
        if tracker.try_add(cand):
            chosen.append(cand)
    if tracker.rank != target.rank:
        raise RuntimeError("failed to complete a basis (inconsistent target?)")
    return BasisSet(target.mode, target.field, tuple(chosen))


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
    """Span of the parts' bases; requires the joint basis to be independent."""
    parts = list(parts)
    if not parts:
        raise ValueError("direct sum of no parts")
    first = parts[0]
    for p in parts[1:]:
        _check_same_space(first, p)
    pts: list[Vec] = []
    for p in parts:
        pts.extend(p.basis_points())
    if not is_independent(first.field, first.mode, pts):
        raise ValueError("parts overlap: joint basis is dependent")
    if first.mode == VECTOR and not pts:
        return zero_space(first.field, first.ambient_len)
    return span(first.field, first.mode, pts, first.ambient_len)


# ---------------------------------------------------------------------------
# combination-preserving maps

@dataclass(frozen=True)
class LinearMap:
    """A total map GF(q)^domain_len -> GF(q)^codomain_len.

    Vector mode: x -> M x.  Affine mode: x -> M x + t.  Either way the
    map preserves the mode's combinations, so images of subspaces are
    subspaces.
    """

    mode: str
    field: Field
    domain_len: int
    codomain_len: int
    matrix: tuple[Vec, ...]      # codomain_len rows of length domain_len
    translation: Vec | None = None

    def __post_init__(self):
        _check_mode(self.mode)
        if len(self.matrix) != self.codomain_len:
            raise ValueError("matrix row count differs from codomain_len")
        if any(len(r) != self.domain_len for r in self.matrix):
            raise ValueError("matrix row length differs from domain_len")
        elements = _elements(self.field.order)
        if not all(elements.issuperset(r) for r in self.matrix):
            raise ValueError("matrix entries out of field range")
        if self.mode == VECTOR:
            if self.translation is not None:
                raise ValueError("vector-mode maps carry no translation")
        else:
            if self.translation is None or len(self.translation) != self.codomain_len:
                raise ValueError("affine-mode maps need a codomain-length translation")
            if not elements.issuperset(self.translation):
                raise ValueError("translation entries out of field range")


def coordinate_map(f: Field, mode: str, images, codomain_len: int) -> LinearMap:
    """The map sending canonical basis point i of a full coordinate space
    to images[i].

    In vector mode that basis is the unit vectors, so the images are the
    matrix's columns; in affine mode the first basis point is the origin,
    so its image is the translation and the columns are the others' offsets
    from it.
    """
    t = images[0] if mode == AFFINE else None
    cols = images if t is None else [vec_sub(f, p, t) for p in images[1:]]
    return LinearMap(mode, f, len(cols), codomain_len,
                     transpose(cols, width=codomain_len), t)


def identity_map(f: Field, mode: str, n: int) -> LinearMap:
    t = tuple([0] * n) if mode == AFFINE else None
    return LinearMap(mode, f, n, n, identity_rows(n), t)


def apply(m: LinearMap, x):
    """Apply a map to a point (tuple) or to a Subspace (image, canonical)."""
    if isinstance(x, Subspace):
        if x.mode != m.mode or x.field != m.field:
            raise ValueError("map and subspace disagree on mode or field")
        if x.ambient_len != m.domain_len:
            raise ValueError("subspace ambient differs from map domain")
        if m.mode == VECTOR:
            imgs = [apply(m, p) for p in x.direction]
            return span(m.field, VECTOR, imgs, m.codomain_len)
        imgs = [apply(m, p) for p in x.basis_points()]
        return span(m.field, AFFINE, imgs, m.codomain_len)
    v = tuple(x)
    if len(v) != m.domain_len:
        raise ValueError("point length differs from map domain")
    out = mat_vec(m.field, m.matrix, v)
    if m.mode == AFFINE:
        out = vec_add(m.field, out, m.translation)
    return out


def compose(outer: LinearMap, inner: LinearMap) -> LinearMap:
    """The map x -> outer(inner(x))."""
    if outer.mode != inner.mode or outer.field != inner.field:
        raise ValueError("maps disagree on mode or field")
    if inner.codomain_len != outer.domain_len:
        raise ValueError("inner codomain differs from outer domain")
    mtx = mat_mul(outer.field, outer.matrix, inner.matrix)
    if outer.mode == VECTOR:
        return LinearMap(VECTOR, outer.field, inner.domain_len, outer.codomain_len, mtx)
    t = vec_add(outer.field, mat_vec(outer.field, outer.matrix, inner.translation),
                outer.translation)
    return LinearMap(AFFINE, outer.field, inner.domain_len, outer.codomain_len, mtx, t)


def linear_extension(basis: BasisSet, images, codomain_len: int | None = None) -> LinearMap:
    """The unique combination-preserving map with basis[i] -> images[i].

    Defined on the whole domain ambient: the basis is deterministically
    extended to an ambient basis, and the extension points map to zero
    (vector mode) or to the first image (affine mode).  Applying the map
    to each basis point reproduces its image exactly.
    """
    f = basis.field
    mode = basis.mode
    imgs = [tuple(p) for p in images]
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
        pairs = zip(pts_all, imgs + [tuple([0] * codomain_len)] * extras)
    else:
        p0, y0 = pts_all[0], imgs[0]
        pairs = [(vec_sub(f, p, p0), vec_sub(f, y, y0))
                 for p, y in zip(pts_all[1:], imgs[1:] + [y0] * extras)]
    # M b = y for each pair.  Row-reducing the rows [b | y] turns the b
    # block into the identity, so the row with pivot j reads [e_j | M e_j]
    red, piv = rref(f, [b + y for b, y in pairs])
    if piv != tuple(range(domain_len)):
        raise RuntimeError("extended basis does not span the domain")
    mtx = transpose(tuple(row[domain_len:] for row in red), width=codomain_len)
    if mode == VECTOR:
        m = LinearMap(VECTOR, f, domain_len, codomain_len, mtx)
    else:
        t = vec_sub(f, y0, mat_vec(f, mtx, p0))
        m = LinearMap(AFFINE, f, domain_len, codomain_len, mtx, t)
    for p, y in zip(basis.points, imgs):
        if apply(m, p) != y:
            raise RuntimeError("extension failed to reproduce a basis image")
    return m


def image_space(m: LinearMap) -> Subspace:
    """Image of the whole domain ambient under the map.

    The span of the matrix's columns; in affine mode the flat through
    the translation, which the columns move along.
    """
    f = m.field
    cols = transpose(m.matrix, width=m.domain_len)
    if m.mode == VECTOR:
        return span(f, VECTOR, cols, m.codomain_len)
    t = m.translation
    return span(f, AFFINE, [t, *(vec_add(f, t, c) for c in cols)], m.codomain_len)
