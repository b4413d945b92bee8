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
import json
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from itertools import compress
from operator import itemgetter

from .field import Field, make_field

Vec = tuple[int, ...]

VECTOR = "vector"
AFFINE = "affine"

POINT_CAP = 1 << 16


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
        width = len(rows[0])
    elif width is None:
        raise ValueError("width needed to transpose an empty matrix")
    return tuple(tuple(row[j] for row in rows) for j in range(width))


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


def solve(f: Field, rows: tuple[Vec, ...], rhs: Vec, ncols: int | None = None) -> Vec | None:
    """One solution x of rows . x = rhs (free variables zero), or None."""
    if rows:
        ncols = len(rows[0])
    elif ncols is None:
        raise ValueError("ncols needed to solve an empty system")
    if len(rhs) != len(rows):
        raise ValueError("rhs length differs from the number of equations")
    aug = [tuple(r) + (b,) for r, b in zip(rows, rhs)]
    red, piv = rref(f, aug)
    x = [0] * ncols
    for row, p in zip(red, piv):
        if p == ncols:
            return None  # pivot in the augmented column: inconsistent
        x[p] = row[ncols]
    return tuple(x)


def mat_inv(f: Field, rows: tuple[Vec, ...]) -> tuple[Vec, ...]:
    n = len(rows)
    aug = [tuple(r) + tuple(1 if i == j else 0 for j in range(n)) for i, r in enumerate(rows)]
    red, piv = rref(f, aug)
    if tuple(piv) != tuple(range(n)):
        raise ValueError("matrix is singular")
    return tuple(row[n:] for row in red)


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
    _pivots: tuple[int, ...] | None = dc_field(default=None, init=False, compare=False,
                                               repr=False)

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
    def dimension(self) -> int:
        """Geometric dimension: number of direction rows."""
        return len(self.direction)

    @property
    def rank(self) -> int:
        """Basis size: dimension in vector mode, dimension + 1 in affine."""
        return len(self.direction) + (1 if self.mode == AFFINE else 0)

    @property
    def num_points(self) -> int:
        return self.field.order ** len(self.direction)

    def pivots(self) -> tuple[int, ...]:
        """Pivot column of each direction row; computed on first use."""
        if self._pivots is None:
            object.__setattr__(self, "_pivots", tuple(
                next(compress(range(len(row)), row)) for row in self.direction))
        return self._pivots

    # -- point set -----------------------------------------------------

    def points(self, cap: int = POINT_CAP):
        """All points, in a deterministic (not lexicographic) order."""
        if self.num_points > cap:
            raise SizeCapError(f"{self.num_points} points exceeds cap {cap}")
        f = self.field
        base = self.basepoint if self.mode == AFFINE else tuple([0] * self.ambient_len)
        for coeffs in itertools.product(f.elements(), repeat=len(self.direction)):
            p = base
            for c, row in zip(coeffs, self.direction):
                if c:
                    p = vec_add(f, p, vec_scale(f, c, row))
            yield p

    def sorted_points(self, cap: int = POINT_CAP) -> list[Vec]:
        return sorted(self.points(cap))

    def is_member(self, v: Vec) -> bool:
        if len(v) != self.ambient_len:
            raise ValueError("point length differs from ambient_len")
        w = v if self.mode == VECTOR else vec_sub(self.field, v, self.basepoint)
        rem = _reduce_by(self.field, self.direction, self.pivots(), w)
        return not any(rem)

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
        """Canonical serialization; doubles as the bytewise sort key."""
        if self._key is None:
            object.__setattr__(self, "_key", json.dumps(self.to_json(), separators=(",", ":")))
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


def single_point(f: Field, point: Vec) -> Subspace:
    return span(f, AFFINE, [tuple(point)])


def combine(f: Field, mode: str, coeffs, points) -> Vec:
    """The combination sum(c_i * p_i); affine mode requires sum(c_i) = 1."""
    _check_mode(mode)
    coeffs = list(coeffs)
    pts = [tuple(p) for p in points]
    if len(coeffs) != len(pts):
        raise ValueError("coefficient/point count mismatch")
    if not pts:
        raise ValueError("empty combination")
    if any(len(p) != len(pts[0]) for p in pts):
        raise ValueError("points of differing length")
    if mode == AFFINE:
        total = 0
        for c in coeffs:
            total = f.add(total, c)
        if total != 1:
            raise ValueError("affine combination coefficients must sum to 1")
    out = tuple([0] * len(pts[0]))
    for c, p in zip(coeffs, pts):
        if c:
            out = vec_add(f, out, vec_scale(f, c, p))
    return out


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


def _rref_matrices(f: Field, k: int, d: int):
    """All k x d full-rank RREF matrices, as (rows, pivots)."""
    if k == 0:
        yield (), ()
        return
    if k > d:
        return
    elems = f.elements()
    for piv in itertools.combinations(range(d), k):
        pivset = set(piv)
        free = [(i, j) for i in range(k) for j in range(piv[i] + 1, d) if j not in pivset]
        for vals in itertools.product(elems, repeat=len(free)):
            rows = [[0] * d for _ in range(k)]
            for i in range(k):
                rows[i][piv[i]] = 1
            for (i, j), v in zip(free, vals):
                rows[i][j] = v
            yield tuple(tuple(r) for r in rows), piv


def _combine_rows(f: Field, coeffs, rows: tuple[Vec, ...], width: int) -> Vec:
    add, mul = f.add_table, f.mul_table
    out = [0] * width
    for c, row in zip(coeffs, rows):
        if c:
            _axpy(add, mul[c], out, row)
    return tuple(out)


def enumerate_subspaces(ambient: Subspace, k: int, cap: int = POINT_CAP) -> list[Subspace]:
    """All rank-k subspaces of `ambient`, sorted by canonical key.

    Internally walks RREF matrices (and coset representatives in affine
    mode) over the ambient's internal coordinates, then rewrites them in
    ambient coordinates.  Raises SizeCapError, before listing, when the
    point count or the closed-form count of rank-k subspaces exceeds `cap`.
    """
    f = ambient.field
    mode = ambient.mode
    if ambient.num_points > cap:
        raise SizeCapError(f"ambient has {ambient.num_points} points, cap {cap}")
    if 0 <= k <= ambient.rank:
        count = count_subspaces(ambient.rank, k, f.order, mode)
        if count > cap:
            raise SizeCapError(f"{count} rank-{k} subspaces, cap {cap}")
    out: list[Subspace] = []
    d = len(ambient.direction)
    is_full = d == ambient.ambient_len
    if mode == VECTOR:
        if not 0 <= k <= ambient.rank:
            raise ValueError(f"k={k} out of range for rank {ambient.rank}")
        for rows, _ in _rref_matrices(f, k, d):
            if is_full:
                out.append(Subspace(VECTOR, f, d, rows, None))
            else:
                mapped = [_combine_rows(f, r, ambient.direction, ambient.ambient_len)
                          for r in rows]
                out.append(span(f, VECTOR, mapped, ambient.ambient_len))
    else:
        if k == 0:
            return []  # no empty flats; mirrors count_subspaces
        if not 1 <= k <= ambient.rank:
            raise ValueError(f"k={k} out of range for affine rank {ambient.rank}")
        elems = f.elements()
        for rows, piv in _rref_matrices(f, k - 1, d):
            pivset = set(piv)
            free_cols = [c for c in range(d) if c not in pivset]
            for vals in itertools.product(elems, repeat=len(free_cols)):
                b_int = [0] * d
                for c, v in zip(free_cols, vals):
                    b_int[c] = v
                if is_full:
                    out.append(Subspace(AFFINE, f, d, rows, tuple(b_int)))
                else:
                    mapped = [_combine_rows(f, r, ambient.direction, ambient.ambient_len)
                              for r in rows]
                    pt = vec_add(f, ambient.basepoint,
                                 _combine_rows(f, b_int, ambient.direction, ambient.ambient_len))
                    red, rpiv = rref(f, mapped)
                    out.append(Subspace(AFFINE, f, ambient.ambient_len, red,
                                        _reduce_by(f, red, rpiv, pt)))
    out.sort(key=lambda s: s.key())
    return out


# ---------------------------------------------------------------------------
# independence, bases, sums

class _RankTracker:
    """Incremental independence bookkeeping for one mode."""

    def __init__(self, f: Field, mode: str):
        self.f = f
        self.mode = mode
        self.origin: Vec | None = None  # affine mode: first point seen
        self.rows: list[Vec] = []       # row echelon (not reduced), by pivot
        self.pivs: list[int] = []

    def _residual(self, v: Vec) -> Vec:
        add, mul, neg = self.f.add_table, self.f.mul_table, self.f.neg_table
        out = list(v)
        for row, p in zip(self.rows, self.pivs):
            if out[p]:
                _axpy(add, mul[neg[out[p]]], out, row)
        return tuple(out)

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
        res = vec_scale(self.f, self.f.inv(res[p]), res)
        i = next((j for j, pv in enumerate(self.pivs) if pv > p), len(self.pivs))
        self.rows.insert(i, res)
        self.pivs.insert(i, p)
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


def extend_to_basis(basis: BasisSet, target: Subspace, cap: int = POINT_CAP) -> BasisSet:
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
    for cand in target.sorted_points(cap):
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

    def to_json(self) -> dict:
        out: dict = {
            "mode": self.mode,
            "q": self.field.order,
            "domain_len": self.domain_len,
            "codomain_len": self.codomain_len,
            "matrix": [list(r) for r in self.matrix],
        }
        if self.mode == AFFINE:
            out["translation"] = list(self.translation)
        return out

    @staticmethod
    def from_json(data: dict, f: Field | None = None) -> "LinearMap":
        if f is None:
            f = make_field(int(data["q"]))
        t = data.get("translation")
        return LinearMap(
            data["mode"], f, int(data["domain_len"]), int(data["codomain_len"]),
            tuple(tuple(int(x) for x in r) for r in data["matrix"]),
            tuple(int(x) for x in t) if t is not None else None,
        )


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
    ext = extend_to_basis(basis, ambient)
    extras = ext.points[len(basis.points):]
    if mode == VECTOR:
        pts_all = list(basis.points) + list(extras)
        imgs_all = imgs + [tuple([0] * codomain_len)] * len(extras)
        if not pts_all:
            m = LinearMap(VECTOR, f, domain_len, codomain_len,
                          tuple(tuple([0] * domain_len) for _ in range(codomain_len)))
            return m
        b_cols = transpose(tuple(pts_all))
        y_cols = transpose(tuple(imgs_all), width=codomain_len) if imgs_all else ()
        mtx = mat_mul(f, tuple(tuple(r) for r in y_cols), mat_inv(f, b_cols)) \
            if domain_len else tuple(() for _ in range(codomain_len))
        m = LinearMap(VECTOR, f, domain_len, codomain_len, mtx)
    else:
        pts_all = list(basis.points) + list(extras)
        imgs_all = imgs + [imgs[0]] * len(extras)
        p0, y0 = pts_all[0], imgs_all[0]
        if domain_len:
            d_cols = transpose(tuple(vec_sub(f, p, p0) for p in pts_all[1:]))
            e_cols = transpose(tuple(vec_sub(f, y, y0) for y in imgs_all[1:]),
                               width=codomain_len)
            mtx = mat_mul(f, tuple(tuple(r) for r in e_cols), mat_inv(f, d_cols))
        else:
            mtx = tuple(() for _ in range(codomain_len))
        t = vec_sub(f, y0, mat_vec(f, mtx, p0))
        m = LinearMap(AFFINE, f, domain_len, codomain_len, mtx, t)
    for p, y in zip(basis.points, imgs):
        if apply(m, p) != y:
            raise RuntimeError("extension failed to reproduce a basis image")
    return m


def kernel_space(m: LinearMap) -> Subspace:
    """Null space of a vector-mode map, as a canonical subspace."""
    if m.mode != VECTOR:
        raise ValueError("kernel_space is defined for vector-mode maps")
    rows = nullspace_rows(m.field, m.matrix, m.domain_len)
    return span(m.field, VECTOR, rows, m.domain_len)


def image_space(m: LinearMap) -> Subspace:
    """Image of the whole domain ambient under the map."""
    return apply(m, full_space(m.field, m.mode,
                               m.domain_len + (1 if m.mode == AFFINE else 0)))


def preimage(m: LinearMap, y: Vec) -> Subspace:
    """The solution flat {x : m(x) = y}, always returned in affine mode.

    A preimage under a vector-mode map is a coset of the kernel, which is
    not a vector subspace unless y = 0, so the flat representation is the
    honest one for both modes.  Raises when y is not in the image.
    """
    y = tuple(y)
    if len(y) != m.codomain_len:
        raise ValueError("point length differs from map codomain")
    rhs = y if m.mode == VECTOR else vec_sub(m.field, y, m.translation)
    part = solve(m.field, m.matrix, rhs, ncols=m.domain_len)
    if part is None:
        raise ValueError("point is not in the image of the map")
    rows = nullspace_rows(m.field, m.matrix, m.domain_len)
    red, piv = rref(m.field, rows)
    return Subspace(AFFINE, m.field, m.domain_len, red, _reduce_by(m.field, red, piv, part))
