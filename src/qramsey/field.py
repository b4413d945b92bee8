"""Exact GF(q) arithmetic for prime powers q <= 16.

Field elements are plain ints in [0, q).  The int encodes the element's
coefficient vector in base-p digits (little-endian), so 0 and 1 are
always the additive and multiplicative identities and prime fields are
just integers mod p.  All operation tables are built eagerly at
construction; everything afterwards is a table lookup.

A vector over the field is a `bytes` object, one element per byte.  The
byte tables below act on whole vectors through `bytes.translate`: an
element fits in four bits, so byte j of the pair vector of a and b,
16 * a[j] + b[j], indexes a pair table, and one translate adds or
subtracts every entry at once; scaling is one translate by the
scalar's table.
"""

from __future__ import annotations

from functools import lru_cache

FIELD_ORDER_CAP = 16

# One fixed irreducible modulus per extension order, ascending
# coefficients (constant term first, monic).  Pinned so that canonical
# forms serialize identically across runs and machines.
_MODULI: dict[int, tuple[int, ...]] = {
    4: (1, 1, 1),         # x^2 + x + 1       over GF(2)
    8: (1, 1, 0, 1),      # x^3 + x + 1       over GF(2)
    9: (2, 2, 1),         # x^2 + 2x + 2      over GF(3)
    16: (1, 1, 0, 0, 1),  # x^4 + x + 1       over GF(2)
}


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _prime_power(q: int) -> tuple[int, int] | None:
    """Return (p, d) with q == p**d and p prime, or None."""
    for p in range(2, q + 1):
        if not _is_prime(p) or q % p != 0:
            continue
        d, m = 0, q
        while m % p == 0:
            m //= p
            d += 1
        return (p, d) if m == 1 else None
    return None


def _poly_mod(num: list[int], den: tuple[int, ...], p: int) -> list[int]:
    """Remainder of num by den over GF(p); coefficients ascending."""
    num = list(num)
    dd = len(den) - 1
    lead_inv = pow(den[dd], p - 2, p)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] % p
        if c == 0:
            continue
        f = (c * lead_inv) % p
        for j in range(dd + 1):
            num[i - dd + j] = (num[i - dd + j] - f * den[j]) % p
    return [c % p for c in num[:dd]] if dd > 0 else []


def _poly_is_irreducible(modulus: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of lower positive degree."""
    d = len(modulus) - 1
    for deg in range(1, d):
        # all monic polynomials of this degree
        for code in range(p**deg):
            coeffs, c = [], code
            for _ in range(deg):
                coeffs.append(c % p)
                c //= p
            coeffs.append(1)
            rem = _poly_mod(list(modulus), tuple(coeffs), p)
            if all(x == 0 for x in rem):
                return False
    return True


class Field:
    """GF(p^d) with precomputed add/mul/neg/inv tables.

    Elements are the ints 0..q-1; index i stands for the polynomial whose
    base-p digits of i are the coefficients.
    """

    __slots__ = ("p", "degree", "modulus", "order", "_add", "_mul", "_neg", "_inv",
                 "add_pairs", "sub_pairs", "scale")

    def __init__(self, p: int, degree: int = 1, modulus: tuple[int, ...] | None = None):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if degree < 1:
            raise ValueError("degree must be positive")
        q = p**degree
        if q > FIELD_ORDER_CAP:
            raise ValueError(f"field order {q} above the cap {FIELD_ORDER_CAP}")
        if degree == 1:
            modulus = ()
        else:
            if modulus is None:
                raise ValueError("extension fields need a modulus")
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != degree + 1 or modulus[degree] != 1:
                raise ValueError("modulus must be monic of degree equal to the extension degree")
            if not _poly_is_irreducible(modulus, p):
                raise ValueError(f"modulus {modulus} is reducible over GF({p})")
        self.p = p
        self.degree = degree
        self.modulus = modulus
        self.order = q
        self._build_tables()

    def _digits(self, i: int) -> list[int]:
        out = []
        for _ in range(self.degree):
            out.append(i % self.p)
            i //= self.p
        return out

    def _index(self, digits: list[int]) -> int:
        out = 0
        for c in reversed(digits):
            out = out * self.p + (c % self.p)
        return out

    def _build_tables(self) -> None:
        p, q, d = self.p, self.order, self.degree
        digs = [self._digits(i) for i in range(q)]
        add = []
        for a in range(q):
            add.append(tuple(self._index([(x + y) % p for x, y in zip(digs[a], digs[b])])
                             for b in range(q)))
        neg = tuple(self._index([(-x) % p for x in digs[a]]) for a in range(q))
        mul = []
        for a in range(q):
            row = []
            for b in range(q):
                conv = [0] * (2 * d - 1)
                for i, x in enumerate(digs[a]):
                    if x:
                        for j, y in enumerate(digs[b]):
                            conv[i + j] = (conv[i + j] + x * y) % p
                if d > 1:
                    conv = _poly_mod(conv, self.modulus, p)
                row.append(self._index(conv[:d] + [0] * (d - len(conv))))
            mul.append(tuple(row))
        inv = [0] * q
        for a in range(1, q):
            inv[a] = next(b for b in range(1, q) if mul[a][b] == 1)
        self._add = tuple(add)
        self._mul = tuple(mul)
        self._neg = neg
        self._inv = tuple(inv)
        # the byte tables (read-only): add_pairs[16 * a + b] == add(a, b),
        # likewise sub_pairs, and scale[c][x] == mul(c, x).
        # Each is a 256-byte table for bytes.translate; an index naming no
        # element (an entry >= q) maps to 0
        pairs = [(a >> 4, a & 15) for a in range(256)]
        self.add_pairs = bytes(add[a][b] if a < q and b < q else 0 for a, b in pairs)
        self.sub_pairs = bytes(add[a][neg[b]] if a < q and b < q else 0 for a, b in pairs)
        self.scale = tuple(bytes(row) + bytes(256 - q) for row in mul)

    # -- arithmetic ----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self._inv[a]

    def elements(self) -> list[int]:
        return list(range(self.order))

    # -- identity ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Field)
                and (self.p, self.degree, self.modulus) == (other.p, other.degree, other.modulus))

    def __hash__(self) -> int:
        return hash((self.p, self.degree, self.modulus))

    def __repr__(self) -> str:
        return f"Field(q={self.order})"


@lru_cache(maxsize=None)
def make_field(q: int) -> Field:
    """The GF(q) instance for this library's fixed modulus choices.

    Raises ValueError when q is not a prime power in [2, 16].
    """
    if not 2 <= q <= FIELD_ORDER_CAP:
        raise ValueError(f"field order must be in [2, {FIELD_ORDER_CAP}], got {q}")
    pp = _prime_power(q)
    if pp is None:
        raise ValueError(f"{q} is not a prime power")
    p, d = pp
    return Field(p, d, _MODULI.get(q))
