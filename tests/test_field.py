"""GF(q) table arithmetic against an independent polynomial oracle.

The oracle below re-implements extension-field multiplication from
scratch (schoolbook convolution + long division by the pinned modulus)
so the lookup tables are checked against something that shares no code
with the library.
"""

import pytest

from qramsey import FIELD_ORDER_CAP, Field, make_field

SUPPORTED = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]

# Same fixed moduli the library pins, restated here by hand.
ORACLE_MODULI = {
    4: [1, 1, 1],
    8: [1, 1, 0, 1],
    9: [2, 2, 1],
    16: [1, 1, 0, 0, 1],
}


def digits(i, p, d):
    out = []
    for _ in range(d):
        out.append(i % p)
        i //= p
    return out


def undigits(cs, p):
    out = 0
    for c in reversed(cs):
        out = out * p + c % p
    return out


def oracle_mul(a, b, p, d, modulus):
    """Polynomial product of a and b reduced mod (p, modulus)."""
    da, db = digits(a, p, d), digits(b, p, d)
    conv = [0] * (2 * d - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            conv[i + j] = (conv[i + j] + x * y) % p
    # long division, modulus is monic so no leading-coefficient fuss
    deg = len(modulus) - 1
    for i in range(len(conv) - 1, deg - 1, -1):
        c = conv[i]
        if c == 0:
            continue
        for j in range(deg + 1):
            conv[i - deg + j] = (conv[i - deg + j] - c * modulus[j]) % p
    return undigits(conv[:deg], p)


def test_golden_products():
    # frozen from the oracle: x*x in GF(4) is x+1, etc.
    assert make_field(4).mul(2, 2) == 3
    assert make_field(9).mul(3, 3) == 4
    assert make_field(8).mul(4, 2) == 3


def test_golden_sums():
    assert make_field(4).add(2, 3) == 1
    assert make_field(9).add(3, 3) == 6
    assert make_field(2).add(1, 1) == 0


def test_golden_inverses():
    assert make_field(5).inv(2) == 3
    assert make_field(7).inv(3) == 5


@pytest.mark.parametrize("q", [4, 8, 9, 16])
def test_extension_mul_matches_oracle(q):
    f = make_field(q)
    p, d = f.p, f.degree
    mod = ORACLE_MODULI[q]
    for a in range(q):
        for b in range(q):
            assert f.mul(a, b) == oracle_mul(a, b, p, d, mod)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
def test_prime_field_is_mod_arithmetic(q):
    f = make_field(q)
    for a in range(q):
        for b in range(q):
            assert f.add(a, b) == (a + b) % q
            assert f.mul(a, b) == (a * b) % q


@pytest.mark.parametrize("q", SUPPORTED)
def test_field_axioms_exhaustive(q):
    f = make_field(q)
    els = f.elements()
    assert els == list(range(q))
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
        assert f.add(a, f.neg(a)) == 0
        assert f.sub(a, a) == 0
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1
    for a in els:
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in els:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", SUPPORTED)
def test_no_zero_divisors(q):
    f = make_field(q)
    for a in range(1, q):
        for b in range(1, q):
            assert f.mul(a, b) != 0


@pytest.mark.parametrize("q", SUPPORTED)
def test_nonzero_powers_cycle_with_period_dividing_group_order(q):
    f = make_field(q)
    for a in range(1, q):
        acc, period = 1, None
        for i in range(1, q):
            acc = f.mul(acc, a)
            if acc == 1:
                period = i
                break
        assert period is not None and (q - 1) % period == 0


def test_inv_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        make_field(5).inv(0)


@pytest.mark.parametrize("q", [1, 0, -3, 6, 10, 12, 14, 15, 17, 25, 100])
def test_make_field_rejects_bad_orders(q):
    with pytest.raises(ValueError):
        make_field(q)


def test_make_field_is_cached():
    assert make_field(9) is make_field(9)


def test_modulus_validation():
    # x^2 + 1 = (x + 1)^2 over GF(2)
    with pytest.raises(ValueError):
        Field(2, 2, (1, 0, 1))
    with pytest.raises(ValueError):
        Field(2, 2, (1, 1, 2))  # not monic
    with pytest.raises(ValueError):
        Field(2, 2, None)  # extension without modulus
    with pytest.raises(ValueError):
        Field(4)  # not prime
    with pytest.raises(ValueError):
        Field(2, 5)  # 32 > cap


def test_cap_constant():
    assert FIELD_ORDER_CAP == 16
    with pytest.raises(ValueError):
        make_field(FIELD_ORDER_CAP + 1)
