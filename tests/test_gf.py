import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grasscodes.errors import FieldTooLargeError, NotPrimeError
from grasscodes.gf import FieldCtx, field_new, field_of_order, is_prime


def brute_irreducible_quadratics_gf2():
    """Oracle: enumerate monic quadratics over GF(2), drop those with roots."""
    result = []
    for c1 in (0, 1):
        for c0 in (0, 1):
            if all((x * x + c1 * x + c0) % 2 != 0 for x in (0, 1)):
                result.append((c0, c1, 1))
    return result


def test_gf2_basics():
    f = field_new(2)
    assert f.q == 2
    assert f.add(1, 1) == 0
    assert f.mul(1, 1) == 1
    assert list(f.all_nonzero()) == [1]


def test_gf4_canonical_modulus():
    # the only monic irreducible quadratic over GF(2) is x^2 + x + 1
    assert brute_irreducible_quadratics_gf2() == [(1, 1, 1)]
    f = field_new(2, 2)
    assert f.modulus == (1, 1, 1)
    # x * x = x + 1 under that modulus: encodings 2 * 2 -> 3
    assert f.mul(2, 2) == 3
    assert list(f.all_nonzero()) == [1, 2, 3]


def test_gf5_inverse():
    f = field_new(5)
    assert f.inv(2) == 3  # 2*3 = 6 = 1 mod 5
    assert f.mul(2, f.inv(2)) == 1


def test_not_prime_rejected():
    with pytest.raises(NotPrimeError):
        field_new(4, 1)
    with pytest.raises(NotPrimeError):
        field_of_order(6)
    with pytest.raises(NotPrimeError):
        field_of_order(12)


def test_too_large_rejected():
    with pytest.raises(FieldTooLargeError):
        field_new(2, 21)


def test_too_large_rejected_before_primality(monkeypatch):
    """An oversized order fails on the cap alone: no primality test, no
    trial division, no power of a huge exponent."""
    from grasscodes import gf

    def no_primality_test(n):
        raise AssertionError(f"primality of {n} tested")

    monkeypatch.setattr(gf, "is_prime", no_primality_test)
    big = 10**14 + 31
    with pytest.raises(FieldTooLargeError):
        field_of_order(big)
    with pytest.raises(FieldTooLargeError):
        FieldCtx(big)
    with pytest.raises(FieldTooLargeError):
        FieldCtx(3, 40)


def test_field_of_order_matches_field_new():
    for q, p, e in [(2, 2, 1), (8, 2, 3), (9, 3, 2), (49, 7, 2)]:
        f = field_of_order(q)
        assert (f.p, f.e) == (p, e)
        assert f == field_new(p, e)


def test_all_nonzero_counts():
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27):
        f = field_of_order(q)
        nz = list(f.all_nonzero())
        assert len(nz) == q - 1
        assert nz == sorted(nz)
        assert 0 not in nz


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 64])
def test_field_axioms_full(q):
    """Full-field check of the axioms for q <= 64."""
    f = field_of_order(q)
    els = list(f.elements())
    for a in els:
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
    for a in els:
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
    for a in els[: min(q, 12)]:
        for b in els[: min(q, 12)]:
            for c in els[: min(q, 12)]:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", [9, 25, 27, 121, 2187, 3125, 6561])
def test_odd_extension_add_neg_are_digitwise(q):
    """add and neg in GF(p^e), p odd and e > 1, act on the base-p digits of
    the encoding mod p: through the spread-digit tables up to q = 4096 and
    the digit loop above.  Every pair when q <= 121, else 3,000 seeded pairs."""
    f = field_of_order(q)
    p, e = f.p, f.e

    def digits(a):
        return [a // p**i % p for i in range(e)]

    def encode(ds):
        return sum(d % p * p**i for i, d in enumerate(ds))

    if q <= 121:
        pairs = [(a, b) for a in range(q) for b in range(q)]
    else:
        rng = random.Random(q)
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(3000)] + [(q - 1, q - 1)]
    for a, b in pairs:
        assert f.add(a, b) == encode([x + y for x, y in zip(digits(a), digits(b))]), (a, b)
        assert f.neg(a) == encode([-x for x in digits(a)]), a


@given(st.sampled_from([81, 121, 125, 128, 243, 256]), st.data())
@settings(max_examples=60, deadline=None)
def test_field_axioms_sampled(q, data):
    f = field_of_order(q)
    a = data.draw(st.integers(0, q - 1))
    b = data.draw(st.integers(0, q - 1))
    c = data.draw(st.integers(0, q - 1))
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, f.neg(a)) == 0
    if a:
        assert f.mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 27])
def test_multiplicative_group_cyclic(q):
    f = field_of_order(q)
    found = False
    for g in f.all_nonzero():
        powers = set()
        v = 1
        for _ in range(q - 1):
            v = f.mul(v, g)
            powers.add(v)
        if len(powers) == q - 1:
            found = True
            break
    assert found


def test_zero_has_no_inverse():
    f = field_new(7)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_large_field_no_tables():
    """Above the table cap: on-the-fly arithmetic must still satisfy axioms."""
    f = field_new(2, 13)  # q = 8192 > 4096
    assert f._exp is None
    for a, b in [(1, 1), (5, 9), (4097, 8191), (123, 4567)]:
        assert f.mul(a, f.inv(a)) == 1 if a else True
        assert f.add(a, b) == a ^ b
        # distributivity spot check
        c = 777
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_pow_matches_repeated_mul():
    f = field_of_order(9)
    for a in f.elements():
        acc = 1
        for m in range(1, 6):
            acc = f.mul(acc, a)
            assert f.pow(a, m) == acc


def test_deterministic_rebuild():
    a = FieldCtx(3, 2)
    b = FieldCtx(3, 2)
    assert a.modulus == b.modulus
    assert [a.mul(x, y) for x in range(9) for y in range(9)] == [
        b.mul(x, y) for x in range(9) for y in range(9)
    ]


def test_np_tables_consistent():
    np = pytest.importorskip("numpy")
    f = field_of_order(8)
    add, sub, mul, inv, neg = f.np_tables()
    for a in range(8):
        for b in range(8):
            assert add[a, b] == f.add(a, b)
            assert sub[a, b] == f.sub(a, b)
            assert mul[a, b] == f.mul(a, b)
        assert neg[a] == f.neg(a)
        if a:
            assert inv[a] == f.inv(a)


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_polynomial_encoding_roundtrip():
    from grasscodes.gf import _decode_poly, _encode_poly

    for p in (2, 3, 5):
        for v in range(p**3):
            coeffs = _decode_poly(v, p)
            assert _encode_poly(coeffs, p) == v
            assert all(0 <= c < p for c in coeffs)
