import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlcx.finite_field import (Field, FieldElement, _poly_mulmod,
                               element_order, field_of_order,
                               in_cyclic_subgroup, is_prime, make_field,
                               prime_power)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    for n in range(25):
        assert is_prime(n) == (n in primes)


def test_prime_power_decomposition():
    assert prime_power(7) == (7, 1)
    assert prime_power(8) == (2, 3)
    assert prime_power(9) == (3, 2)
    assert prime_power(16) == (2, 4)
    assert prime_power(25) == (5, 2)
    assert prime_power(1) is None
    assert prime_power(6) is None
    assert prime_power(12) is None


def test_primality_against_naive_oracle():
    primes = {n for n in range(2, 5000) if all(n % d for d in range(2, n))}
    powers = {p ** e: (p, e) for p in primes for e in range(1, 13) if p ** e < 5000}
    for n in range(-2, 5000):
        assert is_prime(n) == (n in primes), n
        assert prime_power(n) == powers.get(n), n


def test_canon_digest_up_to_1024():
    # every canonical (q, modulus, primitive) with q <= 1024, digested when
    # the order test and the trial division each had two copies
    canon = [(q, field_of_order(q).modulus, field_of_order(q).primitive)
             for q in range(2, 1025) if prime_power(q)]
    assert len(canon) == 198
    assert hashlib.sha256(repr(canon).encode()).hexdigest() == \
        "6dc570505c6eb39fb4917a67d6237633510bfbb8989b126d55e3cd869e37afb7"


def test_canonical_moduli_and_primitives():
    # frozen by independent hand computation
    assert field_of_order(4).modulus == (1, 1, 1)
    assert field_of_order(4).primitive == 2
    assert field_of_order(8).modulus == (1, 0, 1, 1)
    assert field_of_order(8).primitive == 4
    assert field_of_order(9).modulus == (1, 0, 1)
    assert field_of_order(9).primitive == 4
    assert field_of_order(5).primitive == 2
    assert field_of_order(7).primitive == 3
    assert field_of_order(2).primitive == 1
    assert field_of_order(3).primitive == 2


def test_describe():
    assert field_of_order(9).describe() == "q=9 p=3 e=2 modulus=[1,0,1] primitive=4"
    assert field_of_order(5).describe() == "q=5 p=5 e=1 modulus=[0,1] primitive=2"


def test_field_of_order_rejects_non_prime_power():
    with pytest.raises(ValueError):
        field_of_order(6)
    with pytest.raises(ValueError):
        field_of_order(1)


def test_make_field_validation():
    with pytest.raises(ValueError):
        make_field(4)  # not prime
    with pytest.raises(ValueError):
        make_field(2, 0)
    with pytest.raises(ValueError):
        make_field(2, 2, modulus=(1, 0, 1))  # (x+1)^2, reducible
    with pytest.raises(ValueError):
        make_field(7, primitive=2)  # order 3, not primitive
    f = make_field(7, primitive=5)
    assert f.primitive == 5
    assert element_order(f.element(5)) == 6


def test_order_too_large():
    with pytest.raises(ValueError):
        make_field(2, 17)


def forbid_factoring_above_max(monkeypatch):
    """Make trial division fail on any n above MAX_FIELD_ORDER."""
    import nlcx.finite_field as ff
    factors = ff._prime_factors

    def guarded(n):
        assert n <= ff.MAX_FIELD_ORDER, f"factored {n} before the size check"
        return factors(n)

    monkeypatch.setattr(ff, "_prime_factors", guarded)


def test_order_checked_before_factoring(monkeypatch):
    forbid_factoring_above_max(monkeypatch)
    for q in ((1 << 16) + 1, 10 ** 14 + 31, 2 ** 17, 3 ** 11):
        with pytest.raises(ValueError, match="exceeds the supported maximum 65536"):
            field_of_order(q)
    with pytest.raises(ValueError, match="exceeds the supported maximum 65536"):
        make_field(10 ** 14 + 31)
    assert field_of_order(65521).q == 65521


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25])
def test_field_axioms_exhaustive(q):
    f = field_of_order(q)
    els = list(range(q))
    for a in els:
        assert f.add(a, f.neg(a)) == 0
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        if a:
            assert f.mul(a, f.inv(a)) == 1
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in els:
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
                assert f.add(a, f.add(b, c)) == f.add(f.add(a, b), c)


@pytest.mark.parametrize("q", [4, 8, 9, 16])
def test_frobenius_is_additive(q):
    # x -> x^p is a field automorphism in characteristic p
    f = field_of_order(q)
    p = f.p
    for a in range(q):
        for b in range(q):
            assert f.pow(f.add(a, b), p) == f.add(f.pow(a, p), f.pow(b, p))


@pytest.mark.parametrize("q", [5, 8, 9, 13])
def test_exp_log_consistency(q):
    f = field_of_order(q)
    g = f.primitive
    seen = set()
    x = 1
    for i in range(q - 1):
        seen.add(x)
        x = f.mul(x, g)
    assert x == 1
    assert seen == set(range(1, q))


def test_exp_table_steps_by_the_primitive():
    # exp[i + 1] == exp[i] * g as polynomials mod the modulus: every step
    # for every field up to q = 1024, every 61st above
    qs = [q for q in range(2, 1025) if prime_power(q)]
    for q in qs + [2048, 2187, 3125, 4096, 59049, 65536]:
        f = field_of_order(q)
        g = f.coeffs_of(f.primitive)
        for i in range(0, q - 1, 1 if q <= 1024 else 61):
            step = _poly_mulmod(f.coeffs_of(f._exp[i]), g, f.modulus, f.p)
            assert f._exp[i + 1] == f.encode(step), (q, i)


def test_element_orders_divide_group_order():
    f = field_of_order(9)
    for a in range(1, 9):
        o = element_order(f.element(a))
        assert (9 - 1) % o == 0
        assert f.pow(a, o) == 1
        for m in range(1, o):
            assert f.pow(a, m) != 1


def test_pow_edge_cases():
    f = field_of_order(7)
    assert f.pow(0, 0) == 1
    assert f.pow(3, 0) == 1
    assert f.pow(3, -1) == f.inv(3) == 5
    with pytest.raises(ZeroDivisionError):
        f.pow(0, -2)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_element_wrapper_arithmetic():
    f = field_of_order(9)
    a, b = f.element(4), f.element(7)
    assert int(a + b) == f.add(4, 7)
    assert int(a * b) == f.mul(4, 7)
    assert int(a - b) == f.sub(4, 7)
    assert int(a / b) == f.mul(4, f.inv(7))
    assert int(-a) == f.neg(4)
    assert int(a ** 3) == f.pow(4, 3)
    assert a.inverse() * a == f.one
    assert bool(f.zero) is False and bool(a) is True
    assert repr(a) == "F9(4)"


def test_element_field_mismatch():
    a = field_of_order(5).element(2)
    b = field_of_order(7).element(2)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(TypeError):
        a + 1


def test_coeffs_round_trip():
    f = field_of_order(27)
    for v in range(27):
        assert f.encode(f.coeffs_of(v)) == v
    # constant term is the least significant base-p digit
    assert f.coeffs_of(5) == (2, 1, 0)


def test_coeffs_of_rejects_out_of_range():
    for q, v in ((9, -1), (9, 9), (7, 12), (7, -1)):
        with pytest.raises(ValueError, match=f"encoding {v} out of range for q={q}"):
            field_of_order(q).coeffs_of(v)


@pytest.mark.parametrize("q", [4, 8, 9, 27, 49, 1024, 2048, 2187, 3125])
def test_arithmetic_matches_digitwise_oracle(q):
    # add/sub/neg digit by digit mod p, mul as polynomials mod the modulus
    f = field_of_order(q)
    p = f.p
    if q <= 49:
        pairs = [(a, b) for a in range(q) for b in range(q)]
    else:  # a fixed list: 0, 1, -1, q - 1 and one scattered partner per a
        pairs = [(a, b) for a in range(0, q, 7)
                 for b in (0, 1, p - 1, q - 1, (31 * a + 5) % q)]
        pairs += [(a, f.neg(a)) for a in range(q)]
    for a, b in pairs:
        ca, cb = f.coeffs_of(a), f.coeffs_of(b)
        assert f.add(a, b) == f.encode(x + y for x, y in zip(ca, cb))
        assert f.sub(a, b) == f.encode(x - y for x, y in zip(ca, cb))
        assert f.mul(a, b) == f.encode(_poly_mulmod(ca, cb, f.modulus, p))
    for a in range(q):
        assert f.neg(a) == f.encode(-x for x in f.coeffs_of(a))
        assert f.add(a, f.neg(a)) == 0
    # the one exponent i with 1 + g**i == 0: g**i is -1
    i = 0 if p == 2 else (q - 1) // 2
    assert f.pow(f.primitive, i) == p - 1
    assert f.add(1, f.pow(f.primitive, i)) == 0


def test_lex_elements_order():
    # lex on coefficient tuples, constant term compared first
    f = field_of_order(4)
    assert list(f.lex_elements()) == [0, 2, 1, 3]


def test_in_cyclic_subgroup():
    f = field_of_order(7)
    u = f.element(2)  # order 3: {1, 2, 4}
    assert in_cyclic_subgroup(u, f.element(4))
    assert not in_cyclic_subgroup(u, f.element(3))
    with pytest.raises(ValueError):
        in_cyclic_subgroup(u, f.zero)


def test_field_identity_cached():
    assert field_of_order(9) is field_of_order(9)
    assert field_of_order(9) == make_field(3, 2)
    assert hash(field_of_order(9)) == hash(make_field(3, 2))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 4, 5, 7, 9, 16]), st.data())
def test_inverse_and_distributive_random(q, data):
    f = field_of_order(q)
    a = data.draw(st.integers(1, q - 1))
    b = data.draw(st.integers(0, q - 1))
    c = data.draw(st.integers(0, q - 1))
    assert f.mul(f.inv(a), f.mul(a, b)) == b
    assert f.mul(a, f.sub(b, c)) == f.sub(f.mul(a, b), f.mul(a, c))
