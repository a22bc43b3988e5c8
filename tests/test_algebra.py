"""Exact field arithmetic, ordering, and membership."""

import decimal
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldenbeta.algebra import (
    EVEN,
    ODD,
    DomainError,
    FieldElem,
    ParameterError,
    Params,
    ParseError,
    fe_membership,
    floor_pq,
    format_field,
    make_params,
    parse_field,
    sign_pq,
    split_denominator,
)

P1 = make_params(1, ODD)
P2 = make_params(2, ODD)
E1 = make_params(1, EVEN)


def beta_decimal(params, prec=110):
    decimal.getcontext().prec = prec
    if params.parity == EVEN:
        return decimal.Decimal(params.k + 1)
    return (params.k + 1 + decimal.Decimal(params.D).sqrt()) / 2


def to_decimal(x):
    b = beta_decimal(x.params)
    return (x.p * b + x.q) / x.r


def test_make_params_odd():
    assert (P1.m, P1.D) == (3, 12)
    assert (P2.m, P2.D) == (5, 21)
    # minimal polynomial holds exactly
    b = P1.beta
    assert (b * b - (b * 2 + 2)).is_zero()
    assert (P1.interval_bound - FieldElem(P1, 1, -1, 1)).is_zero()


def test_make_params_even():
    assert E1.m == 2
    assert (E1.beta - 3).is_zero() is False  # beta = k+1 = 2
    assert (E1.beta - 2).is_zero()
    assert (E1.interval_bound - 2).is_zero()


def test_params_derive_m_and_D():
    # only k and parity are settable; m and D follow, and keep their place
    # in equality and repr
    assert Params(1, ODD) == P1 and Params(1, EVEN) == E1
    assert (Params(3, ODD).m, Params(3, ODD).D) == (7, 32)
    assert (Params(3, EVEN).m, Params(3, EVEN).D) == (6, None)
    assert repr(P1) == "Params(k=1, parity='odd', m=3, D=12)"
    with pytest.raises(TypeError):
        Params(1, ODD, 3, 12)


def test_make_params_rejects():
    with pytest.raises(ParameterError):
        make_params(0, ODD)
    with pytest.raises(ParameterError):
        make_params(1, "both")


@pytest.mark.parametrize("k, parity, message", [
    (1, "bogus", "parity must be 'odd' or 'even', got 'bogus'"),
    (-3, ODD, "k must be a positive integer, got -3"),
    (0, EVEN, "k must be a positive integer, got 0"),
    (1.0, ODD, "k must be a positive integer, got 1.0"),
    # a bool is an int, but True would pass for k = 1, share its cached
    # graphs and be written as "k": true
    (True, ODD, "k must be a positive integer, got True"),
    (False, EVEN, "k must be a positive integer, got False"),
])
def test_params_checks_its_arguments(k, parity, message):
    # the constructor itself refuses, not only make_params
    with pytest.raises(ParameterError) as exc:
        Params(k, parity)
    assert str(exc.value) == message


def test_digit_classes():
    assert [d for d in range(-1, 5) if P1.in_small(d)] == [0, 1]
    assert [d for d in range(-1, 5) if P1.in_big(d)] == [2, 3]
    assert [d for d in range(-1, 7) if P2.in_small(d)] == [0, 1, 2]
    assert [d for d in range(-1, 7) if P2.in_big(d)] == [3, 4, 5]


def test_fe_arith_examples():
    one = P1.one
    half_bm1 = FieldElem(P1, 1, -1, 2)  # (beta-1)/2
    assert ((one + half_bm1) - FieldElem(P1, 1, 1, 2)).is_zero()
    assert (half_bm1 - half_bm1).is_zero()
    half_b = FieldElem(P1, 1, 0, 2)
    assert ((half_b + half_b) - P1.beta).is_zero()
    assert ((1 - half_bm1) - FieldElem(P1, -1, 3, 2)).is_zero()  # int - elem


def test_fe_mul_beta_examples():
    assert (P1.beta.mul_beta() - FieldElem(P1, 2, 2, 1)).is_zero()
    assert (FieldElem(P1, 0, 1, 2).mul_beta() - FieldElem(P1, 1, 0, 2)).is_zero()
    assert (FieldElem(P1, 1, -2, 1).mul_beta() - P1.from_int(2)).is_zero()
    assert (FieldElem(E1, 0, 3, 4).mul_beta() - FieldElem(E1, 0, 3, 2)).is_zero()


def test_fe_cmp_examples():
    # fe_cmp is gone; its cases now assert the signs of FieldElem.compare
    b = P1.beta
    assert P1.one.compare(b - 2) == 1
    assert (b - 1).compare(P1.one) == 1
    assert b.compare(b) == 0
    assert P1.zero.compare(P1.one) == -1
    assert b > P1.one and not P1.one > b


def test_canonical_form():
    x = FieldElem(P1, 2, 4, 6)
    assert (x.p, x.q, x.r) == (1, 2, 3)
    y = FieldElem(P1, 1, 1, -2)
    assert (y.p, y.q, y.r) == (-1, -1, 2)
    again = FieldElem(P1, x.p, x.q, x.r)
    assert (again.p, again.q, again.r) == (x.p, x.q, x.r)


def test_even_parity_folds_beta():
    x = FieldElem(E1, 3, 1, 2)  # 3*beta + 1 = 7 over 2
    assert (x.p, x.q, x.r) == (0, 7, 2)


def test_division_and_inverse():
    b = P1.beta
    assert ((b / b) - P1.one).is_zero()
    x = FieldElem(P1, 3, -2, 7)
    assert ((x * x.inverse()) - P1.one).is_zero()
    assert ((x / x) - P1.one).is_zero()
    with pytest.raises(ZeroDivisionError):
        P1.zero.inverse()


def test_zero_denominator_refused():
    with pytest.raises(ZeroDivisionError, match="FieldElem denominator is zero"):
        FieldElem(P1, 1, 2, 0)


def test_mul_div_beta_roundtrip():
    for params in (P1, P2, E1):
        x = FieldElem(params, 0, 5, 7) if params.parity == EVEN else FieldElem(params, 3, -1, 5)
        assert (x.mul_beta().div_beta() - x).is_zero()
        assert (x.div_beta().mul_beta() - x).is_zero()


fe_triples = st.tuples(
    st.integers(-50, 50), st.integers(-50, 50), st.integers(1, 50)
)


params_k123 = st.builds(make_params, st.integers(1, 3), st.sampled_from([ODD, EVEN]))


@given(fe_triples, params_k123)
@settings(max_examples=300)
def test_minimal_polynomial_property(t, params):
    x = FieldElem(params, *t)
    k1 = params.k + 1
    bx = x.mul_beta()
    assert (bx - x * params.beta).is_zero()
    if params.parity == ODD:  # beta^2 = (k+1)(beta+1)
        assert (bx.mul_beta() - (bx + x) * k1).is_zero()
    else:  # beta = k+1
        assert (bx - x * k1).is_zero()


@given(fe_triples, fe_triples, st.sampled_from([1, 2, 3]))
@settings(max_examples=500)
def test_cmp_matches_decimal(ta, tb, k):
    params = make_params(k, ODD)
    a, b = FieldElem(params, *ta), FieldElem(params, *tb)
    want = to_decimal(a) - to_decimal(b)
    got = a.compare(b)
    if want == 0:
        assert got == 0
    elif want > 0:
        assert got == 1
    else:
        assert got == -1
    assert abs(to_decimal(a * b) - to_decimal(a) * to_decimal(b)) < decimal.Decimal("1e-80")


@given(fe_triples, fe_triples)
@settings(max_examples=200)
def test_field_axioms_sample(ta, tb):
    a, b = FieldElem(P1, *ta), FieldElem(P1, *tb)
    assert ((a + b) - (b + a)).is_zero()
    assert ((a * b) - (b * a)).is_zero()
    assert ((a - b) + b - a).is_zero()
    if not b.is_zero():
        assert ((a / b) * b - a).is_zero()


def test_membership_examples():
    assert fe_membership(P1.one) is True
    assert fe_membership(FieldElem(P1, 1, 1, 6)) is False
    assert fe_membership(FieldElem(E1, 0, 3, 4)) is True
    assert fe_membership(FieldElem(E1, 0, 1, 3)) is False


def test_membership_domain():
    with pytest.raises(DomainError):
        fe_membership(P1.zero)
    with pytest.raises(DomainError):
        fe_membership(P1.interval_bound)
    with pytest.raises(DomainError):
        fe_membership(P1.from_int(-1))


def test_membership_k2_base3():
    p = make_params(2, ODD)  # k+1 = 3
    assert fe_membership(FieldElem(p, 0, 1, 9)) is True
    assert fe_membership(FieldElem(p, 0, 1, 2)) is False
    assert fe_membership(FieldElem(p, 1, -2, 27)) is True


@given(st.integers(1, 10 ** 12), st.integers(2, 60))
@settings(max_examples=300)
def test_split_denominator(r, base):
    n, c = split_denominator(r, base)
    assert r % c == 0 and gcd(c, base) == 1
    assert base ** n % (r // c) == 0
    assert n == 0 or base ** (n - 1) % (r // c) != 0


def test_parse_format_roundtrip():
    for text in ("3/4", "1", "-2/5", "(1+1*b)/6", "(0+1*b)/2", "(3-1*b)", "(-2+3*b)/7"):
        x = parse_field(text, P1)
        assert (parse_field(format_field(x), P1) - x).is_zero()


def test_parse_rejects():
    # a malformed literal is a ParseError, as a malformed word literal is
    with pytest.raises(ParseError, match="malformed field literal: 'beta/2'"):
        parse_field("beta/2", P1)
    with pytest.raises(ParseError, match=r"malformed field literal: '\(1\+b\)/2'"):
        parse_field("(1+b)/2", P1)
    with pytest.raises(ParseError, match="a number in the field literal has too many digits"):
        parse_field("1/" + "7" * 5000, P1)


def test_sign_cases():
    assert FieldElem(P1, 1, -2, 1).sign() == 1   # beta-2 > 0
    assert FieldElem(P1, -1, 3, 1).sign() == 1   # 3-beta > 0
    assert FieldElem(P1, -1, 2, 1).sign() == -1  # 2-beta < 0
    assert FieldElem(P1, 1, -3, 1).sign() == -1  # beta-3 < 0
    assert P1.zero.sign() == 0


@given(st.integers(1, 5), st.sampled_from([ODD, EVEN]), st.integers(-10 ** 6, 10 ** 6),
       st.integers(-10 ** 6, 10 ** 6), st.integers(1, 1000))
@settings(max_examples=500)
def test_floor_pq_brackets(k, parity, p, q, r):
    # f = floor((p*beta+q)/r) exactly when f*r <= p*beta+q < (f+1)*r
    params = make_params(k, parity)
    if parity == EVEN:
        p = 0
    f = floor_pq(p, q, r, params)
    assert sign_pq(p, q - f * r, params) >= 0
    assert sign_pq(p, q - (f + 1) * r, params) < 0


def test_floor_pq_examples():
    assert floor_pq(1, 0, 1, P1) == 2      # beta = 1+sqrt(3) = 2.73...
    assert floor_pq(-1, 0, 1, P1) == -3
    assert floor_pq(1, -2, 1, P1) == 0     # beta-2 in (0, 1)
    assert floor_pq(3, 1, 4, P1) == 2      # (3*beta+1)/4 = 2.29...
    assert floor_pq(-3, 1, 4, P1) == -2
    assert floor_pq(0, -7, 2, E1) == -4


def subtract_sign(a, b):
    """FieldElem.compare as it was: the sign of a built difference."""
    if isinstance(b, int):
        b = a.params.from_int(b)
    return (a - b).sign()


params_k1234 = st.builds(make_params, st.integers(1, 4), st.sampled_from([ODD, EVEN]))


@given(params_k1234, fe_triples, fe_triples, st.integers(-4, 4), st.integers(1, 4),
       st.integers(-60, 60))
@settings(max_examples=500)
def test_compare_matches_difference_sign(params, ta, tb, n, scale, i):
    # the cross-product sign against the sign of a - b, for arbitrary pairs,
    # equal values written over a scaled denominator, the endpoints 0 and
    # m/(beta-1), and int operands
    a, b = FieldElem(params, *ta), FieldElem(params, *tb)
    twin = FieldElem(params, a.p * scale, a.q * scale, a.r * scale)
    others = [b, a, twin, params.zero, params.interval_bound, n, i, a.q // a.r]
    for other in others:
        assert a.compare(other) == subtract_sign(a, other), other
        if not isinstance(other, int):
            assert other.compare(a) == subtract_sign(other, a)
    assert a.compare(twin) == 0
    for end in (params.zero, params.interval_bound):
        assert end.compare(end) == 0 and end.compare(b) == subtract_sign(end, b)


def test_compare_refuses_other_system():
    with pytest.raises(DomainError):
        P1.one.compare(P2.one)
    with pytest.raises(DomainError):
        P1.one < E1.one


def test_interval_bound_built_once():
    for params in (P1, P2, E1):
        assert params.interval_bound is params.interval_bound
    assert make_params(1, ODD).interval_bound == P1.interval_bound
