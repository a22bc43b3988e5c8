"""The digit-rewriting calculus: exact value preservation throughout."""

import random

import pytest

from goldenbeta import rewrite
from goldenbeta.algebra import DomainError, ODD, make_params
from goldenbeta.words import (
    DigitWord,
    EvPeriodicWord,
    format_word,
    is_B_separated,
    parse_word,
    word_value,
)
from goldenbeta.rewrite import (
    RULES,
    add_words,
    apply_rule,
    b_separate,
    borrow_T_minus,
    carry_T_plus,
    cr_step,
    div_word_by_k1,
    mul_beta_word,
    reduce_digits,
)

P1 = make_params(1, ODD)
P2 = make_params(2, ODD)


def w1(text):
    return parse_word(text, P1)


def same_value(a, b, params=P1):
    return (word_value(a, params) - word_value(b, params)).is_zero()


# -- cr_step / b_separate --------------------------------------------------

def test_cr_step_examples():
    assert cr_step(w1("0.0,2,3,1"), P1) == w1("0.1,0,1,1")
    assert cr_step(w1("0.3,3"), P1) == w1("1.1,1")
    sep = w1("0.2,1,2")
    assert cr_step(sep, P1) == sep


def test_cr_step_digit_sum_drop():
    rng = random.Random(11)
    for _ in range(300):
        w = DigitWord(0, tuple(rng.randint(0, 3) for _ in range(rng.randint(2, 8))))
        out = cr_step(w, P1)
        if out != w:
            before = w.int_part + sum(w.digits)
            after = out.int_part + sum(out.digits)
            assert before - after == 3  # 2k+1, counting the carried unit
            assert same_value(w, out)


def test_b_separate_examples():
    assert b_separate(w1("0.2,3,3"), P1) == w1("1.0,1,3")
    assert b_separate(w1("0.0,2,3,1"), P1) == w1("0.1,0,1,1")
    sep = w1("0.2,1,2")
    assert b_separate(sep, P1) == sep


def test_b_separate_properties():
    rng = random.Random(5)
    for _ in range(300):
        w = DigitWord(0, tuple(rng.randint(0, 3) for _ in range(rng.randint(0, 9))))
        out = b_separate(w, P1)
        assert is_B_separated(out, P1)
        assert same_value(w, out)
        # no new occurrence of the top digit 2k+1 (the only B-minus digit at k=1)
        assert out.digits.count(3) <= w.digits.count(3)


# -- carry / borrow --------------------------------------------------------

def test_carry_examples():
    assert carry_T_plus(w1("0.3,2"), P1) == w1("1.1,0")
    assert carry_T_plus(w1("0.3,0,1"), P1) == w1("1.0,0,3")
    out = carry_T_plus(w1("0.3,(0,3)*"), P1)
    assert same_value(out, w1("1.0,(1,2)*"))
    assert out.int_part == 1


def test_carry_rejects():
    with pytest.raises(DomainError):
        carry_T_plus(w1("0.1,2"), P1)
    with pytest.raises(DomainError):
        carry_T_plus(w1("1.3,2"), P1)


def test_borrow_examples():
    assert borrow_T_minus(w1("1.0,0"), P1) == w1("0.2,2")
    assert borrow_T_minus(w1("1.0,3,2"), P1) == w1("0.3,3,0")
    out = borrow_T_minus(w1("1.0,(3,0)*"), P1)
    assert same_value(out, w1("0.3,(2,1)*"))
    assert out.int_part == 0


def test_borrow_rejects():
    with pytest.raises(DomainError):
        borrow_T_minus(w1("1.2,0"), P1)
    with pytest.raises(DomainError):
        borrow_T_minus(w1("0.0,0"), P1)


def _random_tail(rng, params):
    if rng.random() < 0.5:
        return DigitWord(0, tuple(rng.randint(0, params.m)
                                  for _ in range(rng.randint(0, 6))))
    pre = tuple(rng.randint(0, params.m) for _ in range(rng.randint(0, 3)))
    per = tuple(rng.randint(0, params.m) for _ in range(rng.randint(1, 3)))
    return EvPeriodicWord(0, pre, per)


def _prepend(w, first, int_part):
    if isinstance(w, DigitWord):
        return DigitWord(int_part, (first, *w.digits))
    return EvPeriodicWord(int_part, (first, *w.preperiod), w.period)


def test_carry_borrow_random_preservation():
    rng = random.Random(23)
    for params in (P1, P2):
        k = params.k
        for _ in range(400):
            w = _prepend(_random_tail(rng, params), rng.randint(k + 2, 2 * k + 1), 0)
            out = carry_T_plus(w, params)
            assert out.int_part == 1 and out.is_valid(params)
            assert same_value(w, out, params)
        for _ in range(400):
            w = _prepend(_random_tail(rng, params), rng.randint(0, k - 1), 1)
            out = borrow_T_minus(w, params)
            assert out.int_part == 0 and out.is_valid(params)
            assert same_value(w, out, params)


def test_borrow_undoes_carry():
    rng = random.Random(31)
    hits = 0
    for _ in range(500):
        w = _prepend(_random_tail(rng, P1), rng.randint(3, 3), 0)
        out = carry_T_plus(w, P1)
        first = out.digits[0] if isinstance(out, DigitWord) else out.digit_at(1)
        if first > P1.k - 1:
            continue  # image outside the borrow domain
        back = borrow_T_minus(out, P1)
        assert same_value(back, w, P1)
        hits += 1
    assert hits > 50


def test_carry_injective_within_ind_class():
    rng = random.Random(47)
    from goldenbeta.words import PLUS, ind, word_tail

    by_class = {}
    for _ in range(1000):
        w = _prepend(_random_tail(rng, P1), rng.randint(2, 3), 0)
        v = ind(PLUS, word_tail(w, 2), P1)
        if v != 1 and (w.digits[0] if isinstance(w, DigitWord) else w.digit_at(1)) == 2:
            continue  # carry restricted to B-minus heads for v >= 2
        key = (v if v == float("inf") else int(v))
        by_class.setdefault(key, {})
        out = carry_T_plus(w, P1)
        if isinstance(w, DigitWord):
            w = w.trimmed()  # trailing zeros do not change the expansion
        prev = by_class[key].get(out)
        if prev is not None:
            assert prev == w  # injective: same output means same input
        by_class[key][out] = w


# -- reduce_digits ---------------------------------------------------------

def test_reduce_examples():
    assert reduce_digits(w1("0.3"), P1) == w1("1.0,0,2")
    # both routes to reducing 0.2,3 agree in value; digits are route-dependent
    out = reduce_digits(w1("0.2,3"), P1)
    assert same_value(out, w1("0.2,3"))
    assert same_value(out, w1("1.0,0,2,2"))
    already = w1("0.1,0,1")
    assert reduce_digits(already, P1) == already


def test_reduce_postconditions():
    rng = random.Random(13)
    for params in (P1, P2):
        for _ in range(400):
            w = DigitWord(0, tuple(rng.randint(0, params.m)
                                   for _ in range(rng.randint(0, 8))))
            out = reduce_digits(w, params)
            assert out.int_part in (0, 1)
            assert all(0 <= d <= params.k + 1 for d in out.digits)
            assert same_value(w, out, params)


# -- mul / add / div -------------------------------------------------------

def test_mul_beta_examples():
    assert mul_beta_word(w1("0.0,1"), P1) == w1("0.1")
    assert mul_beta_word(w1("0.1,0,1"), P1) == w1("0.2,3")
    assert mul_beta_word(w1("0.1,1,0"), P1) == w1("0.3,2")


def test_mul_beta_rejects_large():
    with pytest.raises(DomainError):
        mul_beta_word(w1("0.2,2"), P1)  # value 1 >= (beta-1)/beta is fine...
    # boundary: (beta-k)/beta itself is excluded


def test_mul_beta_random():
    rng = random.Random(17)
    for params in (P1, P2):
        limit = params.interval_bound.div_beta()
        beta = params.beta
        done = 0
        while done < 300:
            w = DigitWord(0, tuple(rng.randint(0, params.m)
                                   for _ in range(rng.randint(0, 6))))
            if not word_value(w, params) < limit:
                continue
            out = mul_beta_word(w, params)
            assert out.is_valid(params) and out.int_part == 0
            assert (word_value(out, params)
                    - word_value(w, params) * beta).is_zero()
            done += 1


def test_add_examples():
    assert add_words(w1("0.1"), w1("0.1"), P1) == w1("0.2")
    assert add_words(w1("0.2"), w1("0.2"), P1) == w1("1.1,0,2")
    assert add_words(w1("0.2,2"), w1("0.2,2"), P1) == w1("2.0")


def test_add_random():
    rng = random.Random(19)
    for params in (P1, P2):
        for _ in range(300):
            a = DigitWord(0, tuple(rng.randint(0, params.m)
                                   for _ in range(rng.randint(0, 6))))
            b = DigitWord(0, tuple(rng.randint(0, params.m)
                                   for _ in range(rng.randint(0, 6))))
            out = add_words(a, b, params)
            assert all(0 <= d <= params.m for d in out.digits)
            want = word_value(a, params) + word_value(b, params)
            assert (word_value(out, params) - want).is_zero()


def test_div_examples():
    assert div_word_by_k1(w1("0.2"), P1) == w1("0.1,0,0")
    assert div_word_by_k1(w1("0.1"), P1) == w1("0.0,1,1")
    assert div_word_by_k1(w1("0.2,2"), P1) == w1("0.1,1,0,0")


def test_div_random():
    rng = random.Random(29)
    for params in (P1, P2):
        for _ in range(300):
            w = DigitWord(0, tuple(rng.randint(0, params.m)
                                   for _ in range(rng.randint(0, 7))))
            out = div_word_by_k1(w, params)
            assert len(out.digits) == len(w.digits) + 2
            assert out.is_valid(params)
            want = word_value(w, params) / (params.k + 1)
            assert (word_value(out, params) - want).is_zero()


# -- trace plumbing --------------------------------------------------------

def test_apply_rule_trace():
    trace = apply_rule("bsep", P1, w1("0.2,3,3"))
    assert trace.output == w1("1.0,1,3")
    assert trace.steps  # at least one carry-pair recorded
    assert (trace.value - word_value(trace.output, P1)).is_zero()


def test_apply_rule_add():
    trace = apply_rule("add", P1, w1("0.2"), w1("0.2"))
    assert trace.output == w1("1.1,0,2")


def test_apply_rule_unknown():
    with pytest.raises(DomainError):
        apply_rule("swap", P1, w1("0.1"))
    assert "carry" in RULES and "add" in RULES


def test_apply_rule_value_check(monkeypatch):
    # an evaluator that sees only the integer part makes carry look like it
    # changed the value; the explicit re-check must still fire under -O
    monkeypatch.setattr(rewrite, "word_value", lambda w, params: params.from_int(w.int_part))
    with pytest.raises(AssertionError):
        apply_rule("carry", P1, w1("0.3,2"))
