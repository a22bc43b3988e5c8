"""The digit-rewriting calculus: exact value preservation throughout."""

import random
import re

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from goldenbeta import expand, rewrite
from goldenbeta.algebra import DomainError, FieldElem, ODD, make_params
from goldenbeta.words import (
    IND_INF,
    DigitWord,
    EvPeriodicWord,
    ind,
    is_B_separated,
    parse_word,
    pre_period,
    split_at,
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


def _tail(w):
    """The digits of w from position 2 on, as the (preperiod, period) pair
    ``ind`` reads."""
    pre, per = pre_period(w)
    return pre[1:], split_at(pre, per, 1)[1]


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
    by_class = {}
    for _ in range(1000):
        w = _prepend(_random_tail(rng, P1), rng.randint(2, 3), 0)
        v = ind(False, _tail(w), P1)
        if v != 1 and (w.digits[0] if isinstance(w, DigitWord) else w.digit_at(1)) == 2:
            continue  # carry restricted to B-minus heads for v >= 2
        key = (v if v == IND_INF else int(v))
        by_class.setdefault(key, {})
        out = carry_T_plus(w, P1)
        if isinstance(w, DigitWord):
            w = w.trimmed()  # trailing zeros do not change the expansion
        prev = by_class[key].get(out)
        if prev is not None:
            assert prev == w  # injective: same output means same input
        by_class[key][out] = w


# The carry and borrow maps as two separate mirror-image functions with their
# two tail rebuilders, kept as the reference for the mirrored kernel.  Only
# the two range tests are spelled out, in place of Params properties that no
# longer exist.

def ref_require_odd(params):
    if params.parity != ODD:
        raise DomainError("the rewriting calculus applies to odd-parity systems")


def ref_carry_T_plus(w, params):
    ref_require_odd(params)
    k = params.k
    if w.int_part != 0:
        raise DomainError("carry expects integer part 0")
    b = ref_first_digit(w)
    if not params.in_big(b):
        raise DomainError(f"carry needs a big first digit, got {b}")
    tail = _tail(w)
    v = ind(False, tail, params)
    if v == IND_INF or int(v) >= 2:
        # these branches lower the head by k+2, so b = k+1 is out of range
        if b not in range(k + 2, params.m + 1):
            raise DomainError(f"carry needs a first digit in {{k+2..2k+1}}, got {b}")
    if v == IND_INF:
        return ref_rebuild_alternating(w, b - (k + 2), +1, 1)
    v = int(v)
    if v == 1:
        return ref_rebuild_finite(w, b - (k + 1), {1: -(k + 1)}, v, 1)
    deltas = {}
    if v % 2 == 1:  # v = 2i-1, i >= 2: alternate through 2i-3, drop at v
        for pos in range(1, v - 1):
            deltas[pos] = 1 if pos % 2 == 1 else -1
        deltas[v] = -(k + 1)
    else:  # v = 2i: alternate through 2i-2, raise at v
        for pos in range(1, v - 1):
            deltas[pos] = 1 if pos % 2 == 1 else -1
        deltas[v] = k + 1
    return ref_rebuild_finite(w, b - (k + 2), deltas, v, 1)


def ref_borrow_T_minus(w, params):
    ref_require_odd(params)
    k = params.k
    if w.int_part != 1:
        raise DomainError("borrow expects integer part 1")
    a = ref_first_digit(w)
    if not params.in_small(a):
        raise DomainError(f"borrow needs a small first digit, got {a}")
    tail = _tail(w)
    v = ind(True, tail, params)
    if v == IND_INF or int(v) >= 2:
        # these branches raise the head by k+2, so a = k is out of range
        if a not in range(0, k):
            raise DomainError(f"borrow needs a first digit in {{0..k-1}}, got {a}")
    if v == IND_INF:
        return ref_rebuild_alternating(w, a + (k + 2), -1, 0)
    v = int(v)
    if v == 1:
        return ref_rebuild_finite(w, a + (k + 1), {1: k + 1}, v, 0)
    deltas = {}
    if v % 2 == 1:
        for pos in range(1, v - 1):
            deltas[pos] = -1 if pos % 2 == 1 else 1
        deltas[v] = k + 1
    else:
        for pos in range(1, v - 1):
            deltas[pos] = -1 if pos % 2 == 1 else 1
        deltas[v] = -(k + 1)
    return ref_rebuild_finite(w, a + (k + 2), deltas, v, 0)


def ref_first_digit(w):
    if isinstance(w, DigitWord):
        return w.digits[0] if w.digits else 0
    return w.digit_at(1)


def ref_rebuild_finite(w, head, deltas, upto, new_int):
    if isinstance(w, DigitWord):
        tail = list(w.digits[1:])
        tail += [0] * (upto - len(tail))
        for pos, delta in deltas.items():
            tail[pos - 1] += delta
        return DigitWord(new_int, (head, *tail))
    pre = w.preperiod[1:] if w.preperiod else ()
    period = w.period if w.preperiod else ref_rotate(w.period, 1)
    length = max(upto, len(pre))
    tail = [pre[i] if i < len(pre) else period[(i - len(pre)) % len(period)]
            for i in range(length)]
    for pos, delta in deltas.items():
        tail[pos - 1] += delta
    phase = (length - len(pre)) % len(period)
    return EvPeriodicWord(new_int, (head, *tail), ref_rotate(period, phase))


def ref_rebuild_alternating(w, head, first_sign, new_int):
    pre = w.preperiod[1:] if w.preperiod else ()
    period = w.period if w.preperiod else ref_rotate(w.period, 1)
    length = len(pre) + (len(pre) % 2)  # even, so the period stays aligned
    tail = [pre[i] if i < len(pre) else period[(i - len(pre)) % len(period)]
            for i in range(length)]
    phase = (length - len(pre)) % len(period)
    period = ref_rotate(period, phase)
    if len(period) % 2 == 1:
        period = period + period
    tail = [d + (first_sign if i % 2 == 0 else -first_sign)
            for i, d in enumerate(tail)]
    period = tuple(d + (first_sign if i % 2 == 0 else -first_sign)
                   for i, d in enumerate(period))
    return EvPeriodicWord(new_int, (head, *tail), period)


def ref_rotate(period, phase):
    phase %= len(period)
    return period[phase:] + period[:phase]


@st.composite
def trade_inputs(draw):
    """A word with integer part 0 or 1 and any first digit (mostly the
    integer part that digit's class trades with), then a run of
    alternating small/big or big/small pairs, then a finite tail, a
    periodic tail, or a periodic tail that never breaks the alternation
    (so that ind is infinite)."""
    params = make_params(draw(st.integers(1, 4)), ODD)
    k, m = params.k, params.m
    first = draw(st.integers(0, m))
    int_part = draw(st.sampled_from((int(first <= k),) * 3 + (0, 1)))
    digit = st.integers(0, m)
    small, big = st.integers(0, k), st.integers(k + 1, m)
    odd, even = (small, big) if draw(st.booleans()) else (big, small)

    def pairs(lo, hi):
        return [d for _ in range(draw(st.integers(lo, hi)))
                for d in (draw(odd), draw(even))]

    head = (first, *pairs(0, 3))
    kind = draw(st.sampled_from(("finite", "periodic", "alternating")))
    if kind == "finite":
        return params, DigitWord(int_part, head + tuple(draw(st.lists(digit, max_size=4))))
    if kind == "periodic":
        pre = head + tuple(draw(st.lists(digit, max_size=3)))
        return params, EvPeriodicWord(int_part, pre, draw(st.lists(digit, min_size=1, max_size=4)))
    return params, EvPeriodicWord(int_part, head, pairs(1, 2))


def _outcome(fn, w, params):
    try:
        return fn(w, params)
    except DomainError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(trade_inputs())
def test_trade_matches_reference(case):
    params, w = case
    assert _outcome(carry_T_plus, w, params) == _outcome(ref_carry_T_plus, w, params)
    assert _outcome(borrow_T_minus, w, params) == _outcome(ref_borrow_T_minus, w, params)


@settings(max_examples=400, deadline=None)
@given(trade_inputs())
def test_trade_reads_finite_word_as_period_zero(case):
    # the digits of a finite word, and the same digits followed by the
    # period (0,), trade to the same digits or fail alike
    params, w = case
    digits = w.digits if isinstance(w, DigitWord) else w.preperiod
    finite = DigitWord(w.int_part, digits)
    periodic = EvPeriodicWord(w.int_part, digits, (0,))
    for fn in (carry_T_plus, borrow_T_minus):
        a, b = _outcome(fn, finite, params), _outcome(fn, periodic, params)
        if isinstance(a, str):
            assert a == b
        else:
            assert isinstance(a, DigitWord) and b.period == (0,)
            assert (a.int_part, a.trimmed().digits) == (b.int_part, b.preperiod)


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


def test_reduce_work_budget(monkeypatch):
    # 0,0,3 repeated to n digits costs about n**3/12 digits rescanned: under
    # a budget of 10,000, n = 30 and 45 (2,506 and 8,158) reduce as before,
    # and every rule that reduces refuses n = 60 and 90 (18,961 and 62,866)
    series = {n: DigitWord(0, (0, 0, 3) * (n // 3)) for n in (30, 45, 60, 90)}
    before = {n: reduce_digits(series[n], P1) for n in (30, 45)}
    monkeypatch.setattr(rewrite, "REDUCE_BUDGET", 10_000)
    for n, out in before.items():
        assert reduce_digits(series[n], P1) == out
    for n in (60, 90):
        w = series[n]
        for rule, words in (("reduce", [w]), ("add", [w, w]), ("mulbeta", [w])):
            with pytest.raises(DomainError, match="^digit reduction is over its work budget "
                                                  "of 10000 digits rescanned$"):
                apply_rule(rule, P1, *words)


# -- mul / add / div -------------------------------------------------------

def test_mul_beta_examples():
    assert mul_beta_word(w1("0.0,1"), P1) == w1("0.1")
    assert mul_beta_word(w1("0.1,0,1"), P1) == w1("0.2,3")
    assert mul_beta_word(w1("0.1,1,0"), P1) == w1("0.3,2")
    # the unit passes both pairs 1,2 of 1.1,2,1,2,c, then stops at c = 1
    # or borrows at c = 0
    assert mul_beta_word(w1("0.1,1,2,1,2,1"), P1) == w1("0.3,3,3,3,3,2")
    assert mul_beta_word(w1("0.1,1,2,1,2,0,1"), P1) == w1("0.3,3,3,3,2,3")


MUL_BETA_REFUSAL = "value too large: beta * x leaves the expansion interval"


def test_mul_beta_rejects_large():
    with pytest.raises(DomainError, match=re.escape(MUL_BETA_REFUSAL)):
        mul_beta_word(w1("0.2,2"), P1)  # value 1 > (beta-1)/beta
    # the boundary (beta-k)/beta = 1 - k/beta = 0.1(k+1) = 0.1,1,2,2 itself
    # is excluded; 0.1,1,2,1,2 is the largest word of up to 5 digits below it
    limit = P1.interval_bound.div_beta()
    for text in ("0.1,2", "0.1,1,2,2"):
        assert word_value(w1(text), P1) == limit
        with pytest.raises(DomainError, match=re.escape(MUL_BETA_REFUSAL)):
            mul_beta_word(w1(text), P1)
    below = w1("0.1,1,2,1,2")
    assert word_value(below, P1) < limit
    assert mul_beta_word(below, P1) == w1("0.3,3,3,3,2,2")


@pytest.mark.parametrize("digit", [-1, 4])
def test_mul_beta_refuses_digits_out_of_range(digit):
    with pytest.raises(DomainError):
        mul_beta_word(DigitWord(0, (digit,)), P1)


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


# -- the list kernels against the word-by-word forms they replaced ----------

# Big-digit separation as cr_step iterated to its fixpoint, each step a
# rescan from position 0 that builds a new word, and reduce_digits and
# add_words as they ran through words, reading past either end of a digit
# tuple through ``ref_at``: the reference for the in-place list kernels.

def ref_at(seq, i):
    return seq[i] if 0 <= i < len(seq) else 0


def ref_cr_step(w, params, steps=None):
    k = params.k
    d = list(w.digits)
    for l in range(len(d) - 1):
        if params.in_big(d[l]) and params.in_big(d[l + 1]):
            int_part = w.int_part
            if l == 0:
                int_part += 1
            else:
                d[l - 1] += 1
            d[l] -= k + 1
            d[l + 1] -= k + 1
            if steps is not None:
                steps.append(("carry-pair", l + 1))
            return DigitWord(int_part, tuple(d))
    return w


def ref_b_separate(w, params, steps=None):
    while True:
        nxt = ref_cr_step(w, params, steps)
        if nxt == w:
            return w
        w = nxt


def ref_reduce_digits(w, params):
    if w.int_part != 0:
        raise DomainError("digit reduction expects integer part 0")
    k = params.k
    int_part, d = 0, list(w.digits)
    while True:
        sep = ref_b_separate(DigitWord(int_part, tuple(d)), params)
        int_part, d = sep.int_part, list(sep.digits)
        j = next((i for i in range(len(d) - 1, -1, -1) if d[i] >= k + 2), None)
        if j is None:
            break
        c = d[j]
        if j == 0:
            int_part += 1
        else:
            d[j - 1] += 1
        d[j] = c - (k + 2)
        t = 0
        while ref_at(d, j + 2 * (t + 1)) == k + 1:
            t += 1
        for i in range(1, t + 1):
            d[j + 2 * i - 1] += 1
            d[j + 2 * i] -= 1
        pos = j + 2 * t + 2
        if pos >= len(d):
            d += [0] * (pos + 1 - len(d))
        d[pos] += k + 1
    return DigitWord(int_part, tuple(d))


def ref_add_words(x, y, params):
    k = params.k
    rx = ref_reduce_digits(DigitWord(0, x.digits), params)
    ry = ref_reduce_digits(DigitWord(0, y.digits), params)
    int_acc = x.int_part + y.int_part + rx.int_part + ry.int_part
    n = max(len(rx.digits), len(ry.digits))
    z = [ref_at(rx.digits, j) + ref_at(ry.digits, j) for j in range(n)]
    main = [2 * k + 1 if zj == 2 * k + 2 else zj for zj in z]
    ones = [1 if zj == 2 * k + 2 else 0 for zj in z]
    rm = ref_reduce_digits(DigitWord(0, tuple(main)), params)
    width = max(len(rm.digits), n)
    digits = tuple(ref_at(rm.digits, j) + ref_at(ones, j) for j in range(width))
    out = ref_b_separate(DigitWord(int_acc + rm.int_part, digits), params)
    trimmed = out.trimmed()
    if not trimmed.digits:
        trimmed = DigitWord(trimmed.int_part, (0,))
    return trimmed


# mul_beta_word as a case analysis on the reduced word 0.1 r0 r1 ...:
# r0 <= k-1 borrows at once, and r0 = k is followed by (k+1, k) blocks and
# then either a digit <= k or k+1 and a borrow.

def ref_mul_beta_word(w, params):
    k = params.k
    reduced = ref_reduce_digits(w, params)
    if reduced.int_part != 0:
        raise AssertionError(f"the reduced word of {w!r} has a nonzero integer part")
    d = list(reduced.trimmed().digits)
    if not d:
        return DigitWord(0, ())
    if d[0] == 0:
        return DigitWord(0, tuple(d[1:]))
    if d[0] != 1:
        raise AssertionError("reduced words below (beta-k)/beta start with 0 or 1")
    rest = d[1:]
    r = rest + [0, 0]
    if r[0] <= k - 1:
        return borrow_T_minus(DigitWord(1, tuple(rest) or (0,)), params)
    if r[0] != k:
        raise AssertionError("a second digit k+1 would put the value on the boundary")
    i, blocks = 1, 0
    while r[i] == k + 1 and r[i + 1] == k:
        blocks += 1
        i += 2
    nxt = r[i]
    if nxt <= k:
        tail = tuple(rest[i + 1 :])
        return DigitWord(0, (2 * k + 1,) * (2 * blocks + 1) + (nxt + k + 1,) + tail)
    if nxt != k + 1:
        raise AssertionError(f"digit {nxt} after the (k+1)k blocks is out of range")
    b = r[i + 1]
    if b > k - 1:
        raise AssertionError("the tail of a below-1 expansion cannot reach (k+1)(k+1)")
    inner = borrow_T_minus(DigitWord(1, (b, *rest[i + 2 :])), params)
    return DigitWord(0, (2 * k + 1,) * (2 * blocks + 2) + inner.digits)


@st.composite
def mul_beta_inputs(draw):
    """A system k = 1..4 and a word below (beta-k)/beta: a first digit 0
    or 1, then up to 12 digits drawn mostly from k and k+1, so that many
    reduced words start 1.k(k+1)k(k+1)..."""
    params = make_params(draw(st.integers(1, 4)), ODD)
    k = params.k
    digit = st.sampled_from((k, k + 1) * 3 + tuple(range(params.m + 1)))
    w = DigitWord(0, (draw(st.integers(0, 1)), *draw(st.lists(digit, max_size=12))))
    assume(word_value(w, params) < params.interval_bound.div_beta())
    return params, w


@settings(max_examples=500, deadline=None)
@given(mul_beta_inputs())
# words whose unit stops at a digit k, 1.kc = 0.(2k+1)(c+k+1), as the borrow writes it
@example((P1, DigitWord(0, (1, 1))))
@example((P1, DigitWord(0, (1, 1, 0))))
@example((P1, DigitWord(0, (0, 3, 2))))
def test_mul_beta_matches_reference(case):
    params, w = case
    assert mul_beta_word(w, params) == ref_mul_beta_word(w, params)


@st.composite
def mul_beta_domain_words(draw):
    """A system k = 1..4 and a valid word of up to 16 digits drawn mostly
    from k and k+1, on either side of (beta-k)/beta."""
    params = make_params(draw(st.integers(1, 4)), ODD)
    k = params.k
    digit = st.sampled_from((k, k + 1) * 3 + tuple(range(params.m + 1)))
    first = st.sampled_from((0, 1, 1, 1) + tuple(range(params.m + 1)))
    w = DigitWord(0, (draw(first), *draw(st.lists(digit, max_size=15))))
    return params, w


@settings(max_examples=1000, deadline=None)
@given(mul_beta_domain_words())
def test_mul_beta_refuses_exactly_outside_its_domain(case):
    # the digit walk alone decides the domain: it refuses, with this one
    # message, exactly the words with value(w) >= (beta-k)/beta
    params, w = case
    inside = word_value(w, params) < params.interval_bound.div_beta()
    try:
        out = mul_beta_word(w, params)
    except DomainError as exc:
        assert not inside and str(exc) == MUL_BETA_REFUSAL
    else:
        assert inside and out.is_valid(params)


# div_word_by_k1 as it split each digit into i(e) in {0, k+1} and
# t(e) = (k+1)(e - i(e)) and checked that every collected digit divides.

def ref_div_word_by_k1(w, params):
    k = params.k
    if w.int_part != 0:
        raise DomainError("division by k+1 expects integer part 0")
    k1 = k + 1
    eps = [0, 0, *w.digits, 0, 0]
    iparts = [0 if params.in_small(e) else k1 for e in eps]
    tparts = [k1 * (e - i) for e, i in zip(eps, iparts)]
    out = []
    for j, (i, t1, t2) in enumerate(zip(iparts[2:], tparts[1:], tparts), start=1):
        eta = i + t1 + t2
        if eta % k1 != 0:
            raise AssertionError(f"digit {j} of {w!r} divided by k+1 is not an integer")
        out.append(eta // k1)
    return DigitWord(0, tuple(out))


@settings(max_examples=500, deadline=None)
@given(st.integers(1, 5).flatmap(lambda k: st.tuples(
    st.just(make_params(k, ODD)), st.lists(st.integers(-1, 2 * k + 3), max_size=12))))
def test_div_matches_reference(case):
    params, digits = case
    w = DigitWord(0, tuple(digits))
    assert div_word_by_k1(w, params) == ref_div_word_by_k1(w, params)


@st.composite
def kernel_words(draw, n=1):
    """A system k = 1..4 and n words with integer part 0..2 and up to 16
    digits in -1..m+2, past both ends of the digit range."""
    params = make_params(draw(st.integers(1, 4)), ODD)
    digits = st.lists(st.integers(-1, params.m + 2), max_size=16).map(tuple)
    return params, *(DigitWord(draw(st.integers(0, 2)), draw(digits)) for _ in range(n))


@settings(max_examples=500, deadline=None)
@given(kernel_words())
def test_separate_matches_reference(case):
    params, w = case
    assert cr_step(w, params) == ref_cr_step(w, params)
    steps, ref_steps = [], []
    assert b_separate(w, params, steps) == ref_b_separate(w, params, ref_steps)
    assert steps == ref_steps


def test_separate_resumes_two_places_left():
    # each carry makes the pair two places left of it big-big: the steps
    # run right to left, and a scan that resumed at the carry would miss them
    steps = []
    assert b_separate(w1("0.2,1,3,1,2,3"), P1, steps) == w1("1.0,0,1,0,0,1")
    assert steps == [("carry-pair", 5), ("carry-pair", 3), ("carry-pair", 1)]


@settings(max_examples=500, deadline=None)
@given(kernel_words())
def test_reduce_matches_reference(case):
    params, w = case
    assert _outcome(reduce_digits, w, params) == _outcome(ref_reduce_digits, w, params)
    w = DigitWord(0, w.digits)
    assert reduce_digits(w, params) == ref_reduce_digits(w, params)


@settings(max_examples=500, deadline=None)
@given(kernel_words(n=2))
def test_add_matches_reference(case):
    params, x, y = case
    assert add_words(x, y, params) == ref_add_words(x, y, params)


def test_construct_route_matches_reference(monkeypatch):
    # the rewrite benchmark's synthesis windows: (p*beta+q)/r with r in
    # 1..(k+1)^3, |p| <= 8 and |q| <= 8, for k = 1..3
    points = []
    for k in (1, 2, 3):
        params = make_params(k, ODD)
        window = {FieldElem(params, p, q, r): None
                  for r in (1, k + 1, (k + 1) ** 2, (k + 1) ** 3)
                  for p in range(-8, 9) for q in range(-8, 9)}
        points += [x for x in window if x.sign() > 0 and x < params.interval_bound]
    built = [expand.construct_route(x, x.params) for x in points]
    assert sum(w is not None for w in built) > 100
    monkeypatch.setattr(rewrite, "add_words", ref_add_words)
    assert built == [expand.construct_route(x, x.params) for x in points]


# -- trace plumbing --------------------------------------------------------

def test_apply_rule_trace():
    trace = apply_rule("bsep", P1, w1("0.2,3,3"))
    assert trace.output == w1("1.0,1,3")
    assert trace.steps  # at least one carry-pair recorded
    assert (trace.value - word_value(trace.output, P1)).is_zero()


@st.composite
def valid_words(draw):
    """A system k = 1..4 and a word with integer part 0 and up to 12 digits
    in 0..m."""
    params = make_params(draw(st.integers(1, 4)), ODD)
    return params, DigitWord(0, tuple(draw(st.lists(st.integers(0, params.m), max_size=12))))


@settings(max_examples=300, deadline=None)
@given(valid_words())
def test_cr_trace_names_bsep_first_carry(case):
    # cr makes bsep's first carry, so it records that pair, or no step at all
    params, w = case
    cr, bsep = apply_rule("cr", params, w), apply_rule("bsep", params, w)
    assert cr.steps == tuple(("cr", l) for _, l in bsep.steps[:1])


def test_apply_rule_add():
    trace = apply_rule("add", P1, w1("0.2"), w1("0.2"))
    assert trace.output == w1("1.1,0,2")


def test_apply_rule_unknown():
    with pytest.raises(DomainError):
        apply_rule("swap", P1, w1("0.1"))
    assert "carry" in RULES and "add" in RULES


@pytest.mark.parametrize("rule", ["cr", "bsep", "reduce", "mulbeta", "div", "add"])
def test_apply_rule_refuses_periodic(rule):
    words = (w1("0.1"), w1("0.(1)*")) if rule == "add" else (w1("0.3,(0,3)*"),)
    with pytest.raises(DomainError, match="takes finite words"):
        apply_rule(rule, P1, *words)


@pytest.mark.parametrize("rule", ["div", "add"])
@pytest.mark.parametrize("digit", [-1, 4])
def test_apply_rule_refuses_digits_out_of_range(rule, digit):
    # the caller's word is refused before the rule runs, not blamed on the
    # rule's output shape
    words = (DigitWord(0, (1, digit)),) * (2 if rule == "add" else 1)
    with pytest.raises(DomainError) as info:
        apply_rule(rule, P1, *words)
    assert str(info.value) == f"{rule} takes words with digits in 0..3"


def test_apply_rule_value_check(monkeypatch):
    # an evaluator that sees only the integer part makes carry look like it
    # changed the value; the explicit re-check must still fire under -O
    monkeypatch.setattr(rewrite, "word_value", lambda w, params: params.from_int(w.int_part))
    with pytest.raises(AssertionError):
        apply_rule("carry", P1, w1("0.3,2"))
