"""Word parsing, evaluation, index functions, B-separation."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldenbeta.algebra import EVEN, DomainError, FieldElem, ODD, make_params
from goldenbeta.words import (
    IND_INF,
    DigitWord,
    EvPeriodicWord,
    ParseError,
    format_word,
    ind,
    is_B_separated,
    parse_word,
    pre_period,
    split_at,
    word_value,
)

P1 = make_params(1, ODD)
P2 = make_params(2, ODD)


def test_parse_examples():
    w = parse_word("0.2,2", P1)
    assert isinstance(w, DigitWord) and w.digits == (2, 2)
    assert len(w) == 2
    w = parse_word("0.1,(3)*", P1)
    assert isinstance(w, EvPeriodicWord)
    assert (w.preperiod, w.period) == ((1,), (3,))


def test_parse_rejects():
    with pytest.raises(ParseError, match="digit 4"):
        parse_word("0.4,1", P1)
    with pytest.raises(ParseError, match="empty period"):
        parse_word("0.1,()*", P1)
    with pytest.raises(ParseError):
        parse_word("0.1,,2", P1)


# ``parse_word`` as it stood when its period group held the parentheses and
# each branch checked its own digits, kept as the reference for the
# one-check form.
REF_WORD_RE = re.compile(
    r"^(?P<int>\d+)\.(?P<pre>(?:-?\d+(?:,-?\d+)*)?)"
    r"(?P<per>,?\((?:-?\d+(?:,-?\d+)*)?\)\*)?$"
)


def ref_parse_word(text, params):
    m = REF_WORD_RE.match(text.strip())
    if not m:
        raise ParseError(f"malformed word literal: {text!r}")
    pre_text, per_text = m.group("pre"), m.group("per")
    if per_text is not None:
        per_text = per_text.lstrip(",")[1:-2]
        if not per_text:
            raise ParseError(f"empty period in {text!r}")
    try:
        int_part = int(m.group("int"))
        pre = tuple(int(t) for t in pre_text.split(",")) if pre_text else ()
        per = None if per_text is None else tuple(int(t) for t in per_text.split(","))
    except ValueError:  # past the interpreter's limit on digits per int
        raise ParseError("a number in the word literal has too many digits") from None
    if per is None:
        ref_check_digits(pre, params, text)
        return DigitWord(int_part, pre)
    ref_check_digits(pre + per, params, text)
    if all(d == 0 for d in per):  # a period of zeros is a finite word
        return DigitWord(int_part, pre)
    return EvPeriodicWord(int_part, pre, per)


def ref_check_digits(digits, params, text):
    for d in digits:
        if not 0 <= d <= params.m:
            raise ParseError(f"digit {d} out of range 0..{params.m} in {text!r}")


def parse_outcome(parse, text, params):
    """The word ``parse`` reads from ``text``, with its type, or the
    message of the ``ParseError`` it raises."""
    try:
        w = parse(text, params)
    except ParseError as exc:
        return "refused", str(exc)
    return type(w), w


_LONG = "7" * 5000  # past the interpreter's default limit on digits per int

PARSE_CORPUS = [
    # finite and periodic words, canonicalised periods, surrounding blanks
    "0.2,2", "1.0,(1,2)*", "0.(2,1)*", "0.", "2.0", "0.3,(0,3)*", "0.1,(3)*",
    "0.(1,2,1,2)*", "0.1,2,(1,2)*", "0.1(2)*", " 0.3 ", "0.(0)*", "1.(0)*",
    # empty periods
    "0.1()*", "0.()*", "0.1,()*", f"0.{_LONG}()*",
    # a digit out of range in the preperiod and in the period
    "0.4,1", "0.-1,(1)*", "0.1,(4)*", "0.(1,-1)*", "0.6,(1)*", "0.1,(6)*",
    # a 5,000-digit number in each place
    f"0.{_LONG}", f"0.1,({_LONG})*", f"{_LONG}.1", f"0.-{_LONG}",
    # malformed literals
    "0.1,,2", "x", "", "1", ".1", "0.(1)", "0.1,(2)*3", "0.1,", "0,(1)*", "0.((1))*",
]


@pytest.mark.parametrize("params", [P1, P2, make_params(2, EVEN)], ids=["k1", "k2", "k2-even"])
@pytest.mark.parametrize("text", PARSE_CORPUS, ids=lambda t: t if len(t) < 40 else t[:20] + "...")
def test_parse_word_matches_reference(text, params):
    assert parse_outcome(parse_word, text, params) == parse_outcome(ref_parse_word, text, params)


@st.composite
def word_literals(draw):
    """Mostly well-formed word literals, digits drawn past both ends of
    0..m, with some free strings over the literal alphabet."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.text(alphabet="0123456789-.,()* ", max_size=14))
    digits = st.lists(st.integers(-2, 9).map(str), max_size=5).map(",".join)
    text = f"{draw(st.integers(0, 12))}.{draw(digits)}"
    if draw(st.booleans()):
        text += draw(st.sampled_from(["", ","])) + f"({draw(digits)})*"
    return text


@given(word_literals(), st.integers(1, 4), st.sampled_from([ODD, EVEN]))
@settings(max_examples=600)
def test_parse_word_matches_reference_on_drawn_literals(text, k, parity):
    params = make_params(k, parity)
    assert parse_outcome(parse_word, text, params) == parse_outcome(ref_parse_word, text, params)


def test_roundtrip():
    for text in ("0.2,2", "1.0,(1,2)*", "0.(2,1)*", "0.", "2.0", "0.3,(0,3)*"):
        w = parse_word(text, P1)
        assert (word_value(parse_word(format_word(w), P1), P1)
                - word_value(w, P1)).is_zero()


def test_value_examples():
    one = P1.one
    assert (word_value(parse_word("0.2,2", P1), P1) - one).is_zero()
    assert (word_value(parse_word("0.1,(3)*", P1), P1) - one).is_zero()
    # 0.(3)* = beta - 1
    assert (word_value(parse_word("0.(3)*", P1), P1)
            - FieldElem(P1, 1, -1, 1)).is_zero()


def test_value_k2():
    one = P2.one
    assert (word_value(parse_word("0.3,3", P2), P2) - one).is_zero()
    assert (word_value(parse_word("0.2,(5)*", P2), P2) - one).is_zero()
    assert (word_value(parse_word("0.(3,2)*", P2), P2) - one).is_zero()


def test_canonical_period():
    w = EvPeriodicWord(0, (), (1, 2, 1, 2))
    assert w.period == (1, 2)
    # preperiod tail matching the period rotates into it
    w = EvPeriodicWord(0, (3, 1), (2, 1))
    assert (w.preperiod, w.period) == ((3,), (1, 2))
    # all-zero period collapses to (0,), the period a finite word is read with
    w = EvPeriodicWord(0, (2,), (0, 0))
    assert w.period == (0,)
    assert pre_period(w) == pre_period(DigitWord(0, (2,)))


def test_empty_period_refused():
    with pytest.raises(DomainError, match="period must be nonempty"):
        EvPeriodicWord(0, (1,), ())


def test_digit_at_and_prefix():
    w = EvPeriodicWord(0, (1,), (3, 0))
    assert [w.digit_at(i) for i in range(1, 6)] == [1, 3, 0, 3, 0]
    assert w.prefix(4) == (1, 3, 0, 3)


def test_is_B_separated():
    assert is_B_separated(DigitWord(0, (2, 0, 3)), P1)
    assert not is_B_separated(DigitWord(0, (3, 3)), P1)
    assert is_B_separated(DigitWord(0, (0, 1, 2)), P1)
    # the period wrap counts: (2)(1,2) ends ...2,1,2,1,2... fine,
    # but period (2,) alone repeats 2,2,2
    assert not is_B_separated(EvPeriodicWord(0, (), (2,)), P1)
    assert is_B_separated(EvPeriodicWord(0, (), (2, 1)), P1)
    assert not is_B_separated(EvPeriodicWord(0, (1, 2), (3, 0)), P1)


def test_ind_examples():
    assert ind(False, ((2, 1), (0,)), P1) == 1
    assert ind(False, ((0, 1), (0,)), P1) == 2
    assert ind(False, ((), (0, 3)), P1) == IND_INF
    assert ind(True, ((0,), (0,)), P1) == 1
    assert ind(True, ((), (3, 0)), P1) == IND_INF
    assert ind(True, ((3, 0, 3, 3), (0,)), P1) == 4
    # finite tail continued by zeros: 0 is small, breaking the big-first
    # alternation at an odd position
    assert ind(True, ((3, 0, 3, 0), (0,)), P1) == 5


def test_ind_prefix_determined():
    rng = random.Random(1)
    for _ in range(300):
        tail = tuple(rng.randint(0, 3) for _ in range(8))
        v = ind(False, (tail, (0,)), P1)
        if v is not IND_INF and v <= len(tail):
            # changing digits past v does not move the index
            mutated = tail[: int(v)] + tuple(rng.randint(0, 3) for _ in range(4))
            assert ind(False, (mutated, (0,)), P1) == v


def test_word_tail():
    # word_tail is gone; the tail from position n is read off the
    # (preperiod, period) pair, a finite word having the period (0,)
    def tail(w, n):
        pre, per = pre_period(w)
        return pre[n - 1:], split_at(pre, per, n - 1)[1]
    w = DigitWord(0, (3, 0, 1))
    assert tail(w, 2) == ((0, 1), (0,))
    p = EvPeriodicWord(0, (1, 2), (3, 0))
    assert tail(p, 2) == ((2,), (3, 0))
    assert tail(p, 4) == ((), (0, 3))


def test_shift_consistency():
    rng = random.Random(7)
    beta = P1.beta
    for _ in range(200):
        digits = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 7)))
        whole = word_value(DigitWord(0, digits), P1)
        rest = word_value(DigitWord(0, digits[1:]), P1)
        assert (whole * beta - (rest + digits[0])).is_zero()


def test_valid_word_value_in_interval():
    rng = random.Random(3)
    bound = P1.interval_bound
    for _ in range(200):
        digits = tuple(rng.randint(0, 3) for _ in range(rng.randint(0, 7)))
        v = word_value(DigitWord(0, digits), P1)
        assert v.sign() >= 0 and v <= bound
    for _ in range(100):
        pre = tuple(rng.randint(0, 3) for _ in range(rng.randint(0, 3)))
        per = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 3)))
        v = word_value(EvPeriodicWord(0, pre, per), P1)
        assert v.sign() >= 0 and v <= bound


def test_validity():
    assert DigitWord(0, (0, 3)).is_valid(P1)
    assert not DigitWord(0, (5,)).is_valid(P1)
    assert not DigitWord(0, (-1,)).is_valid(P1)
    assert not EvPeriodicWord(0, (1,), (4,)).is_valid(P1)


def ref_word_value(w, params):
    """The digit-by-digit evaluator ``word_value`` replaced: one ``div_beta``
    per digit, and a periodic tail summed through a loop of beta powers."""
    if isinstance(w, DigitWord):
        return params.from_int(w.int_part) + _ref_finite_value(w.digits, params)
    tail = _ref_finite_value(w.period, params)
    beta_pow = params.one
    for _ in range(len(w.period)):
        beta_pow = beta_pow.mul_beta()
    periodic = tail * beta_pow / (beta_pow - params.one)
    value = _ref_finite_value(w.preperiod, params) + _ref_shift_right(
        periodic, len(w.preperiod))
    return params.from_int(w.int_part) + value


def _ref_finite_value(digits, params):
    value = params.zero
    for d in reversed(digits):
        value = (value + params.from_int(d)).div_beta()
    return value


def _ref_shift_right(x, n):
    for _ in range(n):
        x = x.div_beta()
    return x


@st.composite
def words_with_params(draw):
    params = make_params(draw(st.integers(1, 4)), draw(st.sampled_from([ODD, EVEN])))
    int_part = draw(st.integers(0, 2))
    pre = tuple(draw(st.lists(st.integers(0, params.m), max_size=8)))
    if draw(st.booleans()):
        return params, DigitWord(int_part, pre)
    per = tuple(draw(st.lists(st.integers(0, params.m), min_size=1, max_size=4)))
    return params, EvPeriodicWord(int_part, pre, per)


@given(words_with_params())
@settings(max_examples=400)
def test_word_value_matches_reference(pw):
    params, w = pw
    got, want = word_value(w, params), ref_word_value(w, params)
    assert (got.p, got.q, got.r) == (want.p, want.q, want.r)


PLUS, MINUS = "plus", "minus"  # the alternations ``ref_ind`` reads by name


def ref_ind(sign, tail, params):
    """The index function ``ind`` replaced: one digit closure per tail form,
    an unbounded scan for finite tails and a horizon for periodic ones."""
    if sign not in (PLUS, MINUS):
        raise ValueError(f"sign must be 'plus' or 'minus', got {sign!r}")
    if isinstance(tail, tuple) and len(tail) == 2 and isinstance(tail[0], (tuple, list)):
        pre, per = tail
        horizon = len(pre) + 2 * len(per) + 2

        def digit(i: int) -> int:
            if i <= len(pre):
                return pre[i - 1]
            return per[(i - len(pre) - 1) % len(per)]

        bounded = False
    else:
        seq = list(tail)
        horizon = len(seq) + 2

        def digit(i: int) -> int:
            return seq[i - 1] if i <= len(seq) else 0

        bounded = True

    odd_in_big = sign == MINUS  # expected class of odd positions
    i = 1
    while True:
        x1, x2 = digit(2 * i - 1), digit(2 * i)
        first_big = params.in_big(x1)
        second_big = params.in_big(x2)
        if first_big != odd_in_big:
            return 2 * i - 1
        if second_big == odd_in_big:
            return 2 * i
        if 2 * i >= horizon and not bounded:
            return IND_INF
        i += 1


@st.composite
def tails_with_params(draw):
    """A system, a tail in the form ``ref_ind`` reads (a flat finite tail or
    a pair) and the same tail as the pair ``ind`` reads."""
    params = make_params(draw(st.integers(1, 4)), draw(st.sampled_from([ODD, EVEN])))
    digits = st.lists(st.integers(0, params.m), max_size=8)
    pre = draw(digits)
    if draw(st.booleans()):
        return params, tuple(pre) if draw(st.booleans()) else pre, (tuple(pre), (0,))
    per = draw(st.lists(st.integers(0, params.m), min_size=1, max_size=4))
    tail = (tuple(pre), tuple(per)) if draw(st.booleans()) else (pre, per)
    return params, tail, tail


@given(tails_with_params(), st.sampled_from([PLUS, MINUS]))
@settings(max_examples=600)
def test_ind_matches_reference(pt, sign):
    params, ref_tail, tail = pt
    assert ind(sign == MINUS, tail, params) == ref_ind(sign, ref_tail, params)


@given(st.lists(st.integers(0, 9), max_size=6), st.lists(st.integers(0, 9), min_size=1, max_size=4),
       st.integers(0, 16))
@settings(max_examples=400)
def test_split_at_reads_digit_by_digit(pre, per, n):
    pre, per = tuple(pre), tuple(per)
    w = EvPeriodicWord(0, pre, per)
    head, rotated = split_at(pre, per, n)
    assert head == tuple(w.digit_at(i) for i in range(1, n + 1))
    # the rotated period is the next L digits once the preperiod is read
    start = max(n, len(pre))
    assert rotated == tuple(w.digit_at(start + j) for j in range(1, len(per) + 1))
