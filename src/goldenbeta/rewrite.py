"""Value-preserving digit rewriting: carry, borrow, big-digit separation,
digit-range reduction, and closure under *beta, +, and /(k+1).

Everything here trades on the single identity 1.00 = 0.(k+1)(k+1), i.e.
beta^2 = (k+1)(beta+1).  The alternating patterns used by the carry and
borrow maps are the ones forced by exact value preservation; every rule is
cross-checked against the field-arithmetic evaluator in the test suite.
Odd-parity systems only: the calculus lives on the quadratic base.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import ODD, DomainError, FieldElem, Params
from .words import (
    IND_INF,
    MINUS,
    PLUS,
    DigitWord,
    EvPeriodicWord,
    Word,
    ind,
    is_B_separated,
    word_tail,
    word_value,
)


def _require_odd(params: Params) -> None:
    if params.parity != ODD:
        raise DomainError("the rewriting calculus applies to odd-parity systems")


def _at(seq, i: int) -> int:
    return seq[i] if 0 <= i < len(seq) else 0


# -- big-digit separation ------------------------------------------------

def cr_step(w: DigitWord, params: Params, _steps=None) -> DigitWord:
    """One leftmost carry: the first big-big digit pair (positions l, l+1)
    becomes (+1 into position l-1, both big digits dropped by k+1)."""
    _require_odd(params)
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
            if _steps is not None:
                _steps.append(("carry-pair", l + 1))
            return DigitWord(int_part, tuple(d))
    return w


def b_separate(w: DigitWord, params: Params, _steps=None) -> DigitWord:
    """Iterate ``cr_step`` to its fixpoint: a word of equal value with no
    two consecutive big digits.  Each step lowers the digit sum by 2k+1,
    so the loop terminates."""
    _require_odd(params)
    while True:
        nxt = cr_step(w, params, _steps)
        if nxt == w:
            return w
        w = nxt


# -- carry and borrow ----------------------------------------------------

def carry_T_plus(w: Word, params: Params) -> Word:
    """Trade a leading big digit for integer part 1, dispatching on the
    first break of the small/big alternation in the tail."""
    _require_odd(params)
    k = params.k
    if w.int_part != 0:
        raise DomainError("carry expects integer part 0")
    b = _first_digit(w)
    if not params.in_big(b):
        raise DomainError(f"carry needs a big first digit, got {b}")
    tail = word_tail(w, 2)
    v = ind(PLUS, tail, params)
    if v == IND_INF or int(v) >= 2:
        # these branches lower the head by k+2, so b = k+1 is out of range
        if b not in params.big_except_bottom:
            raise DomainError(f"carry needs a first digit in {{k+2..2k+1}}, got {b}")
    if v == IND_INF:
        return _rebuild_alternating(w, b - (k + 2), +1, 1)
    v = int(v)
    if v == 1:
        return _rebuild_finite(w, b - (k + 1), {1: -(k + 1)}, v, 1)
    deltas: dict[int, int] = {}
    if v % 2 == 1:  # v = 2i-1, i >= 2: alternate through 2i-3, drop at v
        for pos in range(1, v - 1):
            deltas[pos] = 1 if pos % 2 == 1 else -1
        deltas[v] = -(k + 1)
    else:  # v = 2i: alternate through 2i-2, raise at v
        for pos in range(1, v - 1):
            deltas[pos] = 1 if pos % 2 == 1 else -1
        deltas[v] = k + 1
    return _rebuild_finite(w, b - (k + 2), deltas, v, 1)


def borrow_T_minus(w: Word, params: Params) -> Word:
    """Trade integer part 1 for a leading big digit, dispatching on the
    first break of the big/small alternation in the tail."""
    _require_odd(params)
    k = params.k
    if w.int_part != 1:
        raise DomainError("borrow expects integer part 1")
    a = _first_digit(w)
    if not params.in_small(a):
        raise DomainError(f"borrow needs a small first digit, got {a}")
    tail = word_tail(w, 2)
    v = ind(MINUS, tail, params)
    if v == IND_INF or int(v) >= 2:
        # these branches raise the head by k+2, so a = k is out of range
        if a not in params.small_except_top:
            raise DomainError(f"borrow needs a first digit in {{0..k-1}}, got {a}")
    if v == IND_INF:
        return _rebuild_alternating(w, a + (k + 2), -1, 0)
    v = int(v)
    if v == 1:
        return _rebuild_finite(w, a + (k + 1), {1: k + 1}, v, 0)
    deltas = {}
    if v % 2 == 1:
        for pos in range(1, v - 1):
            deltas[pos] = -1 if pos % 2 == 1 else 1
        deltas[v] = k + 1
    else:
        for pos in range(1, v - 1):
            deltas[pos] = -1 if pos % 2 == 1 else 1
        deltas[v] = -(k + 1)
    return _rebuild_finite(w, a + (k + 2), deltas, v, 0)


def _first_digit(w: Word) -> int:
    if isinstance(w, DigitWord):
        return _at(w.digits, 0)
    return w.digit_at(1)


def _rebuild_finite(w: Word, head: int, deltas: dict[int, int], upto: int,
                    new_int: int) -> Word:
    """Replace the first digit by ``head`` and add deltas (1-based into the
    tail after it), materializing enough digits to cover them."""
    if isinstance(w, DigitWord):
        tail = list(w.digits[1:])
        tail += [0] * (upto - len(tail))
        for pos, delta in deltas.items():
            tail[pos - 1] += delta
        return DigitWord(new_int, (head, *tail))
    pre = w.preperiod[1:] if w.preperiod else ()
    period = w.period if w.preperiod else _rotate(w.period, 1)
    length = max(upto, len(pre))
    tail = [pre[i] if i < len(pre) else period[(i - len(pre)) % len(period)]
            for i in range(length)]
    for pos, delta in deltas.items():
        tail[pos - 1] += delta
    phase = (length - len(pre)) % len(period)
    return EvPeriodicWord(new_int, (head, *tail), _rotate(period, phase))


def _rebuild_alternating(w: EvPeriodicWord, head: int, first_sign: int,
                         new_int: int) -> EvPeriodicWord:
    """Replace the first digit by ``head`` and apply the infinite +-1
    alternation (``first_sign`` at tail position 1) to the whole tail."""
    pre = w.preperiod[1:] if w.preperiod else ()
    period = w.period if w.preperiod else _rotate(w.period, 1)
    length = len(pre) + (len(pre) % 2)  # even, so the period stays aligned
    tail = [pre[i] if i < len(pre) else period[(i - len(pre)) % len(period)]
            for i in range(length)]
    phase = (length - len(pre)) % len(period)
    period = _rotate(period, phase)
    if len(period) % 2 == 1:
        period = period + period
    tail = [d + (first_sign if i % 2 == 0 else -first_sign)
            for i, d in enumerate(tail)]
    period = tuple(d + (first_sign if i % 2 == 0 else -first_sign)
                   for i, d in enumerate(period))
    return EvPeriodicWord(new_int, (head, *tail), period)


def _rotate(period: tuple[int, ...], phase: int) -> tuple[int, ...]:
    phase %= len(period)
    return period[phase:] + period[:phase]


# -- digit-range reduction ----------------------------------------------

def reduce_digits(w: DigitWord, params: Params) -> DigitWord:
    """Equal-value word with integer part in {0,1} and digits in {0..k+1}.

    Repeatedly separates big digits, then removes the rightmost digit
    above k+1: that digit c satisfies c/beta = 1 + (c-k-2)/beta +
    (k+1)/beta^3, and when the landing spot two places right is blocked by
    a (k+1) the deposit slides down the small/big alternation until it
    finds a small digit.
    """
    _require_odd(params)
    if w.int_part != 0:
        raise DomainError("digit reduction expects integer part 0")
    k = params.k
    int_part, d = 0, list(w.digits)
    while True:
        sep = b_separate(DigitWord(int_part, tuple(d)), params)
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
        while _at(d, j + 2 * (t + 1)) == k + 1:
            t += 1
        for i in range(1, t + 1):
            d[j + 2 * i - 1] += 1
            d[j + 2 * i] -= 1
        pos = j + 2 * t + 2
        if pos >= len(d):
            d += [0] * (pos + 1 - len(d))
        d[pos] += k + 1
    return DigitWord(int_part, tuple(d))


# -- closure operations --------------------------------------------------

def mul_beta_word(w: DigitWord, params: Params) -> DigitWord:
    """Finite word for beta * value(w); requires value(w) < (beta-k)/beta
    so that the product stays inside the expansion interval."""
    _require_odd(params)
    k = params.k
    if w.int_part != 0:
        raise DomainError("multiplication by beta expects integer part 0")
    limit = params.interval_bound.div_beta()
    if not (word_value(w, params) < limit):
        raise DomainError("value too large: beta * x leaves the expansion interval")
    w = reduce_digits(w, params)
    if w.int_part != 0:
        raise AssertionError(f"reduced word {w!r} has a nonzero integer part")
    d = list(w.digits)
    while d and d[-1] == 0:
        d.pop()
    if not d:
        return DigitWord(0, ())
    if d[0] == 0:
        return DigitWord(0, tuple(d[1:]))
    if d[0] != 1:
        raise AssertionError("reduced words below (beta-k)/beta start with 0 or 1")
    rest = d[1:]
    e2 = _at(rest, 0)
    if e2 <= k - 1:
        return borrow_T_minus(DigitWord(1, tuple(rest) or (0,)), params)
    if e2 != k:
        raise AssertionError("a second digit k+1 would put the value on the boundary")
    i, blocks = 1, 0
    while _at(rest, i) == k + 1 and _at(rest, i + 1) == k:
        blocks += 1
        i += 2
    nxt = _at(rest, i)
    if nxt <= k:
        tail = tuple(rest[i + 1 :])
        return DigitWord(0, (2 * k + 1,) * (2 * blocks + 1) + (nxt + k + 1,) + tail)
    if nxt != k + 1:
        raise AssertionError(f"digit {nxt} after the (k+1)k blocks is out of range")
    b = _at(rest, i + 1)
    if b > k - 1:
        raise AssertionError("the tail of a below-1 expansion cannot reach (k+1)(k+1)")
    inner = borrow_T_minus(DigitWord(1, (b, *rest[i + 2 :])), params)
    return DigitWord(0, (2 * k + 1,) * (2 * blocks + 2) + inner.digits)


def add_words(x: DigitWord, y: DigitWord, params: Params) -> DigitWord:
    """Digit word for value(x) + value(y); fractional digits stay in
    {0..m}, the integer part may exceed 1."""
    _require_odd(params)
    k = params.k
    rx = reduce_digits(DigitWord(0, x.digits), params)
    ry = reduce_digits(DigitWord(0, y.digits), params)
    int_acc = x.int_part + y.int_part + rx.int_part + ry.int_part
    n = max(len(rx.digits), len(ry.digits))
    z = [_at(rx.digits, j) + _at(ry.digits, j) for j in range(n)]
    # split each 2k+2 as (2k+1) + 1; the 1s ride along unreduced
    main = [2 * k + 1 if zj == 2 * k + 2 else zj for zj in z]
    ones = [1 if zj == 2 * k + 2 else 0 for zj in z]
    rm = reduce_digits(DigitWord(0, tuple(main)), params)
    width = max(len(rm.digits), n)
    digits = tuple(_at(rm.digits, j) + _at(ones, j) for j in range(width))
    # re-adding the ones can recreate big-big pairs; separate them again
    out = b_separate(DigitWord(int_acc + rm.int_part, digits), params)
    trimmed = out.trimmed()
    if not trimmed.digits:
        trimmed = DigitWord(trimmed.int_part, (0,))
    return trimmed


def div_word_by_k1(w: DigitWord, params: Params) -> DigitWord:
    """Digit word for value(w)/(k+1), two digits longer than the input.

    Each digit splits as eps = i(eps) + t(eps)/(k+1) * (1/beta + 1/beta^2)
    with i(eps) in {0, k+1}; collecting the per-position contributions
    gives digits that are all multiples of k+1.
    """
    _require_odd(params)
    k = params.k
    if w.int_part != 0:
        raise DomainError("division by k+1 expects integer part 0")
    k1 = k + 1

    def i_part(e: int) -> int:
        return 0 if params.in_small(e) else k1

    def t_part(e: int) -> int:
        return k1 * e if params.in_small(e) else k1 * (e - k1)

    eps = list(w.digits)
    out = []
    for j in range(1, len(eps) + 3):
        eta = i_part(_at(eps, j - 1)) + t_part(_at(eps, j - 2)) + t_part(_at(eps, j - 3))
        if eta % k1 != 0:
            raise AssertionError(f"digit {j} of {w!r} divided by k+1 is not an integer")
        out.append(eta // k1)
    return DigitWord(0, tuple(out))


# -- audit trail ---------------------------------------------------------

@dataclass(frozen=True)
class RewriteTrace:
    rule: str
    input: tuple[Word, ...]
    output: Word
    steps: tuple[tuple[str, int], ...]
    value: FieldElem


_UNARY_RULES = {
    "cr": cr_step,
    "bsep": b_separate,
    "carry": carry_T_plus,
    "borrow": borrow_T_minus,
    "reduce": reduce_digits,
    "mulbeta": mul_beta_word,
    "div": div_word_by_k1,
}

VALUE_PRESERVING_RULES = ("cr", "bsep", "carry", "borrow", "reduce")
RULES = tuple(_UNARY_RULES) + ("add",)


def apply_rule(rule: str, params: Params, *inputs: Word) -> RewriteTrace:
    steps: list[tuple[str, int]] = []
    if rule == "add":
        if len(inputs) != 2:
            raise DomainError("add takes two words")
        out = add_words(inputs[0], inputs[1], params)
        steps.append(("add", 0))
    elif rule in _UNARY_RULES:
        if len(inputs) != 1:
            raise DomainError(f"{rule} takes one word")
        if rule == "bsep":
            out = b_separate(inputs[0], params, steps)
        else:
            out = _UNARY_RULES[rule](inputs[0], params)
            steps.append((rule, 1))
    else:
        raise DomainError(f"unknown rewrite rule {rule!r}")
    value = word_value(out, params)
    if rule in VALUE_PRESERVING_RULES and not (word_value(inputs[0], params) - value).is_zero():
        raise AssertionError(f"rule {rule} changed the value of {inputs[0]!r}")
    return RewriteTrace(rule, tuple(inputs), out, tuple(steps), value)
