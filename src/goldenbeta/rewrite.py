"""Value-preserving digit rewriting: carry, borrow, big-digit separation,
digit-range reduction, and closure under *beta, +, and /(k+1).

Everything here trades on the single identity 1.00 = 0.(k+1)(k+1), i.e.
beta^2 = (k+1)(beta+1).  Carry and borrow are one mirrored map, ``_trade``,
read in the two directions of that identity, and also take eventually
periodic words.  Every other rule takes finite words and runs on one
integer list d, where d[0] is the integer part and d[i] the digit of
beta^-i, through ``_separate`` (big-digit carries) and ``_reduce``
(digit-range reduction), both in place, and builds a word only when it
returns.  No rule evaluates a value: ``apply_rule`` alone does, checking
each rule's output against its row of ``_RULES`` for value and shape.
A reduction over ``REDUCE_BUDGET`` digits rescanned is refused.
Odd-parity systems only: the calculus lives on the quadratic base.
"""

from __future__ import annotations

from .algebra import ODD, DomainError, FieldElem, Params, _Record
from .words import (
    IND_INF,
    DigitWord,
    EvPeriodicWord,
    Word,
    ind,
    is_B_separated,
    pre_period,
    split_at,
    word_value,
)


def _require_odd(params: Params) -> None:
    if params.parity != ODD:
        raise DomainError("the rewriting calculus applies to odd-parity systems")


# -- big-digit separation ------------------------------------------------

def _separate(d: list[int], params: Params, steps=None, limit=None) -> None:
    """Make up to ``limit`` (None: every) leftmost big-big carries in place
    on ``d``, where d[0] is the integer part and d[i] the digit of beta^-i.
    A carry at (l, l+1) turns both its digits small, so the pairs at l-1, l
    and l+1 are not big-big, and only the one at l-2, raised by the carry,
    can be: the scan resumes there."""
    k1, m = params.k + 1, params.m
    l, done = 1, 0
    while l < len(d) - 1 and done != limit:
        if k1 <= d[l] <= m and k1 <= d[l + 1] <= m:
            d[l - 1] += 1
            d[l] -= k1
            d[l + 1] -= k1
            if steps is not None:
                steps.append(("carry-pair", l))
            done += 1
            l = max(l - 2, 1)
        else:
            l += 1


def cr_step(w: DigitWord, params: Params) -> DigitWord:
    """One leftmost carry: the first big-big digit pair (positions l, l+1)
    becomes (+1 into position l-1, both big digits dropped by k+1)."""
    _require_odd(params)
    d = [w.int_part, *w.digits]
    _separate(d, params, limit=1)
    return DigitWord(d[0], tuple(d[1:]))


def b_separate(w: DigitWord, params: Params, _steps=None) -> DigitWord:
    """``cr_step`` to its fixpoint, in one pass over one digit list: a word
    of equal value with no two consecutive big digits.  Each carry lowers
    the digit sum by 2k+1, so the pass terminates."""
    _require_odd(params)
    d = [w.int_part, *w.digits]
    _separate(d, params, _steps)
    return DigitWord(d[0], tuple(d[1:]))


# -- carry and borrow ----------------------------------------------------

# Per direction: rule name, integer part taken, first-digit class, and the
# first digits a shift by k+2 allows.
_TRADES = {
    +1: ("carry", 0, "big", "{k+2..2k+1}"),
    -1: ("borrow", 1, "small", "{0..k-1}"),
}


def carry_T_plus(w: Word, params: Params) -> Word:
    """Trade a leading big digit for integer part 1, dispatching on the
    first break of the small/big alternation in the tail."""
    return _trade(w, params, +1)


def borrow_T_minus(w: Word, params: Params) -> Word:
    """Trade integer part 1 for a leading big digit, dispatching on the
    first break of the big/small alternation in the tail."""
    return _trade(w, params, -1)


def _trade(w: Word, params: Params, s: int) -> Word:
    """Carry (s = +1) or borrow (s = -1): one map read in two directions,
    every digit shift of the borrow the negative of the carry's.

    With v the first break of the alternation in the tail, the head moves
    by -s(k+1) when v = 1 and by -s(k+2) otherwise; tail positions before
    v-1 take +s, -s, ... in turn (forever when v is IND_INF), and
    position v takes -s(k+1) when v is odd, +s(k+1) when it is even.
    """
    _require_odd(params)
    rule, int_part, digit_class, first_range = _TRADES[s]
    k = params.k
    if w.int_part != int_part:
        raise DomainError(f"{rule} expects integer part {int_part}")
    pre, period = pre_period(w)
    (b,), period = split_at(pre, period, 1)
    pre = pre[1:]
    if not (params.in_big(b) if s > 0 else params.in_small(b)):
        raise DomainError(f"{rule} needs a {digit_class} first digit, got {b}")
    v = ind(s < 0, (pre, period), params)  # the tail starts in b's other class
    head = b - s * (k + 1 if v == 1 else k + 2)
    if not 0 <= head <= params.m:
        raise DomainError(f"{rule} needs a first digit in {first_range}, got {b}")
    # an even length keeps the period aligned with the infinite alternation
    n = len(pre) + len(pre) % 2 if v is IND_INF else max(v, len(pre))
    digits, period = split_at(pre, period, n)
    digits = list(digits)
    if v is IND_INF:
        digits = _alternate(digits, s)
        # a period with an odd length would repeat a digit at both parities,
        # so an alternation that never breaks has an even period
        period = tuple(_alternate(period, s))
    else:
        alternating = max(v - 2, 0)
        digits[:alternating] = _alternate(digits[:alternating], s)
        digits[v - 1] += (-1) ** v * s * (k + 1)
    if isinstance(w, DigitWord):
        return DigitWord(int_part + s, (head, *digits))
    return EvPeriodicWord(int_part + s, (head, *digits), period)


def _alternate(digits, s: int) -> list[int]:
    return [d + (s if i % 2 == 0 else -s) for i, d in enumerate(digits)]


# -- digit-range reduction ----------------------------------------------

def reduce_digits(w: DigitWord, params: Params) -> DigitWord:
    """Equal-value word with integer part in {0,1} and digits in {0..k+1}."""
    _require_odd(params)
    if w.int_part != 0:
        raise DomainError("digit reduction expects integer part 0")
    d = [0, *w.digits]
    _reduce(d, params)
    return DigitWord(d[0], tuple(d[1:]))


# Most work one ``_reduce`` call may do, in digits rescanned: each pass of
# its loop (a removal, or the last scan, which finds none) costs the length
# of the list it rescans.  The pattern 0,0,3 repeated to n digits at k = 1
# makes about n**2/12 removals, so it costs about n**3/12: 0.28 million
# digits at n = 150, and at n = 300, 2.25 million, over budget.
REDUCE_BUDGET = 2_000_000


def _reduce(d: list[int], params: Params) -> None:
    """Reduce ``d`` in place, where d[0] is the integer part and d[i] the
    digit of beta^-i.

    Repeatedly separates big digits, then removes the rightmost digit
    above k+1 at a position i >= 1: that digit c satisfies c/beta = 1 +
    (c-k-2)/beta + (k+1)/beta^3, and when the landing spot two places right
    is blocked by a (k+1) the deposit slides down the small/big alternation
    until it finds a small digit.  A call whose removals rescan more than
    ``REDUCE_BUDGET`` digits in all is refused.
    """
    k, work = params.k, 0
    while True:
        work += len(d)
        if work > REDUCE_BUDGET:
            raise DomainError(f"digit reduction is over its work budget of "
                              f"{REDUCE_BUDGET} digits rescanned")
        _separate(d, params)
        j = next((i for i in range(len(d) - 1, 0, -1) if d[i] >= k + 2), None)
        if j is None:
            return
        d[j - 1] += 1
        d[j] -= k + 2
        pos = j + 2
        while pos < len(d) and d[pos] == k + 1:
            d[pos - 1] += 1
            d[pos] -= 1
            pos += 2
        if pos >= len(d):
            d += [0] * (pos + 1 - len(d))
        d[pos] += k + 1


# -- closure operations --------------------------------------------------

def mul_beta_word(w: DigitWord, params: Params) -> DigitWord:
    """Finite word for beta * value(w), w a valid word.  The domain,
    value(w) < (beta-k)/beta, is read off the reduced digits u.r of the
    product: u is 0, or u is 1 and r has a digit at most k after its
    leading pairs k, k+1; every other word is refused."""
    _require_odd(params)
    k = params.k
    if w.int_part != 0:
        raise DomainError("multiplication by beta expects integer part 0")
    if not w.is_valid(params):
        raise DomainError(f"multiplication by beta expects digits in 0..{params.m}")
    d = [0, *w.digits, 0]  # the trailing 0 holds the unit of an empty word
    _reduce(d, params)
    while len(d) > 2 and d[-1] == 0:
        d.pop()
    # beta * x is d less its integer part, which must be 0: the unit d[1]
    # is the product's integer part
    zero, unit, *rest = d
    if (zero, unit) == (0, 0):
        return DigitWord(0, tuple(rest))
    # walk the unit past each pair k, k+1: 1.k(k+1) = 0.(2k+1)(2k+1) + beta^-2
    r = rest + [0, 0]  # every read below stops within two places past the end
    i = 0
    while r[i] == k and r[i + 1] == k + 1:
        i += 2
    if (zero, unit) != (0, 1) or r[i] > k:
        raise DomainError("value too large: beta * x leaves the expansion interval")
    if r[i] == k:  # the unit stops: 1.kc = 0.(2k+1)(c+k+1)
        return DigitWord(0, (2 * k + 1,) * (i + 1) + (r[i + 1] + k + 1,) + tuple(rest[i + 2 :]))
    inner = borrow_T_minus(DigitWord(1, tuple(rest[i:])), params)
    return DigitWord(0, (2 * k + 1,) * i + inner.digits)


def add_words(x: DigitWord, y: DigitWord, params: Params) -> DigitWord:
    """Digit word for value(x) + value(y); fractional digits stay in
    {0..m}, the integer part may exceed 1.  The digits are reduced, padded
    and summed on lists; only the result is built as a word."""
    _require_odd(params)
    a, b = [x.int_part, *x.digits], [y.int_part, *y.digits]
    _reduce(a, params)
    _reduce(b, params)
    a += [0] * (len(b) - len(a))
    b += [0] * (len(a) - len(b))
    # split each 2k+2 as (2k+1) + 1; the 1s ride along unreduced (one at
    # d[0] too is harmless: the kernels only ever add to the integer part)
    ones = [int(p + q == 2 * params.k + 2) for p, q in zip(a, b)]
    d = [p + q - o for p, q, o in zip(a, b, ones)]
    _reduce(d, params)  # reduction only ever appends digits
    d = [p + o for p, o in zip(d, ones)] + d[len(ones) :]
    # re-adding the ones can recreate big-big pairs; separate them again
    _separate(d, params)
    while len(d) > 1 and d[-1] == 0:
        d.pop()
    return DigitWord(d[0], tuple(d[1:]) or (0,))


def div_word_by_k1(w: DigitWord, params: Params) -> DigitWord:
    """Digit word for value(w)/(k+1), two digits longer than the input.

    Reads 1/(k+1) = 1/beta + 1/beta^2: each digit e is (k+1)*b + s with
    b = 1 when e lies outside {0..k}, so e/(k+1) is b in e's own place and
    s in each of the next two places.
    """
    _require_odd(params)
    k = params.k
    if w.int_part != 0:
        raise DomainError("division by k+1 expects integer part 0")
    b = [int(not 0 <= e <= k) for e in w.digits]
    s = [e - (k + 1) * c for e, c in zip(w.digits, b)]
    return DigitWord(0, tuple(map(sum, zip(b + [0, 0], [0, *s, 0], [0, 0, *s]))))


# -- audit trail ---------------------------------------------------------

class RewriteTrace(_Record):
    __slots__ = ("rule", "input", "output", "steps", "value")

    def __init__(self, rule: str, input: tuple[Word, ...], output: Word,
                 steps: tuple[tuple[str, int], ...], value: FieldElem):
        self._init(rule, input, output, steps, value)


# Each rule's contract, in the order the CLI lists the rules: its
# function, its value law (the output's value from the inputs' values;
# None: the input's own value) and its shape law (None: any digits).
_RULES = {
    "cr": (cr_step, None, None),
    "bsep": (b_separate, None, is_B_separated),
    "carry": (carry_T_plus, None, lambda w, params: w.int_part == 1 and w.is_valid(params)),
    "borrow": (borrow_T_minus, None, lambda w, params: w.int_part == 0 and w.is_valid(params)),
    "reduce": (reduce_digits, None, lambda w, params: max(w.digits, default=0) <= params.k + 1),
    "mulbeta": (mul_beta_word, FieldElem.mul_beta, DigitWord.is_valid),
    "div": (div_word_by_k1, lambda x: x / (x.params.k + 1), DigitWord.is_valid),
    "add": (add_words, FieldElem.__add__, DigitWord.is_valid),
}

RULES = tuple(_RULES)


def apply_rule(rule: str, params: Params, *inputs: Word) -> RewriteTrace:
    """Apply ``rule`` to ``inputs``, valid words; raise unless the output
    keeps the rule's value law and shape law."""
    if rule not in _RULES:
        raise DomainError(f"unknown rewrite rule {rule!r}")
    if rule not in ("carry", "borrow") and any(isinstance(w, EvPeriodicWord) for w in inputs):
        raise DomainError(f"{rule} takes finite words, not periodic ones")
    if len(inputs) != (2 if rule == "add" else 1):
        raise DomainError("add takes two words" if rule == "add" else f"{rule} takes one word")
    if not all(w.is_valid(params) for w in inputs):
        raise DomainError(f"{rule} takes words with digits in 0..{params.m}")
    fn, value_law, shape_law = _RULES[rule]
    steps: list[tuple[str, int]] = []
    if rule == "bsep":
        out = fn(*inputs, params, steps)
    else:
        out = fn(*inputs, params)
        steps.append((rule, 0 if rule == "add" else 1))
    value = word_value(out, params)
    values = [word_value(w, params) for w in inputs]
    if value != (value_law(*values) if value_law else values[0]):
        raise AssertionError(f"rule {rule} gave a word of the wrong value on {inputs!r}")
    if shape_law and not shape_law(out, params):
        raise AssertionError(f"rule {rule} gave a word of the wrong shape on {inputs!r}")
    return RewriteTrace(rule, tuple(inputs), out, tuple(steps), value)
