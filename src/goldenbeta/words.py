"""Digit sequences: finite words, eventually periodic words, evaluation.

A word is an integer part followed by fractional digits in base beta.
Finite words carry a plain digit tuple; eventually periodic words carry a
preperiod and a nonempty repeating period, always kept canonical (primitive
period, shortest preperiod, all-zero period collapsed to (0,)).  Validity
(all digits in {0..m}) is a checkable predicate rather than a separate type,
so intermediate rewriting states may hold any integer digits.

``word_value`` evaluates every word, finite ones read with the period (0,),
as (H(pre+per) - H(pre)) / (beta^(n+L) - beta^n): H is a Horner pass over
integer pairs through ``times_beta``, and only the quotient is a FieldElem.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import inf

from .algebra import FieldElem, Params, times_beta

IND_INF = inf


class ParseError(ValueError):
    """Malformed word literal."""


@dataclass(frozen=True)
class DigitWord:
    int_part: int
    digits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "digits", tuple(self.digits))

    def is_valid(self, params: Params) -> bool:
        return self.int_part >= 0 and all(0 <= d <= params.m for d in self.digits)

    def trimmed(self) -> "DigitWord":
        """Drop trailing zero digits (the finite-expansion identification)."""
        digits = self.digits
        n = len(digits)
        while n and digits[n - 1] == 0:
            n -= 1
        return DigitWord(self.int_part, digits[:n])

    def __len__(self):
        return len(self.digits)


@dataclass(frozen=True)
class EvPeriodicWord:
    int_part: int
    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def __post_init__(self):
        pre = tuple(self.preperiod)
        per = tuple(self.period)
        if not per:
            raise ValueError("period must be nonempty")
        per = _primitive_period(per)
        # shortest preperiod: absorb matching tail digits into the cycle
        while pre and pre[-1] == per[-1]:
            pre = pre[:-1]
            per = per[-1:] + per[:-1]
        object.__setattr__(self, "preperiod", pre)
        object.__setattr__(self, "period", per)

    def is_valid(self, params: Params) -> bool:
        return self.int_part >= 0 and all(
            0 <= d <= params.m for d in self.preperiod + self.period
        )

    def is_finite(self) -> bool:
        return self.period == (0,)

    def digit_at(self, i: int) -> int:
        """Fractional digit at 1-based position i."""
        if i <= len(self.preperiod):
            return self.preperiod[i - 1]
        return self.period[(i - len(self.preperiod) - 1) % len(self.period)]

    def prefix(self, depth: int) -> tuple[int, ...]:
        return tuple(self.digit_at(i) for i in range(1, depth + 1))


Word = DigitWord | EvPeriodicWord


def _primitive_period(per: tuple[int, ...]) -> tuple[int, ...]:
    n = len(per)
    for d in range(1, n):
        if n % d == 0 and per == per[:d] * (n // d):
            return per[:d]
    return per


# -- parsing and printing ------------------------------------------------

_WORD_RE = re.compile(
    r"^(?P<int>\d+)\.(?P<pre>(?:-?\d+(?:,-?\d+)*)?)"
    r"(?P<per>,?\((?:-?\d+(?:,-?\d+)*)?\)\*)?$"
)


def parse_word(text: str, params: Params) -> Word:
    m = _WORD_RE.match(text.strip())
    if not m:
        raise ParseError(f"malformed word literal: {text!r}")
    int_part = int(m.group("int"))
    pre_text = m.group("pre")
    pre = tuple(int(t) for t in pre_text.split(",")) if pre_text else ()
    per_text = m.group("per")
    if per_text is None:
        _check_digits(pre, params, text)
        return DigitWord(int_part, pre)
    inner = per_text.lstrip(",")[1:-2]
    if not inner:
        raise ParseError(f"empty period in {text!r}")
    per = tuple(int(t) for t in inner.split(","))
    _check_digits(pre + per, params, text)
    return EvPeriodicWord(int_part, pre, per)


def _check_digits(digits: tuple[int, ...], params: Params, text: str) -> None:
    for d in digits:
        if not 0 <= d <= params.m:
            raise ParseError(f"digit {d} out of range 0..{params.m} in {text!r}")


def format_word(w: Word) -> str:
    if isinstance(w, EvPeriodicWord) and not w.is_finite():
        pre = ",".join(str(d) for d in w.preperiod)
        per = ",".join(str(d) for d in w.period)
        sep = "," if w.preperiod else ""
        return f"{w.int_part}.{pre}{sep}({per})*"
    if isinstance(w, EvPeriodicWord):
        w = DigitWord(w.int_part, w.preperiod)
    return f"{w.int_part}." + ",".join(str(d) for d in w.digits)


# -- evaluation ----------------------------------------------------------

def word_value(w: Word, params: Params) -> FieldElem:
    """Exact value x = int_part + sum(eps_i * beta^-i).  With H the Horner
    value of the integer part followed by a digit string, n the preperiod
    length and L the period length, beta^n x = H(pre) + t and
    beta^(n+L) x = H(pre+per) + t for the same periodic tail t, so
    x = (H(pre+per) - H(pre)) / (beta^(n+L) - beta^n).  A finite word is
    read with the period (0,)."""
    if isinstance(w, DigitWord):
        pre, per = w.digits, (0,)
    else:
        pre, per = w.preperiod, w.period
    hp, hq, gp, gq = _horner(pre, (0, w.int_part, 0, 1), params)
    Hp, Hq, Gp, Gq = _horner(per, (hp, hq, gp, gq), params)
    return FieldElem(params, Hp - hp, Hq - hq) / FieldElem(params, Gp - gp, Gq - gq)


def _horner(digits: tuple[int, ...], state: tuple[int, int, int, int],
            params: Params) -> tuple[int, int, int, int]:
    """Read ``digits`` into the Horner pair (hp, hq) of ``state`` while
    multiplying its power pair (gp, gq) by beta once per digit."""
    hp, hq, gp, gq = state
    for d in digits:
        hp, hq = times_beta(hp, hq, params)
        hq += d
        gp, gq = times_beta(gp, gq, params)
    return hp, hq, gp, gq


# -- digit-class predicates ----------------------------------------------

def is_B_separated(w: Word, params: Params) -> bool:
    """No two consecutive big digits; for periodic words the junctions
    preperiod/period and period wrap count as consecutive."""
    if isinstance(w, DigitWord):
        seq = w.digits
        return not any(
            params.in_big(a) and params.in_big(b) for a, b in zip(seq, seq[1:])
        )
    seq = w.preperiod + w.period + w.period[:1]
    return not any(
        params.in_big(a) and params.in_big(b) for a, b in zip(seq, seq[1:])
    )


PLUS, MINUS = "plus", "minus"


def ind(sign: str, tail, params: Params) -> int | float:
    """First index breaking the alternating small/big (plus) or big/small
    (minus) pattern, or infinity if the alternation never breaks.

    ``tail`` is a finite digit sequence (implicitly continued by zeros) or
    a (preperiod, period) pair.  For periodic tails the decision is made
    over the preperiod plus two periods: the pattern has period two, so an
    alternation unbroken there is unbroken forever.
    """
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


def word_tail(w: Word, start: int = 1):
    """The digit sequence of w from 1-based position ``start`` on, in the
    form ``ind`` accepts."""
    if isinstance(w, DigitWord):
        return w.digits[start - 1 :]
    pre = w.preperiod
    if start <= len(pre) + 1:
        return (pre[start - 1 :], w.period)
    shift = (start - len(pre) - 1) % len(w.period)
    rotated = w.period[shift:] + w.period[:shift]
    return ((), rotated)
