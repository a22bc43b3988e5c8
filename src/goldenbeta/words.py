"""Digit sequences: finite words, eventually periodic words, evaluation.

A word is an integer part followed by fractional digits in base beta.
Finite words carry a plain digit tuple; eventually periodic words carry a
preperiod and a nonempty repeating period, always kept canonical (primitive
period, shortest preperiod, all-zero period collapsed to (0,)).  Validity
(all digits in {0..m}) is a checkable predicate rather than a separate type,
so intermediate rewriting states may hold any integer digits.

Every reader sees a word one way: ``pre_period`` gives its (preperiod,
period) pair, a finite word read with the period (0,), and ``split_at`` reads
that pair past its stored digits.  A digit tail, as ``ind`` reads it, is
such a pair too.  ``word_value`` evaluates a word as
(H(pre+per) - H(pre)) / (beta^(n+L) - beta^n): H is a Horner pass over
integer pairs through ``times_beta``, and only the quotient is a FieldElem.
"""

from __future__ import annotations

import re

from .algebra import DomainError, FieldElem, ParseError, Params, _Record, times_beta

IND_INF = None  # ind's answer when the alternation never breaks


class DigitWord(_Record):
    __slots__ = ("int_part", "digits")

    def __init__(self, int_part: int, digits: tuple[int, ...]):
        # set directly, not through _init's loop: rewriting builds many words
        object.__setattr__(self, "int_part", int_part)
        object.__setattr__(self, "digits", tuple(digits))

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


class EvPeriodicWord(_Record):
    __slots__ = ("int_part", "preperiod", "period")

    def __init__(self, int_part: int, preperiod: tuple[int, ...], period: tuple[int, ...]):
        pre = tuple(preperiod)
        per = tuple(period)
        if not per:
            raise DomainError("period must be nonempty")
        per = _primitive_period(per)
        # shortest preperiod: absorb matching tail digits into the cycle
        while pre and pre[-1] == per[-1]:
            pre = pre[:-1]
            per = per[-1:] + per[:-1]
        self._init(int_part, pre, per)

    def is_valid(self, params: Params) -> bool:
        return self.int_part >= 0 and all(
            0 <= d <= params.m for d in self.preperiod + self.period
        )

    def digit_at(self, i: int) -> int:
        """Fractional digit at 1-based position i."""
        if i <= len(self.preperiod):
            return self.preperiod[i - 1]
        return self.period[(i - len(self.preperiod) - 1) % len(self.period)]

    def prefix(self, depth: int) -> tuple[int, ...]:
        return split_at(self.preperiod, self.period, depth)[0]


Word = DigitWord | EvPeriodicWord


def pre_period(w: Word) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The (preperiod, period) pair of w; a finite word has the period (0,)."""
    if isinstance(w, DigitWord):
        return w.digits, (0,)
    return w.preperiod, w.period


def split_at(pre: tuple[int, ...], per: tuple[int, ...],
             n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The first n digits of pre followed by per repeated, and per rotated
    to start at digit n+1 (unrotated while n is inside pre)."""
    if n <= len(pre):
        return pre[:n], per
    q, r = divmod(n - len(pre), len(per))
    return pre + per * q + per[:r], per[r:] + per[:r]


def _primitive_period(per: tuple[int, ...]) -> tuple[int, ...]:
    n = len(per)
    for d in range(1, n):
        if n % d == 0 and per == per[:d] * (n // d):
            return per[:d]
    return per


# -- parsing and printing ------------------------------------------------

_WORD_RE = re.compile(
    r"^(?P<int>\d+)\.(?P<pre>(?:-?\d+(?:,-?\d+)*)?)"
    r"(?:,?\((?P<per>(?:-?\d+(?:,-?\d+)*)?)\)\*)?$"
)


def parse_word(text: str, params: Params) -> Word:
    m = _WORD_RE.match(text.strip())
    if not m:
        raise ParseError(f"malformed word literal: {text!r}")
    pre_text, per_text = m.group("pre"), m.group("per")  # per: None, or inside ( )*
    if per_text == "":
        raise ParseError(f"empty period in {text!r}")
    try:
        int_part = int(m.group("int"))
        pre = tuple(int(t) for t in pre_text.split(",")) if pre_text else ()
        per = None if per_text is None else tuple(int(t) for t in per_text.split(","))
    except ValueError:  # past the interpreter's limit on digits per int
        raise ParseError("a number in the word literal has too many digits") from None
    _check_digits(pre + (per or ()), params, text)
    # a period of zeros reads as the finite word of its preperiod
    return EvPeriodicWord(int_part, pre, per) if any(per or ()) else DigitWord(int_part, pre)


def _check_digits(digits: tuple[int, ...], params: Params, text: str) -> None:
    for d in digits:
        if not 0 <= d <= params.m:
            raise ParseError(f"digit {d} out of range 0..{params.m} in {text!r}")


def format_word(w: Word) -> str:
    pre, per = pre_period(w)
    text = f"{w.int_part}." + ",".join(map(str, pre))
    if per == (0,):
        return text
    sep = "," if pre else ""
    return f"{text}{sep}(" + ",".join(map(str, per)) + ")*"


# -- evaluation ----------------------------------------------------------

def word_value(w: Word, params: Params) -> FieldElem:
    """Exact value x = int_part + sum(eps_i * beta^-i).  With H the Horner
    value of the integer part followed by a digit string, n the preperiod
    length and L the period length, beta^n x = H(pre) + t and
    beta^(n+L) x = H(pre+per) + t for the same periodic tail t, so
    x = (H(pre+per) - H(pre)) / (beta^(n+L) - beta^n).  A finite word is
    read with the period (0,)."""
    pre, per = pre_period(w)
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
    pre, per = pre_period(w)
    seq = split_at(pre, per, len(pre) + len(per) + 1)[0]
    return not any(
        params.in_big(a) and params.in_big(b) for a, b in zip(seq, seq[1:])
    )


def ind(big: bool, tail, params: Params) -> int | None:
    """First index breaking the small/big alternation whose first digit is
    big when ``big`` is true, or IND_INF (None) if it never breaks.

    ``tail`` is a (preperiod, period) pair; a finite tail has the period
    (0,).  Past the preperiod, digits and the pattern repeat together with
    period lcm(L, 2), which divides 2L, so a scan of the preperiod and two
    periods decides every case.
    """
    pre, per = tail
    for i, d in enumerate(pre + per + per, 1):
        if params.in_big(d) != big:  # ``big``: whether digit i should be big
            return i
        big = not big
    return IND_INF
