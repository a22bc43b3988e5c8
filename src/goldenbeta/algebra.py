"""Exact arithmetic in Q(beta) for generalized golden ratio bases.

For an odd digit count m = 2k+1 the base is beta = (k+1+sqrt(k^2+6k+5))/2,
the positive root of beta^2 = (k+1)*beta + (k+1).  For an even digit count
m = 2k the base is the integer k+1 and the field degenerates to Q.

Every element is stored as (p*beta + q)/r with integers p, q and a positive
denominator r, reduced so gcd(p, q, r) = 1.  All comparisons are decided by
integer case analysis on the sign of u + v*sqrt(D); nothing in this module
touches floating point.  ``census_elements`` lists the points of a window
of such triples, deciding on the integers alone.
"""

from __future__ import annotations

import re
from functools import cmp_to_key
from math import gcd, isqrt
from operator import attrgetter

ODD = "odd"
EVEN = "even"


class DomainError(ValueError):
    """Input outside the domain of an operation."""


class ParameterError(DomainError):
    """Invalid system parameters (k, parity)."""


class ParseError(DomainError):
    """Malformed field or word literal."""


class _Record:
    """The base of the package's immutable records.  A subclass lists its
    fields in ``__slots__`` and sets them once, in ``__init__``; assigning
    or deleting one later raises AttributeError.  Records of one class are
    equal, and hash alike, when their fields in ``_compared`` are; the repr
    names the fields in ``_shown``, as a frozen dataclass's does.  Both
    default to all the slots."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._shown = cls.__dict__.get("_shown", cls.__slots__)
        cls._key = attrgetter(*cls.__dict__.get("_compared", cls.__slots__))

    def _init(self, *values) -> None:  # the leading fields, in slot order
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__name__}({shown})"


class Params(_Record):
    """The expansion system: digit bound m, base beta, digit classes.

    k >= 1, an int; odd parity means m = 2k+1 with irrational beta, even
    parity means m = 2k with beta = k+1.  D is the discriminant k^2+6k+5
    (odd parity only).  Any other k or parity raises ParameterError.
    Equality reads k and parity; the hash is taken once, for graph lookups.
    """

    __slots__ = ("k", "parity", "m", "D", "_hash", "interval_bound")
    _compared = ("k", "parity")
    _shown = ("k", "parity", "m", "D")

    def __init__(self, k: int, parity: str):
        if type(k) is not int or k < 1:  # a bool k would pass as 0 or 1
            raise ParameterError(f"k must be a positive integer, got {k!r}")
        if parity not in (ODD, EVEN):
            raise ParameterError(f"parity must be 'odd' or 'even', got {parity!r}")
        odd = parity == ODD
        self._init(k, parity, 2 * k + 1 if odd else 2 * k,
                   k * k + 6 * k + 5 if odd else None, hash((k, parity)))
        # interval_bound, m/(beta-1): beta-k for odd parity, 2 for even parity
        top = FieldElem(self, 1, -k, 1) if odd else FieldElem(self, 0, 2, 1)
        object.__setattr__(self, "interval_bound", top)

    def __hash__(self):
        return self._hash

    def in_small(self, d: int) -> bool:
        return 0 <= d <= self.k

    def in_big(self, d: int) -> bool:
        return self.k + 1 <= d <= self.m

    @property
    def beta(self) -> "FieldElem":
        return FieldElem(self, 1, 0, 1)  # folded to k+1 in even parity

    @property
    def zero(self) -> "FieldElem":
        return FieldElem(self, 0, 0, 1)

    @property
    def one(self) -> "FieldElem":
        return FieldElem(self, 0, 1, 1)

    def from_int(self, n: int) -> "FieldElem":
        return FieldElem(self, 0, n, 1)

    def from_rational(self, num: int, den: int) -> "FieldElem":
        return FieldElem(self, 0, num, den)


def make_params(k: int, parity: str) -> Params:
    return Params(k, parity)


def times_beta(p: int, q: int, params: Params) -> tuple[int, int]:
    """The pair of beta*(p*beta + q): beta^2 = (k+1)(beta+1) in odd parity,
    beta = k+1 (and p = 0) in even parity."""
    k1 = params.k + 1
    if params.parity == ODD:
        return p * k1 + q, p * k1
    return 0, q * k1


def sign_pq(p: int, q: int, params: Params) -> int:
    """Sign of p*beta + q (p = 0 in even parity), by integer case analysis."""
    if p == 0:
        return (q > 0) - (q < 0)
    # p*beta+q = (U + V*sqrt(D))/2 with U = p(k+1)+2q, V = p.
    U = p * (params.k + 1) + 2 * q
    V = p
    if U >= 0 and V >= 0:
        return 1
    if U <= 0 and V <= 0:
        return -1
    lhs, rhs = U * U, V * V * params.D
    if U > 0:  # V < 0
        return 1 if lhs > rhs else -1
    return 1 if rhs > lhs else -1  # U < 0, V > 0


def floor_pq(p: int, q: int, r: int, params: Params) -> int:
    """floor((p*beta + q)/r) for r > 0 (p = 0 in even parity), exactly."""
    if p == 0:
        return q // r
    # 2(p*beta+q) = U + p*sqrt(D) with U = p(k+1)+2q.  D = (k+3)^2 - 4 is
    # never a square, so p*sqrt(D) lies strictly between two integers and
    # the floor of the sum over 2r is the floor of the lower one over 2r.
    U = p * (params.k + 1) + 2 * q
    s = isqrt(p * p * params.D)
    return (U + s) // (2 * r) if p > 0 else (U - s - 1) // (2 * r)


class FieldElem(_Record):
    """An exact element (p*beta + q)/r of Q(beta), canonically reduced."""

    __slots__ = ("params", "p", "q", "r")

    def __init__(self, params: Params, p: int, q: int, r: int = 1):
        if r == 0:
            raise ZeroDivisionError("FieldElem denominator is zero")
        if params.parity == EVEN and p != 0:
            # beta is the integer k+1: fold the beta coefficient away.
            q += p * (params.k + 1)
            p = 0
        if r < 0:
            p, q, r = -p, -q, -r
        g = gcd(p, q, r)
        if g > 1:
            p, q, r = p // g, q // g, r // g
        init = object.__setattr__
        init(self, "params", params)
        init(self, "p", p)
        init(self, "q", q)
        init(self, "r", r)

    def __eq__(self, other):
        if other.__class__ is not FieldElem:
            return NotImplemented
        return (self.p == other.p and self.q == other.q and self.r == other.r
                and (self.params is other.params or self.params == other.params))

    def __hash__(self):
        return hash((self.params._hash, self.p, self.q, self.r))

    # -- ring operations -------------------------------------------------

    def _check_same(self, other: "FieldElem") -> None:
        if self.params is not other.params and self.params != other.params:
            raise DomainError("operands belong to different systems")

    def __add__(self, other):
        if isinstance(other, int):
            other = self.params.from_int(other)
        self._check_same(other)
        return FieldElem(
            self.params,
            self.p * other.r + other.p * self.r,
            self.q * other.r + other.q * self.r,
            self.r * other.r,
        )

    __radd__ = __add__

    def __neg__(self):
        return FieldElem(self.params, -self.p, -self.q, self.r)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return FieldElem(self.params, self.p * other, self.q * other, self.r)
        self._check_same(other)
        # (a*beta+b)(c*beta+d) = ac*beta^2 + (ad+bc)*beta + bd
        a, b, c, d = self.p, self.q, other.p, other.q
        p, q = times_beta(a * c, 0, self.params)
        return FieldElem(self.params, p + a * d + b * c, q + b * d, self.r * other.r)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            return FieldElem(self.params, self.p, self.q, self.r * other)
        self._check_same(other)
        return self * other.inverse()

    def inverse(self) -> "FieldElem":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        k1 = self.params.k + 1
        p, q, r = self.p, self.q, self.r
        # conjugate of p*beta+q is -p*beta + p*(k+1)+q; the norm is an integer.
        norm = -p * p * k1 + p * q * k1 + q * q
        return FieldElem(self.params, -p * r, (p * k1 + q) * r, norm)

    def mul_beta(self) -> "FieldElem":
        """Exact multiplication by beta."""
        return FieldElem(self.params, *times_beta(self.p, self.q, self.params), self.r)

    def div_beta(self) -> "FieldElem":
        """Exact division by beta via 1/beta = (beta-(k+1))/(k+1)."""
        k1 = self.params.k + 1
        if self.params.parity == EVEN:
            return FieldElem(self.params, 0, self.q, self.r * k1)
        return FieldElem(self.params, self.q, k1 * (self.p - self.q), self.r * k1)

    # -- ordering --------------------------------------------------------

    def sign(self) -> int:
        """Sign of the value, by integer case analysis only."""
        return sign_pq(self.p, self.q, self.params)

    def is_zero(self) -> bool:
        return self.p == 0 and self.q == 0

    def compare(self, other) -> int:
        """Sign of self - other, an element or an int: the sign of the
        cross-multiplied numerator (p1*r2 - p2*r1)*beta + (q1*r2 - q2*r1),
        since both denominators are positive; no element is built."""
        if isinstance(other, int):
            return sign_pq(self.p, self.q - other * self.r, self.params)
        self._check_same(other)
        r1, r2 = self.r, other.r
        return sign_pq(self.p * r2 - other.p * r1, self.q * r2 - other.q * r1, self.params)

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    def __repr__(self):
        return f"FieldElem({format_field(self)!r}, k={self.params.k}, {self.params.parity})"


def fe_membership(x: FieldElem) -> bool:
    """Whether x is (p*beta+q)/(k+1)^n for some integers p, q, n.

    After reduction this holds exactly when every prime factor of the
    denominator divides k+1.  Only defined strictly inside the expansion
    interval; endpoints are the classifier's business.
    """
    params = x.params
    if x.sign() <= 0 or x >= params.interval_bound:
        raise DomainError("membership is defined on the open expansion interval")
    return split_denominator(x.r, params.k + 1)[1] == 1


def split_denominator(r: int, base: int) -> tuple[int, int]:
    """(n, c) with c the part of r coprime to base and n the least exponent
    with r/c dividing base^n: the number of times gcd(r, base) is stripped
    before it is 1."""
    n, c = 0, r
    g = gcd(c, base)
    while g > 1:
        c //= g
        n += 1
        g = gcd(c, base)
    return n, c


# -- census window -------------------------------------------------------

# Most candidate (p, q, r) triples a census window may hold.
CENSUS_WINDOW_BUDGET = 250_000


def census_elements(params: Params, den_bound: int, num_bound: int) -> list[FieldElem]:
    """Canonical field elements strictly inside the expansion interval with
    denominator <= den_bound and |p|, |q| <= num_bound, sorted by value.
    A window of more than ``CENSUS_WINDOW_BUDGET`` candidate triples is
    refused before any element is built.

    Everything is decided on the integer triples (p, q, r).  Each value in
    the window has exactly one reduced triple there (beta is irrational in
    odd parity, and p = 0 in even parity), so the points are the triples
    with gcd(p, q, r) = 1.  A triple is interior when p*beta + q and
    r*(tp*beta + tq) - (p*beta + q) are positive, for the interval bound
    tp*beta + tq (its denominator is 1), and triples are sorted by the sign
    of their cross-products; a ``FieldElem`` is built only for each
    survivor."""
    q_range = range(-num_bound, num_bound + 1)
    p_range = q_range if params.parity == ODD else (0,)
    window = max(den_bound, 0) * len(p_range) * len(q_range)
    if window > CENSUS_WINDOW_BUDGET:
        raise DomainError(f"census window of {window} candidates is over the "
                          f"window budget of {CENSUS_WINDOW_BUDGET}")
    tp, tq = params.interval_bound.p, params.interval_bound.q  # over r = 1
    triples = [(p, q, r) for r in range(1, den_bound + 1) for p in p_range for q in q_range
               if gcd(p, q, r) == 1 and sign_pq(p, q, params) > 0
               and sign_pq(tp * r - p, tq * r - q, params) > 0]
    triples.sort(key=cmp_to_key(lambda a, b: sign_pq(a[0] * b[2] - b[0] * a[2],
                                                     a[1] * b[2] - b[1] * a[2], params)))
    return [FieldElem(params, p, q, r) for p, q, r in triples]


# -- text literals -------------------------------------------------------

# a denominator is a positive integer, so 3/0 is malformed
_RAT_RE = re.compile(r"^([+-]?\d+)(?:/(0*[1-9]\d*))?$")
_SURD_RE = re.compile(r"^\(([+-]?\d+)([+-]\d+)\*b\)(?:/(0*[1-9]\d*))?$")


def parse_field(text: str, params: Params) -> FieldElem:
    """Parse a literal like ``(1+1*b)/6``, ``(0+1*b)/2`` or ``3/4``."""
    text = text.strip()
    m = _RAT_RE.match(text) or _SURD_RE.match(text)
    if not m:
        raise ParseError(f"malformed field literal: {text!r}")
    try:
        ints = [int(g or 1) for g in m.groups()]
    except ValueError:  # past the interpreter's limit on digits per int
        raise ParseError("a number in the field literal has too many digits") from None
    if m.re is _RAT_RE:
        num, den = ints
        return FieldElem(params, 0, num, den)
    const, coeff, den = ints
    return FieldElem(params, coeff, const, den)


def format_field(x: FieldElem) -> str:
    if x.p == 0:
        return f"{x.q}" if x.r == 1 else f"{x.q}/{x.r}"
    body = f"({x.q}{x.p:+d}*b)"
    return body if x.r == 1 else f"{body}/{x.r}"
