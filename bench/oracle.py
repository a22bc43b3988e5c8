"""Exact oracle for the benchmark, written independently of ``goldenbeta``.

Nothing here imports the package under test.  A number of Q(beta) is kept
as a numerator in Z[beta] -- an integer pair (a, b) meaning a*beta + b --
over a positive integer denominator; every test is an integer computation.

Odd parity (m = 2k+1): beta^2 = (k+1)(beta+1), beta = (k+1+sqrt(D))/2 with
D = k^2+6k+5, expansion interval [0, beta-k].  Even parity (m = 2k): beta
is the integer k+1 and the interval is [0, 2]; pairs are kept with a = 0.

Plain data only crosses this boundary: a point is (p, q, r) for
(p*beta+q)/r, a finite word is (int_part, digits), an eventually periodic
word is (int_part, preperiod, period).
"""

from __future__ import annotations

import re
from functools import cmp_to_key
from math import gcd

COUNTABLE = "CountablyInfinite"
CONTINUUM = "Continuum"


def _primes_of(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class System:
    """One expansion system (k, parity) and its integer arithmetic."""

    def __init__(self, k: int, parity: str):
        self.k, self.k1, self.parity = k, k + 1, parity
        self.odd = parity == "odd"
        self.m = 2 * k + 1 if self.odd else 2 * k
        self.D = k * k + 6 * k + 5

    # -- Z[beta] -----------------------------------------------------------

    def sign(self, a: int, b: int) -> int:
        """Sign of a*beta + b."""
        if not self.odd:
            v = a * self.k1 + b
            return (v > 0) - (v < 0)
        # 2(a*beta+b) = U + a*sqrt(D)
        u = a * self.k1 + 2 * b
        if u >= 0 and a >= 0:
            return 0 if u == 0 and a == 0 else 1
        if u <= 0 and a <= 0:
            return -1
        if u > 0:
            return 1 if u * u > a * a * self.D else -1
        return 1 if a * a * self.D > u * u else -1

    def times_beta(self, a: int, b: int) -> tuple[int, int]:
        if not self.odd:
            return 0, (a * self.k1 + b) * self.k1
        return a * self.k1 + b, a * self.k1

    def mul(self, x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
        a, b = x
        c, d = y
        if not self.odd:
            return 0, (a * self.k1 + b) * (c * self.k1 + d)
        ac = a * c * self.k1
        return ac + a * d + b * c, ac + b * d

    def beta_pow(self, n: int) -> tuple[int, int]:
        acc = (0, 1)
        for _ in range(n):
            acc = self.times_beta(*acc)
        return acc

    # -- points ------------------------------------------------------------

    def reduce(self, p: int, q: int, r: int) -> tuple[int, int, int]:
        if not self.odd:
            p, q = 0, q + p * self.k1
        if r < 0:
            p, q, r = -p, -q, -r
        g = gcd(gcd(p, q), r)
        return p // g, q // g, r // g

    def interior(self, x: tuple[int, int, int]) -> bool:
        p, q, r = x
        return self.sign(p, q) > 0 and self.below_top(p, q, r, strict=True)

    def below_top(self, a: int, b: int, r: int, strict: bool) -> bool:
        """(a*beta+b)/r below the interval's top, m/(beta-1)."""
        if self.odd:  # top = beta - k
            s = self.sign(r - a, -self.k * r - b)
        else:  # top = 2
            s = 2 * r - (a * self.k1 + b)
            s = (s > 0) - (s < 0)
        return s > 0 if strict else s >= 0

    def compare(self, x, y) -> int:
        (p1, q1, r1), (p2, q2, r2) = x, y
        return self.sign(p1 * r2 - p2 * r1, q1 * r2 - q2 * r1)

    def is_member(self, r: int) -> bool:
        """(p*beta+q)/r with r reduced is (p'*beta+q')/(k+1)^n."""
        return all(self.k1 % f == 0 for f in _primes_of(r))

    def verdict(self, x) -> str:
        return COUNTABLE if self.is_member(x[2]) else CONTINUUM

    def window(self, dens, p_bound: int, q_lo: int, q_hi: int) -> list:
        """Distinct reduced interior points (p*beta+q)/r, r in dens,
        |p| <= p_bound (p = 0 in even parity), q_lo <= q <= q_hi."""
        seen, out = set(), []
        ps = range(-p_bound, p_bound + 1) if self.odd else (0,)
        for r in dens:
            for p in ps:
                for q in range(q_lo, q_hi + 1):
                    x = self.reduce(p, q, r)
                    if x not in seen:
                        seen.add(x)
                        if self.interior(x):
                            out.append(x)
        return out

    def census_points(self, den_bound: int, num_bound: int) -> list:
        """Interior points with denominator <= den_bound and |p|, |q| <=
        num_bound, ordered by value."""
        pts = self.window(range(1, den_bound + 1), num_bound, -num_bound, num_bound)
        return sorted(pts, key=cmp_to_key(self.compare))

    # -- words -------------------------------------------------------------

    def _horner(self, lead: int, digits) -> tuple[int, int]:
        acc = (0, lead)
        for d in digits:
            a, b = self.times_beta(*acc)
            acc = (a, b + d)
        return acc

    def word_fraction(self, w) -> tuple[tuple[int, int], tuple[int, int]]:
        """Value of a word as numerator/denominator, both in Z[beta]."""
        if len(w) == 2:
            ip, digits = w
            return self._horner(ip, digits), self.beta_pow(len(digits))
        ip, pre, per = w
        bl = self.beta_pow(len(per))
        bl1 = (bl[0], bl[1] - 1)
        head = self._horner(ip, pre)
        tail = self._horner(0, per)
        num = self.mul(head, bl1)
        num = (num[0] + tail[0], num[1] + tail[1])
        return num, self.mul(self.beta_pow(len(pre)), bl1)

    def point_fraction(self, x) -> tuple[tuple[int, int], tuple[int, int]]:
        p, q, r = x
        return (p, q), (0, r)

    def equal(self, f, g) -> bool:
        return self.mul(f[0], g[1]) == self.mul(g[0], f[1])

    def scale(self, f, c: tuple[int, int]):
        """f times the Z[beta] element c."""
        return self.mul(f[0], c), f[1]

    def add(self, f, g):
        n1 = self.mul(f[0], g[1])
        n2 = self.mul(g[0], f[1])
        return (n1[0] + n2[0], n1[1] + n2[1]), self.mul(f[1], g[1])

    def digits_valid(self, digits) -> bool:
        return all(0 <= d <= self.m for d in digits)

    def word_below(self, w, x) -> bool:
        """value(w) < x for a point x = (p, q, r)."""
        (a, b), (c, d) = self.word_fraction(w)
        p, q, r = x
        # value(w) = (a*beta+b)/(c*beta+d) with c*beta+d > 0
        lhs = self.mul((a, b), (0, r))
        rhs = self.mul((p, q), (c, d))
        return self.sign(rhs[0] - lhs[0], rhs[1] - lhs[1]) > 0


class Orbit:
    """Remainders of one point x = (p*beta+q)/r under the branching step.

    After d digits the remainder is beta^d*(x - value(prefix)); with the
    denominator r fixed it is the numerator pair alone, so states are
    integer pairs and the valid moves of each state are memoised.
    """

    def __init__(self, sys_: System, x):
        self.s = sys_
        p, q, self.r = x
        self.start = (p, q)
        self._moves: dict[tuple[int, int], dict[int, tuple[int, int]]] = {}

    def moves(self, state) -> dict[int, tuple[int, int]]:
        got = self._moves.get(state)
        if got is None:
            s, r = self.s, self.r
            a, b = s.times_beta(*state)
            got = {}
            for e in range(s.m + 1):
                b2 = b - e * r
                if s.sign(a, b2) >= 0 and s.below_top(a, b2, r, strict=False):
                    got[e] = (a, b2)
            self._moves[state] = got
        return got

    def counts(self, depth: int, until: int | None = None) -> list[int]:
        """Number of valid prefixes at every depth 0..depth, stopping early
        after the first depth d with count * d >= ``until``."""
        level = {self.start: 1}
        out = [1]
        for _ in range(depth):
            if until is not None and out[-1] * (len(out) - 1) >= until:
                break
            nxt: dict = {}
            for st, n in level.items():
                for st2 in self.moves(st).values():
                    nxt[st2] = nxt.get(st2, 0) + n
            level = nxt
            out.append(sum(level.values()))
        return out

    def all_valid(self, prefixes) -> bool:
        """Every prefix is valid; walks them in sorted order and reuses the
        remainders of the common part with the previous prefix."""
        known = self._moves
        path = [self.start]
        prev: tuple = ()
        for pfx in sorted(prefixes):
            lcp, hi = 0, min(len(prev), len(pfx))
            while lcp < hi:  # longest common prefix, by bisection
                mid = (lcp + hi + 1) // 2
                if prev[:mid] == pfx[:mid]:
                    lcp = mid
                else:
                    hi = mid - 1
            del path[lcp + 1:]
            st = path[-1]
            for e in pfx[lcp:]:
                got = known.get(st)
                st = (self.moves(st) if got is None else got).get(e)
                if st is None:
                    return False
                path.append(st)
            prev = pfx
        return True


# -- checks on package outputs, in plain data --------------------------------

def check_certificate(s: System, x, word) -> bool:
    """A member's certificate: valid digits and exactly the value x."""
    ip, digits = word
    return ip == 0 and s.digits_valid(digits) and s.equal(
        s.word_fraction(word), s.point_fraction(x))


def check_continuum(s: System, x, den: int, prime: int) -> bool:
    return (den == x[2] and prime in _primes_of(x[2])
            and s.k1 % prime != 0)


def check_witnesses(s: System, x, ws, depth: int, budget: int) -> bool:
    """``budget`` pairwise-distinct valid prefixes of one length >= depth."""
    if len(ws) != budget or len(set(ws)) != budget:
        return False
    length = len(ws[0])
    if length < depth or any(len(w) != length for w in ws):
        return False
    return Orbit(s, x).all_valid(ws)


def check_prefix_listing(s: System, x, depth: int, count: int, prefixes) -> bool:
    """An enumerate listing: the exact count, strictly increasing, all
    valid and of the requested length."""
    orbit = Orbit(s, x)
    if count != orbit.counts(depth)[-1] or len(prefixes) != count:
        return False
    if any(len(p) != depth for p in prefixes):
        return False
    if any(a >= b for a, b in zip(prefixes, prefixes[1:])):
        return False
    return orbit.all_valid(prefixes)


_FIELD_RE = re.compile(r"^(?:([+-]?\d+)|\(([+-]?\d+)([+-]\d+)\*b\))(?:/(\d+))?$")
_WORD_RE = re.compile(r"^(\d+)\.((?:\d+(?:,\d+)*)?)$")


def parse_point(s: System, text: str):
    m = _FIELD_RE.match(text)
    if not m:
        raise ValueError(f"unreadable field literal {text!r}")
    den = int(m.group(4) or 1)
    if m.group(1) is not None:
        return s.reduce(0, int(m.group(1)), den)
    return s.reduce(int(m.group(3)), int(m.group(2)), den)


def parse_finite_word(text: str):
    m = _WORD_RE.match(text)
    if not m:
        raise ValueError(f"unreadable finite word {text!r}")
    digits = tuple(int(t) for t in m.group(2).split(",")) if m.group(2) else ()
    return int(m.group(1)), digits
