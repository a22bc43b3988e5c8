"""Expansion enumeration, synthesis, and the countable/continuum classifier.

A depth-d prefix of an expansion of x is valid exactly when its remainder
beta^d*(x - value(prefix)) stays inside [0, m/(beta-1)].  ``_step`` alone
decides that test, on the integer pair (p, q) of a remainder (p*beta+q)/r;
every remainder of x keeps x's denominator r.  The remainder and its Galois
conjugate are both bounded, so x reaches finitely many pairs: its remainder
graph, with edges labelled by digits.  ``_graph`` builds it lazily and
memoises it, branching each pair once; the number of valid prefixes at a
depth is the number of paths of that length out of x, a dynamic program over
the graph.  Each remainder in the interval admits a digit, so the graph has
no dead ends and a lexicographic walk may stop after its first prefixes.
Points of the distinguished set (denominator a power of k+1) get finite
expansion certificates; all other interior points get finite-depth branch
witnesses, the first prefixes of the same walk at a depth with enough of them.
No call accepts a depth over ``DEPTH_BUDGET``.
"""

from __future__ import annotations

import logging
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import islice

from .algebra import (
    IN_F,
    IN_S,
    ODD,
    DomainError,
    FieldElem,
    Params,
    fe_membership,
    sign_pq,
    times_beta,
)
from .fseq import decompose_F, f_seq
from .words import DigitWord, EvPeriodicWord, word_value
from . import rewrite

log = logging.getLogger(__name__)

COUNTABLY_INFINITE = "CountablyInfinite"
CONTINUUM = "Continuum"
UNIQUE_ENDPOINT = "UniqueEndpoint"

# The branching of one remainder pair: admissible digit -> next pair.
Children = dict[int, tuple[int, int]]


@dataclass(frozen=True)
class Classification:
    verdict: str
    certificate: object  # word, (denominator, offending prime), or endpoint tag


# Most prefixes ``prefixes_at`` lists in one call.
PREFIX_BUDGET = 2 ** 20
# Largest depth any call accepts: the per-depth counts of a continuum point
# grow linearly in digits, so their memory grows with the square of the depth.
DEPTH_BUDGET = 4096
# Most remainders ``synth_finite`` searches before giving up.
NODE_BUDGET = 2_000_000
# Most word additions ``construct_route`` makes before giving up.
TERM_BUDGET = 20_000


@dataclass(frozen=True)
class PrefixTree:
    """The valid prefixes of x up to ``depth``.  ``counts[d]`` is the number
    of paths of length d out of x in its finite remainder graph; the
    prefixes themselves are walked off the memoised graph only when listed."""

    x: FieldElem
    depth: int
    counts: tuple[int, ...] = field(repr=False)
    step: Callable[[int, int], Children] = field(repr=False, compare=False)

    def prefixes_at(self, depth: int | None = None) -> list[tuple[int, ...]]:
        d = self.depth if depth is None else depth
        n = self.count_at(d)
        if n > PREFIX_BUDGET:
            raise DomainError(f"more than {PREFIX_BUDGET} prefixes at depth {d}, "
                              "over the listing budget")
        return list(_walk(self.x, d, self.step))

    def count_at(self, depth: int) -> int:
        if not 0 <= depth <= self.depth:
            raise IndexError(f"depth {depth} outside 0..{self.depth}")
        return self.counts[depth]


def _step(p: int, q: int, r: int, params: Params) -> Children:
    """The admissible digits e at the remainder y = (p*beta+q)/r, ascending,
    each mapped to the pair of beta*y - e over the same r."""
    p, q = times_beta(p, q, params)
    if params.parity == ODD:
        top_p, top_q = r, -params.k * r  # interval_bound = beta - k, times r
    else:
        top_p, top_q = 0, 2 * r
    out = {}
    for e in range(params.m + 1):
        qe = q - e * r
        if sign_pq(p, qe, params) < 0:
            break  # beta*y - e only falls as e grows
        if sign_pq(top_p - p, top_q - qe, params) >= 0:
            out[e] = (p, qe)
    return out


def _graph(x: FieldElem, params: Params) -> Callable[[int, int], Children]:
    """The remainder graph of x, built as it is reached: ``step(p, q)`` is
    ``_step`` over x's denominator, computed once per distinct pair."""
    r = x.r
    memo: dict[tuple[int, int], Children] = {}

    def step(p: int, q: int) -> Children:
        children = memo.get((p, q))
        if children is None:
            children = memo[p, q] = _step(p, q, r, params)
        return children

    return step


def _walk(x: FieldElem, depth: int, step: Callable[[int, int], Children]):
    """The valid prefixes of x of length ``depth``, in lexicographic order: a
    depth-first walk with one digit path and a stack of child iterators, one
    per node on the path (explicit, because witness depths pass the recursion
    limit)."""
    if depth == 0:
        yield ()
        return
    path: list[int] = []
    stack = [iter(step(x.p, x.q).items())]
    while stack:
        for e, y in stack[-1]:
            if len(stack) == depth:
                yield (*path, e)
            else:
                path.append(e)
                stack.append(iter(step(*y).items()))
                break
        else:
            stack.pop()
            if path:
                path.pop()


def _check_depth(depth: int) -> None:
    if depth < 0:
        raise DomainError("depth must be nonnegative")
    if depth > DEPTH_BUDGET:
        raise DomainError(f"depth {depth} over the depth budget of {DEPTH_BUDGET}")


def enumerate_prefixes(x: FieldElem, depth: int, params: Params) -> PrefixTree:
    """The valid prefixes of x up to ``depth``: the number at every depth,
    counted as paths over the remainder graph, and the graph to list them."""
    _check_depth(depth)
    if x.sign() < 0 or x > params.interval_bound:
        raise DomainError("x outside the expansion interval")
    step = _graph(x, params)
    layer = {(x.p, x.q): 1}  # paths of the current length, by end state
    counts = [1]
    for _ in range(depth):
        nxt: dict[tuple[int, int], int] = {}
        for y, n in layer.items():
            for z in step(*y).values():
                nxt[z] = nxt.get(z, 0) + n
        layer = nxt
        counts.append(sum(nxt.values()))
    return PrefixTree(x, depth, tuple(counts), step)


def expansions_of_one(depth: int, params: Params) -> list[EvPeriodicWord]:
    """The complete closed-form family of expansions of 1 (odd parity):
    0.((k+1)k)^j k (2k+1)*, 0.((k+1)k)^j (k+1)(k+1), and 0.((k+1)k)*,
    listed far enough out that depth-``depth`` truncations are exhaustive.
    """
    if params.parity != ODD:
        raise DomainError("the closed-form family exists for odd parity only")
    _check_depth(depth)
    k = params.k
    block = (k + 1, k)
    words: list[EvPeriodicWord] = []
    for j in range(depth // 2 + 2):
        words.append(EvPeriodicWord(0, block * j + (k,), (2 * k + 1,)))
        words.append(EvPeriodicWord(0, block * j + (k + 1, k + 1), (0,)))
    words.append(EvPeriodicWord(0, (), block))
    return words


def synth_finite(x: FieldElem, params: Params) -> DigitWord:
    """Finite word evaluating exactly to x, by breadth-first search over
    exact remainders (deduplicated: the remainder orbit of any point with
    bounded denominator is finite, so the search always halts)."""
    _refuse_nonmember(x)
    seen = {(x.p, x.q)}
    frontier = [((), x.p, x.q)]
    while frontier:
        nxt = []
        for pfx, p, q in frontier:
            for e, y in _step(p, q, x.r, params).items():
                if y in seen:
                    continue
                if y == (0, 0):
                    return DigitWord(0, pfx + (e,))
                seen.add(y)
                nxt.append((pfx + (e,), *y))
                if len(seen) > NODE_BUDGET + 1:  # x itself is not a searched node
                    raise DomainError("finite-expansion search exceeded node budget")
        frontier = nxt
    raise DomainError("remainder orbit exhausted without reaching 0")


def expansion_of_inv_power(n: int, params: Params) -> DigitWord:
    """Finite word for (k+1)^(-n): divide 0.(k+1)(k+1) = 1 by k+1, n times."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    k = params.k
    w = DigitWord(0, (k + 1, k + 1))
    for _ in range(n):
        w = rewrite.div_word_by_k1(w, params)
    return w


def construct_route(x: FieldElem, params: Params) -> DigitWord | None:
    """Constructive synthesis through the F-sequence decomposition.

    Writes x = (p*beta+q)/(k+1)^n, decomposes p greedily over the F_i, and
    assembles the nonnegative terms n_i/(beta^i (k+1)^(n-i)) plus
    M/(k+1)^n by repeated word addition.  Returns None when the assembly
    would need a negative term (the subtraction step the construction
    does not supply) or grows past ``TERM_BUDGET`` additions.
    """
    if params.parity != ODD:
        return None
    k = params.k
    k1 = k + 1
    n, power = 0, 1
    while power % x.r != 0:
        power *= k1
        n += 1
        if n > 64:
            return None  # denominator not supported on k+1
    scale = power // x.r
    p, q = x.p * scale, x.q * scale
    coeffs = decompose_F(k, p).coeffs
    seq = f_seq(k, len(coeffs) + 2)
    M = sum(c * seq[i + 1] for i, c in enumerate(coeffs)) + q
    if M < 0:
        return None
    terms: list[tuple[int, int, int]] = []  # (count, shift, inverse power)
    for i, ni in enumerate(coeffs, start=1):
        if ni == 0:
            continue
        signed = ni if i % 2 == 1 else -ni
        if signed < 0:
            return None
        e = n - i
        count = signed * (k1 ** max(-e, 0))
        terms.append((count, i, max(e, 0)))
    if M + sum(c for c, _, _ in terms) > TERM_BUDGET:
        return None
    acc = DigitWord(0, ())
    base = expansion_of_inv_power(n, params)
    for _ in range(M):
        acc = rewrite.add_words(acc, base, params)
    for count, shift, e in terms:
        piece = expansion_of_inv_power(e, params)
        piece = DigitWord(0, (0,) * shift + piece.digits)
        for _ in range(count):
            acc = rewrite.add_words(acc, piece, params)
    # interior values sit below m/(beta-1) < 2, so at most one borrow is
    # needed to push the integer part back under the point; words shaped
    # 1.k(big)... fall outside the borrow patterns, and the construction
    # gives up on them rather than improvising
    while acc.int_part > 0:
        try:
            acc = rewrite.borrow_T_minus(acc, params)
        except DomainError:
            return None
    if not (word_value(acc, params) - x).is_zero():
        raise AssertionError(f"constructive route lost the value of {x!r}")
    return acc


def _refuse_nonmember(x: FieldElem) -> None:
    if fe_membership(x) not in (IN_S, IN_F):
        raise DomainError("x has no finite expansion; synthesis refused")


def synth_finite_constructive(x: FieldElem, params: Params) -> DigitWord:
    """Like ``synth_finite`` but through the constructive F-sequence route,
    falling back to the search when the construction gives up."""
    _refuse_nonmember(x)
    w = construct_route(x, params)
    if w is not None:
        return w
    log.warning("constructive route gave up on %r; "
                "falling back to search synthesis", x)
    return synth_finite(x, params)


def classify(x: FieldElem, params: Params) -> Classification:
    bound = params.interval_bound
    s = x.sign()
    if s < 0 or x > bound:
        raise DomainError("x outside the closed expansion interval")
    if s == 0:
        return Classification(UNIQUE_ENDPOINT, "0")
    if (x - bound).is_zero():
        return Classification(UNIQUE_ENDPOINT, "m")
    if fe_membership(x) in (IN_S, IN_F):
        return Classification(COUNTABLY_INFINITE, synth_finite(x, params))
    return Classification(CONTINUUM, (x.r, _offending_prime(x.r, params.k + 1)))


def _offending_prime(r: int, base: int) -> int:
    n = r
    d = 2
    while d * d <= n:
        if n % d == 0:
            if base % d != 0:
                return d
            while n % d == 0:
                n //= d
        else:
            d += 1
    if not (n > 1 and base % n != 0):
        raise AssertionError(f"denominator {r} has no prime outside {base}")
    return n


def branch_witness(x: FieldElem, depth: int, budget: int,
                   params: Params) -> list[tuple[int, ...]]:
    """Pairwise-distinct extendable expansion prefixes of x, certifying
    expansion multiplicity at finite depth: the first min(budget,
    2**(depth//3)) prefixes of the lexicographic walk over x's remainder
    graph, at the first depth >= ``depth`` that has that many.  The graph
    has no dead ends, so every listed prefix extends to an expansion."""
    _check_depth(depth)
    if budget < 0:
        raise DomainError("budget must be nonnegative")
    if x.sign() < 0 or x > params.interval_bound:
        raise DomainError("x outside the expansion interval")
    if fe_membership(x) in (IN_S, IN_F):
        raise DomainError("branch witnesses are for points without finite expansions")
    target = min(budget, 2 ** (depth // 3))
    step = _graph(x, params)
    for d in range(depth, 40 * depth + 1):
        leaves = list(islice(_walk(x, d, step), target))
        if len(leaves) == target:
            return leaves
    raise DomainError("prefix tree never reached the witness target")
