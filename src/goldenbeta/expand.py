"""Expansion enumeration, synthesis, and the countable/continuum classifier.

A depth-d prefix of an expansion of x is valid exactly when its remainder
beta^d*(x - value(prefix)) stays inside [0, m/(beta-1)].  ``_step`` alone
decides that test, on the integer pair (p, q) of a remainder (p*beta+q)/r:
the admissible digits form one interval between two exact floors.  Every
remainder of x keeps x's denominator r, so the remainder graph, with pairs
as states and digits as edge labels, depends only on the system and r, and
x is just the state where a walk enters it.  The remainder and its Galois
conjugate are both bounded, so each graph is finite.

There is one graph per denominator, shared across points: ``_graph``
returns it from a module-level cache, states get integer ids, and a
state's (digit, state id) edges are resolved once, when it is first
branched, as is its jump table: its ``_TAIL``-digit words in lexicographic
order, each with the state it ends in.  A lookup evicts the least recently
used graphs over ``GRAPH_STATE_BUDGET``, so the cache holds at most that
bound plus what one query adds.  One lock, a ``_thread`` lock of the type
``threading.Lock()`` returns, guards the cache and the graphs, which
threads may share.  Creating and evicting a graph is logged at DEBUG
through ``logging`` once the program has loaded it; this module never
imports ``logging`` or ``threading`` itself.
Every query walks the same graph: the number of valid prefixes at a depth
is the number of paths of that length out of x, a dynamic program over the
ids; listings and branch witnesses are the first prefixes of one
lexicographic walk, ``_walk`` (each remainder in the interval admits a
digit, so the graph has no dead ends and the walk may stop early), which
alone sizes a listing and refuses one over ``LISTING_BUDGET`` digits
(prefixes times depth); and ``synth_finite`` is a breadth-first search
from x to the state 0.

Points of the distinguished set (denominator a power of k+1) get finite
expansion certificates; all other interior points get finite-depth branch
witnesses.  No call accepts a depth over ``DEPTH_BUDGET``, though
``branch_witness`` may walk up to 40 times the depth it accepts.
"""

from __future__ import annotations

import sys
from _thread import allocate_lock

from .algebra import (
    ODD,
    DomainError,
    FieldElem,
    Params,
    _Record,
    fe_membership,
    floor_pq,
    format_field,
    split_denominator,
    times_beta,
)
from .fseq import decompose_F, f_seq
from .words import DigitWord, EvPeriodicWord, word_value
from . import rewrite


def _debug(msg: str, *args) -> None:
    """Log ``msg % args`` at DEBUG, as if from the caller.  Only a program
    that has loaded ``logging`` can hold a handler to print it, so until one
    has, this is a dict lookup and ``logging`` stays out of a cold start."""
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger(__name__).debug(msg, *args, stacklevel=2)

COUNTABLY_INFINITE = "CountablyInfinite"
CONTINUUM = "Continuum"
UNIQUE_ENDPOINT = "UniqueEndpoint"

# The branching of one remainder pair: admissible digit -> next pair.
Children = dict[int, tuple[int, int]]
# The branching of one graph state: (digit, child state id), ascending.
Edges = tuple[tuple[int, int], ...]
# The jump table of one graph state: its ``_TAIL``-digit words in
# lexicographic order, and the state id each one ends in.
Jumps = tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]


class Classification(_Record):
    # certificate: a word, (denominator, offending prime), or an endpoint tag
    __slots__ = ("verdict", "certificate")

    def __init__(self, verdict: str, certificate: object):
        self._init(verdict, certificate)


# Most digits (prefixes times depth) one listing holds, be it ``prefixes_at``'s
# or one of ``branch_witness``'s attempts; ``_walk`` refuses a larger request.
# The listing's time and memory, and the CLI's output, grow with both.
LISTING_BUDGET = 2 ** 23
# Largest depth any call accepts: the per-depth counts of a continuum point
# grow linearly in digits, so their memory grows with the square of the depth.
DEPTH_BUDGET = 4096
# Most remainders ``synth_finite`` searches before giving up.
NODE_BUDGET = 2_000_000
# Most bits of a denominator ``synth_finite`` searches over: each step's work
# grows with the bits its remainders carry, which ``NODE_BUDGET`` does not
# count (``classify 1/2^n`` at k = 1 on a 2-core VM: n = 2000 took about
# 0.9 s, 4000 3.7 s, 8000 20 s).
DENOMINATOR_BITS_BUDGET = 2048
# Most word additions ``construct_route`` makes before giving up.
TERM_BUDGET = 20_000
# Most remainder-graph states the cache keeps between calls, over all graphs,
# a jump table of n words counting as ceil(n/2) states: a state holds about
# 260 bytes and a word about 120, so the bound is a few MB.
GRAPH_STATE_BUDGET = 10_000
# Largest trial divisor ``classify`` tries while factoring a denominator.
FACTOR_BUDGET = 10 ** 6


class PrefixTree(_Record):
    """The valid prefixes of x up to ``depth``.  ``counts[d]`` is the number
    of paths of length d out of x's state in the shared remainder graph of
    its denominator; the prefixes are walked off that graph only when
    listed.  The tree keeps its graph, so listing works after eviction;
    equality reads x, depth and counts, and the repr x and depth."""

    __slots__ = ("x", "depth", "counts", "graph", "root")
    _compared = ("x", "depth", "counts")
    _shown = ("x", "depth")

    def __init__(self, x: FieldElem, depth: int, counts: tuple[int, ...], graph: _Graph, root: int):
        self._init(x, depth, counts, graph, root)

    def prefixes_at(self, depth: int | None = None) -> list[tuple[int, ...]]:
        d = self.depth if depth is None else depth
        return _walk(self.graph, self.root, d, self.count_at(d))

    def count_at(self, depth: int) -> int:
        if not 0 <= depth <= self.depth:
            raise DomainError(f"depth {depth} outside 0..{self.depth}")
        return self.counts[depth]


def _step(p: int, q: int, r: int, params: Params) -> Children:
    """The admissible digits e at the remainder y = (p*beta+q)/r, ascending,
    each mapped to the pair of beta*y - e over the same r: the e with
    0 <= beta*y - e <= m/(beta-1), from one floor for each side."""
    p, q = times_beta(p, q, params)
    top = params.interval_bound  # m/(beta-1), whose denominator is 1
    lo = -floor_pq(top.p * r - p, top.q * r - q, r, params)  # least e with beta*y - e <= top
    hi = floor_pq(p, q, r, params)  # greatest e with beta*y - e >= 0
    out: Children = {}
    # a loop, not a comprehension: the interval holds at most three digits,
    # and a comprehension's own frame costs more than filling them
    for e in range(lo if lo > 0 else 0, (hi if hi < params.m else params.m) + 1):
        out[e] = (p, q - e * r)
    return out


class _Graph:
    """The remainder graph over one denominator r: state ids by pair, and
    for each id its edges and its jump table, each ``None`` until first
    needed.  State 0 is the remainder 0, where every finite expansion ends."""

    __slots__ = ("params", "r", "ids", "pairs", "edges", "jumps", "cache")

    def __init__(self, params: Params, r: int, cache: _Cache):
        self.params = params
        self.r = r
        self.ids: dict[tuple[int, int], int] = {}
        self.pairs: list[tuple[int, int]] = []
        self.edges: list[Edges | None] = []
        self.jumps: list[Jumps | None] = []
        self.cache: _Cache | None = cache  # None once evicted
        self.state((0, 0))

    def state(self, pair: tuple[int, int]) -> int:
        """The id of ``pair``, interned on first sight; call with ``_LOCK``
        held."""
        i = self.ids.get(pair)
        if i is None:
            i = self.ids[pair] = len(self.pairs)
            self.pairs.append(pair)
            self.edges.append(None)
            self.jumps.append(None)
            if self.cache is not None:
                self.cache.states += 1
        return i

    def branch(self, i: int) -> Edges:
        with _LOCK:
            out = self.edges[i]
            if out is None:
                children = _step(*self.pairs[i], self.r, self.params)
                out = self.edges[i] = tuple([(e, self.state(y)) for e, y in children.items()])
        return out

    def words(self, i: int, n: int) -> list[tuple[tuple[int, ...], int]]:
        """The n-digit words out of state i in lexicographic order, each with
        the state it ends in, built one level at a time."""
        edges = self.edges
        level: list[tuple[tuple[int, ...], int]] = [((), i)]
        for _ in range(n):
            level = [(w + (e,), j) for w, s in level for e, j in edges[s] or self.branch(s)]
        return level

    def jump(self, i: int) -> Jumps:
        """State i's jump table, built on first use and counted in the cache
        as one state per two words."""
        words = self.words(i, _TAIL)
        with _LOCK:
            out = self.jumps[i]
            if out is None:  # no other thread built it meanwhile
                out = self.jumps[i] = tuple(zip(*words))
                if self.cache is not None:
                    self.cache.states += (len(words) + 1) // 2
                    self.cache.words += len(words)
        return out


class _Cache:
    """The shared graphs by (params, denominator), least recently used
    first, what they count toward the bound, and their jump words."""

    __slots__ = ("graphs", "states", "words")

    def __init__(self):
        self.graphs: dict[tuple[Params, int], _Graph] = {}
        self.states = 0
        self.words = 0


_CACHE = _Cache()
# Guards the cache and its graphs, which threads share: interning a state is
# a check-then-act.  A resolved edge tuple or jump table never changes, so
# reading one needs no lock.
_LOCK = allocate_lock()  # the type threading.Lock() returns


def _graph(x: FieldElem, params: Params) -> tuple[_Graph, int]:
    """The shared remainder graph over x's denominator, and x's state in it.
    Before returning them, evict least recently used graphs (this one last)
    until the cache holds at most ``GRAPH_STATE_BUDGET`` states."""
    r = x.r
    key = (params, r)
    cache = _CACHE
    graphs = cache.graphs
    with _LOCK:
        g = graphs.pop(key, None)
        if g is not None:
            graphs[key] = g
        while cache.states > GRAPH_STATE_BUDGET:
            old = graphs.pop(next(iter(graphs)))
            old.cache = None
            sizes = [len(t[0]) for t in old.jumps if t is not None]
            cache.states -= len(old.pairs) + sum([(n + 1) // 2 for n in sizes])
            cache.words -= sum(sizes)
            _debug("evicted the remainder graph of r=%d (k=%d, %s): %d states, "
                   "%d jump words", old.r, old.params.k, old.params.parity,
                   len(old.pairs), sum(sizes))
        g = graphs.get(key)
        if g is None:
            g = graphs[key] = _Graph(params, r, cache)
            _debug("created the remainder graph of r=%d (k=%d, %s); "
                   "the cache counts %d states toward its bound and holds "
                   "%d jump words in %d graphs",
                   r, params.k, params.parity, cache.states, cache.words, len(graphs))
        root = g.state((x.p, x.q))
    return g, root


# The length of the words in a jump table: ``_walk`` descends this many
# digits at a time.
_TAIL = 4


def _walk(g: _Graph, root: int, depth: int, limit: int) -> list[tuple[int, ...]]:
    """The first ``limit`` valid prefixes of length ``depth`` out of state
    ``root``, in lexicographic order.  A depth-first walk with one digit
    path and a stack of word iterators (explicit, because witness depths
    pass the recursion limit) reads a head of depth % ``_TAIL`` digits,
    then descends by jumps, ``_TAIL`` digits at a time, off the graph's
    jump tables; each state it reaches one jump short of ``depth`` emits
    its subtree at once, as the path joined with each word of its table,
    sliced to what ``limit`` still allows.  A depth under ``_TAIL`` lists
    the root's words directly.  A request for over ``LISTING_BUDGET``
    digits (``limit`` times ``depth``) is refused first."""
    if limit * depth > LISTING_BUDGET:
        raise DomainError(f"listing at depth {depth} is over the listing budget "
                          f"of {LISTING_BUDGET} digits")
    base = depth - _TAIL
    if base < 0:
        return [w for w, _ in g.words(root, depth)][:limit]
    jumps = g.jumps
    out: list[tuple[int, ...]] = []
    path: list[int] = []
    # the head is shorter than a jump and starts the path, so dropping the
    # last ``_TAIL`` digits undoes the head or a jump alike
    stack = [iter(g.words(root, depth % _TAIL))]
    while stack:
        for w, j in stack[-1]:
            path += w
            if len(path) < base:
                stack.append(zip(*(jumps[j] or g.jump(j))))
                break
            pt = tuple(path)
            out += [pt + v for v in (jumps[j] or g.jump(j))[0][:limit - len(out)]]
            del path[-_TAIL:]
            if len(out) >= limit:
                return out
        else:
            stack.pop()
            del path[-_TAIL:]
    return out


def _check_depth(depth: int) -> None:
    if depth < 0:
        raise DomainError("depth must be nonnegative")
    if depth > DEPTH_BUDGET:
        raise DomainError(f"depth {depth} over the depth budget of {DEPTH_BUDGET}")


def enumerate_prefixes(x: FieldElem, depth: int, params: Params) -> PrefixTree:
    """The valid prefixes of x up to ``depth``: the number at every depth,
    counted as paths over the remainder graph, and the graph to list them."""
    _check_depth(depth)
    _endpoint(x, params)
    g, root = _graph(x, params)
    edges = g.edges
    layer = {root: 1}  # paths of the current length, by end state
    counts = [1]
    for _ in range(depth):
        nxt: dict[int, int] = {}
        for i, n in layer.items():
            for _, j in edges[i] or g.branch(i):
                nxt[j] = nxt.get(j, 0) + n
        layer = nxt
        counts.append(sum(nxt.values()))
    return PrefixTree(x, depth, tuple(counts), g, root)


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
    """Finite word evaluating exactly to x: the lexicographically first of
    the shortest paths from x to the state 0, by breadth-first search over
    x's remainder graph (finite, so the search always halts)."""
    _refuse_nonmember(x, params)
    if x.r.bit_length() > DENOMINATOR_BITS_BUDGET:
        raise DomainError(f"denominator of {x.r.bit_length()} bits is over the "
                          f"denominator budget of {DENOMINATOR_BITS_BUDGET} bits")
    g, root = _graph(x, params)
    edges = g.edges
    seen = {root}
    frontier: list[tuple[tuple[int, ...], int]] = [((), root)]
    while frontier:
        nxt = []
        for pfx, i in frontier:
            for e, j in edges[i] or g.branch(i):
                if j in seen:
                    continue
                if j == 0:  # the remainder 0
                    return DigitWord(0, pfx + (e,))
                seen.add(j)
                nxt.append((pfx + (e,), j))
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
    assembles M/(k+1)^n and then the terms n_i/(beta^i (k+1)^(n-i)), all
    nonnegative, by repeated word addition.  Returns None in even parity; for
    a denominator not a power of k+1, or past (k+1)^64; when the assembly
    needs a negative term (a subtraction it does not supply) or more than
    ``TERM_BUDGET`` additions; and when its last borrow meets a word shaped
    1.k(big)..., which no borrow pattern covers.
    """
    if params.parity != ODD:
        return None
    k = params.k
    k1 = k + 1
    n, c = split_denominator(x.r, k1)
    if c != 1 or n > 64:
        return None  # denominator not supported on k+1
    scale = k1 ** n // x.r
    p, q = x.p * scale, x.q * scale
    coeffs = decompose_F(k, p).coeffs
    seq = f_seq(k, len(coeffs) + 2)
    M = sum(c * seq[i + 1] for i, c in enumerate(coeffs)) + q
    terms = [(M, 0, n)]  # (count, shift, inverse power), M/(k+1)^n first
    for i, ni in enumerate(coeffs, start=1):
        e = n - i
        terms.append(((ni if i % 2 == 1 else -ni) * k1 ** max(-e, 0), i, max(e, 0)))
    counts = [c for c, _, _ in terms]
    if min(counts) < 0 or sum(counts) > TERM_BUDGET:
        return None
    acc = DigitWord(0, ())
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
    if word_value(acc, params) != x:
        raise AssertionError(f"constructive route lost the value of {x!r}")
    return acc


def _endpoint(x: FieldElem, params: Params) -> str | None:
    """Where x lies in [0, m/(beta-1)]: the tag ``"0"`` or ``"m"`` of the end
    it is, ``None`` inside; outside, a ``DomainError``."""
    s = x.sign()
    top = x.compare(params.interval_bound)
    if s < 0 or top > 0:
        raise DomainError("x outside the expansion interval")
    if s == 0:
        return "0"
    return "m" if top == 0 else None


def _refuse_nonmember(x: FieldElem, params: Params) -> None:
    if _endpoint(x, params) is not None:
        raise DomainError(f"x = {format_field(x)} is an endpoint of the expansion "
                          "interval; synthesis refused")
    if not fe_membership(x):
        raise DomainError("x has no finite expansion; synthesis refused")


def synth_finite_constructive(x: FieldElem, params: Params) -> DigitWord:
    """Like ``synth_finite`` but through the constructive F-sequence route,
    falling back to the search when the construction gives up."""
    _refuse_nonmember(x, params)
    w = construct_route(x, params)
    if w is not None:
        return w
    _debug("constructive route gave up on %r; falling back to search synthesis", x)
    return synth_finite(x, params)


def classify(x: FieldElem, params: Params) -> Classification:
    end = _endpoint(x, params)
    if end is not None:
        return Classification(UNIQUE_ENDPOINT, end)
    if fe_membership(x):
        return Classification(COUNTABLY_INFINITE, synth_finite(x, params))
    return Classification(CONTINUUM, (x.r, _offending_prime(x.r, params.k + 1)))


def _offending_prime(r: int, base: int) -> int:
    """The least prime of r that does not divide base: trial division, with
    divisors up to ``FACTOR_BUDGET``, of the part of r coprime to base."""
    n = split_denominator(r, base)[1]
    if n == 1:
        raise AssertionError(f"denominator {r} has no prime outside {base}")
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        if d >= FACTOR_BUDGET:
            raise DomainError(f"no prime of the denominator {r} outside {base} found by "
                              f"trial division up to the factoring budget of {FACTOR_BUDGET}")
        d += 1
    return n


def branch_witness(x: FieldElem, depth: int, budget: int,
                   params: Params) -> list[tuple[int, ...]]:
    """Pairwise-distinct extendable expansion prefixes of x, certifying
    expansion multiplicity at finite depth: the first min(budget,
    2**(depth//3)) prefixes of the lexicographic walk over x's remainder
    graph, at the first depth from ``depth`` to 40 * ``depth`` that has that
    many.  The graph has no dead ends, so every listed prefix extends to an
    expansion.  Each attempt is a listing, refused over ``LISTING_BUDGET``."""
    _check_depth(depth)
    if budget < 0:
        raise DomainError("budget must be nonnegative")
    _endpoint(x, params)  # an end is refused by fe_membership's own guard
    if fe_membership(x):
        raise DomainError("branch witnesses are for points without finite expansions")
    target = min(budget, 2 ** (depth // 3))
    g, root = _graph(x, params)
    for d in range(depth, 40 * depth + 1):
        leaves = _walk(g, root, d, target)
        if len(leaves) == target:
            return leaves
    raise DomainError("prefix tree never reached the witness target")
