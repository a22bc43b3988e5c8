"""Enumeration, synthesis, classification, branch witnesses."""

import logging
import re
import sys
import threading
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from goldenbeta import expand, rewrite
from goldenbeta.algebra import (
    EVEN,
    ODD,
    DomainError,
    FieldElem,
    fe_membership,
    format_field,
    make_params,
    parse_field,
    sign_pq,
    split_denominator,
    times_beta,
)
from goldenbeta.fseq import decompose_F, f_seq
from goldenbeta.words import DigitWord, word_value
from goldenbeta.expand import (
    CONTINUUM,
    COUNTABLY_INFINITE,
    UNIQUE_ENDPOINT,
    branch_witness,
    classify,
    enumerate_prefixes,
    expansion_of_inv_power,
    expansions_of_one,
    construct_route,
    synth_finite,
    synth_finite_constructive,
)

P1 = make_params(1, ODD)
E1 = make_params(1, EVEN)


def val(w, params=P1):
    return word_value(w, params)


def remainder(x, prefix, params):
    r = x
    for e in prefix:
        r = r.mul_beta() - e
    return r


def ref_levels(x, depth, params):
    """Reference walk: the level-by-level FieldElem branching loop.
    levels[d] lists (prefix, exact remainder) pairs, lexicographic."""
    bound = params.interval_bound
    levels = [[((), x)]]
    for _ in range(depth):
        nxt = []
        for pfx, r in levels[-1]:
            shifted = r.mul_beta()
            for e in range(params.m + 1):
                r2 = shifted - e
                if r2.sign() >= 0 and r2 <= bound:
                    nxt.append((pfx + (e,), r2))
        levels.append(nxt)
    return levels


# -- enumeration -----------------------------------------------------------

def test_enumerate_examples():
    tree = enumerate_prefixes(P1.one, 2, P1)
    assert set(tree.prefixes_at()) == {(1, 3), (2, 1), (2, 2)}
    zero = enumerate_prefixes(P1.zero, 4, P1)
    assert zero.prefixes_at() == [(0, 0, 0, 0)]
    top = enumerate_prefixes(P1.interval_bound, 4, P1)
    assert top.prefixes_at() == [(3, 3, 3, 3)]


def test_enumerate_rejects_outside():
    with pytest.raises(DomainError):
        enumerate_prefixes(P1.from_int(-1), 2, P1)
    with pytest.raises(DomainError):
        enumerate_prefixes(P1.from_int(2), 2, P1)
    with pytest.raises(DomainError):
        enumerate_prefixes(P1.one, -1, P1)
    one = enumerate_prefixes(P1.one, 3, P1)
    for d in (-1, 4):
        with pytest.raises(DomainError):
            one.count_at(d)
        with pytest.raises(DomainError):
            one.prefixes_at(d)
    # counts past the listing budget stay available; listing them is refused
    third = enumerate_prefixes(parse_field("1/3", P1), 60, P1)
    assert third.count_at(60) * 60 > expand.LISTING_BUDGET
    with pytest.raises(DomainError):
        third.prefixes_at()
    assert len(third.prefixes_at(10)) == third.count_at(10)
    # the refusal names the depth and the budget, not the count
    deepest = enumerate_prefixes(parse_field("1/3", P1), expand.DEPTH_BUDGET, P1)
    with pytest.raises(DomainError) as refused:
        deepest.prefixes_at()
    assert "\n" not in str(refused.value) and len(str(refused.value)) < 100


def test_enumerate_soundness():
    x = parse_field("1/3", P1)
    tree = enumerate_prefixes(x, 8, P1)
    bound = P1.interval_bound
    prefixes = tree.prefixes_at()
    assert prefixes == sorted(prefixes)
    for pfx in prefixes:
        r = remainder(x, pfx, P1)
        assert r.sign() >= 0 and r <= bound
    # completeness: every one-digit extension admitted by the test is present
    at7 = set(tree.prefixes_at(7))
    for pfx in at7:
        r = remainder(x, pfx, P1)
        for e in range(P1.m + 1):
            r2 = r.mul_beta() - e
            inside = r2.sign() >= 0 and r2 <= bound
            assert inside == (pfx + (e,) in set(prefixes))


# -- expansions of 1 -------------------------------------------------------

def test_ones_examples_k1():
    from goldenbeta.words import format_word

    words = {format_word(w) for w in expansions_of_one(6, P1)}
    assert {"0.1,(3)*", "0.2,2", "0.2,1,1,(3)*", "0.2,1,2,2", "0.(2,1)*"} <= words
    for w in expansions_of_one(6, P1):
        assert (val(w) - P1.one).is_zero()


def test_ones_match_tree():
    for k in (1, 2, 3):
        params = make_params(k, ODD)
        for depth in (6, 12):
            fam = {w.prefix(depth) for w in expansions_of_one(depth, params)}
            assert fam == set(enumerate_prefixes(params.one, depth, params).prefixes_at())


def test_ones_rejects_even():
    with pytest.raises(DomainError):
        expansions_of_one(6, E1)
    with pytest.raises(DomainError):
        expansions_of_one(-5, P1)


# -- synthesis -------------------------------------------------------------

def test_synth_examples():
    assert synth_finite(P1.one, P1).trimmed() == DigitWord(0, (2, 2))
    half = parse_field("1/2", P1)
    assert synth_finite(half, P1).trimmed() == DigitWord(0, (1, 1))
    x = FieldElem(P1, 1, -1, 2)  # (beta-1)/2
    assert (val(synth_finite(x, P1)) - x).is_zero()


def test_synth_refuses_nonmember():
    with pytest.raises(DomainError):
        synth_finite(parse_field("1/3", P1), P1)


def test_synth_refuses_an_exhausted_orbit(monkeypatch):
    # every remainder graph reaches 0 from a member; with a planted step
    # that admits no digit, the search runs out of states
    monkeypatch.setattr(expand, "_CACHE", expand._Cache())
    monkeypatch.setattr(expand, "_step", lambda p, q, r, params: {})
    with pytest.raises(DomainError, match="remainder orbit exhausted without reaching 0"):
        synth_finite(P1.from_rational(1, 2), P1)


@pytest.mark.parametrize("k, numerator", [(1, "1"), (2, "(1+1*b)")])
def test_synth_denominator_budget(k, numerator):
    # the largest power of k+1 the budget admits still gets a certificate
    # that evaluates back to x; one more factor is refused before the search
    params = make_params(k, ODD)
    n = 0
    while ((k + 1) ** (n + 1)).bit_length() <= expand.DENOMINATOR_BITS_BUDGET:
        n += 1
    x = parse_field(f"{numerator}/{(k + 1) ** n}", params)
    assert x.r == (k + 1) ** n
    assert word_value(synth_finite(x, params), params) == x
    over = parse_field(f"{numerator}/{(k + 1) ** (n + 1)}", params)
    with pytest.raises(DomainError, match="over the denominator budget"):
        synth_finite(over, params)


def test_inv_power():
    assert expansion_of_inv_power(0, P1) == DigitWord(0, (2, 2))
    assert expansion_of_inv_power(1, P1) == DigitWord(0, (1, 1, 0, 0))
    quarter = expansion_of_inv_power(2, P1)
    assert (val(quarter) - parse_field("1/4", P1)).is_zero()
    with pytest.raises(DomainError):
        expansion_of_inv_power(-1, P1)


def test_construct_route_examples():
    for lit in ("1", "1/2", "1/4", "3/4"):
        x = parse_field(lit, P1)
        w = construct_route(x, P1)
        assert w is not None and (val(w) - x).is_zero()
    # p = 0 members reduce to the pure M/(k+1)^n route and always succeed
    for q in (1, 3, 5):
        for n in (1, 2, 3):
            x = parse_field(f"{q}/{2 ** n}", P1)
            if x.sign() > 0 and x < P1.interval_bound:
                assert construct_route(x, P1) is not None


@pytest.mark.parametrize("x", [
    E1.from_rational(1, 2),  # even parity: no quadratic base to build in
    P1.from_rational(1, 3),  # the prime 3 lies outside k+1 = 2
    P1.from_rational(1, 2 ** 65),  # (k+1)^n with n past 64
], ids=["even-parity", "prime-outside-k1", "n-past-64"])
def test_construct_route_refuses_unsupported_denominators(x):
    assert construct_route(x, x.params) is None


def test_construct_route_fallback(caplog):
    # find a member the constructive route gives up on; the wrapper must
    # still return a correct word via the search, and say so at DEBUG only
    import itertools

    for p, q, n in itertools.product(range(-6, 7), range(-6, 7), range(3)):
        x = FieldElem(P1, p, q, 2 ** n)
        if not (x.sign() > 0 and x < P1.interval_bound):
            continue
        if construct_route(x, P1) is None:
            with caplog.at_level(logging.DEBUG, logger=expand.__name__):
                w = synth_finite_constructive(x, P1)
            assert (val(w) - x).is_zero()
            (rec,) = [r for r in caplog.records if "constructive route gave up" in r.getMessage()]
            assert rec.levelno == logging.DEBUG
            return
    pytest.fail("no fallback case found in the sample window")


def test_cross_route_agreement():
    import itertools

    count = 0
    for p, q, n in itertools.product(range(-8, 9), range(-8, 9), range(4)):
        x = FieldElem(P1, p, q, 2 ** n)
        if not (x.sign() > 0 and x < P1.interval_bound):
            continue
        w = construct_route(x, P1)
        if w is None:
            continue
        assert (val(w) - val(synth_finite(x, P1))).is_zero()
        count += 1
    assert count >= 30


def ref_construct_route(x, params):
    """Reference: ``construct_route`` with M/(k+1)^n added in its own loop
    first and zero F-coefficients skipped."""
    if params.parity != ODD:
        return None
    k = params.k
    k1 = k + 1
    n, c = split_denominator(x.r, k1)
    if c != 1 or n > 64:
        return None
    scale = k1 ** n // x.r
    p, q = x.p * scale, x.q * scale
    coeffs = decompose_F(k, p).coeffs
    seq = f_seq(k, len(coeffs) + 2)
    M = sum(c * seq[i + 1] for i, c in enumerate(coeffs)) + q
    if M < 0:
        return None
    terms = []
    for i, ni in enumerate(coeffs, start=1):
        if ni == 0:
            continue
        signed = ni if i % 2 == 1 else -ni
        if signed < 0:
            return None
        e = n - i
        count = signed * (k1 ** max(-e, 0))
        terms.append((count, i, max(e, 0)))
    if M + sum(c for c, _, _ in terms) > expand.TERM_BUDGET:
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
    while acc.int_part > 0:
        try:
            acc = rewrite.borrow_T_minus(acc, params)
        except DomainError:
            return None
    assert word_value(acc, params) == x
    return acc


@pytest.mark.parametrize("budget", [None, 6])
def test_construct_route_matches_reference(budget, monkeypatch):
    # every interior (p*beta+q)/(k+1)^n with |p|, |q| <= 12 and n <= 4, at the
    # default term budget and at one that turns most points away
    if budget is not None:
        monkeypatch.setattr(expand, "TERM_BUDGET", budget)
    words = nones = 0
    for k in range(1, 5):
        params = make_params(k, ODD)
        xs = {FieldElem(params, p, q, (k + 1) ** n)
              for n in range(5) for p in range(-12, 13) for q in range(-12, 13)}
        for x in xs:
            if x.sign() > 0 and x < params.interval_bound:
                w = construct_route(x, params)
                assert w == ref_construct_route(x, params), format_field(x)
                words += w is not None
                nones += w is None
    assert words and nones


# -- classification --------------------------------------------------------

def test_classify_examples():
    c = classify(P1.one, P1)
    assert c.verdict == COUNTABLY_INFINITE
    assert c.certificate.trimmed() == DigitWord(0, (2, 2))

    c = classify(parse_field("(1+1*b)/6", P1), P1)
    assert c.verdict == CONTINUUM
    assert c.certificate == (6, 3)

    c = classify(parse_field("3/4", E1), E1)
    assert c.verdict == COUNTABLY_INFINITE
    assert (word_value(c.certificate, E1) - parse_field("3/4", E1)).is_zero()


def test_classify_endpoints():
    assert classify(P1.zero, P1).verdict == UNIQUE_ENDPOINT
    assert classify(P1.interval_bound, P1).verdict == UNIQUE_ENDPOINT
    with pytest.raises(DomainError):
        classify(P1.from_int(2), P1)


@pytest.mark.parametrize("params", [make_params(k, parity) for parity in (ODD, EVEN)
                                    for k in (1, 2)], ids=lambda p: f"k{p.k}-{p.parity}")
def test_interval_gate(params):
    # every entry refuses a point outside [0, m/(beta-1)] with one message,
    # and keeps its own answer at each end of the interval
    top = params.interval_bound
    entries = (classify, lambda x, params: enumerate_prefixes(x, 3, params), synth_finite,
               synth_finite_constructive, lambda x, params: branch_witness(x, 6, 4, params))
    for x in (params.from_int(-1), top + params.from_rational(1, 1000)):
        for entry in entries:
            with pytest.raises(DomainError, match=r"^x outside the expansion interval$"):
                entry(x, params)
    for x, tag, digit in ((params.zero, "0", 0), (top, "m", params.m)):
        assert classify(x, params) == expand.Classification(UNIQUE_ENDPOINT, tag)
        assert enumerate_prefixes(x, 3, params).prefixes_at() == [(digit,) * 3]
        refusal = re.escape(f"x = {format_field(x)} is an endpoint")
        for synth in (synth_finite, synth_finite_constructive):
            with pytest.raises(DomainError, match=refusal):
                synth(x, params)
        with pytest.raises(DomainError):
            branch_witness(x, 6, 4, params)


def test_classify_certificate_roundtrip():
    for lit in ("1/2", "3/4", "(0+1*b)/2", "(1+1*b)/4"):
        x = parse_field(lit, P1)
        c = classify(x, P1)
        assert c.verdict == COUNTABLY_INFINITE
        assert (val(c.certificate) - x).is_zero()


def test_offending_prime_refuses_a_member_denominator():
    # classify asks only for a non-member's prime; 8 has none outside 2
    with pytest.raises(AssertionError, match="denominator 8 has no prime outside 2"):
        expand._offending_prime(8, 2)


# -- branch witnesses -------------------------------------------------------

def test_local_rewrite_instance():
    # a local value-preserving rewrite in odd parity: 0,3,2 == 1,1,0
    a = val(DigitWord(0, (0, 3, 2)))
    b = val(DigitWord(0, (1, 1, 0)))
    assert (a - b).is_zero()
    assert (a - parse_field("1/2", P1)).is_zero()


def test_branch_witness_counts():
    x = parse_field("1/3", P1)
    ws = branch_witness(x, 24, 256, P1)
    assert len(set(ws)) >= 256
    bound = P1.interval_bound
    length = len(ws[0])
    for w in ws:
        assert len(w) == length >= 24
        r = remainder(x, w, P1)
        assert r.sign() >= 0 and r <= bound


def test_branch_witness_alternating_point():
    # greedy digits of this point alternate big/small with no rewrite site
    # in the lex-least stream; the generator must still hit the target
    x = FieldElem(P1, -1, 7, 3)
    ws = branch_witness(x, 24, 256, P1)
    assert len(set(ws)) >= 256


def test_branch_witness_refuses_member():
    with pytest.raises(DomainError):
        branch_witness(parse_field("1/2", P1), 12, 8, P1)
    x = parse_field("1/3", P1)
    assert branch_witness(x, 24, 0, P1) == []
    for depth, budget in ((-3, 8), (expand.DEPTH_BUDGET + 1, 8), (12, -1)):
        with pytest.raises(DomainError):
            branch_witness(x, depth, budget, P1)
    with pytest.raises(DomainError):
        branch_witness(parse_field("9/5", P1), 12, 8, P1)  # above m/(beta-1)


def test_branch_witness_refuses_an_unreached_target(monkeypatch):
    # a non-member's tree doubles, so some depth up to 40 times the asked
    # one lists the target; a planted walk that lists nothing never does
    monkeypatch.setattr(expand, "_walk", lambda g, root, depth, limit: [])
    with pytest.raises(DomainError, match="prefix tree never reached the witness target"):
        branch_witness(P1.from_rational(1, 3), 3, 2, P1)


def test_branch_witness_listing_budget(monkeypatch):
    # each attempt is a listing of target * depth digits, refused past the
    # budget with the message ``prefixes_at`` gives
    x = parse_field("1/3", P1)
    monkeypatch.setattr(expand, "LISTING_BUDGET", 256 * 24)
    assert len(branch_witness(x, 24, 256, P1)) == 256
    monkeypatch.setattr(expand, "LISTING_BUDGET", 256 * 24 - 1)
    with pytest.raises(DomainError) as refused:
        branch_witness(x, 24, 256, P1)
    assert str(refused.value) == ("listing at depth 24 is over the listing "
                                  f"budget of {256 * 24 - 1} digits")
    tree = enumerate_prefixes(x, 24, P1)
    with pytest.raises(DomainError) as listed:
        tree.prefixes_at(24)
    assert str(listed.value) == str(refused.value)


def test_branch_witness_even():
    x = parse_field("1/5", E1)
    ws = branch_witness(x, 24, 256, E1)
    assert len(set(ws)) >= 256
    for w in ws[:16]:
        r = remainder(x, w, E1)
        assert r.sign() >= 0 and r <= E1.interval_bound


# -- checks that survive python -O -------------------------------------------

def test_construct_route_value_check(monkeypatch):
    monkeypatch.setattr(expand, "word_value", lambda w, params: params.zero)
    with pytest.raises(AssertionError):
        construct_route(P1.one, P1)


# -- the integer kernel and the walk against the reference walk ---------------

@st.composite
def points(draw, members):
    """(x, params) strictly inside the interval for k = 1..4 and both
    parities; members have denominator (k+1)^n, non-members do not."""
    params = make_params(draw(st.integers(1, 4)), draw(st.sampled_from((ODD, EVEN))))
    k1 = params.k + 1
    if members:
        r = k1 ** draw(st.integers(0, 2))
    else:
        r = draw(st.sampled_from([r for r in range(2, 10)
                                  if any(r % d == 0 and k1 % d for d in (2, 3, 5, 7))]))
    p = draw(st.integers(-4, 4)) if params.parity == ODD else 0
    inside = [x for x in (FieldElem(params, p, q, r) for q in range(-25, 2 * r + 26))
              if x.sign() > 0 and x < params.interval_bound]
    assume(inside)
    x = draw(st.sampled_from(inside))
    assume(fe_membership(x) == members)
    return x, params


def ref_step(p, q, r, params):
    """expand._step through one level of the reference walk."""
    out = {}
    for (e,), y in ref_levels(FieldElem(params, p, q, r), 1, params)[1]:
        out[e] = (y.p * (r // y.r), y.q * (r // y.r))
    return out


@settings(max_examples=60, deadline=None)
@given(st.one_of(points(members=True), points(members=False)))
def test_prefix_tree_matches_reference(point):
    x, params = point
    levels = ref_levels(x, 8, params)
    tree = enumerate_prefixes(x, 8, params)
    for d in range(9):
        assert tree.prefixes_at(d) == [pfx for pfx, _ in levels[d]]
        assert tree.count_at(d) == len(levels[d])


@settings(max_examples=60, deadline=None)
@given(st.one_of(points(members=True), points(members=False)))
def test_path_counts_match_listing(point):
    # the path counts over the remainder graph, past the depths ref_levels
    # covers, and listings that do not depend on the depth the tree was built to
    x, params = point
    tree = enumerate_prefixes(x, 12, params)
    for d in range(13):
        listed = tree.prefixes_at(d)
        assert tree.count_at(d) == len(listed)
        assert listed == enumerate_prefixes(x, d, params).prefixes_at()


@settings(max_examples=40, deadline=None)
@given(points(members=True))
def test_synth_matches_reference(point):
    # the breadth-first search returns the lexicographically first of the
    # shortest prefixes that end at remainder 0
    x, params = point
    digits = synth_finite(x, params).digits
    levels = ref_levels(x, len(digits), params)
    zeros = [[pfx for pfx, r in level if r.is_zero()] for level in levels]
    assert not any(zeros[:-1])
    assert zeros[-1][0] == digits


@settings(max_examples=40, deadline=None)
@given(points(members=False))
def test_witnesses_match_reference(point):
    # the witnesses are the first min(32, 2**(12 // 3)) prefixes of the
    # reference walk at the first depth >= 12 that has that many
    x, params = point
    ws = branch_witness(x, 12, 32, params)
    # an empty cache, so that the patched run builds its own graph
    with mock.patch.object(expand, "_step", ref_step), \
            mock.patch.object(expand, "_CACHE", expand._Cache()):
        assert branch_witness(x, 12, 32, params) == ws
    levels = ref_levels(x, 12, params)
    while len(levels[-1]) < 16:
        levels = ref_levels(x, len(levels), params)
    assert ws == [pfx for pfx, _ in levels[-1][:16]]


def ref_walk(g, root, depth, limit):
    """expand._walk one digit at a time: a depth-first walk down to depth - 1
    whose parents of leaves emit their leaves at once."""
    if depth == 0:
        return [()][:limit]
    if depth == 1:
        return [(e,) for e, _ in g.branch(root)][:limit]
    edges = g.edges
    out = []
    path = []
    stack = [iter(g.branch(root))]
    while stack:
        for e, j in stack[-1]:
            path.append(e)
            kids = edges[j] or g.branch(j)
            if len(path) < depth - 1:
                stack.append(iter(kids))
                break
            out += [(*path, d) for d, _ in kids]
            path.pop()
            if len(out) >= limit:
                return out[:limit]
        else:
            stack.pop()
            if path:
                path.pop()
    return out


@settings(max_examples=60, deadline=None)
@given(st.one_of(points(members=True), points(members=False)))
def test_walk_matches_reference(point):
    # the jumping walk against the digit-at-a-time walk, under one jump and
    # with every head length before one, two and three jumps, and at witness
    # depth, for limits that stop it at once, cut one table's words, take
    # one table, several, and none
    x, params = point
    tree = enumerate_prefixes(x, 24, params)
    for depth in (*range(3 * expand._TAIL + 2), 24):
        n = tree.count_at(depth)
        for limit in (0, 1, 5, 256, n):
            if limit > 2 ** 12:
                continue  # a continuum point has 2**24 prefixes at depth 24
            got = expand._walk(tree.graph, tree.root, depth, limit)
            assert got == ref_walk(tree.graph, tree.root, depth, limit), (depth, limit)
            assert len(got) == min(limit, n)


def loop_step(p, q, r, params):
    """expand._step as m+1 sign trials, one per digit."""
    p, q = times_beta(p, q, params)
    if params.parity == ODD:
        top_p, top_q = r, -params.k * r
    else:
        top_p, top_q = 0, 2 * r
    out = {}
    for e in range(params.m + 1):
        qe = q - e * r
        if sign_pq(p, qe, params) < 0:
            break
        if sign_pq(top_p - p, top_q - qe, params) >= 0:
            out[e] = (p, qe)
    return out


@settings(max_examples=500, deadline=None)
@given(st.integers(1, 5), st.sampled_from((ODD, EVEN)), st.integers(1, 200),
       st.integers(-600, 600), st.integers(-600, 600))
def test_step_matches_sign_trials(k, parity, r, p, q):
    # the two-floor digit interval against one sign test per digit, both
    # inside the expansion interval and far outside it (where it is empty)
    params = make_params(k, parity)
    if parity == EVEN:
        p = 0
    assert list(expand._step(p, q, r, params).items()) == list(loop_step(p, q, r, params).items())


# -- the shared graph cache ----------------------------------------------------

def queries(x, params):
    """Every graph query on x: path counts, listings past two jumps, and the
    finite word or the branch witnesses."""
    tree = enumerate_prefixes(x, 2 * expand._TAIL + 2, params)
    listed = [tree.prefixes_at(d) for d in range(tree.depth + 1)]
    if fe_membership(x):
        found = synth_finite(x, params)
    else:
        found = branch_witness(x, 12, 32, params)
    return tree.counts, listed, found


def same_denominator(x, params):
    """Other points strictly inside the interval with x's denominator."""
    ps = range(-4, 5) if params.parity == ODD else (0,)
    ys = (FieldElem(params, p, q, x.r) for p in ps for q in range(-20, 3 * x.r + 20))
    return [y for y in ys if y.r == x.r and y != x
            and y.sign() > 0 and y < params.interval_bound][:8]


def units(g):
    """What graph g counts toward the cache bound, counted afresh: its states,
    plus one per two words of each jump table, rounded up."""
    return len(g.pairs) + sum((len(t[0]) + 1) // 2 for t in g.jumps if t is not None)


def cached():
    """What the graph cache holds toward its bound, counted afresh and
    checked against the cache's own counts."""
    graphs = expand._CACHE.graphs.values()
    states = sum(units(g) for g in graphs)
    assert expand._CACHE.states == states
    assert expand._CACHE.words == sum(len(t[0]) for g in graphs for t in g.jumps if t is not None)
    return states


@settings(max_examples=40, deadline=None)
@given(st.one_of(points(members=True), points(members=False)))
def test_graph_cache_changes_no_result(point):
    x, params = point
    with mock.patch.object(expand, "_CACHE", expand._Cache()):
        alone = queries(x, params)
    with mock.patch.object(expand, "_CACHE", expand._Cache()):
        others = same_denominator(x, params)
        for y in others:
            queries(y, params)
        if others:
            assert list(expand._CACHE.graphs) == [(params, x.r)]  # one shared graph
        assert queries(x, params) == alone


def test_graph_cache_state_bound(monkeypatch, caplog):
    # a tiny bound evicts on nearly every lookup and changes no result; after
    # each query the cache holds at most the bound plus the states and jump
    # tables that query added to the one graph it looked up
    xs = [FieldElem(params, p, q, r)
          for params in (make_params(k, parity) for k in (1, 2, 3, 4) for parity in (ODD, EVEN))
          for r in (1, 2, 3, 5, 6, 9) for p in ((-1, 1) if params.parity == ODD else (0,))
          for q in (1, 2, 4)]
    xs = [x for x in xs if x.sign() > 0 and x < x.params.interval_bound]
    assert len(xs) > 100
    monkeypatch.setattr(expand, "_CACHE", expand._Cache())
    want = [queries(x, x.params) for x in xs]
    bound = 5
    monkeypatch.setattr(expand, "GRAPH_STATE_BUDGET", bound)
    monkeypatch.setattr(expand, "_CACHE", expand._Cache())
    looked_up = []  # (graph, its states before the lookup)
    real_graph = expand._graph

    def within_bound():
        g, n = looked_up[-1]
        assert cached() <= bound + units(g) - n

    def graph(x, params):
        if looked_up:  # the previous query has finished
            within_bound()
        old = expand._CACHE.graphs.get((params, x.r))
        n = units(old) if old else 0
        g, root = real_graph(x, params)
        looked_up.append((g, n if g is old else 0))
        return g, root

    monkeypatch.setattr(expand, "_graph", graph)
    with caplog.at_level(logging.DEBUG, logger=expand.__name__):
        for x, expected in zip(xs, want):
            assert queries(x, x.params) == expected
            within_bound()
    evictions = [rec for rec in caplog.records if "evicted" in rec.getMessage()]
    assert len(evictions) > 20


def test_graph_cache_logs_jump_words(monkeypatch, caplog):
    # the DEBUG lines name the jump words the cache holds when a graph is
    # created and the jump words a graph takes with it when it is evicted
    monkeypatch.setattr(expand, "GRAPH_STATE_BUDGET", 0)
    monkeypatch.setattr(expand, "_CACHE", expand._Cache())
    x = parse_field("1/3", P1)
    with caplog.at_level(logging.DEBUG, logger=expand.__name__):
        enumerate_prefixes(x, 2 * expand._TAIL, P1).prefixes_at()
        g = expand._CACHE.graphs[P1, 3]
        words = sum(len(t[0]) for t in g.jumps if t is not None)
        assert words > 0
        enumerate_prefixes(parse_field("1/5", P1), 0, P1)
    created, evicted, created_5 = [rec.getMessage() for rec in caplog.records]
    fresh = "the cache counts 1 states toward its bound and holds 0 jump words in 1 graphs"
    assert created.endswith(fresh)
    assert evicted == (f"evicted the remainder graph of r=3 (k=1, odd): "
                       f"{len(g.pairs)} states, {words} jump words")
    assert created_5.endswith(fresh)  # the evicted graph's words left the count


def test_graph_cache_stops_counting_evicted_graphs(monkeypatch):
    # a query in another thread may still walk a graph that a lookup has
    # just evicted; the states and jump tables it adds there no longer count
    # toward the bound
    depth = 2 * expand._TAIL + 1
    count = enumerate_prefixes(parse_field("1/3", P1), depth, P1).count_at(depth)
    monkeypatch.setattr(expand, "GRAPH_STATE_BUDGET", 0)
    monkeypatch.setattr(expand, "_CACHE", expand._Cache())
    g, root = expand._graph(parse_field("1/3", P1), P1)
    expand._graph(parse_field("1/5", P1), P1)
    assert list(expand._CACHE.graphs) == [(P1, 5)]
    # one more than there are, so listing too many or too few shows
    assert len(expand._walk(g, root, depth, count + 1)) == count
    assert len(g.pairs) > 2
    assert any(t is not None for t in g.jumps)
    cached()


def test_graph_cache_shared_across_threads(monkeypatch):
    # threads that fill the same graphs and jump tables at the same time,
    # switching every microsecond, get the results of a sequential run: a
    # lost update while interning a state would give two pairs one id
    xs = [FieldElem(params, p, q, r) for params in (make_params(2, ODD), make_params(3, ODD))
          for r in (7, 11, 13) for p in (-1, 1) for q in range(1, 9)]
    xs = [x for x in xs if x.sign() > 0 and x < x.params.interval_bound]

    def run(x):
        tree = enumerate_prefixes(x, 40, x.params)
        return tree.counts, tree.prefixes_at(12), branch_witness(x, 24, 256, x.params)

    monkeypatch.setattr(expand, "_CACHE", expand._Cache())
    want = [run(x) for x in xs]
    got = {}

    def work(t):
        for i, x in enumerate(xs):
            got[t, i] = run(x)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(16):  # a race shows only in some rounds
            monkeypatch.setattr(expand, "_CACHE", expand._Cache())
            got.clear()
            threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert got == {(t, i): res for t in range(4) for i, res in enumerate(want)}
            cached()  # the cache's counts lost no update
    finally:
        sys.setswitchinterval(old)
