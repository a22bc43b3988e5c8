"""Acceptance gate: one test per criterion, exact-arithmetic oracles only.

Each test finishes by printing a single PASS line (visible with -s or -rA);
a failure raises with the offending datum.
"""

import itertools
import json
import random

from goldenbeta.algebra import (
    EVEN,
    ODD,
    FieldElem,
    make_params,
)
from goldenbeta.words import DigitWord, EvPeriodicWord, word_value
from goldenbeta.fseq import decompose_F, f_seq, fn_identity_check
from goldenbeta import expand, rewrite
from goldenbeta.cli import census_sweep
from goldenbeta.verify import _sample_nonmembers_k1, verify_suite

P1 = make_params(1, ODD)


def _ok(n, msg):
    print(f"[PASS] criterion {n}: {msg}")


def _rand_digits(rng, params, lo=0, hi=8):
    return tuple(rng.randint(0, params.m) for _ in range(rng.randint(lo, hi)))


def test_criterion_1_expansions_of_one():
    for k in (1, 2, 3):
        params = make_params(k, ODD)
        family = {w.prefix(12) for w in expand.expansions_of_one(12, params)}
        tree = expand.enumerate_prefixes(params.one, 12, params)
        assert family == set(tree.prefixes_at()), f"set mismatch at k={k}"
    counts = []
    tree = expand.enumerate_prefixes(P1.one, 12, P1)
    for d in range(1, 13):
        counts.append(tree.count_at(d))
        assert tree.count_at(d) <= 2 * d + 2, f"count at depth {d}"
    _ok(1, f"closed-form family == tree for k in 1..3; k=1 counts {counts}")


def test_criterion_2_value_preservation():
    rng = random.Random(2024)
    trials = 10_000
    params_pool = [make_params(k, ODD) for k in (1, 2)]

    def preserved(w, out, params):
        assert (word_value(w, params) - word_value(out, params)).is_zero(), (
            f"value changed: {w} -> {out}"
        )

    for i in range(trials):
        params = params_pool[i % 2]
        k = params.k
        w = DigitWord(0, _rand_digits(rng, params))
        preserved(w, rewrite.cr_step(w, params), params)
        preserved(w, rewrite.b_separate(w, params), params)
        preserved(w, rewrite.reduce_digits(w, params), params)

        if rng.random() < 0.5:
            tail = DigitWord(0, _rand_digits(rng, params, hi=6))
            carry_in = DigitWord(0, (rng.randint(k + 2, 2 * k + 1), *tail.digits))
            borrow_in = DigitWord(1, (rng.randint(0, k - 1), *tail.digits))
        else:
            pre = _rand_digits(rng, params, hi=3)
            per = _rand_digits(rng, params, lo=1, hi=3)
            carry_in = EvPeriodicWord(0, (rng.randint(k + 2, 2 * k + 1), *pre), per)
            borrow_in = EvPeriodicWord(1, (rng.randint(0, k - 1), *pre), per)
        preserved(carry_in, rewrite.carry_T_plus(carry_in, params), params)
        preserved(borrow_in, rewrite.borrow_T_minus(borrow_in, params), params)

    rng = random.Random(2025)
    for i in range(2_000):
        params = params_pool[i % 2]
        k = params.k
        a = DigitWord(0, _rand_digits(rng, params, hi=6))
        b = DigitWord(0, _rand_digits(rng, params, hi=6))
        s = rewrite.add_words(a, b, params)
        assert (word_value(s, params)
                - word_value(a, params) - word_value(b, params)).is_zero()
        d = rewrite.div_word_by_k1(a, params)
        assert (word_value(d, params) * (k + 1) - word_value(a, params)).is_zero()
        limit = params.interval_bound.div_beta()
        if word_value(a, params) < limit:
            m = rewrite.mul_beta_word(a, params)
            assert (word_value(m, params)
                    - word_value(a, params).mul_beta()).is_zero()
    _ok(2, f"{trials} preservation trials per rule plus arithmetic postconditions")


def test_criterion_3_f_sequence():
    for k in (1, 2, 3):
        params = make_params(k, ODD)
        for n in range(1, 31):
            assert fn_identity_check(params, n), f"identity k={k}, n={n}"
        seq = f_seq(k, 8)
        for n in range(seq[7]):
            dec = decompose_F(k, n)
            assert dec.reconstruct(k) == n
            assert all(0 <= c <= k + 1 for c in dec.coeffs)
            for l in range(1, 9):
                if n < seq[l - 1]:
                    assert dec.length < l, f"length bound k={k}, n={n}"
    _ok(3, "identity n<=30 and full decomposition sweep below F_8, k in 1..3")


def _members_k1():
    seen, members = set(), []
    top = P1.interval_bound
    for n in range(5):
        for p in range(-20, 21):
            for q in range(-20, 21):
                x = FieldElem(P1, p, q, 2 ** n)
                if x in seen:
                    continue
                seen.add(x)
                if x.sign() > 0 and x < top:
                    members.append(x)
    return members


def test_criterion_4_odd_parity_dichotomy():
    members = _members_k1()
    for x in members:
        c = expand.classify(x, P1)
        assert c.verdict == expand.COUNTABLY_INFINITE, f"member {x} -> {c.verdict}"
        assert len(c.certificate.digits) <= 40, f"certificate too long for {x}"
        assert (word_value(c.certificate, P1) - x).is_zero(), f"round-trip {x}"

    rng = random.Random(404)
    nonmembers = _sample_nonmembers_k1(rng, P1, 200)
    for x in nonmembers:
        c = expand.classify(x, P1)
        assert c.verdict == expand.CONTINUUM, f"non-member {x} -> {c.verdict}"
        ws = expand.branch_witness(x, 24, 256, P1)
        assert len(set(ws)) >= 256, f"witness count for {x}"
    _ok(4, f"{len(members)} members countable with verified certificates; "
           "200 non-members continuum with 256 depth-24 witnesses")


def test_criterion_5_even_parity_dichotomy():
    from fractions import Fraction

    checked = 0
    for k in (1, 2):
        params = make_params(k, EVEN)
        base = k + 1
        for n in range(7):
            den = base ** n
            for p in range(1, 2 * den):
                if Fraction(p, den).denominator != den:
                    continue
                x = params.from_rational(p, den)
                c = expand.classify(x, params)
                assert c.verdict == expand.COUNTABLY_INFINITE, f"{p}/{den}, k={k}"
                assert (word_value(c.certificate, params) - x).is_zero()
                checked += 1
    params = make_params(1, EVEN)
    for num in (1, 2, 4, 5):
        x = params.from_rational(num, 3)
        c = expand.classify(x, params)
        assert c.verdict == expand.CONTINUUM, f"{num}/3"
        ws = expand.branch_witness(x, 24, 256, params)
        assert len(set(ws)) >= 256, f"witnesses for {num}/3"
    _ok(5, f"{checked} dyadic/triadic members verified; thirds continuum "
           "with 256 witnesses")


def test_criterion_6_prefix_growth_dichotomy():
    one = expand.enumerate_prefixes(P1.one, 20, P1)
    for d in range(1, 21):
        assert one.count_at(d) <= 2 * d + 2, f"x=1 count at depth {d}"
    third = expand.enumerate_prefixes(P1.from_rational(1, 3), 20, P1)
    assert third.count_at(20) > 2 ** 10, f"1/3 count {third.count_at(20)}"
    _ok(6, f"x=1 linear (max {one.count_at(20)} at depth 20); "
           f"x=1/3 reaches {third.count_at(20)}")


def test_criterion_7_cross_route_consistency():
    agreed = 0
    for p, q, n in itertools.product(range(-20, 21), range(-20, 21), range(5)):
        if agreed >= 100:
            break
        x = FieldElem(P1, p, q, 2 ** n)
        if not (x.sign() > 0 and x < P1.interval_bound):
            continue
        w = expand.construct_route(x, P1)
        if w is None:
            continue
        v1 = word_value(w, P1)
        v2 = word_value(expand.synth_finite(x, P1), P1)
        assert (v1 - v2).is_zero(), f"routes disagree at {x}"
        agreed += 1
    assert agreed >= 100, f"only {agreed} constructive successes"
    _ok(7, f"{agreed} member inputs agree across both synthesis routes")


def test_criterion_8_determinism():
    r1 = json.dumps(verify_suite("fast", seed=42))
    r2 = json.dumps(verify_suite("fast", seed=42))
    assert r1 == r2, "verify_suite not reproducible"
    c1 = json.dumps(census_sweep(P1, 4, 6, [6, 10]))
    c2 = json.dumps(census_sweep(P1, 4, 6, [6, 10]))
    assert c1 == c2, "census_sweep not reproducible"
    _ok(8, "verify and census byte-identical across runs")
