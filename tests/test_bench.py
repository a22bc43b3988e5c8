"""The package against the benchmark's independent oracle, ``bench/oracle.py``.

The benchmark's own passes run here in process, through ``run.set_up``,
``run.run_items`` and the ``failed`` and ``records`` of the ``Phase`` they
return: every output of a pass is checked by the oracle, and at
``BENCH_SEED`` the digest of the first pass must be the one pinned in
``tests/pins.py``.  A differential test then draws points and words from
systems the benchmark does not draw (k up to 6) and holds each answer of
the package to the oracle.
"""

import hashlib
import json
import sys
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import goldenbeta
from goldenbeta import cli, expand, rewrite
from goldenbeta.algebra import DomainError, FieldElem, make_params
from goldenbeta.words import DigitWord, EvPeriodicWord, word_value
from pins import BENCH_DIGESTS, BENCH_SEED

# run.py imports tracing, workloads and oracle as top-level modules
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import oracle  # noqa: E402
import run  # noqa: E402
from workloads import cli_call, literal, plain_call, plain_word, system_argv  # noqa: E402


def bench_failure(workload: str, seed: int) -> str | None:
    """Why the benchmark's closed loop over ``workload`` at ``seed`` fails:
    items the oracle refused, or at ``BENCH_SEED`` a first-pass digest,
    computed as ``run.main`` computes it, other than the pinned one."""
    wl, _ = run.set_up(workload, seed)
    ph = run.run_items(wl, 0, between=lambda: None)
    if ph.failed:
        return f"{ph.failed} failed items, among them {ph.failures[:3]}"
    digest = hashlib.sha256("\n".join(sorted(ph.records)).encode()).hexdigest()
    if seed == BENCH_SEED and digest != BENCH_DIGESTS[workload]:
        return f"digest {digest}"
    return None


@pytest.mark.parametrize("seed", [BENCH_SEED, 1])
@pytest.mark.parametrize("workload", sorted(BENCH_DIGESTS))
def test_benchmark_pass(workload, seed):
    assert bench_failure(workload, seed) is None


def test_benchmark_pass_reports_planted_faults(monkeypatch):
    # listings one prefix short: the oracle refuses them at either seed
    real = expand.PrefixTree.prefixes_at
    with monkeypatch.context() as m:
        m.setattr(expand.PrefixTree, "prefixes_at", lambda tree, depth=None: real(tree, depth)[:-1])
        for seed in (BENCH_SEED, 1):
            assert "failed items" in bench_failure("enumerate", seed)
    # census output the oracle still reads, one space longer: only the digest
    # tells, and only at the pinned seed
    real_json = cli._json
    monkeypatch.setattr(cli, "_json", lambda obj, ind="\n": real_json(obj, ind) + " ")
    assert bench_failure("census", BENCH_SEED).startswith("digest ")
    assert bench_failure("census", 1) is None


SYSTEMS = [(k, parity) for k in range(1, 7) for parity in ("odd", "even")]
WITNESS_DEPTH, WITNESS_BUDGET = 12, 16


@cache
def system(k: int, parity: str):
    """The oracle's system, the package's parameters, and the oracle's
    interior points with denominator and |numerators| up to 6."""
    s = oracle.System(k, parity)
    return s, make_params(k, parity), s.census_points(6, 6)


def enumerate_listing(s, x, depth: int) -> tuple[int, list]:
    """``goldenbeta enumerate`` of x: what its listing writer wrote."""
    argv = ["enumerate", literal(x), "--depth", str(depth), *system_argv(s)]
    code, text = cli_call(plain_call, "", cli.main, argv)
    assert code == 0
    res = json.loads(text)["result"]
    return res["count"], [tuple(p) for p in res["prefixes"]]


def point_refusals(s, P, x, depth: int) -> list[str]:
    """The package's answers about the point x that the oracle refuses."""
    fx = FieldElem(P, *x)
    c = expand.classify(fx, P)
    bad = [] if c.verdict == s.verdict(x) else ["verdict"]
    if s.is_member(x[2]):
        words = {"classify": c.certificate, "synth_finite": expand.synth_finite(fx, P),
                 "synth_finite_constructive": expand.synth_finite_constructive(fx, P)}
        bad += [name for name, w in words.items()
                if not oracle.check_certificate(s, x, plain_word(goldenbeta, w))]
    else:
        if not oracle.check_continuum(s, x, *c.certificate):
            bad.append("classify")
        ws = expand.branch_witness(fx, WITNESS_DEPTH, WITNESS_BUDGET, P)
        if not oracle.check_witnesses(s, x, ws, WITNESS_DEPTH, WITNESS_BUDGET):
            bad.append("branch_witness")
    if not oracle.check_prefix_listing(s, x, depth, *enumerate_listing(s, x, depth)):
        bad.append("enumerate")
    if list(expand.enumerate_prefixes(fx, depth, P).counts) != oracle.Orbit(s, x).counts(depth):
        bad.append("counts")
    return bad


@st.composite
def rule_inputs(draw, s):
    """Words for the rewrite rules, drawn as the rewrite workload draws them."""
    def digits(lo=0, hi=8):
        return tuple(draw(st.lists(st.integers(0, s.m), min_size=lo, max_size=hi)))

    def led(lead, int_part):
        if draw(st.booleans()):
            return DigitWord(int_part, (lead, *digits(hi=6)))
        return EvPeriodicWord(int_part, (lead, *digits(hi=3)), digits(lo=1, hi=3))

    return {"word": DigitWord(0, digits()), "other": DigitWord(0, digits(hi=6)),
            "big": led(draw(st.integers(s.k + 2, s.m)), 0),
            "small": led(draw(st.integers(0, s.k - 1)), 1)}


def rule_refusals(s, P, words) -> list[str]:
    """The rewrite rules whose output on ``words`` the oracle refuses: its
    value by ``word_fraction`` is not the rule's value law on the inputs',
    or ``word_value`` of it is another value.  Outside mul_beta_word's
    domain, value below (beta-k)/beta, the rule must refuse the word."""
    value = {name: s.word_fraction(plain_word(goldenbeta, w)) for name, w in words.items()}
    word = value["word"]
    laws = {  # each rule's inputs and its output's value
        "cr_step": (["word"], word),
        "b_separate": (["word"], word),
        "reduce_digits": (["word"], word),
        "carry_T_plus": (["big"], value["big"]),
        "borrow_T_minus": (["small"], value["small"]),
        "add_words": (["word", "other"], s.add(word, value["other"])),
        "div_word_by_k1": (["word"], (word[0], s.mul(word[1], (0, s.k1)))),
        "mul_beta_word": (["word"], s.scale(word, (1, 0))),
    }
    if not s.word_below(plain_word(goldenbeta, words["word"]), (-s.k, s.k1 * s.k1, s.k1)):
        del laws["mul_beta_word"]
        try:
            rewrite.mul_beta_word(words["word"], P)
            return ["mul_beta_word took a word outside its domain"]
        except DomainError:
            pass
    bad = []
    for rule, (inputs, want) in laws.items():
        w = getattr(rewrite, rule)(*(words[name] for name in inputs), P)
        got = s.word_fraction(plain_word(goldenbeta, w))
        v = word_value(w, P)
        if not (s.equal(got, want) and s.equal(got, s.point_fraction((v.p, v.q, v.r)))):
            bad.append(rule)
    return bad


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SYSTEMS), st.data())
def test_package_agrees_with_oracle(key, data):
    s, P, points = system(*key)
    bad = point_refusals(s, P, data.draw(st.sampled_from(points)), data.draw(st.integers(1, 12)))
    if s.odd:  # the rewriting calculus is for odd parity
        bad += rule_refusals(s, P, data.draw(rule_inputs(s)))
    assert bad == []


def test_oracle_refuses_planted_faults(monkeypatch):
    # a member's certificate with its last digit changed, and a listing one
    # prefix short, of a member and of a continuum point
    s, P, points = system(2, "odd")
    member = next(x for x in points if x[2] == 3)
    other = next(x for x in points if x[2] == 5)
    assert point_refusals(s, P, member, 6) == point_refusals(s, P, other, 6) == []
    real_synth = expand.synth_finite

    def last_digit_changed(x, params):
        w = real_synth(x, params)
        return DigitWord(0, w.digits[:-1] + ((w.digits[-1] + 1) % (params.m + 1),))

    with monkeypatch.context() as m:
        m.setattr(expand, "synth_finite", last_digit_changed)
        assert "classify" in point_refusals(s, P, member, 6)
    real_list = expand.PrefixTree.prefixes_at
    monkeypatch.setattr(expand.PrefixTree, "prefixes_at",
                        lambda tree, depth=None: real_list(tree, depth)[:-1])
    assert point_refusals(s, P, member, 6) == point_refusals(s, P, other, 6) == ["enumerate"]
