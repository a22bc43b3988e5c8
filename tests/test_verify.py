"""The self-check suite: the points each classification check covers, and
the faults those checks and ``apply_rule`` must catch.  The bytes of its
reports are pinned in ``tests/pins.py``."""

import json
import random
from math import gcd
from types import SimpleNamespace

import pytest

from goldenbeta import expand, rewrite, verify
from goldenbeta.algebra import (EVEN, ODD, DomainError, FieldElem, fe_membership, format_field,
                                make_params)
from goldenbeta.cli import main
from goldenbeta.fseq import FDecomposition, decompose_F
from goldenbeta.rewrite import apply_rule
from goldenbeta.words import DigitWord, parse_word

P1 = make_params(1, ODD)


# -- the points each check classifies -------------------------------------

@pytest.fixture
def checked(monkeypatch):
    """The point lists handed to ``_classification_failure``, in call order;
    every call passes."""
    calls = []

    def record(params, xs, verdict, *args, **kwargs):
        calls.append((params, list(xs), verdict))

    monkeypatch.setattr(verify, "_classification_failure", record)
    return calls


def ref_canonical_members_k1(params, bound_pq=20, n_max=4):
    """The member window as ``verify`` once built it: canonical
    (p*beta+q)/2^n strictly inside (0, beta-1), k=1."""
    seen = set()
    out = []
    top = params.interval_bound
    for n in range(n_max + 1):
        r = 2 ** n
        for p in range(-bound_pq, bound_pq + 1):
            for q in range(-bound_pq, bound_pq + 1):
                x = FieldElem(params, p, q, r)
                if x in seen:
                    continue
                seen.add(x)
                if x.sign() > 0 and x < top:
                    out.append(x)
    return out


@pytest.mark.parametrize("bound_pq, n_max", [(20, 4), (12, 3), (6, 2)])
def test_member_set_matches_reference(checked, bound_pq, n_max):
    passed, detail = verify.check_member_classification(None, bound_pq, n_max)
    ((params, xs, verdict),) = checked
    ref = ref_canonical_members_k1(P1, bound_pq, n_max)
    assert (params, verdict) == (P1, expand.COUNTABLY_INFINITE)
    assert len(set(xs)) == len(xs) == len(ref) and set(xs) == set(ref)
    assert passed and detail.startswith(f"{len(ref)} members")
    if (bound_pq, n_max) == (20, 4):
        assert len(xs) == 607


def test_even_parity_set_unchanged(checked):
    ref = []  # the points of the check's old loop over n and p
    for k in (1, 2):
        params = make_params(k, EVEN)
        ref.append([params.from_rational(p, den) for den in ((k + 1) ** n for n in range(7))
                    for p in range(1, 2 * den) if gcd(p, den) == 1])
    ref.append([make_params(1, EVEN).from_rational(num, 3) for num in (1, 2, 4, 5)])
    assert verify.check_even_parity(None) == (True, "k in {1,2}, n<=6, plus thirds")
    assert [xs for _, xs, _ in checked] == ref
    assert [v for _, _, v in checked] == [expand.COUNTABLY_INFINITE] * 2 + [expand.CONTINUUM]


@pytest.mark.parametrize("seed", range(5))
def test_nonmember_sample_is_distinct(seed):
    xs = verify._sample_nonmembers_k1(random.Random(seed), P1, 200)
    assert len(set(xs)) == 200
    assert not any(map(fe_membership, xs))  # which also refuses a point outside


# -- planted faults --------------------------------------------------------

def _plant_classify(monkeypatch, fault):
    """Replace ``expand.classify`` by one that passes each result through
    ``fault(x, classification)``."""
    real = expand.classify
    monkeypatch.setattr(expand, "classify",
                        lambda x, params: fault(x, real(x, params)))


HALF = FieldElem(P1, 0, 1, 2)


def _at_half(change):
    return lambda x, c: change(c) if x == HALF else c


def _digits(c, digits):
    return expand.Classification(c.verdict, DigitWord(c.certificate.int_part, digits))


@pytest.mark.parametrize("change, detail", [
    (lambda c: expand.Classification(expand.CONTINUUM, (2, 3)), "1/2 misclassified as Continuum"),
    (lambda c: _digits(c, c.certificate.digits[:-1] + (c.certificate.digits[-1] - 1,)),
     "certificate does not round-trip for 1/2"),
    (lambda c: _digits(c, c.certificate.digits + (0,) * (41 - len(c.certificate.digits))),
     "certificate too long for 1/2"),
])
def test_member_check_catches(monkeypatch, change, detail):
    _plant_classify(monkeypatch, _at_half(change))
    assert verify.check_member_classification(None, 6, 2) == (False, detail)


def test_member_check_takes_40_digits(monkeypatch):
    _plant_classify(monkeypatch, _at_half(
        lambda c: _digits(c, c.certificate.digits + (0,) * (40 - len(c.certificate.digits)))))
    assert verify.check_member_classification(None, 6, 2)[0]


def test_nonmember_check_catches_short_witnesses(monkeypatch):
    real = expand.branch_witness

    def one_repeated(*args):  # 256 prefixes, 255 of them distinct
        ws = real(*args)
        return ws[:255] + ws[:1]

    monkeypatch.setattr(expand, "branch_witness", one_repeated)
    first = verify._sample_nonmembers_k1(random.Random(0), P1, 3)[0]
    assert verify.check_nonmember_classification(random.Random(0), count=3) == (
        False, f"only 255 witnesses for {format_field(first)}")


@pytest.mark.parametrize("cert, good", [
    ((30, 3), True),
    ((30, 5), True),   # any prime of the denominator outside k+1 will do
    ((60, 3), False),  # not x's denominator
    ((30, 7), False),  # not a divisor of it
    ((30, 2), False),  # divides k+1
    ((30, 15), False),  # not a prime
    ((30, 1), False),
    ((30, -3), False),
])
def test_nonmember_check_reads_the_prime(monkeypatch, cert, good):
    x = P1.from_rational(1, 30)
    monkeypatch.setattr(verify, "_sample_nonmembers_k1", lambda rng, params, count: [x])
    _plant_classify(monkeypatch, lambda x, c: expand.Classification(c.verdict, cert))
    passed, detail = verify.check_nonmember_classification(None, count=1)
    assert passed is good
    if not good:
        assert detail == f"wrong certificate {cert} for 1/30"


def test_even_parity_check_names_k(monkeypatch):
    third = make_params(2, EVEN).from_rational(1, 3)
    _plant_classify(monkeypatch, lambda x, c: expand.Classification(
        expand.CONTINUUM, (3, 3)) if x == third else c)
    assert verify.check_even_parity(None) == (False, "1/3 misclassified as Continuum, k=2")


_classify = expand.classify

# (check, module, name, planted value of module.name, the check's detail);
# each planted fault is one the check exists to catch
_PLANTED_FAULTS = [
    (verify.check_fn_identity, verify, "fn_identity_check", lambda params, n: n != 3,
     "identity fails at k=1, n=3"),
    (verify.check_decompose, verify, "decompose_F", lambda k, n: FDecomposition(n, (n + 1,)),
     "reconstruction fails at k=1, n=0"),
    (verify.check_decompose, verify, "decompose_F",
     lambda k, n: FDecomposition(n, (n,)) if n == 3 else decompose_F(k, n),
     "coefficient out of range at k=1, n=3"),
    (verify.check_decompose, verify, "decompose_F",
     lambda k, n: FDecomposition(n, decompose_F(k, n).coeffs + (0,)),
     "length bound fails at k=1, n=0, l=1"),
    (verify.check_growth_ratio, verify, "f_seq", lambda k, n: [1] * n, "F_3 != (k+2)F_2 at k=1"),
    (verify.check_growth_ratio, verify, "f_seq", lambda k, n: [(k + 2) ** i for i in range(n)],
     "ratio bound fails at k=1, n=3"),
    (verify.check_one_family, expand, "expansions_of_one", lambda depth, params: [],
     "family/tree mismatch at k=1, depth=8"),
    (verify.check_one_family, verify, "word_value", lambda w, params: params.zero,
     "family member not equal to 1 at k=1"),
    (verify.check_growth_dichotomy, expand, "enumerate_prefixes",
     lambda x, depth, params: SimpleNamespace(count_at=lambda d: 2 ** d),
     "count at depth 4 exceeds 2d+2 for x=1"),
    (verify.check_growth_dichotomy, expand, "enumerate_prefixes",
     lambda x, depth, params: SimpleNamespace(count_at=lambda d: d),
     "count at depth 20 for 1/3 is 20"),
    (verify.check_cross_route, expand, "construct_route", lambda x, params: None,
     "constructive route succeeded on only 0 inputs"),
    (verify.check_even_parity, expand, "classify",
     lambda x, params: expand.Classification(expand.COUNTABLY_INFINITE, DigitWord(0, ()))
     if params.k == 1 and x.r == 3 else _classify(x, params),
     "1/3 misclassified as CountablyInfinite"),
]


@pytest.mark.parametrize("check, module, name, planted, detail", _PLANTED_FAULTS,
                         ids=[fault[-1] for fault in _PLANTED_FAULTS])
def test_checks_report_planted_faults(monkeypatch, check, module, name, planted, detail):
    monkeypatch.setattr(module, name, planted)
    assert check(random.Random(0)) == (False, detail)


def test_verify_refuses_an_unknown_level():
    with pytest.raises(DomainError, match=r"level must be one of \('fast', 'full'\), got 'slow'"):
        verify.verify_suite("slow")


# -- apply_rule checks every rule's value and shape -----------------------

def _plant_rule(monkeypatch, rule, fn):
    """Swap ``rule``'s function in its row of the rule table for ``fn``."""
    monkeypatch.setitem(rewrite._RULES, rule, (fn, *rewrite._RULES[rule][1:]))


def _one_digit_more(rule_fn):
    """``rule_fn`` with a digit 1 appended to its output: a word of another value."""
    def planted(*args):
        out = rule_fn(*args)
        return DigitWord(out.int_part, out.digits + (1,))
    return planted


@pytest.mark.parametrize("rule, words", [
    ("add", ("0.2", "0.2")),
    ("div", ("0.2,1",)),
    ("mulbeta", ("0.1",)),
])
def test_apply_rule_checks_value(monkeypatch, rule, words):
    words = [parse_word(t, P1) for t in words]
    apply_rule(rule, P1, *words)  # the real rule passes
    _plant_rule(monkeypatch, rule, _one_digit_more(rewrite._RULES[rule][0]))
    with pytest.raises(AssertionError, match=f"rule {rule} gave a word of the wrong value"):
        apply_rule(rule, P1, *words)


def _digitwise_sum(x, y, params):
    return DigitWord(x.int_part + y.int_part, tuple(a + b for a, b in zip(x.digits, y.digits)))


# each planted function returns a word of the right value and the wrong shape
@pytest.mark.parametrize("rule, words, planted", [
    ("carry", ("0.3,2",), lambda w, params: w),  # integer part 0, not 1
    ("borrow", ("1.0,3",), lambda w, params: w),  # integer part 1, not 0
    ("reduce", ("0.3",), lambda w, params: w),  # a digit above k+1
    ("add", ("0.2", "0.2"), _digitwise_sum),  # 0.4: a digit above m
    ("mulbeta", ("0.1",), lambda w, params: DigitWord(0, (1, 4, 2))),  # 1 = 0.2,2 = 0.1,4,2
    ("bsep", ("0.2,2",), lambda w, params, steps=None: w),  # two consecutive big digits
    # w/(k+1) = w/beta + w/beta^2 added digit by digit: 0.3,3 / 2 = 0.0,3,6,3
    ("div", ("0.3,3",), lambda w, params: DigitWord(
        0, tuple(map(sum, zip((0, *w.digits, 0), (0, 0, *w.digits)))))),
])
def test_apply_rule_checks_shape(monkeypatch, rule, words, planted):
    words = [parse_word(t, P1) for t in words]
    apply_rule(rule, P1, *words)  # the real rule passes
    _plant_rule(monkeypatch, rule, planted)
    with pytest.raises(AssertionError, match=f"rule {rule} gave a word of the wrong shape"):
        apply_rule(rule, P1, *words)


def test_cross_route_catches_a_longer_search_word(monkeypatch):
    # the search returns a shortest word; nine digits more make it longer
    # than a constructed word of the same value
    real = expand.synth_finite
    monkeypatch.setattr(expand, "synth_finite",
                        lambda x, params: DigitWord(0, real(x, params).digits + (0,) * 9))
    assert verify.check_cross_route(None) == (
        False, "search word longer than the constructed one for (-2+1*b)/16")


# -- a failed self-check is a report or one error line, not a traceback ----

def test_verify_reports_a_raising_check(monkeypatch, capsys):
    # construct_route adds words by rewrite.add_words and raises on the lost value
    monkeypatch.setattr(rewrite, "add_words", _one_digit_more(rewrite.add_words))
    assert main(["verify", "--level", "full"]) == 1
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert not checks["cross-route-consistency"]["passed"]
    assert "constructive route lost the value" in checks["cross-route-consistency"]["detail"]


def test_cli_reports_a_failed_rule_check(monkeypatch, capsys):
    _plant_rule(monkeypatch, "add", _one_digit_more(rewrite.add_words))
    assert main(["rewrite", "add", "0.2", "0.2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: rule add gave a word of the wrong value on ")
