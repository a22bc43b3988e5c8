"""Named self-checks over the whole library, at two depths.

``fast`` runs the cheap identities and a thousand randomized
value-preservation trials; ``full`` additionally runs the desk-scale
classification sweeps and the constructive route.  Every check is a pure
function of the seed, so reports are byte-reproducible.

The classification checks certify each point by the certificate of its
verdict (see ``_classification_failure``): ``member-classification``
every (p*beta+q)/2^n of the k = 1 census window as countable,
``nonmember-classification`` 200 distinct sampled non-members as
continuum points, and ``even-parity-classification`` each p/(k+1)^n,
k = 1, 2, as countable and four thirds as continuum points;
``cross-route-consistency`` has ``expand.construct_route`` build 100 of
those members, each checked by that function's own value raise and
never shorter than the search's shortest word.
"""

from __future__ import annotations

import random
import zlib
from math import gcd, isqrt

from .algebra import (
    EVEN,
    ODD,
    DomainError,
    FieldElem,
    Params,
    census_elements,
    fe_membership,
    format_field,
    make_params,
)
from .fseq import decompose_F, f_seq, fn_identity_check
from .words import DigitWord, EvPeriodicWord, Word, word_value
from . import LEVELS, expand, rewrite


def _random_finite(rng: random.Random, params: Params, max_len=8) -> DigitWord:
    n = rng.randint(0, max_len)
    return DigitWord(0, tuple(rng.randint(0, params.m) for _ in range(n)))


def _random_word(rng: random.Random, params: Params) -> Word:
    if rng.random() < 0.5:
        return _random_finite(rng, params)
    pre = tuple(rng.randint(0, params.m) for _ in range(rng.randint(0, 3)))
    per = tuple(rng.randint(0, params.m) for _ in range(rng.randint(1, 3)))
    return EvPeriodicWord(0, pre, per)


def _with_first(w: Word, first: int, int_part: int) -> Word:
    if isinstance(w, DigitWord):
        return DigitWord(int_part, (first, *w.digits))
    return EvPeriodicWord(int_part, (first, *w.preperiod), w.period)


# -- individual checks -----------------------------------------------------
# each returns (passed, detail)

def check_fn_identity(rng, n_max=30):
    for k in (1, 2, 3):
        params = make_params(k, ODD)
        for n in range(1, n_max + 1):
            if not fn_identity_check(params, n):
                return False, f"identity fails at k={k}, n={n}"
    return True, f"k<=3, n<={n_max}"


def check_decompose(rng):
    for k in (1, 2, 3):
        seq = f_seq(k, 8)
        for n in range(seq[7]):
            dec = decompose_F(k, n)
            if dec.reconstruct(k) != n:
                return False, f"reconstruction fails at k={k}, n={n}"
            if any(not 0 <= c <= k + 1 for c in dec.coeffs):
                return False, f"coefficient out of range at k={k}, n={n}"
            # fewer than l terms whenever n < F_l
            for l in range(1, 9):
                if n < seq[l - 1] and dec.length >= l:
                    return False, f"length bound fails at k={k}, n={n}, l={l}"
    return True, "all n < F_8, k<=3"


def check_growth_ratio(rng):
    """F_{n+1} <= (k+2)F_n for n >= 2, equality exactly at n = 2."""
    for k in (1, 2, 3, 5):
        seq = f_seq(k, 12)
        if seq[2] != (k + 2) * seq[1]:
            return False, f"F_3 != (k+2)F_2 at k={k}"
        for n in range(3, 12):
            if not seq[n] < (k + 2) * seq[n - 1]:
                return False, f"ratio bound fails at k={k}, n={n}"
    return True, "equality at n=2, strict after"


def check_one_family(rng, depth=8):
    for k in (1, 2, 3):
        params = make_params(k, ODD)
        tree = expand.enumerate_prefixes(params.one, depth, params)
        family = {w.prefix(depth) for w in expand.expansions_of_one(depth, params)}
        if family != set(tree.prefixes_at()):
            return False, f"family/tree mismatch at k={k}, depth={depth}"
        for w in expand.expansions_of_one(depth, params):
            if word_value(w, params) != params.one:
                return False, f"family member not equal to 1 at k={k}"
    return True, f"k<=3, depth={depth}"


def _trial_words(rule: str, rng, params: Params) -> tuple[Word, ...]:
    """Random input words for one trial of ``rule``, inside its domain."""
    k = params.k
    if rule == "carry":
        return (_with_first(_random_word(rng, params), rng.randint(k + 2, 2 * k + 1), 0),)
    if rule == "borrow":
        return (_with_first(_random_word(rng, params), rng.randint(0, k - 1), 1),)
    if rule == "add":
        return _random_finite(rng, params), _random_finite(rng, params)
    if rule == "mulbeta":  # beta*x must stay inside the interval
        limit = params.interval_bound.div_beta()
        while True:
            w = _random_finite(rng, params, max_len=5)
            if word_value(w, params) < limit:
                return (w,)
    return (_random_finite(rng, params),)


def check_value_preservation(rng, samples=1000):
    """Random words through every rule by ``rewrite.apply_rule``, which
    raises when a rule's output has the wrong value or shape."""
    params_pool = [make_params(k, ODD) for k in (1, 2, 3)]
    for trial in range(samples):
        params = params_pool[trial % len(params_pool)]
        rule = rewrite.RULES[trial % len(rewrite.RULES)]
        rewrite.apply_rule(rule, params, *_trial_words(rule, rng, params))
    return True, f"{samples} randomized trials"


def _classification_failure(params: Params, xs, verdict: str, max_len=None,
                            depth=24, budget=256) -> str | None:
    """What is wrong with the first point of ``xs`` not classified as
    ``verdict`` with a sound certificate, or None: a word of value x in at
    most ``max_len`` digits (None: any), or x's denominator and a prime of
    it outside k+1, with ``budget`` distinct branch witnesses at ``depth``."""
    for x in xs:
        c, at = expand.classify(x, params), format_field(x)
        if c.verdict != verdict:
            return f"{at} misclassified as {c.verdict}"
        if verdict == expand.COUNTABLY_INFINITE:
            if max_len is not None and len(c.certificate.digits) > max_len:
                return f"certificate too long for {at}"
            if word_value(c.certificate, params) != x:
                return f"certificate does not round-trip for {at}"
            continue
        den, prime = c.certificate
        if (den != x.r or prime < 2 or den % prime or (params.k + 1) % prime == 0
                or any(prime % d == 0 for d in range(2, isqrt(prime) + 1))):
            return f"wrong certificate {c.certificate} for {at}"
        n = len(set(expand.branch_witness(x, depth, budget, params)))
        if n < budget:
            return f"only {n} witnesses for {at}"
    return None


def check_member_classification(rng, bound_pq=20, n_max=4, max_len=40):
    params = make_params(1, ODD)
    members = [x for x in census_elements(params, 2 ** n_max, bound_pq) if fe_membership(x)]
    fail = _classification_failure(params, members, expand.COUNTABLY_INFINITE, max_len)
    return (not fail, fail or f"{len(members)} members, certificates <= {max_len} digits")


def _sample_nonmembers_k1(rng, params, count=200):
    out = []
    while len(out) < count:
        den = rng.choice((3, 5, 7)) * rng.choice((1, 1, 2, 4))
        p = rng.randint(-6, 6)
        q = rng.randint(-6, 12)
        x = FieldElem(params, p, q, den)
        if x.sign() > 0 and x < params.interval_bound and not (fe_membership(x) or x in out):
            out.append(x)
    return out


def check_nonmember_classification(rng, count=200, depth=24, budget=256):
    params = make_params(1, ODD)
    fail = _classification_failure(params, _sample_nonmembers_k1(rng, params, count),
                                   expand.CONTINUUM, depth=depth, budget=budget)
    return (not fail, fail or f"{count} non-members, {budget} witnesses each")


def check_growth_dichotomy(rng, depth=20):
    params = make_params(1, ODD)
    linear = expand.enumerate_prefixes(params.one, depth, params)
    for d in range(1, depth + 1):
        if linear.count_at(d) > 2 * d + 2:
            return False, f"count at depth {d} exceeds 2d+2 for x=1"
    third = expand.enumerate_prefixes(params.from_rational(1, 3), depth, params)
    if third.count_at(depth) <= 2 ** 10:
        return False, f"count at depth {depth} for 1/3 is {third.count_at(depth)}"
    return True, (f"x=1 linear (<=2d+2), x=1/3 reaches "
                  f"{third.count_at(depth)} at depth {depth}")


def check_cross_route(rng, count=100):
    params = make_params(1, ODD)
    members = [x for x in census_elements(params, 2 ** 4, 20) if fe_membership(x)]
    built = 0
    for x in members:
        if built >= count:
            break
        w = expand.construct_route(x, params)
        # the search returns a shortest word, so no valid word of x is shorter
        if w is not None and len(expand.synth_finite(x, params)) > len(w.trimmed()):
            return False, f"search word longer than the constructed one for {format_field(x)}"
        built += w is not None
    if built < count:
        return False, f"constructive route succeeded on only {built} inputs"
    return True, f"{built} member inputs agree across routes"


def check_even_parity(rng, n_max=6):
    for k in (1, 2):
        params = make_params(k, EVEN)
        xs = [params.from_rational(p, den) for den in ((k + 1) ** n for n in range(n_max + 1))
              for p in range(1, 2 * den) if gcd(p, den) == 1]
        fail = _classification_failure(params, xs, expand.COUNTABLY_INFINITE)
        if fail:
            return False, f"{fail}, k={k}"
    params = make_params(1, EVEN)
    thirds = [params.from_rational(num, 3) for num in (1, 2, 4, 5)]
    fail = _classification_failure(params, thirds, expand.CONTINUUM)
    return (not fail, fail or f"k in {{1,2}}, n<={n_max}, plus thirds")


_FAST = (
    ("fn-identity", check_fn_identity),
    ("f-decomposition", check_decompose),
    ("f-growth-ratio", check_growth_ratio),
    ("one-family-completeness", check_one_family),
    ("value-preservation", check_value_preservation),
)

_FULL_EXTRA = (
    ("one-family-depth-12", lambda rng: check_one_family(rng, depth=12)),
    ("value-preservation-10k", lambda rng: check_value_preservation(rng, samples=10_000)),
    ("member-classification", check_member_classification),
    ("nonmember-classification", check_nonmember_classification),
    ("growth-dichotomy", check_growth_dichotomy),
    ("cross-route-consistency", check_cross_route),
    ("even-parity-classification", check_even_parity),
)


def verify_suite(level: str = "fast", seed: int = 0) -> dict:
    """Run all checks for ``level``; returns a machine-readable report.  A
    check that raises fails, with the exception as its detail."""
    if level not in LEVELS:
        raise DomainError(f"level must be one of {LEVELS}, got {level!r}")
    checks = _FAST if level == "fast" else _FAST + _FULL_EXTRA
    results = []
    for name, fn in checks:
        rng = random.Random(seed ^ zlib.crc32(name.encode()))
        try:
            passed, detail = fn(rng)
        except Exception as exc:  # noqa: BLE001 - a fault fails its check, not the suite
            passed, detail = False, f"raised {exc!r}"
        results.append({"name": name, "passed": passed, "detail": detail})
    return {
        "level": level,
        "seed": seed,
        "passed": all(r["passed"] for r in results),
        "checks": results,
    }
