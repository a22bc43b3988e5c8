"""The four benchmark workloads: dichotomy, census, enumerate, rewrite.

Each workload builds its inputs from a seeded ``random.Random`` and the
independent oracle, hands the package only those inputs, and splits its
work into items.  ``run`` makes the user-facing calls of one item through
``call(name, fn, *args)``, which either calls ``fn`` directly or records a
span; ``extra`` makes the traced run's direct layer calls next to it;
``check`` verifies one output against the oracle, outside the timed span.
NOTES.md says why each workload exists and which layer metric should move
which end-to-end metric.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math

import oracle
from oracle import COUNTABLE, Orbit, System

SYSTEMS = ((1, "odd"), (2, "odd"), (3, "odd"), (1, "even"), (2, "even"))

# (denominators, |p| bound, q range) per system.  The k=1 window contains
# the support of the acceptance gate's non-member sampler: denominators
# {3,5,7}x{1,2,4}, |p| <= 6, -6 <= q <= 12.
DICHOTOMY_WINDOWS = {
    (1, "odd"): ((1, 2, 4, 8) + tuple(a * b for a in (3, 5, 7) for b in (1, 2, 4)),
                 6, -6, 12),
    (2, "odd"): ((1, 3, 9, 2, 5, 7), 3, -3, 6),
    (3, "odd"): ((1, 4, 16, 3, 5), 3, -3, 6),
    (1, "even"): ((1, 2, 4, 8, 16, 3, 5, 6, 7, 12), 0, 1, 40),
    (2, "even"): ((1, 3, 9, 27, 2, 4, 5, 7), 0, 1, 60),
}
WITNESS_DEPTH, WITNESS_BUDGET = 24, 256

# One census call per system and (den bound, num bound) window, at that
# system's depths: 25 calls of 1 to 6 rows and about 5-50 ms each.
CENSUS_WINDOWS = ((1, 1), (1, 2), (2, 1), (1, 3), (2, 2))
CENSUS_DEPTHS = {(1, "odd"): (6, 12), (2, "odd"): (6, 9), (3, "odd"): (6, 8),
                 (1, "even"): (6, 12), (2, "even"): (6, 8)}
CENSUS_PROBE = {(1, "odd"): (3, 3, (6,))}
CENSUS_CHECKED_ROWS = 4  # rows per call whose prefix counts the oracle recounts

# listing sizes the item depths aim at, in printed digits (prefixes x depth)
ENUMERATE_TARGETS = (200, 400, 800)
ENUMERATE_DEPTHS = (6, 24)

REWRITE_RULES = ("cr_step", "b_separate", "carry_T_plus", "borrow_T_minus",
                 "reduce_digits", "add_words", "div_word_by_k1", "mul_beta_word")
PRESERVING = {"cr_step", "b_separate", "carry_T_plus", "borrow_T_minus", "reduce_digits"}


def plain_call(name, fn, *args):
    return fn(*args)


def literal(x) -> str:
    """Field literal of an oracle point, in the CLI's input grammar."""
    p, q, r = x
    body = f"{q}" if p == 0 else f"({q}{p:+d}*b)"
    return body if r == 1 else f"{body}/{r}"


def plain_word(gb, w):
    if isinstance(w, gb.words.DigitWord):
        return w.int_part, tuple(w.digits)
    return w.int_part, tuple(w.preperiod), tuple(w.period)


def point_of(fx) -> tuple[int, int, int]:
    return fx.p, fx.q, fx.r


def cli_call(call, name, main, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = call(name, main, argv)
    return rc, buf.getvalue()


def system_argv(s: System) -> list[str]:
    return ["--k", str(s.k), "--parity", s.parity]


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    """One pass is ``schedule``; a run repeats whole passes in a closed
    loop, at least two of them, until its repeated items have been timed
    for the run's seconds."""

    name = ""
    warm_error: str | None = None

    def __init__(self, gb):
        self.gb = gb
        self.schedule: list = []

    def enough(self, n: int, repeated_ns: int, seconds: float) -> bool:
        passes, rest = divmod(n, len(self.schedule))
        return rest == 0 and passes >= 2 and repeated_ns >= seconds * 1e9

    def units(self, item) -> int:
        return 1

    def params(self, s: System):
        return self.gb.algebra.make_params(s.k, s.parity)


class Dichotomy(Workload):
    """Every interior point of a fixed window per system: classify, then
    evaluate the certificate or build branch witnesses."""

    name = "dichotomy"

    def __init__(self, gb, rng, probe=False):
        super().__init__(gb)
        FieldElem = gb.algebra.FieldElem
        items, self.warmup = [], []
        for key in SYSTEMS:
            s = System(*key)
            P = self.params(s)
            pts = s.window(*DICHOTOMY_WINDOWS[key])
            member = [x for x in pts if s.is_member(x[2])]
            other = [x for x in pts if not s.is_member(x[2])]
            for x in member[:1] + other[:1]:
                self.warmup.append((s, P, x, FieldElem(P, *x)))
            items += [(s, P, x, FieldElem(P, *x)) for x in pts]
        if probe:
            items = rng.sample(items, 24)
        rng.shuffle(items)
        self.schedule = items

    def warm(self):
        for item in self.warmup:
            self.run(item, plain_call)

    def label(self, item) -> str:
        s, _, x, _ = item
        return f"k={s.k} {s.parity} {literal(x)}"

    def points(self):
        return [fx for _, _, _, fx in self.schedule]

    def run(self, item, call):
        s, P, x, fx = item
        ex = self.gb.expand
        if s.is_member(x[2]):
            c = call("expand.classify.member", ex.classify, fx, P)
            v = call("words.word_value", self.gb.words.word_value, c.certificate, P)
            return c, v, None
        c = call("expand.classify.nonmember", ex.classify, fx, P)
        ws = call("expand.branch_witness", ex.branch_witness, fx,
                  WITNESS_DEPTH, WITNESS_BUDGET, P)
        return c, None, ws

    def extra(self, item, out, tr):
        c, _, _ = out
        if c.verdict == COUNTABLE:
            tr.count("expand.synth_finite.cert_digits", len(c.certificate.digits))

    def check(self, item, out) -> int:
        s, _, x, _ = item
        c, v, ws = out
        if c.verdict != s.verdict(x):
            return 1
        if ws is None:
            ok = (oracle.check_certificate(s, x, plain_word(self.gb, c.certificate))
                  and point_of(v) == x)
        else:
            den, prime = c.certificate
            ok = (oracle.check_continuum(s, x, den, prime)
                  and oracle.check_witnesses(s, x, ws, WITNESS_DEPTH, WITNESS_BUDGET))
        return 0 if ok else 1

    def canon(self, item, out) -> str:
        c, v, ws = out
        if ws is None:
            cert = plain_word(self.gb, c.certificate)
            return f"{self.label(item)}|{c.verdict}|{cert}|{point_of(v)}"
        return f"{self.label(item)}|{c.verdict}|{c.certificate}|{sha(repr(ws))}"


class Census(Workload):
    """``goldenbeta census`` with deep depths over small windows, five calls
    per system; an item is one output row."""

    name = "census"

    def __init__(self, gb, rng, probe=False):
        super().__init__(gb)
        calls = list(CENSUS_PROBE.items()) if probe else [
            (key, (den, num, CENSUS_DEPTHS[key]))
            for key in SYSTEMS for den, num in CENSUS_WINDOWS]
        items = []
        for key, (den, num, depths) in calls:
            s = System(*key)
            pts = s.census_points(den, num)
            checked = set(rng.sample(range(len(pts)), min(CENSUS_CHECKED_ROWS, len(pts))))
            argv = (["census"] + system_argv(s)
                    + ["--den-bound", str(den), "--num-bound", str(num),
                       "--depths", ",".join(map(str, depths))])
            items.append((s, argv, den, num, depths, pts, checked))
        rng.shuffle(items)
        self.schedule = items

    def warm(self):
        argv = ["census", "--den-bound", "2", "--num-bound", "2", "--depths", "4"]
        cli_call(plain_call, "", self.gb.cli.main, argv)

    def label(self, item) -> str:
        return " ".join(item[1])

    def units(self, item) -> int:
        return len(item[5])

    def points(self):
        FieldElem = self.gb.algebra.FieldElem
        return [FieldElem(self.params(s), *x) for s, *_, pts, _ in self.schedule for x in pts]

    def run(self, item, call):
        return cli_call(call, "cli.main.census", self.gb.cli.main, item[1])

    def extra(self, item, out, tr):
        s, _, den, num, depths, pts, checked = item
        P = self.params(s)
        tr.call("cli.census_elements", self.gb.cli.census_elements, P, den, num)
        tr.count("cli.output_bytes", len(out[1].encode()))
        FieldElem = self.gb.algebra.FieldElem
        for i in sorted(checked):
            enumerate_direct(self.gb, tr, FieldElem(P, *pts[i]), max(depths), P)

    def check(self, item, out) -> int:
        s, _, _, _, depths, pts, checked = item
        rc, text = out
        if rc != 0:
            return len(pts)
        rows = json.loads(text)["result"]
        if len(rows) != len(pts):
            return len(pts)
        bad = 0
        for i, (row, x) in enumerate(zip(rows, pts)):
            bad += not self._row_ok(s, row, x, depths, i in checked)
        return bad

    @staticmethod
    def _row_ok(s: System, row, x, depths, recount: bool) -> bool:
        if (oracle.parse_point(s, row["x"]) != x or row["k"] != s.k
                or row["parity"] != s.parity or row["verdict"] != s.verdict(x)):
            return False
        cert = row["certificate"]
        if row["verdict"] == COUNTABLE:
            if not oracle.check_certificate(s, x, oracle.parse_finite_word(cert)):
                return False
        elif not oracle.check_continuum(s, x, cert["denominator"], cert["prime"]):
            return False
        pairs = row["prefix_count_at_depth"]
        if [d for d, _ in pairs] != list(depths):
            return False
        if recount:
            counts = Orbit(s, x).counts(max(depths))
            return all(counts[d] == c for d, c in pairs)
        return True

    def canon(self, item, out) -> str:
        return f"{self.label(item)}|{out[0]}|{sha(out[1])}"


def enumerate_direct(gb, tr, fx, depth, P):
    tree = tr.call("expand.enumerate_prefixes", gb.expand.enumerate_prefixes, fx, depth, P)
    tr.count("expand.enumerate_prefixes.nodes", sum(tree.count_at(d) for d in range(depth + 1)))


def enumerate_depth(counts, lo, target):
    """The depth >= lo whose listing size count*depth is nearest the
    target by ratio; ``counts`` runs up to the first depth reaching it."""
    depths = range(lo, len(counts)) if len(counts) > lo else [len(counts) - 1]
    return min(depths, key=lambda d: abs(math.log(max(counts[d] * d, 1) / target)))


class Enumerate(Workload):
    """``goldenbeta enumerate`` on a seeded draw of countable and continuum
    points, each at the depth whose listing size is nearest a target.

    The draw is stratified: item i has a fixed system, class (one in four
    countable) and target, and the seed picks the point inside that
    stratum, so the mix of work is the same for every seed."""

    name = "enumerate"
    pool_size = 200

    def __init__(self, gb, rng, probe=False):
        super().__init__(gb)
        strata = {}
        for key in SYSTEMS:
            s = System(*key)
            pts = s.window(*DICHOTOMY_WINDOWS[key])
            strata[key, True] = [x for x in pts if s.is_member(x[2])]
            strata[key, False] = [x for x in pts if not s.is_member(x[2])]
        size = 10 if probe else self.pool_size
        targets = (200,) if probe else ENUMERATE_TARGETS
        lo, hi = ENUMERATE_DEPTHS
        items = []
        for i in range(size):
            key = SYSTEMS[i % len(SYSTEMS)]
            s = System(*key)
            x = rng.choice(strata[key, (i // len(SYSTEMS)) % 4 == 0])
            target = targets[(i // (4 * len(SYSTEMS))) % len(targets)]
            depth = enumerate_depth(Orbit(s, x).counts(hi, until=target), lo, target)
            argv = ["enumerate", literal(x), "--depth", str(depth)] + system_argv(s)
            items.append((s, x, depth, argv))
        rng.shuffle(items)
        self.schedule = items

    def warm(self):
        cli_call(plain_call, "", self.gb.cli.main, ["enumerate", "1/3", "--depth", "8"])

    def label(self, item) -> str:
        return " ".join(item[3])

    def points(self):
        FieldElem = self.gb.algebra.FieldElem
        return [FieldElem(self.params(s), *x) for s, x, _, _ in self.schedule]

    def run(self, item, call):
        return cli_call(call, "cli.main.enumerate", self.gb.cli.main, item[3])

    def extra(self, item, out, tr):
        s, x, depth, _ = item
        P = self.params(s)
        tr.count("cli.output_bytes", len(out[1].encode()))
        enumerate_direct(self.gb, tr, self.gb.algebra.FieldElem(P, *x), depth, P)

    def check(self, item, out) -> int:
        s, x, depth, _ = item
        rc, text = out
        if rc != 0:
            return 1
        res = json.loads(text)["result"]
        prefixes = [tuple(p) for p in res["prefixes"]]
        ok = res["depth"] == depth and oracle.check_prefix_listing(
            s, x, depth, res["count"], prefixes)
        return 0 if ok else 1

    def canon(self, item, out) -> str:
        return f"{self.label(item)}|{out[0]}|{sha(out[1])}"


class Rewrite(Workload):
    """Seeded random words through every rewrite rule, each output
    evaluated with ``word_value``, plus constructive synthesis of members
    with the search as fallback, for k = 1..3."""

    name = "rewrite"
    rounds = 600

    def __init__(self, gb, rng, probe=False):
        super().__init__(gb)
        FieldElem = gb.algebra.FieldElem
        DigitWord, EvPeriodicWord = gb.words.DigitWord, gb.words.EvPeriodicWord
        systems = [System(k, "odd") for k in (1, 2, 3)]
        windows = {s.k: s.window((1, s.k1, s.k1 ** 2, s.k1 ** 3), 8, -8, 8) for s in systems}
        members = {k: rng.sample(pts, len(pts)) for k, pts in windows.items()}

        def digits(s, lo=0, hi=8):
            return tuple(rng.randint(0, s.m) for _ in range(rng.randint(lo, hi)))

        def led(s, lead, ip):
            tail = digits(s, hi=6)
            if rng.random() < 0.5:
                return DigitWord(ip, (lead, *tail))
            return EvPeriodicWord(ip, (lead, *digits(s, hi=3)), digits(s, lo=1, hi=3))

        items = []
        rounds = 30 if probe else self.rounds
        for i in range(rounds):
            s = systems[i % 3]
            P = self.params(s)
            k = s.k
            limit = (-k, s.k1 * s.k1, s.k1)  # (beta-k)/beta, mul_beta_word's domain
            below = DigitWord(0, digits(s))
            while not s.word_below(plain_word(gb, below), limit):
                below = DigitWord(0, digits(s))
            inputs = {
                "cr_step": (DigitWord(0, digits(s)),),
                "b_separate": (DigitWord(0, digits(s)),),
                "carry_T_plus": (led(s, rng.randint(k + 2, 2 * k + 1), 0),),
                "borrow_T_minus": (led(s, rng.randint(0, k - 1), 1),),
                "reduce_digits": (DigitWord(0, digits(s)),),
                "add_words": (DigitWord(0, digits(s, hi=6)), DigitWord(0, digits(s, hi=6))),
                "div_word_by_k1": (DigitWord(0, digits(s)),),
                "mul_beta_word": (below,),
            }
            for rule in REWRITE_RULES:
                items.append((s, P, rule, inputs[rule]))
            pts = members[k]
            x = pts[(i // 3) % len(pts)]
            items.append((s, P, "synth", (x, FieldElem(P, *x))))
        self.schedule = items
        # syntheses differ widely in cost, so the warm-up synthesises a
        # point that does not depend on the seed, and so does setup_s
        s, x = systems[0], windows[1][0]
        P = self.params(s)
        self.warmup = items[:8] + [(s, P, "synth", (x, FieldElem(P, *x)))]

    def warm(self):
        for item in self.warmup:
            self.run(item, plain_call)

    def label(self, item) -> str:
        s, _, rule, args = item
        if rule == "synth":
            return f"synth k={s.k} {literal(args[0])}"
        fmt = self.gb.words.format_word
        return f"{rule} k={s.k} " + " ".join(fmt(w) for w in args)

    def points(self):
        return [args[1] for _, _, rule, args in self.schedule if rule == "synth"]

    def run(self, item, call):
        s, P, rule, args = item
        gb = self.gb
        if rule == "synth":
            w = call("expand.construct_route", gb.expand.construct_route, args[1], P)
            built = w is not None
            if not built:
                w = call("expand.synth_finite", gb.expand.synth_finite, args[1], P)
        else:
            w = call("rewrite." + rule, getattr(gb.rewrite, rule), *args, P)
            built = None
        return w, call("words.word_value", gb.words.word_value, w, P), built

    def extra(self, item, out, tr):
        s, P, rule, args = item
        if rule != "synth":
            return
        tr.count("expand.construct_route.success", int(out[2]))
        p, q, r = args[0]
        power = 1
        while power % r:
            power *= s.k1
        tr.call("fseq.decompose_F", self.gb.fseq.decompose_F, s.k, p * (power // r))

    def check(self, item, out) -> int:
        s, _, rule, args = item
        w, v, _ = out
        pw = plain_word(self.gb, w)
        got = s.word_fraction(pw)
        if rule == "synth":
            want = s.point_fraction(args[0])
            ok = len(pw) == 2 and s.digits_valid(pw[1]) and pw[0] == 0
        else:
            vals = [s.word_fraction(plain_word(self.gb, a)) for a in args]
            if rule in PRESERVING:
                want = vals[0]
            elif rule == "add_words":
                want = s.add(vals[0], vals[1])
            elif rule == "div_word_by_k1":
                got = s.scale(got, (0, s.k1))
                want = vals[0]
            else:  # mul_beta_word
                want = s.scale(vals[0], (1, 0))
            ok = True
        ok = ok and s.equal(got, want) and s.equal(
            s.word_fraction(pw), s.point_fraction(point_of(v)))
        return 0 if ok else 1

    def canon(self, item, out) -> str:
        return f"{self.label(item)}|{self.gb.words.format_word(out[0])}|{point_of(out[1])}"


WORKLOADS = {w.name: w for w in (Dichotomy, Census, Enumerate, Rewrite)}
