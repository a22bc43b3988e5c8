"""CLI surface: subcommands, formats, exit codes, determinism."""

import argparse
import io
import json
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from enum import IntEnum
from functools import cmp_to_key
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import goldenbeta
from goldenbeta.algebra import ODD, EVEN, DomainError, FieldElem, make_params, parse_field
from goldenbeta.words import parse_word, word_value
from goldenbeta.cli import _json, census_elements, main
import pins
from pins import PINS, failure, label, run_python

P1 = make_params(1, ODD)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def run_process(*argv):
    """The CLI in a fresh interpreter, so that uncaught exceptions reach
    stderr as tracebacks the way a user would see them."""
    return run_python("-m", "goldenbeta.cli", *argv, text=True)


def test_classify_member(capsys):
    code, obj = run_json(capsys, "classify", "1")
    assert code == 0
    assert obj["params"] == {"k": 1, "parity": "odd"}
    assert obj["result"] == "CountablyInfinite"
    w = parse_word(obj["certificate"], P1)
    assert (word_value(w, P1) - P1.one).is_zero()


def test_classify_nonmember(capsys):
    code, obj = run_json(capsys, "classify", "(1+1*b)/6")
    assert code == 0
    assert obj["result"] == "Continuum"
    assert obj["certificate"] == {"denominator": 6, "prime": 3}
    # 1000036000099 = 1000003 * 1000033: one gcd with k+1 = 1000003 leaves
    # the prime, far below the factoring budget's square
    code, obj = run_json(capsys, "classify", "1/1000036000099", "--k", "1000002")
    assert code == 0
    assert obj["certificate"] == {"denominator": 1000036000099, "prime": 1000033}


def test_classify_even(capsys):
    code, obj = run_json(capsys, "classify", "3/4", "--parity", "even")
    assert code == 0
    assert obj["result"] == "CountablyInfinite"


def test_enumerate(capsys):
    code, obj = run_json(capsys, "enumerate", "1", "--depth", "2")
    assert code == 0
    assert obj["result"]["count"] == 3
    assert obj["result"]["prefixes"] == [[1, 3], [2, 1], [2, 2]]


def test_ones(capsys):
    code, obj = run_json(capsys, "ones", "--depth", "4")
    assert code == 0
    assert "0.2,2" in obj["result"]
    assert "0.(2,1)*" in obj["result"]
    for text in obj["result"]:
        w = parse_word(text, P1)
        assert (word_value(w, P1) - P1.one).is_zero()


def test_synth_routes(capsys):
    code, obj = run_json(capsys, "synth", "1/2")
    assert code == 0
    search_val = word_value(parse_word(obj["result"], P1), P1)
    code, obj = run_json(capsys, "synth", "1/2", "--route", "construct")
    assert code == 0
    construct_val = word_value(parse_word(obj["result"], P1), P1)
    assert (search_val - construct_val).is_zero()


def test_rewrite_subcommand(capsys):
    code, obj = run_json(capsys, "rewrite", "carry", "0.3,2")
    assert code == 0
    assert obj["result"] == "1.1,0"
    code, obj = run_json(capsys, "rewrite", "add", "0.2", "0.2")
    assert code == 0
    assert obj["result"] == "1.1,0,2"


def test_rewrite_emitted_words_reparse(capsys):
    for rule, words in (("bsep", ["0.2,3,3"]), ("reduce", ["0.2,3"]),
                        ("div", ["0.2,2"]), ("borrow", ["1.0,(3,0)*"])):
        code, obj = run_json(capsys, "rewrite", rule, *words)
        assert code == 0
        reparsed = parse_word(obj["result"], P1)
        value = parse_field(obj["certificate"]["value"], P1)
        assert (word_value(reparsed, P1) - value).is_zero()


def test_rewrite_zero_period_is_finite(capsys):
    # a period of zeros spells a finite word, which mulbeta takes
    code, finite = run_json(capsys, "rewrite", "mulbeta", "0.1")
    assert code == 0 and finite["result"] == "0.2,2" and finite["certificate"]["value"] == "1"
    for text in ("0.1,(0)*", "0.1,0,(0)*", "0.1,(0,0)*"):
        code, obj = run_json(capsys, "rewrite", "mulbeta", text)
        assert code == 0
        assert (obj["result"], obj["certificate"]) == (finite["result"], finite["certificate"])


def test_domain_error_exit(capsys):
    assert main(["classify", "5/2"]) == 3
    assert main(["synth", "1/3"]) == 3
    assert main(["rewrite", "carry", "0.1,2"]) == 3


@pytest.mark.parametrize("rule, err", [
    ("div", "division by k+1 expects integer part 0"),
    ("mulbeta", "multiplication by beta expects integer part 0"),
])
def test_rule_refuses_integer_part(rule, err, capsys):
    assert main(["rewrite", rule, "1.2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {err}\n"


@pytest.mark.parametrize("rule", ["cr", "bsep", "carry", "borrow", "reduce", "mulbeta",
                                  "div", "add"])
def test_rewrite_refuses_even_parity(rule, capsys):
    words = ["0.1,2", "0.1"] if rule == "add" else ["0.1,2"]
    assert main(["rewrite", rule, *words, "--parity", "even"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the rewriting calculus applies to odd-parity systems\n"


@pytest.mark.parametrize("argv, err", [
    (["rewrite", "add", "0.1"], "add takes two words"),
    (["rewrite", "cr", "0.1", "0.2"], "cr takes one word"),
    (["classify", "1/" + "7" * 5000], "a number in the field literal has too many digits"),
    (["rewrite", "carry", "0." + "7" * 5000],
     "a number in the word literal has too many digits"),
], ids=["add-one-word", "cr-two-words", "field-literal-too-long", "word-literal-too-long"])
def test_domain_error_message(argv, err, capsys):
    if "7" * 5000 in argv[-1] and not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("no limit on the digits int() reads")  # classify then finds the prime 7
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {err}\n"


@pytest.mark.parametrize("argv, endpoint", [
    (["classify", "0"], "0"),
    (["classify", "(-1+1*b)"], "m"),  # beta - k at k = 1
    (["classify", "2", "--parity", "even"], "m"),
], ids=["zero", "top", "top-even"])
def test_classify_endpoint(argv, endpoint, capsys):
    code, obj = run_json(capsys, *argv)
    assert code == 0
    assert obj["result"] == "UniqueEndpoint"
    assert obj["certificate"] == endpoint


@pytest.mark.parametrize("argv, code", [
    (["classify", "3/0"], 3),
    (["enumerate", "1", "--depth", "-3"], 3),
    (["census", "--depths", "6,x"], 2),
    (["census", "--depths", "6,-1"], 2),
    (["ones", "--depth", "-5"], 3),
    (["enumerate", "1/3", "--depth", "60"], 3),
    (["ones", "--depth", "1000000"], 3),
    (["enumerate", "1/3", "--depth", "1000000"], 3),
    (["census", "--depths", "6,1000000"], 3),
    (["rewrite", "reduce", "0.3,(0,3)*"], 3),
    (["rewrite", "add", "0.1", "0.(1)*"], 3),
    (["census", "--den-bound", "200", "--num-bound", "200", "--depths", "6"], 3),
    (["classify", "-1/2"], 3),
    (["enumerate", "-1/2"], 3),
    (["synth", "-3/4"], 3),
    (["classify", "--k", "-1", "1/2"], 3),
    (["classify", "1/1000000000000000003"], 3),
    (["classify", "1/3", "--out", "/nonexistent/dir/x.json"], 2),
    (["classify", "1/3", "--out", "."], 2),
    (["classify", "1/" + "7" * 5000], 3),
    (["classify", "7" * 5000], 3),
    (["rewrite", "cr", "0." + "1" * 5000], 3),
    (["classify", f"1/{2 ** 13000}"], 3),
    (["synth", f"3/{2 ** 13000}"], 3),
], ids=["zero-denominator", "negative-depth", "depths-not-integers", "depths-negative",
        "ones-negative-depth", "enumerate-over-budget", "ones-over-depth-budget",
        "enumerate-over-depth-budget", "census-over-depth-budget",
        "rewrite-reduce-periodic", "rewrite-add-periodic", "census-over-window-budget",
        "classify-negative-fraction", "enumerate-negative-fraction",
        "synth-negative-fraction", "negative-k", "classify-over-factoring-budget",
        "out-missing-directory", "out-is-directory", "classify-long-denominator",
        "classify-long-integer", "rewrite-long-digit", "classify-huge-power-denominator",
        "synth-huge-power-denominator"])
def test_bad_input_exit_without_traceback(argv, code):
    t0 = time.perf_counter()
    proc = run_process(*argv)
    assert time.perf_counter() - t0 < 20  # every input's work is capped by a budget
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip()


@pytest.mark.parametrize("argv, dashed", [
    (["classify", "-1/2"], ["classify", "--", "-1/2"]),
    (["enumerate", "-1/2"], ["enumerate", "--", "-1/2"]),
    (["synth", "-3/4"], ["synth", "--", "-3/4"]),
    (["classify", "-1/2", "--k", "2"], ["classify", "--k", "2", "--", "-1/2"]),
])
def test_negative_literal_is_a_value(argv, dashed, capsys):
    # a negative fraction is the point, as after "--", not an unknown option
    assert main(argv) == 3
    plain = capsys.readouterr()
    assert main(dashed) == 3
    assert capsys.readouterr() == plain
    assert plain.out == ""
    assert len(plain.err.splitlines()) == 1 and plain.err.startswith("error: x outside ")


def test_factoring_budget(monkeypatch, capsys):
    # 53 * 59 has no prime up to 52, and trial division would pass 52 before
    # its square root; 2 * 59 leaves the cofactor 59, prime below 52**2
    monkeypatch.setattr(goldenbeta.expand, "FACTOR_BUDGET", 53)
    assert goldenbeta.expand._offending_prime(53 * 59, 2) == 53
    monkeypatch.setattr(goldenbeta.expand, "FACTOR_BUDGET", 52)
    with pytest.raises(DomainError, match="factoring budget of 52"):
        goldenbeta.expand._offending_prime(53 * 59, 2)
    assert goldenbeta.expand._offending_prime(2 * 59, 2) == 59
    assert goldenbeta.expand._offending_prime(3 * 53 * 59, 2) == 3
    # the budget is spent only on the part coprime to the base: with base
    # 2 * 53 the cofactor 59 is left, where trial division of all of r
    # would pass 52 first
    assert goldenbeta.expand._offending_prime(53 * 59, 106) == 59
    assert main(["classify", f"1/{53 * 59}"]) == 3
    assert capsys.readouterr().err.splitlines() == [
        f"error: no prime of the denominator {53 * 59} outside 2 found by trial "
        "division up to the factoring budget of 52"]


def test_census_window_budget(monkeypatch, capsys):
    # the default window holds 4 * 9 * 9 candidate triples
    monkeypatch.setattr(goldenbeta.algebra, "CENSUS_WINDOW_BUDGET", 4 * 9 * 9)
    assert main(["census"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(goldenbeta.algebra, "CENSUS_WINDOW_BUDGET", 4 * 9 * 9 - 1)
    assert main(["census"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: census window of 324 candidates is over "
                            "the window budget of 323\n")
    assert census_elements(make_params(1, EVEN), 3, 40) != []  # p = 0: 3 * 1 * 81 triples


def test_listing_budget(monkeypatch, capsys):
    # the budget counts printed digits: n prefixes at depth 9 are 9 * n
    n = goldenbeta.expand.enumerate_prefixes(parse_field("1/3", P1), 9, P1).count_at(9)
    monkeypatch.setattr(goldenbeta.expand, "LISTING_BUDGET", 9 * n)
    code, obj = run_json(capsys, "enumerate", "1/3", "--depth", "9")
    assert code == 0 and obj["result"]["count"] == n
    monkeypatch.setattr(goldenbeta.expand, "LISTING_BUDGET", 9 * n - 1)
    assert main(["enumerate", "1/3", "--depth", "9"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: listing at depth 9 is over the listing "
                            f"budget of {9 * n - 1} digits\n")
    # over the real budget: 257,915 prefixes of 35 digits, 4,097 of 4,096 digits
    monkeypatch.undo()
    for argv in (["1/3", "--depth", "35"], ["1", "--depth", "4096"]):
        assert main(["enumerate", *argv]) == 3
        assert capsys.readouterr().err.startswith("error: listing at depth ")


def test_synth_node_budget(monkeypatch, capsys):
    monkeypatch.setattr(goldenbeta.expand, "NODE_BUDGET", 2)
    with pytest.raises(DomainError, match="node budget"):
        goldenbeta.expand.synth_finite(parse_field("1/4", P1), P1)
    assert main(["synth", "1/4"]) == 3
    assert capsys.readouterr().err == "error: finite-expansion search exceeded node budget\n"


def test_synth_construct_refuses_nonmember_and_falls_back():
    proc = run_process("synth", "1/3", "--route", "construct")
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == ["error: x has no finite expansion; synthesis refused"]
    proc = run_process("synth", "1/2", "--parity", "even", "--route", "construct")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"] == "0.1"
    assert proc.stderr == ""  # the fallback is logged at DEBUG only


@pytest.mark.parametrize("argv, endpoint", [
    (["synth", "0"], "0"),
    (["synth", "(-1+1*b)"], "(-1+1*b)"),
    (["synth", "0", "--route", "construct"], "0"),
    (["synth", "2", "--parity", "even"], "2"),
], ids=["zero", "top", "zero-construct", "top-even"])
def test_synth_refuses_endpoints(argv, endpoint, capsys):
    # named before fe_membership, whose guard covers the open interval only
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: x = {endpoint} is an endpoint of the expansion "
                            "interval; synthesis refused\n")


def test_parser_reuse_matches_fresh_process(capsys):
    # one process makes several calls; each output must equal the same call
    # in a fresh interpreter, byte for byte
    calls = [["census"], ["census", "--depths", "6,12", "--format", "csv"],
             ["enumerate", "1", "--depth", "2"], ["classify", "1"], ["census"]]
    for argv in calls:
        code, out = run(capsys, *argv)
        proc = run_process(*argv)
        assert (code, out) == (proc.returncode, proc.stdout), argv


def test_usage_error_exit(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nosuchcommand"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["census", "--depths", "6,-1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("invalid depth_list value: '6,-1'\n")


def _parse_outcome(parse, argv):
    """Exit code (None when parsing returned), stdout, stderr and the
    namespace's items, in order, of one parse of ``argv``."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            items, code = list(vars(parse(list(argv))).items()), None
        except SystemExit as exc:
            items, code = None, exc.code
    return code, out.getvalue(), err.getvalue(), items


def _main_parse(argv):
    """The namespace ``main`` hands to the command it runs."""
    seen = []
    with mock.patch.object(goldenbeta.cli, "_run", lambda args: seen.append(args) or 0):
        assert main(argv) == 0
    return seen[0]


_ARGVS = [
    # every command
    ["classify", "1/2"], ["enumerate", "1/3", "--depth", "4"], ["ones"],
    ["synth", "1/2", "--route", "construct"], ["rewrite", "add", "0.1", "0.2,1"],
    ["census"], ["verify", "--level", "full", "--seed", "3"],
    # options before and after positionals, --opt=value, abbreviations, repeats
    ["classify", "--k", "2", "--parity", "even", "1/3"], ["classify", "1/3", "--k", "2"],
    ["enumerate", "--depth=5", "1/3", "--out=x.json"], ["census", "--depths=6,12"],
    ["census", "--den", "2", "--num", "1", "--dep", "3", "--form", "csv"],
    ["census", "--de", "2"], ["classify", "1/2", "--k", "2", "--k", "3"],
    ["rewrite", "--parity", "even", "carry", "0.3,0,3", "--k", "1"],
    # negative literals with and without --, and -- before the command
    ["classify", "-1/2"], ["classify", "--", "-1/2"], ["classify", "--k", "2", "--", "-1/2"],
    ["enumerate", "-.5", "--depth", "-3"], ["classify", "--k", "-1", "1/2"],
    ["rewrite", "add", "--", "-1.0", "0.1"], ["classify", "--", "1/2", "--k"],
    ["--", "census"], ["--", "classify", "1/2"], ["--", "-1/2"], ["--"],
    # help at both levels, and every command's own help
    [], ["-h"], ["--help"], ["-h", "census"], ["census", "-h"], ["classify", "1/2", "--help"],
    ["census", "--he"], ["rewrite", "-h", "carry"], ["classify", "-h"], ["enumerate", "-h"],
    ["ones", "-h"], ["synth", "-h"], ["rewrite", "-h"], ["verify", "-h"],
    # missing and extra positionals, bad ints and bad choices
    ["classify"], ["classify", "1/2", "1/3"], ["rewrite", "carry"], ["ones", "1"],
    ["census", "--k", "x"], ["census", "--depths", "6,x"], ["census", "--format", "xml"],
    ["synth", "1/2", "--route", "walk"], ["rewrite", "nosuch", "0.1"], ["nosuch"],
    ["cen"], ["verify", "--level", "slow"], ["enumerate", "1/3", "--depth"],
    # a bad option value in every command
    ["classify", "1/2", "--parity", "odd2"], ["enumerate", "1/3", "--depth", "x"],
    ["ones", "--depth", "1.5"], ["synth", "1/2", "--k", "x"],
    ["rewrite", "carry", "0.3", "--parity", "none"], ["verify", "--seed", "x"],
    # unknown options at both levels
    ["--bogus"], ["--bogus", "census"], ["census", "--bogus"],
    ["census", "--bogus", "x", "-z"], ["classify", "1/2", "--bogus=3"], ["ones", "-x1"],
    ["census", "--", "--bogus"], ["verify", "--k", "2"],
    # forms a table parse could misread: positionals split by an option (argparse
    # refuses the second run unless it starts a later positional), an option
    # missing its value, a lone dash, negative values, an empty explicit value,
    # and a negative literal with a space, which argparse reads as a positional
    ["rewrite", "add", "0.1", "--k", "2", "0.2"], ["rewrite", "add", "--k", "2", "0.1", "0.2"],
    ["classify", "1/3", "--out"], ["classify", "-"], ["census", "--depths", "-1"],
    ["census", "--k="], ["enumerate", "1/3", "--depth=-2"], ["classify", "-1 /2"],
]


@pytest.mark.parametrize("argv", _ARGVS, ids=" ".join)
def test_main_parses_as_parse_args(argv):
    # main hands argv[0]'s parser the rest when argv[0] names a command;
    # the top-level parse_args it bypasses is the reference
    top = goldenbeta.cli._build_parser()
    assert _parse_outcome(_main_parse, argv) == _parse_outcome(top.parse_args, argv)


# values for each flag, plain ones and then rarer ones, drawn one time in
# eight: bad ints and choices, negative and empty values, a lone dash and an
# option where a value should be
_FLAG_VALUES = {
    "--k": (["1", "2"], ["-1", "x"]), "--parity": (["odd", "even"], ["none"]),
    "--out": (["x.json"], ["-", "--k"]), "--depth": (["0", "5"], ["-2", "1.5"]),
    "--route": (["search", "construct"], ["walk"]), "--den-bound": (["2", "4"], ["-1"]),
    "--num-bound": (["0", "3"], ["x"]), "--depths": (["6", "6,12"], ["-1", "6,x", ""]),
    "--format": (["json", "csv"], ["xml"]), "--level": (["fast", "full"], ["slow"]),
    "--seed": (["0", "3"], ["x"]),
}
# positionals, negative literals among them, and the rule rewrite reads first
_POSITIONALS = st.sampled_from(["1/2", "(1+1*b)/6", "-1/2", "-.5", "0.1", "0.2,1", "-1 /2"])
_RULES = st.sampled_from(sorted(goldenbeta.rewrite.RULES) + ["nosuch"])


@st.composite
def command_argvs(draw):
    """A command, its exact flags in both spellings, and its positionals:
    mostly in one run of the right length, sometimes one word more or
    fewer, or split by a flag."""
    name = draw(st.sampled_from(sorted(goldenbeta.cli._COMMANDS)))
    specs = goldenbeta.cli._COMMANDS[name][1]
    flags = [flag for flag, _ in specs if flag[0] == "-"]
    names = [flag for flag, _ in specs if flag[0] != "-"]

    def options():
        argv = []
        for flag in draw(st.lists(st.sampled_from(flags), max_size=2)):
            plain, rare = _FLAG_VALUES[flag]
            value = draw(st.sampled_from(draw(st.sampled_from([plain] * 7 + [rare]))))
            argv += draw(st.sampled_from([[flag, value], [f"{flag}={value}"]]))
        return argv

    count = len(names)
    if names:  # mostly the right count; rewrite's words are one or more
        count += draw(st.sampled_from([0, 0, 0, 0, 0, 1, -1]))
        count += names[-1] == "words" and draw(st.integers(0, 1))
    run = [draw(_RULES if j == 0 and name == "rewrite" else _POSITIONALS)
           for j in range(max(count, 0))]
    if run and draw(st.integers(0, 9)) == 0:
        cut = draw(st.integers(0, len(run)))
        run[cut:cut] = options()
    return [name, *options(), *run, *options()]


@given(command_argvs())
@settings(max_examples=300, deadline=None)
def test_main_parses_as_parse_args_on_drawn_argvs(argv):
    top = goldenbeta.cli._build_parser()
    assert _parse_outcome(_main_parse, argv) == _parse_outcome(top.parse_args, argv)


def test_unknown_option_after_command_is_a_top_level_error():
    code, out, err, _ = _parse_outcome(_main_parse, ["census", "--bogus"])
    assert (code, out) == (2, "")
    assert err.startswith("usage: goldenbeta [-h]")
    assert err.splitlines()[-1] == "goldenbeta: error: unrecognized arguments: --bogus"


@pytest.mark.parametrize("argv", [["verify", "--k", "2"], ["verify", "--parity", "even"]])
def test_verify_takes_no_system_options(argv, capsys):
    # verify_suite reads only the level and the seed
    with pytest.raises(SystemExit) as info:
        main(argv)
    captured = capsys.readouterr()
    assert (info.value.code, captured.out) == (2, "")
    last = captured.err.splitlines()[-1]
    assert last == f"goldenbeta: error: unrecognized arguments: {' '.join(argv[1:])}"


def test_cli_import_loads_only_what_it_runs():
    # a fresh process importing the CLI loads neither dataclasses (nor its
    # inspect) nor logging, nor argparse (nor the shutil its help formatter
    # imports), nor the modules of verify and of CSV output, which load when
    # their commands run; census and classify load none
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import goldenbeta.cli\n"
        "cold = ('dataclasses', 'inspect', 'logging', 'argparse', 'shutil', 'csv',\n"
        "        'goldenbeta.verify')\n"
        "print(sorted(set(cold) & (set(sys.modules) - before)))\n"
        "import contextlib, io\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    codes = [goldenbeta.cli.main(['census']), goldenbeta.cli.main(['classify', '1/3'])]\n"
        "print(codes, sorted(set(cold) & (set(sys.modules) - before)))\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    codes = [goldenbeta.cli.main(['census', '--format', 'csv']),\n"
        "             goldenbeta.cli.main(['verify', '--level', 'fast'])]\n"
        "print(codes, out.getvalue().startswith('x,k,parity,verdict'), 'csv' in sys.modules,\n"
        "      'goldenbeta.verify' in sys.modules)\n")
    proc = run_python("-c", script, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n[0, 0] []\n[0, 0] True True True\n"


def test_cli_without_site_loads_no_threading():
    # without site, nothing but the package could load threading, logging,
    # argparse or shutil: the graph cache's lock comes from _thread, and a
    # command's argv is read off the CLI's table
    script = (
        "import sys, contextlib, io\n"
        "import goldenbeta.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [goldenbeta.cli.main(['census']), goldenbeta.cli.main(['classify', '1/3'])]\n"
        "print(codes, [name in sys.modules for name in ('threading', 'logging', 'argparse',\n"
        "                                               'shutil')])\n")
    proc = run_python("-S", "-c", script, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0] [False, False, False, False]\n"


def run_pin(argv):
    """Exit code, stdout bytes and stderr of ``main(argv)``, as a process
    would give them, argparse's exits included."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue().encode(), err.getvalue()


@pytest.fixture(scope="module")
def pin_pass():
    """One in-process pass over tests/pins.py: each pin's failure (None on a
    match), and the labels of the pins whose argv reached argparse."""
    real = argparse.ArgumentParser.parse_known_args
    current, parsed = [None], set()

    def recording(parser, *args, **kwargs):
        parsed.add(current[0])
        return real(parser, *args, **kwargs)

    whys = {}
    with mock.patch.object(argparse.ArgumentParser, "parse_known_args", recording):
        for pin in PINS:
            current[0] = label(pin[1])
            whys[current[0]] = failure(pin, *run_pin(pin[1]))
    return whys, parsed


def test_pins(pin_pass):
    # every pinned output and error line of tests/pins.py, in process
    whys, _ = pin_pass
    assert {argv: why for argv, why in whys.items() if why} == {}


def test_exit_0_pins_parse_without_argparse(pin_pass):
    # main reads every argv but a usage error's off _COMMANDS: in the pass
    # above, only the usage-error pins reached argparse, and each of those did
    _, parsed = pin_pass
    assert parsed == {label(pin[1]) for pin in PINS if pin[0][:1] == (2,)}


def test_pins_in_fresh_optimized_processes(capsys):
    # the same table, each pin in a fresh `python -O` interpreter
    code = pins.main()
    report = capsys.readouterr().out
    assert code == 0, "\n".join(line for line in report.splitlines() if line.startswith("FAIL"))


def test_pin_failure_reports_planted_faults():
    # one output row and one error row, each matched and then missed
    digest, argv = next(pin for pin in PINS if pin[1] == ["classify", "0"])
    outcome = run_pin(argv)
    assert failure((digest, argv), *outcome) is None
    other = format((int(digest[-1], 16) + 1) % 16, "x")
    assert failure((digest[:-1] + other, argv), *outcome)
    (code, line), argv = next(pin for pin in PINS if pin[1] == ["classify", "-1/2"])
    outcome = run_pin(argv)
    assert failure(((code, line), argv), *outcome) is None
    assert failure(((code + 1, line), argv), *outcome)
    assert failure(((code, line + "."), argv), *outcome)


def test_census_empty_window(capsys):
    code, obj = run_json(capsys, "census", "--num-bound", "0")
    assert code == 0
    assert obj["result"] == []


def test_census_rows(capsys):
    code, obj = run_json(capsys, "census", "--den-bound", "4", "--num-bound", "4",
                         "--depths", "6")
    assert code == 0
    rows = obj["result"]
    xs = [row["x"] for row in rows]
    assert "1" in xs and "(1+1*b)/6" not in xs  # r=6 beyond the bound
    one = next(row for row in rows if row["x"] == "1")
    assert one["verdict"] == "CountablyInfinite"
    # rows are value-sorted
    vals = [parse_field(x, P1) for x in xs]
    assert all(vals[i] < vals[i + 1] for i in range(len(vals) - 1))


def test_census_even_thirds(capsys):
    code, obj = run_json(capsys, "census", "--parity", "even", "--den-bound", "8",
                         "--num-bound", "8", "--depths", "4")
    assert code == 0
    for row in obj["result"]:
        x = row["x"]
        den = int(x.split("/")[1]) if "/" in x else 1
        if den in (1, 2, 4, 8):
            assert row["verdict"] == "CountablyInfinite", x
        else:
            assert row["verdict"] == "Continuum", x


def test_census_csv(capsys):
    code, out = run(capsys, "census", "--den-bound", "2", "--num-bound", "2",
                    "--depths", "4", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,k,parity,verdict,certificate,prefix_counts"
    assert len(lines) > 1


def test_census_determinism(capsys):
    argv = ["census", "--den-bound", "4", "--num-bound", "6", "--depths", "6,10"]
    assert run(capsys, *argv) == run(capsys, *argv)


def test_census_elements_canonical():
    xs = census_elements(P1, 4, 4)
    assert len(xs) == len(set(xs))
    for x in xs:
        assert x.r <= 4 and abs(x.p) <= 4 and abs(x.q) <= 4
        assert x.sign() > 0 and x < P1.interval_bound


def ref_census_elements(params, den_bound, num_bound):
    """census_elements as it was before it decided on integer triples: a
    FieldElem per candidate, a set of the values seen, a sort by compare."""
    top = params.interval_bound
    seen = set()
    out = []
    q_range = range(-num_bound, num_bound + 1)
    p_range = q_range if params.parity == ODD else (0,)
    for r in range(1, den_bound + 1):
        for p in p_range:
            for q in q_range:
                x = FieldElem(params, p, q, r)
                if x in seen:
                    continue
                seen.add(x)
                if x.sign() > 0 and x < top:
                    out.append(x)
    out.sort(key=cmp_to_key(lambda a, b: a.compare(b)))
    return out


@pytest.mark.parametrize("k, parity", [(k, ODD) for k in (1, 2, 3, 4)]
                         + [(k, EVEN) for k in (1, 2, 3)])
def test_census_elements_match_reference(k, parity):
    params = make_params(k, parity)
    for den in range(-1, 9):
        for num in range(-1, 9):
            xs = census_elements(params, den, num)
            assert xs == ref_census_elements(params, den, num), (den, num)
            # each survivor was already a reduced triple of the window
            for x in xs:
                assert gcd(x.p, x.q, x.r) == 1
                assert x.r <= den and abs(x.p) <= num and abs(x.q) <= num


def test_out_flag(tmp_path, capsys):
    path = tmp_path / "result.json"
    assert main(["classify", "1", "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    obj = json.loads(path.read_text())
    assert obj["result"] == "CountablyInfinite"
    assert main(["classify", "1", "--out", str(tmp_path)]) == 2  # a directory
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {tmp_path}: ")
    assert len(captured.err.splitlines()) == 1


# keys and strings that need escaping: quotes, backslashes, control
# characters and non-ASCII, which json writes as \uXXXX
json_text = st.text(st.one_of(st.sampled_from('"\\/\n\t\x00\x1f\x7fé€𝔟'), st.characters()))


class Digit(IntEnum):
    ONE = 1
    BIG = 2 ** 70


class S(str):
    pass


# the writer's fast paths test exact types, so the leaves include ones that
# are not exactly str or int: bools, IntEnum members and a str subclass
json_scalars = st.one_of(st.none(), st.booleans(), st.integers(),
                         st.integers(-10 ** 40, 10 ** 40), st.floats(), json_text,
                         st.sampled_from(Digit), json_text.map(S))
json_trees = st.recursive(json_scalars, lambda kids: st.one_of(
    st.lists(kids), st.lists(kids).map(tuple), st.dictionaries(json_text, kids),
    st.lists(st.one_of(st.integers(), st.booleans())),
    st.lists(st.integers()).map(tuple)), max_leaves=25)


@given(json_trees)
@settings(max_examples=200)
def test_json_writer_matches_json_dumps(obj):
    assert _json(obj) == json.dumps(obj, indent=2)


# lists of int rows of one length, as lists or tuples, with ints past 64
# bits and negative ones: the shape of a prefix listing, which the writer
# takes by its general path unless ``enumerate`` marks it as a ``_Listing``;
# a spoiled listing has one row holding a bool, an IntEnum member or a
# float, or one digit more or fewer than the others
listing_ints = st.one_of(st.integers(), st.integers(-2 ** 100, 2 ** 100))


@st.composite
def listings(draw):
    n = draw(st.one_of(st.sampled_from([0, 1]), st.integers(2, 30)))
    row = st.lists(listing_ints, min_size=n, max_size=n)
    rows = draw(st.lists(st.one_of(row, row.map(tuple)), max_size=6))
    spoil = draw(st.sampled_from([None, True, Digit.ONE, 1.5, "ragged"]))
    if spoil is not None and rows:
        i = draw(st.integers(0, len(rows) - 1))
        bad = list(rows[i])
        if spoil == "ragged":
            bad = bad[1:] if bad and draw(st.booleans()) else bad + [0]
        else:
            j = draw(st.integers(0, max(n - 1, 0)))
            bad[j:j + 1] = [spoil]
        rows[i] = bad
    return draw(st.sampled_from([rows, tuple(rows), {"prefixes": rows}]))


@given(listings())
@settings(max_examples=60)
def test_json_writer_matches_json_dumps_on_listings(obj):
    assert _json(obj) == json.dumps(obj, indent=2)


def test_json_writer_listing_edge_cases():
    for obj in ([[1, True]], [[1, 2], (3, Digit.ONE)], [[]] * 3, [[0], [1, 2]],
                [(-2 ** 70, 2 ** 70)], [[1.0]], {"a": Digit.ONE, "b": True, "c": S("x")},
                [S("y\u00e9"), Digit.BIG, 2 ** 70]):
        assert _json(obj) == json.dumps(obj, indent=2)
    assert _json([[True]]) == "[\n  [\n    true\n  ]\n]"


@pytest.mark.parametrize("parity", [ODD, EVEN])
@pytest.mark.parametrize("k", range(1, 7))
def test_listing_writer_matches_json_dumps_on_walks(k, parity, monkeypatch):
    # real walk listings at the enumerate nesting, digits 0..m for m = 2..13,
    # so both the byte path (m <= 9) and the row template (m >= 10) run, with
    # blocks of 1 to 3 rows so that block ends fall inside short listings
    params = make_params(k, parity)
    for text in ("1/3", "1/2", "2/5"):
        tree = goldenbeta.expand.enumerate_prefixes(parse_field(text, params), 14, params)
        for depth in range(15):
            if tree.count_at(depth) > 300:
                break
            monkeypatch.setattr(goldenbeta.cli, "LISTING_BLOCK", 1 + depth % 3)
            rows = goldenbeta.cli._Listing(tree.prefixes_at(depth))
            rows.m = params.m
            obj = {"result": {"depth": depth, "prefixes": rows}}
            assert _json(obj) == json.dumps(obj, indent=2)


PLANTED_ROWS = [
    [(0, 1, 2), (0, 10, 1)],  # a digit past 9, which translates to the row mark
    [(0, 1, 2), (0, 255, 1)],  # the row mark's own byte
    [(0, 1, 2), (0, 300, 1)],  # a digit bytes() refuses
    [(0, 1, 2), (0, -1, 1)],
    [(0, 1, 2), (0, 1), (0, 1, 2, 1)],  # ragged rows of the right total length
    [(0, 1, 2), (0, 1, 2, 1)],
]


@pytest.mark.parametrize("rows", PLANTED_ROWS, ids=repr)
def test_listing_writer_refuses_planted_rows(rows, monkeypatch, capsys):
    # the byte path checks each block's length and row marks, so a row it
    # cannot write exits 1 with one error line instead of printing wrong digits
    monkeypatch.setattr(goldenbeta.expand.PrefixTree, "prefixes_at", lambda self: rows)
    for block in (1, 2, 4096):
        monkeypatch.setattr(goldenbeta.cli, "LISTING_BLOCK", block)
        assert main(["enumerate", "1/3", "--depth", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: prefix listing rows ")


def test_listing_writer_refuses_planted_rows_under_O():
    # the check is an explicit raise, not an assert statement
    code = ("import sys; from goldenbeta import cli, expand; "
            "expand.PrefixTree.prefixes_at = lambda self: [(0, 1), (0, 12)]; "
            "sys.exit(cli.main(['enumerate', '1/3', '--depth', '2']))")
    proc = run_python("-O", "-c", code, text=True)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: prefix listing rows 0..1 are not rows of 2 digits 0..9\n"


def test_json_writer_keys():
    # json.dumps would write the key 1 as "1"; the writer, serving only
    # str-keyed trees, refuses it rather than write `1: 2`, which is not JSON
    for obj in ({1: 2}, {"a": {None: 1}}, [{(1, 2): 3}]):
        with pytest.raises(TypeError):
            _json(obj)
    obj = {S("k\u00e9y"): [1, 2], S(""): {S("x"): "y"}}
    assert _json(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("argv", [
    ["classify", "(1+1*b)/6"], ["classify", "1", "--k", "2"],
    ["enumerate", "1/3", "--depth", "9"], ["enumerate", "(1+1*b)/6", "--depth", "0"],
    ["enumerate", "1/3", "--depth", "6", "--k", "5"],
    ["enumerate", "1/3", "--depth", "8", "--k", "2", "--parity", "even"],
    ["ones", "--depth", "12"], ["synth", "1/2", "--route", "construct"],
    ["rewrite", "carry", "0.3,(0,3)*"], ["rewrite", "add", "0.2", "0.2"],
    ["census", "--depths", "6,12"], ["census", "--num-bound", "0"],
    ["verify", "--level", "fast"],
], ids=lambda argv: " ".join(argv))
def test_stdout_is_json_dumps_indent_2(argv, capsys):
    code, out = run(capsys, *argv)
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
