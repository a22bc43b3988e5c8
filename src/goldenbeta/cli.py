"""Command-line front end: classify, enumerate, ones, synth, rewrite,
census, verify.

All numbers are field literals like ``3/4`` or ``(1+1*b)/6``; words use the
grammar ``INT.d1,d2,...`` with an optional ``(p1,p2)*`` periodic tail.
Output is JSON (CSV for census on request), written by ``_emit`` alone
to stdout or --out, and is byte-deterministic for fixed flags and seed:
the JSON is exactly what ``json`` writes with ``indent=2``, and a newline.
argparse writes every help, usage and usage-error text.

Start-up imports only what every command uses: ``argparse`` is imported
by the full parser, ``verify`` and ``csv`` by the commands that use them,
``--level`` offers ``goldenbeta.LEVELS``, and the package imports neither
``logging`` nor ``threading`` (``expand`` logs once the program has loaded
``logging``).

Exit codes: 0 success, 1 verification failure (a failed ``verify`` check,
or a self-check such as ``apply_rule``'s or ``_json_listing``'s, reported
in one ``error:`` line), 2 usage error (including an --out path that
cannot be written), 3 domain error: a ``DomainError``, such as a point outside the
expansion interval, a malformed literal or a bad k, in one ``error:`` line.
"""

from __future__ import annotations

import io
import json
import re
import sys
from functools import cache
from types import SimpleNamespace

from .algebra import (
    EVEN,
    ODD,
    DomainError,
    FieldElem,
    Params,
    census_elements,
    format_field,
    make_params,
    parse_field,
)
from .words import format_word, parse_word
from . import LEVELS, expand, rewrite


def _emit(pieces: list[str], out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


_encode = json.JSONEncoder().encode  # C-accelerated when it has no indent
_encode_str = json.encoder.encode_basestring_ascii  # what json writes for a str


# Rows of a listing that ``_json_listing`` writes as one piece: it holds a
# few copies of one block's text beside the pieces already made.
LISTING_BLOCK = 4096
# Byte d of a row as the numeral d for d <= 9, and every other byte, the row
# mark 0xff among them, as "|".
_DIGITS = b"0123456789" + b"|" * 246


def _json_listing(rows: list[tuple[int, ...]], m: int) -> list[str]:
    """What ``json`` writes for ``rows``, rows of digits 0..m, as the value
    of the enumerate payload's ``prefixes``: pieces to write in order, the
    blocks of ``LISTING_BLOCK`` rows with the separator between them.  The
    one empty row of depth 0 is written as ``[]``.  With m <= 9 a block is
    joined as bytes around a row mark, translated to numerals and "|"
    (``0121|2101``), spread by the digit separator and cut into rows at each
    mark; its text must have its length and a mark at every row end and
    nowhere else.  With m >= 10 one ``%d`` row template, which takes
    exactly as many digits as the first row, is mapped over the block.  A
    block that either path cannot write, a row longer or shorter than the
    first or a digit outside 0..9 on the byte path, raises
    ``AssertionError``."""
    inner = "\n      "  # a row's line: the payload's "result" holds "prefixes"
    d = len(rows[0])
    row, end = (inner + "  ", inner) if d else ("", "")  # json writes [] for an empty row
    sep, cut = "," + row, end + "]," + inner + "[" + row
    tmpl = sep.join(["%d"] * d)
    blocks = ["[" + inner + "[" + row]
    for i in range(0, len(rows), LISTING_BLOCK):
        block = rows[i:i + LISTING_BLOCK]
        marks = len(block) - 1
        try:
            if m > 9:
                text = cut.join(map(tmpl.__mod__, block))
            else:
                text = b"\xff".join(map(bytes, block)).translate(_DIGITS).decode("ascii")
                if len(text) != marks + len(block) * d or not (
                        text.count("|") == text[d::d + 1].count("|") == marks):
                    raise TypeError  # as the template does for a ragged row
                text = sep.join(text).replace(sep + "|" + sep, cut)
        except (TypeError, ValueError):  # a ragged row, or a digit bytes() refuses
            raise AssertionError(f"prefix listing rows {i}..{i + marks} are not rows of "
                                 f"{d} digits{' 0..9' if m <= 9 else ''}") from None
        blocks += (text, cut)
    blocks[-1] = end + "]\n    ]"
    return blocks


def _json(obj, ind: str = "\n") -> str:
    """What ``json`` writes for ``obj`` with ``indent=2``, byte for byte, for
    trees of str-keyed dicts, lists, tuples and scalars; ``ind`` is the
    newline and indent of the line that holds ``obj``.  json's own encoder
    drops to pure Python whenever an indent is set, so here ``None`` and a
    leaf of type exactly ``str`` or ``int`` are written as json writes them,
    as ``null``, by ``encode_basestring_ascii`` or by ``int.__repr__``.
    Types are tested exactly: a bool, IntEnum member, float or str subclass
    takes json's encoder, and dicts, lists and tuples take the general,
    recursive path.  A dict key is written as a str; any other key raises
    ``TypeError``."""
    cls = type(obj)
    if cls is str:
        return _encode_str(obj)
    if cls is int:
        return int.__repr__(obj)
    if obj is None:
        return "null"
    inner = ind + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (_encode_str(k) + ": " + _json(v, inner) for k, v in obj.items())
        return "{" + inner + ("," + inner).join(items) + ind + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = (_json(v, inner) for v in obj)
        return "[" + inner + ("," + inner).join(items) + ind + "]"
    return _encode(obj)


def _certificate_json(c: expand.Classification):
    if c.verdict == expand.COUNTABLY_INFINITE:
        return format_word(c.certificate)
    if c.verdict == expand.CONTINUUM:
        den, prime = c.certificate
        return {"denominator": den, "prime": prime}
    return c.certificate  # endpoint tag


# -- census ----------------------------------------------------------------

def _census_row(x: FieldElem, params: Params, depths: list[int]) -> dict:
    c = expand.classify(x, params)
    tree = expand.enumerate_prefixes(x, max(depths, default=0), params)
    return {
        "x": format_field(x),
        "k": params.k,
        "parity": params.parity,
        "verdict": c.verdict,
        "certificate": _certificate_json(c),
        "prefix_count_at_depth": [[d, tree.count_at(d)] for d in depths],
    }


def census_sweep(params: Params, den_bound: int, num_bound: int,
                 depths: list[int]) -> list[dict]:
    xs = census_elements(params, den_bound, num_bound)
    return [_census_row(x, params, depths) for x in xs]


def _census_csv(rows: list[dict]) -> str:
    import csv  # only census --format csv writes CSV

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["x", "k", "parity", "verdict", "certificate", "prefix_counts"])
    for row in rows:
        cert = row["certificate"]
        if isinstance(cert, dict):
            cert = f"denominator={cert['denominator']};prime={cert['prime']}"
        counts = ";".join(f"{d}:{c}" for d, c in row["prefix_count_at_depth"])
        writer.writerow([row["x"], row["k"], row["parity"], row["verdict"], cert, counts])
    return buf.getvalue()


# -- argument plumbing -------------------------------------------------------

def depth_list(text: str) -> list[int]:
    """argparse type for --depths: comma-separated nonnegative integers."""
    depths = [int(t) for t in text.split(",") if t]
    if min(depths, default=0) < 0:
        raise ValueError(text)
    return depths


_OUT = ("--out", dict(metavar="PATH", default=None, help="write output to PATH"))
_SYSTEM = (("--k", dict(type=int, default=1, help="digit parameter k >= 1")),
           ("--parity", dict(choices=(ODD, EVEN), default=ODD, help="odd: m=2k+1 digits, "
                             "quadratic base; even: m=2k, integer base")), _OUT)

# Each command's help line and (flag or name, add_argument keywords) specs,
# in the order its parser adds them; _parse and _build_parser read this table.
# A default is the value its flag parses to, which both parsers take as given.
_COMMANDS = {
    "classify": ("countable/continuum verdict for a point", _SYSTEM + (
        ("x", dict(help="field literal, e.g. 3/4 or (1+1*b)/6")),)),
    "enumerate": ("all valid expansion prefixes of a point", _SYSTEM + (
        ("x", {}), ("--depth", dict(type=int, default=8)))),
    "ones": ("the closed-form expansions of 1 (odd parity)", _SYSTEM + (
        ("--depth", dict(type=int, default=12)),)),
    "synth": ("finite expansion of a point with finite expansions", _SYSTEM + (
        ("x", {}), ("--route", dict(choices=("search", "construct"), default="search")))),
    "rewrite": ("apply one digit-rewriting rule", _SYSTEM + (
        ("rule", dict(choices=rewrite.RULES)),
        ("words", dict(nargs="+", metavar="WORD",
                       help="word literal(s), e.g. 0.3,2 or 0.3,(0,3)*")))),
    "census": ("classification sweep over a window of points", _SYSTEM + (
        ("--den-bound", dict(type=int, default=4)), ("--num-bound", dict(type=int, default=4)),
        ("--depths", dict(type=depth_list, default=[6], help="comma-separated depths, e.g. 6,12")),
        ("--format", dict(choices=("json", "csv"), default="json")))),
    "verify": ("run the self-check suite", (
        _OUT, ("--level", dict(choices=LEVELS, default="fast")),
        ("--seed", dict(type=int, default=0)))),
}


# a negative fraction such as -1/2 is a value, as argparse already reads -1,
# not an unknown option: the table parse and every parser built below agree
_NEGATIVE = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")


def _is_word(arg: str) -> bool:
    """Whether ``_parse`` reads ``arg`` as a value (a positional or an
    option's value), as argparse does; argv with the other words argparse
    reads as values, such as ``-`` and ``-1 /2``, is left to argparse."""
    return arg[:1] != "-" or _NEGATIVE.match(arg) is not None


@cache
def _table(name: str) -> tuple[dict, list, dict]:
    """One command's flags and positionals, each as (dest, type, choices,
    nargs), and its defaults by dest in the order argparse sets them."""
    flags, positionals, defaults = {}, [], {}
    for flag, kwargs in _COMMANDS[name][1]:
        dest = flag.lstrip("-").replace("-", "_")
        spec = (dest, kwargs.get("type"), kwargs.get("choices"), kwargs.get("nargs"))
        if flag[0] == "-":
            flags[flag] = spec
        else:
            positionals.append(spec)
        defaults[dest] = kwargs.get("default")
    return flags, positionals, defaults


def _value(spec: tuple, text: str):
    """``text`` converted by the spec's type and checked against its choices,
    as argparse does; a bad choice raises ``ValueError``."""
    _, type_, choices, _ = spec
    value = text if type_ is None else type_(text)
    if choices is not None and value not in choices:
        raise ValueError(text)
    return value


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """The items, in order, of ``_build_parser().parse_args(argv)``, read off
    ``_COMMANDS`` when argv is a command, its exact flags as ``--flag value``
    or ``--flag=value`` and its positionals in one run, each value valid;
    None for every other argv, which argparse parses and reports."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    flags, positionals, defaults = _table(argv[0])
    values, words, last, i = dict(defaults), [], 0, 1
    try:
        while i < len(argv):
            arg = argv[i]
            if _is_word(arg):
                if words and last != i - 1:  # argparse reads no second run
                    return None
                words.append(arg)
                last = i
            else:
                flag, eq, text = arg.partition("=")
                if flag not in flags:
                    return None
                if not eq:
                    i += 1
                    if i == len(argv) or not _is_word(argv[i]):
                        return None
                    text = argv[i]
                values[flags[flag][0]] = _value(flags[flag], text)
            i += 1
        n = len(positionals)
        if len(words) != n and not (len(words) > n > 0 and positionals[-1][3] == "+"):
            return None
        for j, spec in enumerate(positionals):
            values[spec[0]] = ([_value(spec, w) for w in words[j:]] if spec[3] == "+"
                               else _value(spec, words[j]))
    except (TypeError, ValueError):  # a failed conversion or a bad choice, as argparse catches
        return None
    return SimpleNamespace(command=argv[0], **values)


@cache
def _build_parser():
    """The full parser, with every command as a subparser."""
    import argparse  # only what _parse leaves builds a parser

    top = argparse.ArgumentParser(
        prog="goldenbeta", description="Exact expansion analysis in generalized golden ratio bases.")
    top._negative_number_matcher = _NEGATIVE
    sub = top.add_subparsers(dest="command", required=True)
    for name, (help_line, specs) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        p._negative_number_matcher = _NEGATIVE
        for flag, kwargs in specs:
            p.add_argument(flag, **kwargs)
    return top


def _run(args) -> int:
    command, cert = args.command, None
    if command == "verify":
        from .verify import verify_suite  # only verify runs the self-checks

        report = verify_suite(args.level, args.seed)
        _emit([_json(report), "\n"], args.out)
        return 0 if report["passed"] else 1
    params = make_params(args.k, args.parity)
    if command in ("classify", "enumerate", "synth"):
        given = args.x
        x = parse_field(given, params)
    if command == "classify":
        c = expand.classify(x, params)
        result, cert = c.verdict, _certificate_json(c)
    elif command == "enumerate":
        rows = expand.enumerate_prefixes(x, args.depth, params).prefixes_at()
        result = {"depth": args.depth, "count": len(rows), "prefixes": []}
    elif command == "ones":
        given = "1"
        result = [format_word(w) for w in expand.expansions_of_one(args.depth, params)]
    elif command == "synth":
        synth = expand.synth_finite if args.route == "search" else expand.synth_finite_constructive
        result = cert = format_word(synth(x, params))
    elif command == "rewrite":
        given = args.words
        trace = rewrite.apply_rule(args.rule, params, *[parse_word(t, params) for t in given])
        result = format_word(trace.output)
        cert = {"value": format_field(trace.value), "steps": [list(s) for s in trace.steps]}
    else:  # census
        rows = census_sweep(params, args.den_bound, args.num_bound, args.depths)
        if args.format == "csv":
            _emit([_census_csv(rows)], args.out)
            return 0
        given = {"den_bound": args.den_bound, "num_bound": args.num_bound, "depths": args.depths}
        result = rows
    pieces = [_json({"params": {"k": params.k, "parity": params.parity}, "input": given,
                     "result": result, "certificate": cert}), "\n"]
    # the listing stands where the payload has its one "[]": a literal holds no bracket
    if command == "enumerate":
        head, _, tail = pieces[0].partition("[]")
        pieces[:1] = [head, *_json_listing(rows, params.m), tail]
    _emit(pieces, args.out)
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv)
    if args is None:
        args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except DomainError as exc:  # ParseError and ParameterError among them
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except AssertionError as exc:  # a self-check in the library failed
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # only _emit does I/O
        print(f"error: cannot write {args.out or 'stdout'}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
