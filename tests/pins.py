"""Pinned outputs: the one place a byte-identical claim about the CLI or
the benchmark is written.

Each pin is ``(want, argv)``.  A str ``want`` is the sha256 of what the
call writes to stdout, and the call must exit 0.  A ``(code, line)`` want
is an error: the call exits ``code``, writes nothing to stdout, and its
stderr ends in ``line``; a domain error (exit 3) writes that line alone,
while a usage error (exit 2) writes argparse's usage first.

The tier-1 suite checks the table twice: ``tests/test_cli.py`` runs every
pin in process through ``cli.main``, and calls ``main`` below, which starts
each pin in a fresh interpreter, as a user would, under ``python -O``, so
the pins also hold with ``assert`` statements stripped.  Run as a script,

    python tests/pins.py

does the same fresh-interpreter pass on this checkout, prints one line per
pin and exits 1 when any pin fails.

``BENCH_DIGESTS`` holds the digest ``bench/run.py --seed 5`` reports for
each workload; ``tests/test_bench.py`` computes them in process.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

# the package of this checkout, whatever the caller's working directory
SRC = str(Path(__file__).resolve().parent.parent / "src")

# 0,0,3 repeated to 600 digits: digit reduction is over its work budget
LONG_003 = "0." + ",".join(["0,0,3"] * 200)

PINS = [
    ("e5f38e2d6c10099ab60f5f3113a7f1dc16a97a1b8b720fc27b9f117e062b54f4", ["classify", "(1+1*b)/6"]),
    ("eb78aab2b847575ab5194c88b0798ee89f1a65eb4783e2ee705dabb876526736", ["ones", "--depth", "12"]),
    ("9d1e50dd354b87b64a942377f813b99f4735bf9cdacb5bf7dc2866e9fdf32629",
     ["synth", "1/2", "--route", "construct"]),
    ("4d85f6f93192a7e6cd3a5c38a544f634f0d3c10268b3bbee194a957b8ba3043c",
     ["rewrite", "carry", "0.3,(0,3)*"]),
    ("1585cb0c2e9b7fe726ff307319cbd047eb9f668762424b333e6629b0a4333b4b",
     ["enumerate", "1/3", "--depth", "22"]),
    ("13d53bc8e20b0d326027128aa8a06a78c0cae31f43d75804c3affd6d42c3b786",
     ["rewrite", "carry", "0.3,0,3"]),
    ("5910f3f3a04b5d6704692f17d1ba39b30419ee6591a985136770797ffcb0c5d1",
     ["rewrite", "borrow", "1.0,3,0"]),
    ("9310080a93c4ba163c25700cc862942cdfb2b5ecaffa2537a94709cc7a8b5c6d",
     ["rewrite", "borrow", "1.0,(3,0)*"]),
    ("76039c39b61d5961e3b9e3dfebb9710c69d25881f34f33af4b1bd2a1370aa73f",
     ["rewrite", "bsep", "0.3,3,3,3"]),
    ("160602f08b7dbdee6a6648014869e161b78480b1c8bf3a9249b635a38bece9d3",
     ["enumerate", "1/3", "--depth", "6", "--k", "5"]),
    ("1d6c21b33fbfdaf0f068d90ee5e9169e2718fe4611995c1f4fcfdea88e2517bd",
     ["enumerate", "1/3", "--depth", "8", "--k", "2", "--parity", "even"]),
    ("9ae08b53ce8a758597d7bbacbba23aeaeb50b8054e4d8aa221c212bc2ed12e10",
     ["enumerate", "1/3", "--depth", "13"]),
    ("e64459de7be899ef6390866d53e84f0ee0dc5a8d7aea049e4748fd50bb85dd32",
     ["enumerate", "2/5", "--depth", "11", "--k", "2"]),
    # the listing writer's edge shapes: rows past one block, two-digit
    # digits (m = 13), one-digit rows and the one empty row of depth 0
    ("eaa2591c3da35607367fd55788b87696d38d9ca98ed9c881d50a8505d9a9f596",
     ["enumerate", "1/3", "--depth", "24"]),
    ("8445cbb7d12ec63f7dd9e740739e089279cbacaa83e557cb6b79014d3121c4d3",
     ["enumerate", "1/3", "--depth", "10", "--k", "6"]),
    ("d12ef85a957140e430e22d5ce646e63be2b9ab98ea37a2f19d2bc5529e11dbb3",
     ["enumerate", "1/3", "--depth", "1"]),
    ("0bb6c22e4a1a07db67042b84fa0373c95e151394038f7294233349d8db4bb43c",
     ["enumerate", "1/3", "--depth", "0"]),
    ("fbd091b04803a3563f34fc2ea16162546b26ffe473e5b38a0faaa657f1be7e8b",
     ["census", "--den-bound", "4", "--num-bound", "4", "--depths", "6,12", "--format", "csv"]),
    ("790a80e2b9f44c434a151a23f9ec242455baa1401bccece44ae7be99f6ab0754",
     ["census", "--den-bound", "3", "--num-bound", "3", "--depths", "6", "--k", "2",
      "--parity", "even"]),
    ("d4c3a54801a32165bdf51a858bea9ac0c1ea6712049810ed802334d5bf059e81",
     ["synth", "5/9", "--k", "2", "--parity", "even"]),
    ("422b85618481e1a6418911994f595e27a424ea880de4fe2d7b855bc21738b5a1",
     ["census", "--den-bound", "12", "--num-bound", "12", "--depths", "6", "--k", "3"]),
    ("f47980688743f6b9e7495d430f081b5717653842dddc90267fa19c118c118c63",
     ["census", "--den-bound", "30", "--num-bound", "40", "--depths", "6,10", "--parity", "even",
      "--k", "2"]),
    ("56c590fe848e4026b498957c0287b1044fe51be04271de317180e8e2510ae43c",
     ["rewrite", "bsep", "0.2,1,3,1,2,3"]),
    ("08da89cf40e0fa18add22dc25db8f388d9a1797db80f4d54ecbf0f9215e842af",
     ["rewrite", "reduce", "0.3,1,2,3,3,2,3"]),
    ("b21996faa344b0aece137ff6c59a77531b2f80ec9ddc02cf4523a475eee98f60",
     ["rewrite", "add", "0.5,4,5", "0.5,5", "--k", "2"]),
    ("e64459de7be899ef6390866d53e84f0ee0dc5a8d7aea049e4748fd50bb85dd32",
     ["enumerate", "--k", "2", "--depth", "11", "2/5"]),
    ("790a80e2b9f44c434a151a23f9ec242455baa1401bccece44ae7be99f6ab0754",
     ["census", "--parity", "even", "--k", "2", "--depths", "6", "--num-bound", "3",
      "--den-bound", "3"]),
    ("3515b548744d0d9f2457832b4a2bb831b9e4addd4d593ac7ce5fadba51ab54ed",
     ["rewrite", "cr", "0.2,3,3,1"]),
    # cr's step names the pair it carried, as bsep's first carry-pair does,
    # and a word with no big-big pair takes no step
    ("e05285dae7ccc52457e76673c3998c5bf738aaf4ca1fb21a7b4f25593595e260",
     ["rewrite", "cr", "0.1,2,3"]),
    ("03aa0c229aaf524adcedcc6f16f745923d9a398f68ac497ca54b40355875aef4",
     ["rewrite", "cr", "0.3,1,2,3"]),
    ("932e101dd15c64092eee65b10bec4bb4d3578aa7531190b31d7bb7cb1bf369e5",
     ["rewrite", "cr", "0.1,1"]),
    ("7f9568e0bdce8ce1d4f8e5ffe483a35b9e02260ba7340c8935771d514da155bb",
     ["rewrite", "div", "0.2,1"]),
    ("d7b8ad41bc810d29625a6abb56bdcf6f8cda0dac65d13d891f6fab5c3cf311d7",
     ["rewrite", "mulbeta", "0.1,0,1"]),
    ("b673fefc78ed6799960a330b8310709d252ead1c50eebaa231a2b308054f341a",
     ["rewrite", "mulbeta", "0.1,1"]),
    ("bca38062b37d9eca50a8b130d9f3c3b03fe0c07ed8e556a4c4dbe3dd9cc53043",
     ["rewrite", "mulbeta", "0.1,1,2,1"]),
    ("ae28b9cfa9da4796da206efa2593d9bfca3fdb9d2174b8239f4d7ab5e6a7aae0",
     ["rewrite", "mulbeta", "0.1,1,2,0,1"]),
    ("06761c69662690aba46ded8b201f067371fd73051929ba79d42bbd839337f1a5", ["classify", "0"]),
    ("33614518130d3ae0ea078a4838e9be450661ab5079c777e1554c93ccfde59870",
     ["rewrite", "div", "0.5,3,1", "--k", "2"]),
    # a period of zeros spells a finite word, which mulbeta takes
    ("60e04e0698fb459fb659814bd8bfadde04228e65fdf1138a3ecc5f1740e6062d",
     ["rewrite", "mulbeta", "0.1,(0)*"]),
    # the constructive route gives up and falls back to the search: at k = 1
    # where its assembly needs a negative term, and always in even parity;
    # each writes the bytes of the same call with --route search
    ("3d8dba0b9bd85924c46a78b886e06ba3e2c79d2adb64217e96344763e9534ae8",
     ["synth", "(3-1*b)/2", "--route", "construct"]),
    ("b76b2b19c92058be6aba80a7178a134dbc40f6dbd8e3ec90c84f0d43d1310d3f",
     ["synth", "1/3", "--route", "construct", "--k", "2", "--parity", "even"]),
    # census at its default --depths
    ("73ae5d0f42e6ec0bfb50586f835ca206225293c7b821053ef1fefebb4c0c1c34",
     ["census", "--den-bound", "2", "--num-bound", "2"]),
    # the self-check reports: every check passes, with these bytes
    ("75a8dbe9c907234eb7f6feec82e2dcc0f81de0928122b3bab910283bce7fd37b",
     ["verify", "--level", "fast"]),
    ("aa5fb361df77ce972164a79105135812155b447a461912d7fe6b74ef9279092a",
     ["verify", "--level", "full"]),
    # domain errors: one error line, exit 3
    *[((3, "error: x outside the expansion interval"), [cmd, "-1/2"])
      for cmd in ("classify", "enumerate", "synth")],
    *[((3, "error: the rewriting calculus applies to odd-parity systems"),
       ["rewrite", *words, "--parity", "even"]) for words in (["cr", "0.1,2"], ["add", "0.1", "0.2"])],
    ((3, "error: value too large: beta * x leaves the expansion interval"),
     ["rewrite", "mulbeta", "0.3,3"]),
    ((3, "error: division by k+1 expects integer part 0"), ["rewrite", "div", "1.2"]),
    ((3, "error: multiplication by beta expects integer part 0"), ["rewrite", "mulbeta", "1.2"]),
    # a malformed literal and a bad parameter are domain errors too
    ((3, "error: digit 9 out of range 0..3 in '0.9'"), ["rewrite", "carry", "0.9"]),
    ((3, "error: k must be a positive integer, got 0"), ["classify", "1/3", "--k", "0"]),
    ((3, "error: malformed field literal: '0.5'"), ["classify", "0.5"]),
    ((3, "error: digit reduction is over its work budget of 2000000 digits rescanned"),
     ["rewrite", "reduce", LONG_003]),
    # usage errors reported by the top-level parser, exit 2
    ((2, "goldenbeta: error: unrecognized arguments: --k 2"), ["verify", "--k", "2"]),
    ((2, "goldenbeta: error: unrecognized arguments: --bogus"), ["census", "--bogus"]),
]

# the sha256 of the sorted canonical records of each workload's first pass
# at --seed 5, as bench/run.py reports it
BENCH_SEED = 5
BENCH_DIGESTS = {
    "dichotomy": "cd6c76589b07ae3f09677fe778ed2b978885bac73cba0aad35b84586171f7f4d",
    "census": "732d99490c01e5ecca5cc6f2aa178fdb069891fe391fd4564ef92ed2ea126e11",
    "enumerate": "319bf605031b95153528839c9b215f1990683c70b3ce1bc06b7ff36bcf192269",
    "rewrite": "c6e4c259edad5af2eff2f8ea3c346b4fd2964d9ef459ee2a311251513d448e6d",
}


def failure(pin, code: int, out: bytes, err: str) -> str | None:
    """Why one call's exit code, stdout and stderr miss ``pin``, or None."""
    want, _ = pin
    if isinstance(want, str):
        got = hashlib.sha256(out).hexdigest()
        return None if (code, got) == (0, want) else f"exit {code}, stdout sha256 {got}"
    lines = err.splitlines()
    one_line = code == 2 or len(lines) == 1  # a domain error is its error line alone
    ok = (code, out, lines[-1:]) == (want[0], b"", [want[1]]) and one_line
    return None if ok else f"exit {code}, {len(out)} bytes of stdout, stderr {err!r}"


def label(argv: list[str]) -> str:
    return " ".join(a if len(a) <= 40 else f"{a[:20]}...({len(a)} chars)" for a in argv)


def run_python(*args, text=False):
    """A fresh interpreter run with ``args``; ``SRC`` leads its PYTHONPATH,
    so it imports the package of this checkout."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True, text=text,
                          timeout=120, env=dict(os.environ, PYTHONPATH=path))


def main() -> int:
    failed = 0
    for pin in PINS:
        proc = run_python("-O", "-m", "goldenbeta.cli", *pin[1])
        why = failure(pin, proc.returncode, proc.stdout, proc.stderr.decode())
        failed += why is not None
        print(f"{'FAIL' if why else 'ok'}  {label(pin[1])}" + (f": {why}" if why else ""))
    print(f"{len(PINS) - failed} of {len(PINS)} pins match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
