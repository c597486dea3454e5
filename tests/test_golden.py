"""Golden one-shot certificates: stdout, stderr and exit code, byte for byte.

`golden_oneshot.json` holds the output of every command line in `ARGVS`, in
each format, with the CLI's clock pinned to 0 so that `elapsed_s` reads
0.0.  It covers `check`, the `lct` and `delpezzo` criteria, `family` and
`sylvester`: the commands whose records carry exact rational sides.  The
file was written before the criteria moved from Fraction arithmetic to
integer comparisons, so it pins the certificates of the Fraction code.

Regenerate it only on a deliberate certificate change, and say so:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
import types
from pathlib import Path

import pytest

from orbke import cli

GOLDEN = Path(__file__).with_name("golden_oneshot.json")
FORMATS = ("json", "csv", "text")
HUGE = "99999999999999999999"

ARGVS = (
    # check: dimensions 1-4, every verdict, unit orders
    ("check", "--dim", "1", "2", "3", "5"),
    ("check", "--dim", "1", "2", "3", "7"),
    ("check", "--dim", "1", "3", "4", "5"),
    ("check", "--dim", "2", "2", "3", "5", "7"),
    ("check", "--dim", "2", "2", "3", "7", "43"),
    ("check", "--dim", "2", "2", "3", "11", "13"),
    ("check", "--dim", "3", "2", "3", "5", "7", "11"),
    ("check", "--dim", "3", "2", "3", "7", "43", "1807"),
    ("check", "--dim", "4", "2", "3", "7", "43", "1807", "3263443"),
    ("check", "--dim", "4", "2", "3", "5", "7", "11", "13"),
    ("check", "--dim", "1", "1", "1", "1", "--allow-unit-orders"),
    ("check", "--dim", "2", "1", "1", "2", "3", "--allow-unit-orders"),
    ("check", "--dim", "3", "1", "2", "3", "5", "7", "--allow-unit-orders"),
    ("check", "--dim", "2", "2", "4", "5", "7"),
    ("check", "--dim", "2", "1", "2", "3", "5"),
    # lct snc: passing, failing, empty, the four-line boundaries, huge orders
    ("lct", "snc", "--dim", "2", "--divisor", "4:2"),
    ("lct", "snc", "--dim", "2", "--divisor", "1:2", "--divisor", "1:3",
     "--divisor", "1:5", "--divisor", "1:7"),
    ("lct", "snc", "--dim", "1", "--divisor", "1:2", "--divisor", "1:3",
     "--divisor", "1:7"),
    ("lct", "snc", "--dim", "3", "--divisor", "2:3", "--divisor", "1:5"),
    ("lct", "snc", "--dim", "2"),
    ("lct", "snc", "--dim", "2", "--divisor", "1:2", "--divisor", "1:2",
     "--divisor", "1:2", "--divisor", "1:3"),
    ("lct", "snc", "--dim", "2", "--divisor", "1:2", "--divisor", "1:2",
     "--divisor", "1:2", "--divisor", "1:4"),
    ("lct", "snc", "--dim", "2", "--divisor", "1:2", "--divisor", "1:2",
     "--divisor", "1:2", "--divisor", "1:5"),
    ("lct", "snc", "--dim", "2", "--divisor", "1:2", "--divisor", "1:3",
     "--divisor", "1:7", "--divisor", "1:42"),
    ("lct", "snc", "--dim", "2", "--divisor", "1:2", "--divisor", "1:3",
     "--divisor", "1:7", "--divisor", "1:43"),
    ("lct", "snc", "--dim", "2", "--divisor", "1:4", "--divisor", "1:4",
     "--divisor", "1:4", "--divisor", "1:4"),
    ("lct", "snc", "--dim", "2", "--divisor", f"1:{HUGE}"),
    ("lct", "snc", "--dim", "1", "--divisor", f"1:{HUGE}", "--divisor", f"1:{HUGE}7"),
    ("lct", "snc", "--dim", "2", "--divisor", f"{HUGE}:2"),
    ("lct", "snc", "--dim", "2", "--divisor", "1:1"),
    # lct monomial
    ("lct", "monomial", "1"),
    ("lct", "monomial", "2", "3", "5"),
    ("lct", "monomial", HUGE, "3"),
    # delpezzo deg2
    ("delpezzo", "deg2"),
    ("delpezzo", "deg2", "--sing", "A1,A2"),
    ("delpezzo", "deg2", "--sing", "A3"),
    ("delpezzo", "deg2", "--sing", "A2,A1,A1"),
    ("delpezzo", "deg2", "--sing", f"A{HUGE}"),
    ("delpezzo", "deg2", "--sing", "A0"),
    # delpezzo deg4: distinct and coincident parameters
    ("delpezzo", "deg4", "--lambda", "2,3,5"),
    ("delpezzo", "deg4", "--lambda", "1/2,-3,7/4"),
    ("delpezzo", "deg4", "--lambda", "2,2,5"),
    ("delpezzo", "deg4", "--lambda", "3,3,3"),
    # family and sylvester
    ("family", "--dim", "2"),
    ("family", "--dim", "3"),
    *(("sylvester", "--k", str(k)) for k in range(1, 9)),
)


def _run(argv):
    """(exit code, stdout, stderr) of one in-process CLI call with the clock at 0."""
    out, err = io.StringIO(), io.StringIO()
    clock = cli.time
    cli.time = types.SimpleNamespace(perf_counter=lambda: 0.0)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        cli.time = clock
    return code, out.getvalue(), err.getvalue()


def _cases():
    return [(*argv, "--format", fmt) for argv in ARGVS for fmt in FORMATS]


@functools.cache
def _load():
    return {tuple(case["argv"]): case for case in json.loads(GOLDEN.read_text())}


def test_corpus_covers_every_case():
    assert sorted(_load()) == sorted(_cases())


@pytest.mark.parametrize("argv", _cases(), ids=" ".join)
def test_matches_golden(argv):
    want = _load()[argv]
    assert _run(argv) == (want["code"], want["stdout"], want["stderr"])


if __name__ == "__main__":
    corpus = []
    for argv in _cases():
        code, stdout, stderr = _run(argv)
        corpus.append({"argv": list(argv), "code": code, "stdout": stdout, "stderr": stderr})
    GOLDEN.write_text(json.dumps(corpus, indent=1, ensure_ascii=False) + "\n")
    print(f"wrote {len(corpus)} cases to {GOLDEN}", file=sys.stderr)
