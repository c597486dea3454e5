"""Command-line front end emitting machine-checkable certificates.

Every subcommand prints one record per line in JSON-lines form by default
(csv and text renderings carry the same values).  A record echoes its
input, lists every evaluated inequality with exact rational sides, states
the verdict, and carries caveats for hypotheses that were assumed rather
than verified.  Rationals serialize as exact "p/q" strings, never floats,
so certificates can be re-checked independently; re-running a command on
a certificate's echoed input reproduces the record bit-for-bit except for
the timing field.  Handlers build only the body of their record; `main`
stamps every record with the package `version` and with `elapsed_s`, the
time the handler took, and writes it.  `enumerate` also writes one
`enumerate-item` record per tuple as it streams, one sieve block at a
time (`enumeration.iter_row_blocks`): the tuples of a block share their
head, the orders but the last, and their verdict.  The `Emitter`'s fixed
line template for the format gets the head's text once per head and the
label and the two bools once per block, so an item fills in only its last
order m and c1 = D/P, with D = Ph + (Nh - Ph)*m and P = Ph*m from the
head's product Ph and reciprocal-sum numerator Nh.  The verdict is the
block's because each of the three predicates is affine in m and the
search checks it at the block's two ends.  D/P needs no gcd: the command
checks gcd(Nh, Ph) = 1 once per head, and with gcd(m, Ph) = 1 from the
sieve no prime of m or of Ph divides D.  Only the all-unit item, with
P = 1, writes c1 as an integer.  Each block's lines go out in one write.
No dict or Fraction is built for an item, and the bytes are those the
generic path writes for the item's dict.

Exit codes separate computation from verdict: 0 means a verdict was
computed (pass or fail alike, read the payload), 1 means the input was
invalid, 2 means a resource cap stopped the run.

`main(argv)` returns that code instead of exiting, so it can be called
repeatedly in one process (batch scripts, tests).  It builds the argparse
tree once per process, at the first call, and reuses it: building the tree
costs a few milliseconds, more than a one-shot certificate itself.  A call
is parsed by its own subcommand's parser, picked by argv's leading command
words (`_parse_args`), not by every parser above it as well; the namespace,
usage text and exit codes are argparse's own.  numpy is still imported with
the package (the oracle commands need it), so a fresh process's start-up is
mostly that import.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
import time
from fractions import Fraction

from . import __version__
from .enumeration import (
    SearchConfig,
    enumerate_tuples,
    iter_row_blocks,
    sylvester_family,
    sylvester_seq,
)
from .errors import InputError, ResourceLimitExceeded, check_int
from .exactmath import count_coprime_in_range
from .lct import (
    DelPezzo2,
    DelPezzo4,
    SncFanoData,
    dp2_check,
    dp4_check,
    monomial_lct,
    snc_ke_check,
)
from .oracle import (
    MAX_GRID_POINTS,
    OracleConfig,
    estimate_bp_threshold,
    estimate_monomial_threshold,
    verify_threshold,
)
from .orbifold import classify, link_weights, make_tuple

CONTACT_NOTE = (
    "contact-structure: with pairwise-coprime orders the link is a homology "
    "sphere, homeomorphic to S^(2n+1) for n >= 2; its contact structure is an "
    "input hypothesis of the certificate, not re-verified here"
)
SNC_NOTE = (
    "snc-arrangement: the simple-normal-crossing position of the divisors is "
    "asserted by the caller and echoed here, not verified geometrically"
)
PENCIL_NOTE = (
    "quadric-pencil: simultaneous diagonalizability of the pencil is asserted "
    "by the caller, not verified"
)
FAMILY_NOTE = (
    "family-range: the admissible interval is rederived from the exact bound "
    "m*(S-1) < n; a variant closed form that substitutes the next sequence "
    "value fails that derivation and is rejected"
)

_ASSUMPTION_NOTES = {
    "snc-arrangement-asserted-not-verified": SNC_NOTE,
    "pencil-diagonalizability-asserted-not-verified": PENCIL_NOTE,
}


# ---------------------------------------------------------------------------
# Serialization


def _ineq(name: str, lhs, rhs, holds: bool) -> dict:
    return {"name": name, "lhs": str(lhs), "rhs": str(rhs), "holds": bool(holds)}


def _scalar(value) -> str:
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return ""
    return str(value)


_NESTED = (dict, list, tuple)


def _flat_items(value, key="", flat=None) -> list:
    """Dotted-key (key, text) pairs, shared by the csv and text renderers.

    A dict contributes its items under key.sub, a list of scalars one
    ";"-joined entry, any other list its items under key.i, and a scalar
    itself.  Every pair is appended to the one list flat, which is returned:
    a scalar member in place, a nested one by a recursive call.
    """
    if flat is None:
        flat = []
    if isinstance(value, dict):
        prefix, members = (f"{key}." if key else ""), value.items()
    elif isinstance(value, (list, tuple)):
        for item in value:
            if isinstance(item, _NESTED):
                break
        else:
            flat.append((key, ";".join(map(_scalar, value))))
            return flat
        prefix, members = f"{key}.", enumerate(value)
    else:
        flat.append((key, _scalar(value)))
        return flat
    for sub, inner in members:
        if isinstance(inner, _NESTED):
            _flat_items(inner, f"{prefix}{sub}", flat)
        else:
            flat.append((f"{prefix}{sub}", _scalar(inner)))
    return flat


# Every enumerate-item record has these keys, in this order.
ITEM_KEYS = ("command", "orders", "classification", "c1", "old_ok", "new_ok")
_ITEM_CSV_HEADER = ",".join(ITEM_KEYS) + "\n"
# A bool as json.dumps and _scalar both write it, indexed by the bool.
_BOOL = ("false", "true")


@functools.cache
def _item_template(fmt: str) -> tuple:
    """(line template, orders separator) of an enumerate-item record in fmt.

    The template's "%s" fields take the joined orders, the label, c1 and the
    two bools.  No value of an item needs escaping or quoting (ints, four
    labels, a "p/q" string, bools), so the line is the bytes `Emitter.write`
    gives for the item's dict, a csv header aside.
    """
    if fmt == "json":
        values = ('"enumerate-item"', "[%s]", '"%s"', '"%s"', "%s", "%s")
        pairs = ", ".join(f'"{key}": {value}' for key, value in zip(ITEM_KEYS, values))
        return "{" + pairs + "}\n", ", "
    values = ("enumerate-item", "%s", "%s", "%s", "%s", "%s")
    if fmt == "csv":
        return ",".join(values) + "\n", ";"
    lines = "".join(f"{key} = {value}\n" for key, value in zip(ITEM_KEYS, values))
    return lines + "\n", ";"


class Emitter:
    """Streams records as json-lines, csv sections, or text blocks.

    `write` renders any record dict.  `item_format(head)` gives the line
    template of the enumerate-items whose orders begin with head: the
    format's fixed item template with head's text in place, so `enumerate`
    joins an order prefix once for all its items, fills in the label and
    the two bools once per block and the last order and c1 per item, the
    same bytes as `write` on the item's dict.  `enumerate` writes the lines
    to `out` itself.

    csv emits a header row whenever the record shape changes, so a stream
    of homogeneous rows (enumerate items) forms one table and the trailing
    summary forms its own.
    """

    def __init__(self, fmt: str, out):
        self.fmt = fmt
        self.out = out
        self._csv_keys = None
        self._csv = csv.writer(out, lineterminator="\n") if fmt == "csv" else None
        self._item, self._sep = _item_template(fmt)

    def write(self, record: dict):
        if self.fmt == "json":
            self.out.write(json.dumps(record) + "\n")
            return
        flat = _flat_items(record)
        if self.fmt == "csv":
            keys, values = zip(*flat)
            if keys != self._csv_keys:
                self._csv.writerow(keys)
                self._csv_keys = keys
            self._csv.writerow(values)
            return
        for key, value in flat:
            self.out.write(f"{key} = {value}\n")
        self.out.write("\n")

    def item_format(self, head) -> str:
        """The line template of the items whose orders are head plus one last order.

        Its "%s" fields take the last order, the label, c1 and the two bools
        (as _BOOL writes them).  Call it just before writing an item: in
        csv, the first call writes the item header when the last header
        written differs.
        """
        if self._csv is not None and self._csv_keys != ITEM_KEYS:
            self._csv_keys = ITEM_KEYS
            self.out.write(_ITEM_CSV_HEADER)
        orders = self._sep.join(map(str, head)) + self._sep + "%s"
        return self._item % (orders, "%s", "%s", "%s", "%s")


class _OutFile:
    """The `--out` file, opened for writing at the first write.

    A run rejected before it writes a record leaves an existing file
    untouched.  A path that cannot be written is rejected up front, before
    the run: an existing file is opened for appending and closed, so its
    bytes stay, and a new one is created and removed again.  A write or
    close that fails later (a full disk) raises the same InputError.
    """

    def __init__(self, path: str):
        self.path = path
        self.file = None
        try:
            if os.path.exists(path):
                open(path, "a").close()
            else:
                open(path, "x").close()
                os.remove(path)
        except OSError as exc:
            raise self._cannot_write(exc) from None

    def _cannot_write(self, exc: OSError) -> InputError:
        return InputError(f"cannot write --out {self.path}: {exc.strerror or exc}")

    def write(self, text: str):
        try:
            if self.file is None:
                self.file = open(self.path, "w")
            return self.file.write(text)
        except OSError as exc:
            raise self._cannot_write(exc) from None

    def close(self):
        try:
            if self.file is not None:
                self.file.close()
        except OSError as exc:
            raise self._cannot_write(exc) from None


# ---------------------------------------------------------------------------
# Record builders


def _fano_inequalities(report, c1, old_rhs, new_rhs) -> list:
    """The three rows of `check`, from the report's flags and its sides c1, old_rhs, new_rhs."""
    return [
        _ineq("zero-below-c1", 0, c1, report.fano),
        _ineq("c1-below-old-bound", c1, old_rhs, report.old_ok),
        _ineq("c1-below-new-bound", c1, new_rhs, report.new_ok),
    ]


def _ke_record(command: str, input_echo: dict, report) -> dict:
    caveats = [_ASSUMPTION_NOTES.get(a, a) for a in report.assumptions]
    return {
        "command": command,
        "input": input_echo,
        "derived": {
            "delta": str(report.delta),
            "beta": None if report.beta is None else str(report.beta),
            "c": str(report.c),
            "method": report.method,
        },
        "inequalities": [_ineq(*row) for row in report.conditions],
        "verdict": "passes" if report.passes else "fails",
        "caveats": caveats,
    }


# ---------------------------------------------------------------------------
# Subcommand handlers
#
# Each handler returns its record body, "command" first; main stamps the
# envelope ("version" after "command", "elapsed_s" after "caveats").


def _cmd_check(args, emit: Emitter) -> dict:
    min_order = 1 if args.allow_unit_orders else 2
    t = make_tuple(args.dim, args.orders, min_order=min_order)
    report = classify(t)
    # Each read of a side builds its Fraction, so each is read once.
    c1, old_rhs, new_rhs = report.c1, report.old_rhs, report.new_rhs
    link = link_weights(t)
    return {
        "command": "check",
        "input": {"dim": t.n, "orders": list(t.orders), "min_order": min_order},
        "derived": {
            "c1": str(c1),
            "old_bound": str(old_rhs),
            "new_bound": str(new_rhs),
            "link_order_product": link.M,
            "link_weights": list(link.weights),
        },
        "inequalities": _fano_inequalities(report, c1, old_rhs, new_rhs),
        "verdict": report.classification,
        "caveats": [CONTACT_NOTE],
    }


_CLASS_CHOICES = {
    "new-only": ("NewOnlyKE",),
    "old": ("OldKE",),
    "all": ("NotFano", "OldKE", "NewOnlyKE", "NoCriterion"),
}


def _cmd_enumerate(args, emit: Emitter) -> dict:
    """`count` counts in closed form; `enumerate` streams every tuple, serially, a block per write."""
    counting = args.subcommand == "count"
    cfg = SearchConfig(
        n=args.dim,
        min_order=1 if args.allow_unit_orders else 2,
        mode="count" if counting else "materialize",
        classes=_CLASS_CHOICES[args.klass],
        max_order=args.max_order,
        parallel_width=args.jobs,
        node_cap=args.max_nodes,
    )
    summary = {
        "command": args.subcommand,
        "input": {
            "dim": args.dim,
            "class": args.klass,
            "count_only": counting,
            "max_order": args.max_order,
            "min_order": cfg.min_order,
            "jobs": cfg.parallel_width,
            "max_nodes": args.max_nodes,
        },
        "counts": dict.fromkeys(cfg.classes, 0),
        "verdict": "complete",
        "caveats": [CONTACT_NOTE],
    }
    if counting:
        result = enumerate_tuples(cfg)
        summary["counts"] = result.counts
        summary["nodes_visited"] = result.nodes_visited
        return summary
    counts = summary["counts"]
    item_format, write = emit.item_format, emit.out.write
    head = None
    for block_head, Ph, Nh, (_, old_ok, new_ok, label), ms in iter_row_blocks(cfg):
        # The blocks of one head come together: join its text once, at its first block.
        if block_head != head:
            head = block_head
            if math.gcd(Nh, Ph) != 1:
                raise AssertionError(f"{head} has reciprocal sum {Nh}/{Ph} "
                                     f"out of lowest terms")
            line, K = item_format(head), Nh - Ph
        counts[label] += len(ms)
        bools = _BOOL[old_ok], _BOOL[new_ok]
        row = line % ("%d", label, "%d/%d", *bools)
        # gcd(Nh, Ph) = 1 and gcd(m, Ph) = 1 make D/P = (Ph + K*m)/(Ph*m) lowest terms.
        lines = [row % (m, Ph + K * m, Ph * m) for m in ms]
        if Ph * ms[0] == 1:
            # The all-unit row has P = 1, and its c1 is written as the integer D.
            lines[0] = line % (1, label, Nh, *bools)
        write("".join(lines))
    return summary


def _cmd_family(args, emit: Emitter) -> dict:
    fam = sylvester_family(args.dim)
    lo, hi = fam.last_interval
    admissible = count_coprime_in_range(lo + 1, hi - 1, fam.forbidden_primes)
    result = enumerate_tuples(SearchConfig(
        n=args.dim, mode="count", classes=("NewOnlyKE", "OldKE"), prefix_filter=fam.prefix,
    ))
    return {
        "command": "family",
        "input": {"dim": args.dim},
        "family": {
            "prefix": list(fam.prefix),
            "last_interval_open": list(fam.last_interval),
            "forbidden_primes": list(fam.forbidden_primes),
        },
        "counts": {"admissible": admissible, **result.counts},
        "verdict": "derived",
        "caveats": [FAMILY_NOTE, CONTACT_NOTE],
    }


def _cmd_sylvester(args, emit: Emitter) -> dict:
    seq = sylvester_seq(args.k)
    rows = []
    N, prod = 0, 1
    for i, c in enumerate(seq, start=1):
        # The partial sum of 1/c_j is N/prod, kept in integers.
        N, prod = N * c + prod, prod * c
        # c_{i+1} = prod + 1, so the identity closes with 1/prod: (N + 1)/prod = 1.
        rows.append(_ineq(
            f"reciprocal-sum-identity-{i}", Fraction(N + 1, prod), 1, N + 1 == prod,
        ))
    return {
        "command": "sylvester",
        "input": {"k": args.k},
        "sequence": seq,
        "inequalities": rows,
        "verdict": "verified" if all(r["holds"] for r in rows) else "failed",
        "caveats": [],
    }


def _parse_divisor(text: str):
    parts = text.split(":")
    if len(parts) != 2:
        raise InputError(f"divisor must look like d:m, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise InputError(f"divisor must hold integers d:m, got {text!r}")


def _cmd_lct_snc(args, emit: Emitter) -> dict:
    entries = tuple(_parse_divisor(d) for d in args.divisor or ())
    report = snc_ke_check(SncFanoData(args.dim, entries))
    return _ke_record(
        "lct-snc", {"dim": args.dim, "divisors": [list(e) for e in entries]}, report,
    )


def _cmd_lct_monomial(args, emit: Emitter) -> dict:
    threshold = monomial_lct(args.exponents)
    return {
        "command": "lct-monomial",
        "input": {"exponents": list(args.exponents)},
        "derived": {"threshold": str(threshold)},
        "inequalities": [],
        "verdict": str(threshold),
        "caveats": [],
    }


def _parse_singularities(text: str):
    if not text:
        return ()
    labels = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        body = item[1:] if item[:1] in ("A", "a") else item
        try:
            labels.append(int(body))
        except ValueError:
            raise InputError(f"singularity must look like A2, got {item!r}")
    return tuple(labels)


def _cmd_dp2(args, emit: Emitter) -> dict:
    sings = _parse_singularities(args.sing)
    report = dp2_check(DelPezzo2(sings))
    return _ke_record("delpezzo-deg2", {"singularities": [f"A{k}" for k in sings]}, report)


def _parse_lambdas(text: str):
    try:
        return tuple(Fraction(item.strip()) for item in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise InputError(f"pencil parameters must be rationals, got {text!r}")


def _cmd_dp4(args, emit: Emitter) -> dict:
    lambdas = _parse_lambdas(args.lambdas)
    report = dp4_check(DelPezzo4(lambdas))
    return _ke_record("delpezzo-deg4", {"lambdas": [str(l) for l in lambdas]}, report)


def _parse_grid(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise InputError(f"grid must look like lo:hi:step, got {text!r}")
    try:
        lo, hi, step = (Fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"grid bounds must be rationals, got {text!r}")
    if step <= 0 or hi <= lo:
        raise InputError("grid needs lo < hi and positive step")
    count = (hi - lo) // step + 1
    if count > MAX_GRID_POINTS:
        raise InputError(f"grid has {count} points, more than the cap {MAX_GRID_POINTS}")
    return tuple(lo + k * step for k in range(count))


def _default_grid(analytic: Fraction):
    return tuple(analytic * Fraction(60 + 5 * k, 100) for k in range(17))


def _oracle_config(args, analytic: Fraction) -> OracleConfig:
    grid = _parse_grid(args.grid) if args.grid else _default_grid(analytic)
    kwargs = {"lambda_grid": grid}
    if args.samples is not None:
        kwargs["samples_per_shell"] = args.samples
    if args.cutoffs:
        try:
            kwargs["cutoffs"] = tuple(float(c) for c in args.cutoffs.split(","))
        except ValueError:
            raise InputError(f"cutoffs must be comma-separated floats, got {args.cutoffs!r}")
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.tol is not None:
        kwargs["tolerance"] = args.tol
    return OracleConfig(**kwargs)


def _oracle_record(command, input_echo, cfg, est, analytic) -> dict:
    ok = verify_threshold(analytic, est, cfg.tolerance)
    input_echo.update({
        "seed": cfg.seed,
        "samples_per_shell": cfg.samples_per_shell,
        "cutoffs": list(cfg.cutoffs),
        "lambda_grid": [str(l) for l in cfg.lambda_grid],
        "tolerance": cfg.tolerance,
    })
    return {
        "command": command,
        "input": input_echo,
        "estimate": {
            "threshold": est.threshold_estimate,
            "confidence_halfwidth": est.confidence_halfwidth,
            "per_lambda_slopes": [[str(l), s] for l, s in est.per_lambda_slopes],
        },
        "analytic": str(analytic),
        "inequalities": [],
        "verdict": "within-tolerance" if ok else "outside-tolerance",
        "caveats": ["stochastic: estimates are Monte-Carlo instruments, not certificates"],
    }


def _cmd_oracle_monomial(args, emit: Emitter) -> dict:
    analytic = monomial_lct(args.exponents)
    cfg = _oracle_config(args, analytic)
    est = estimate_monomial_threshold(args.exponents, cfg)
    return _oracle_record(
        "oracle-monomial", {"exponents": list(args.exponents)}, cfg, est, analytic,
    )


def _cmd_oracle_bp(args, emit: Emitter) -> dict:
    analytic = Fraction(2, check_int(args.n, "--n", 2))
    cfg = _oracle_config(args, analytic)
    est = estimate_bp_threshold(args.n, cfg)
    return _oracle_record("oracle-bp", {"n": args.n}, cfg, est, analytic)


# ---------------------------------------------------------------------------
# Parser


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose help and version text fails loudly on a failed stdout write.

    argparse drops an OSError from any message it prints, so `--help` to a
    full stdout would exit 0 with nothing written.  A write to stdout
    raises here instead, and `entry` reports it; usage errors go to stderr
    as before.
    """

    def _print_message(self, message, file=None):
        if file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The whole argparse tree, built at the first `main` call and then reused.

    Parsing leaves the parser untouched (every call gets a fresh Namespace
    and copies of list defaults), so one parser serves every call in the
    process.  `_parse_args` walks it to the parser of the subcommand argv
    names and parses there.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "text"), default="json",
                        help="output encoding (default json, one record per line)")
    common.add_argument("--out", metavar="FILE", default=None,
                        help="write records to FILE instead of stdout")

    parser = _Parser(
        prog="orbke",
        description="Exact Kähler-Einstein existence certificates for "
                    "boundary-divisor orbifolds, with enumeration and "
                    "stochastic threshold verification.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("check", parents=[common],
                       help="classify one order tuple and emit its certificate")
    p.add_argument("--dim", type=int, required=True, help="complex dimension n")
    p.add_argument("orders", type=int, nargs="+", help="the n+2 ramification orders")
    p.add_argument("--allow-unit-orders", action="store_true",
                   help="permit orders equal to 1 (trivial divisors)")
    p.set_defaults(func=_cmd_check)

    for name in ("enumerate", "count"):
        p = sub.add_parser(
            name, parents=[common],
            help="count admissible tuples by classification" if name == "count"
            else "enumerate admissible tuples in canonical order",
        )
        p.add_argument("--dim", type=int, required=True)
        p.add_argument("--class", dest="klass", choices=sorted(_CLASS_CHOICES),
                       default="new-only")
        p.add_argument("--max-order", type=int, default=None,
                       help="cap on every order (required for infinite classes)")
        if name == "count":
            p.add_argument("--jobs", type=int,
                           help="worker processes for counting (default 1)")
        p.add_argument("--max-nodes", type=int, default=None, dest="max_nodes",
                       help="search node budget; exceeding it exits with code 2")
        p.add_argument("--allow-unit-orders", action="store_true")
        # enumerate streams serially: jobs is 1 and has no flag there.
        p.set_defaults(func=_cmd_enumerate, jobs=1)

    p = sub.add_parser("family", parents=[common],
                       help="the doubly-exponential family and its admissible counts")
    p.add_argument("--dim", type=int, required=True)
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("sylvester", parents=[common],
                       help="sequence values with exact sum identities")
    p.add_argument("--k", type=int, required=True, help="number of terms (1..8)")
    p.set_defaults(func=_cmd_sylvester)

    p_lct = sub.add_parser("lct", help="integrability-threshold criteria")
    sub_lct = p_lct.add_subparsers(dest="lct_command", required=True)
    p = sub_lct.add_parser("snc", parents=[common],
                           help="criterion for a normal-crossing boundary on P^n")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--divisor", action="append", metavar="d:m",
                   help="divisor of degree d with order m (repeatable)")
    p.set_defaults(func=_cmd_lct_snc)
    p = sub_lct.add_parser("monomial", parents=[common],
                           help="exact monomial integrability threshold")
    p.add_argument("exponents", type=int, nargs="+")
    p.set_defaults(func=_cmd_lct_monomial)

    p_dp = sub.add_parser("delpezzo", help="low-degree del Pezzo criteria")
    sub_dp = p_dp.add_subparsers(dest="dp_command", required=True)
    p = sub_dp.add_parser("deg2", parents=[common], help="degree-2 surface with A_k points")
    p.add_argument("--sing", default="", metavar="A1,A2,...",
                   help="comma-separated A_k labels (empty for smooth)")
    p.set_defaults(func=_cmd_dp2)
    p = sub_dp.add_parser("deg4", parents=[common], help="degree-4 diagonal surface")
    p.add_argument("--lambda", dest="lambdas", required=True, metavar="l2,l3,l4",
                   help="three nonzero rational pencil parameters")
    p.set_defaults(func=_cmd_dp4)

    p_or = sub.add_parser("oracle", help="stochastic threshold verification")
    sub_or = p_or.add_subparsers(dest="oracle_command", required=True)
    for name in ("monomial", "bp"):
        p = sub_or.add_parser(name, parents=[common])
        if name == "monomial":
            p.add_argument("--exponents", type=int, nargs="+", required=True)
            p.set_defaults(func=_cmd_oracle_monomial)
        else:
            p.add_argument("--n", type=int, required=True)
            p.set_defaults(func=_cmd_oracle_bp)
        p.add_argument("--seed", type=int, default=None, help="random seed")
        p.add_argument("--tol", type=float, default=None,
                       help="relative tolerance for the verdict (default 0.1)")
        p.add_argument("--samples", type=int, default=None,
                       help="Monte-Carlo samples, one draw read by every cutoff shell")
        p.add_argument("--cutoffs", default=None,
                       help="comma-separated cutoff ladder (decreasing)")
        p.add_argument("--grid", default=None, metavar="lo:hi:step",
                       help="lambda probe grid (default spans the analytic value)")
    parser.add_argument("--version", action="version", version=f"orbke {__version__}")
    return parser


@functools.cache
def _subcommands(parser: argparse.ArgumentParser) -> dict:
    """{word: (dest, subparser)} for the subcommands parser hands the rest of argv to."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return {word: (action.dest, sub) for word, sub in action.choices.items()}
    return {}


def _parse_args(argv=None) -> argparse.Namespace:
    """argv parsed as `_build_parser().parse_args(argv)` parses it, with one parser pass.

    argparse parses a subcommand's words twice: each parser above it scans
    and classifies every word, then hands all the words after the command
    name to the subcommand's parser.  Here the leading words that name
    subcommands (`check`, `lct snc`) only pick that parser, which parses
    the rest with `parse_known_args`, as the hand-off does, and words it
    leaves over are reported by the top parser, as argparse reports them.
    The namespace gets each level's command name, as the hand-off sets it.
    When argv names no subcommand first (`--version`, `-h`, an unknown
    word), the top parser is the one reached and parses it all, which is
    what `parse_args` does.  The words are not walked when one begins with
    "--=": the top parser's scan rejects that word as an abbreviation of
    both --help and --version before any hand-off.
    """
    top = _build_parser()
    words = sys.argv[1:] if argv is None else list(argv)
    names, parser = {}, top
    if not any(word.startswith("--=") for word in words):
        for word in words:
            found = _subcommands(parser).get(word)
            if found is None:
                break
            dest, parser = found
            names[dest] = word
    parsed, extras = parser.parse_known_args(words[len(names):])
    if extras:
        top.error("unrecognized arguments: " + " ".join(extras))
    args = argparse.Namespace(**names)
    vars(args).update(vars(parsed))
    return args


def main(argv=None) -> int:
    """Run one command line (sys.argv[1:] when argv is None) and return its exit code.

    A usage error exits 1 and help or version text 0, as argparse prints
    them; see the module docstring for the other codes.
    """
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; fold that into the invalid-input code.
        return 0 if exc.code in (0, None) else 1
    out = None
    try:
        # --out closes inside the handled region: a failed last flush exits 1 too.
        try:
            out = _OutFile(args.out) if args.out else None
            emit = Emitter(args.format, out or sys.stdout)
            started = time.perf_counter()
            body = args.func(args, emit)
            elapsed = time.perf_counter() - started
            record = {"command": body.pop("command"), "version": __version__}
            for key, value in body.items():
                record[key] = value
                if key == "caveats":
                    record["elapsed_s"] = elapsed
            emit.write(record)
        finally:
            if out is not None:
                out.close()
        return 0
    except ResourceLimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _raised_here(exc: BaseException) -> bool:
    """Whether exc was raised in a frame of this module, whose only unhandled I/O is stdout's."""
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    return tb.tb_frame.f_globals is globals()


def entry():
    """Console entry point: exit with main's code, and with 1 when stdout fails.

    A reader that stops early (`orbke enumerate ... | head -1`) closes the
    pipe, and the run ends quietly.  Any other failed write to stdout (a
    full disk) prints one error line, as a failed `--out` write does.
    Either way the rest of the output is dropped into os.devnull, so that
    the flush at interpreter exit does not fail again.  No write is
    wrapped on its own: an OSError that reaches here is stdout's when it
    was raised in this module, and any other (a process pool that cannot
    start) surfaces as is.
    """
    try:
        code = main()
        sys.stdout.flush()
    except OSError as exc:
        if not _raised_here(exc):
            raise
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write stdout: {exc.strerror or exc}", file=sys.stderr)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entry()
