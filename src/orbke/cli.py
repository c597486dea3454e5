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
time the handler took, and writes it.

Exit codes separate computation from verdict: 0 means a verdict was
computed (pass or fail alike, read the payload), 1 means the input was
invalid, 2 means a resource cap stopped the run.

`main(argv)` returns that code instead of exiting, so it can be called
repeatedly in one process (batch scripts, tests).  It builds the argparse
tree once per process, at the first call, and parses every later call with
it: building the tree costs a few milliseconds, more than a one-shot
certificate itself.  numpy is still imported with the package (the oracle
commands need it), so a fresh process's start-up is mostly that import.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
import time
from fractions import Fraction

from . import __version__
from .enumeration import (
    SearchConfig,
    enumerate_tuples,
    iter_tuples,
    sylvester_family,
    sylvester_seq,
)
from .errors import (
    InputError,
    ResourceLimitExceeded,
    ThresholdOutsideGrid,
    check_int,
)
from .exactmath import count_coprime_in_range
from .lct import (
    INF,
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

JOBS_ENV = "ORBKE_JOBS"

CONTACT_NOTE = (
    "contact-structure: pairwise-coprime orders identify the link with an "
    "odd sphere carrying its standard contact structure; that identification "
    "is an input hypothesis of the certificate, not re-verified here"
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


def _rat(x) -> str:
    """Exact string form: "p/q" (or "p"), with the infinity sentinel as "inf".

    Every exact value reaching it is an int or a Fraction, and both already
    print in that form.
    """
    return "inf" if x is INF else str(x)


def _ineq(name: str, lhs, rhs, holds: bool) -> dict:
    return {"name": name, "lhs": _rat(lhs), "rhs": _rat(rhs), "holds": bool(holds)}


def _scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    return str(value)


def _flat_items(value, key=""):
    """Dotted-key flattening shared by the csv and text renderers."""
    if isinstance(value, dict):
        for sub, inner in value.items():
            yield from _flat_items(inner, f"{key}.{sub}" if key else sub)
    elif isinstance(value, (list, tuple)):
        if all(not isinstance(v, (dict, list, tuple)) for v in value):
            yield key, ";".join(_scalar(v) for v in value)
        else:
            for i, inner in enumerate(value):
                yield from _flat_items(inner, f"{key}.{i}")
    else:
        yield key, _scalar(value)


class Emitter:
    """Streams records as json-lines, csv sections, or text blocks.

    csv emits a header row whenever the record shape changes, so a stream
    of homogeneous rows (enumerate items) forms one table and the trailing
    summary forms its own.
    """

    def __init__(self, fmt: str, out):
        self.fmt = fmt
        self.out = out
        self._csv_keys = None
        self._csv = csv.writer(out, lineterminator="\n") if fmt == "csv" else None

    def write(self, record: dict):
        if self.fmt == "json":
            self.out.write(json.dumps(record) + "\n")
            return
        flat = list(_flat_items(record))
        if self.fmt == "csv":
            keys = [k for k, _ in flat]
            if keys != self._csv_keys:
                self._csv.writerow(keys)
                self._csv_keys = keys
            self._csv.writerow([v for _, v in flat])
            return
        for key, value in flat:
            self.out.write(f"{key} = {value}\n")
        self.out.write("\n")


class _OutFile:
    """The `--out` file, opened for writing at the first write.

    A run rejected before it writes a record leaves an existing file
    untouched.  A path that cannot be written is rejected up front, before
    the run: an existing file is opened for appending and closed, so its
    bytes stay, and a new one is created and removed again.
    """

    def __init__(self, path: str):
        try:
            if os.path.exists(path):
                open(path, "a").close()
            else:
                open(path, "x").close()
                os.remove(path)
        except OSError as exc:
            raise InputError(f"cannot write --out {path}: {exc.strerror or exc}") from None
        self.path = path
        self.file = None

    def write(self, text: str):
        if self.file is None:
            self.file = open(self.path, "w")
        return self.file.write(text)

    def close(self):
        if self.file is not None:
            self.file.close()


# ---------------------------------------------------------------------------
# Record builders


def _fano_inequalities(report) -> list:
    return [
        _ineq("zero-below-c1", 0, report.c1, report.fano),
        _ineq("c1-below-old-bound", report.old_lhs, report.old_rhs, report.old_ok),
        _ineq("c1-below-new-bound", report.c1, report.new_rhs, report.new_ok),
    ]


def _ke_record(command: str, input_echo: dict, report) -> dict:
    caveats = [_ASSUMPTION_NOTES.get(a, a) for a in report.assumptions]
    return {
        "command": command,
        "input": input_echo,
        "derived": {
            "delta": _rat(report.delta),
            "beta": None if report.beta is None else _rat(report.beta),
            "c": _rat(report.c),
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
    link = link_weights(t)
    return {
        "command": "check",
        "input": {"dim": t.n, "orders": list(t.orders), "min_order": min_order},
        "derived": {
            "c1": _rat(report.c1),
            "old_bound": _rat(report.old_rhs),
            "new_bound": _rat(report.new_rhs),
            "link_order_product": link.M,
            "link_weights": list(link.weights),
        },
        "inequalities": _fano_inequalities(report),
        "verdict": report.classification,
        "caveats": [CONTACT_NOTE],
    }


_CLASS_CHOICES = {
    "new-only": ("NewOnlyKE",),
    "old": ("OldKE",),
    "all": ("NotFano", "OldKE", "NewOnlyKE", "NoCriterion"),
}


def _jobs(args) -> int:
    if args.jobs is not None:
        return args.jobs
    env = os.environ.get(JOBS_ENV, "").strip()
    if env:
        try:
            return int(env)
        except ValueError:
            raise InputError(f"{JOBS_ENV} must be an integer, got {env!r}")
    return 1


def _cmd_enumerate(args, emit: Emitter) -> dict:
    classes = _CLASS_CHOICES[args.klass]
    cfg = SearchConfig(
        n=args.dim,
        min_order=1 if args.allow_unit_orders else 2,
        mode="count" if args.count_only else "materialize",
        classes=classes,
        max_order=args.max_order,
        parallel_width=_jobs(args),
        node_cap=args.max_nodes,
    )
    input_echo = {
        "dim": args.dim,
        "class": args.klass,
        "count_only": args.count_only,
        "max_order": args.max_order,
        "min_order": cfg.min_order,
        # The stream is serial: iter_tuples has no pool.
        "jobs": cfg.parallel_width if args.count_only else 1,
        "max_nodes": args.max_nodes,
    }
    if args.count_only:
        result = enumerate_tuples(cfg)
        counts = result.counts
        nodes = result.nodes_visited
    else:
        counts = {label: 0 for label in classes}
        nodes = None
        for t, report in iter_tuples(cfg):
            counts[report.classification] += 1
            emit.write({
                "command": "enumerate-item",
                "orders": list(t.orders),
                "classification": report.classification,
                "c1": _rat(report.c1),
                "old_ok": report.old_ok,
                "new_ok": report.new_ok,
            })
    summary = {
        "command": args.subcommand,
        "input": input_echo,
        "counts": counts,
        "verdict": "complete",
        "caveats": [CONTACT_NOTE],
    }
    if nodes is not None:
        summary["nodes_visited"] = nodes
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
    prod = 1
    partial = Fraction(0)
    for i, c in enumerate(seq, start=1):
        prod *= c
        partial += Fraction(1, c)
        # c_{i+1} = prod + 1, so the identity closes with 1/prod.
        rows.append(_ineq(
            f"reciprocal-sum-identity-{i}", partial + Fraction(1, prod), 1,
            partial + Fraction(1, prod) == 1,
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
        "derived": {"threshold": _rat(threshold)},
        "inequalities": [],
        "verdict": _rat(threshold),
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
    return _ke_record("delpezzo-deg4", {"lambdas": [_rat(l) for l in lambdas]}, report)


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
        "lambda_grid": [_rat(l) for l in cfg.lambda_grid],
        "tolerance": cfg.tolerance,
    })
    return {
        "command": command,
        "input": input_echo,
        "estimate": {
            "threshold": est.threshold_estimate,
            "confidence_halfwidth": est.confidence_halfwidth,
            "per_lambda_slopes": [[_rat(l), s] for l, s in est.per_lambda_slopes],
        },
        "analytic": _rat(analytic),
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The whole argparse tree, built at the first `main` call and then reused.

    Parsing leaves the parser untouched (every call gets a fresh Namespace
    and copies of list defaults), so one parser serves every call in the
    process.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "text"), default="json",
                        help="output encoding (default json, one record per line)")
    common.add_argument("--out", metavar="FILE", default=None,
                        help="write records to FILE instead of stdout")

    parser = argparse.ArgumentParser(
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
        if name == "enumerate":
            p.add_argument("--count-only", action="store_true",
                           help="closed-form counting instead of materializing")
        p.add_argument("--max-order", type=int, default=None,
                       help="cap on every order (required for infinite classes)")
        p.add_argument("--jobs", type=int, default=None,
                       help=f"worker processes for counting (default ${JOBS_ENV} or 1)")
        p.add_argument("--max-nodes", type=int, default=None, dest="max_nodes",
                       help="search node budget; exceeding it exits with code 2")
        p.add_argument("--allow-unit-orders", action="store_true")
        p.set_defaults(func=_cmd_enumerate, count_only=name == "count")

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
                       help="Monte-Carlo samples per cutoff shell")
        p.add_argument("--cutoffs", default=None,
                       help="comma-separated cutoff ladder (decreasing)")
        p.add_argument("--grid", default=None, metavar="lo:hi:step",
                       help="lambda probe grid (default spans the analytic value)")
    parser.add_argument("--version", action="version", version=f"orbke {__version__}")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; fold that into the invalid-input code.
        return 0 if exc.code in (0, None) else 1
    out = None
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
        return 0
    except ResourceLimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ThresholdOutsideGrid as exc:
        print(f"error: threshold outside grid ({exc.direction}): {exc}", file=sys.stderr)
        return 1
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if out is not None:
            out.close()


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
