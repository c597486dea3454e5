"""Workload definitions: seeded operation lists, pinned results and output checks.

A workload is a list of operations, built once per run from the seed.  One
pass runs every operation once; the runner times each call and checks its
output afterwards, outside the timed region.  The program only ever sees
the generated argv lists and SearchConfig objects.

Every expected value is computed here with plain Fraction and integer
arithmetic, or pinned below, never taken from the code under test.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction

import orbke
from orbke import cli

# Dimension-5 prefix subtrees, grouped so that members of one group take
# the same time in count mode to within 4% (about 0.26, 0.23, 0.20, 0.145
# and 0.073 s on a 2-CPU Xeon VM, Python 3.11).  A draw takes
# one member of each group, so every seed does about the same work.  Each
# value is the subtree's exact NewOnlyKE count.
DIM5_POOL = (
    {(2, 3, 7, 29): 7818, (2, 3, 7, 47, 283): 276264,
     (2, 3, 7, 47, 289): 288441, (2, 3, 7, 47, 293): 359454},
    {(2, 3, 7, 85): 3357907, (2, 3, 7, 47, 275): 125580,
     (2, 3, 7, 47, 277): 237710, (2, 3, 7, 47, 281): 262731},
    {(2, 3, 7, 47, 247): 91191, (2, 3, 7, 47, 253): 103225,
     (2, 3, 7, 47, 269): 195910, (2, 3, 7, 47, 271): 205432},
    {(2, 3, 7, 89): 5262872, (2, 3, 7, 47, 221): 51280,
     (2, 3, 7, 47, 239): 98890, (2, 3, 7, 47, 241): 103301},
    {(2, 3, 7, 23): 1084, (2, 3, 7, 25): 1096, (2, 5, 7, 9): 190951,
     (3, 4, 5, 7): 32533},
)

# The pool members with the fewest tuples; their counts are confirmed once
# per run in materialize mode, a path that shares no counting code.
DIM5_MATERIALIZE = ((2, 3, 7, 23), (2, 3, 7, 25), (2, 3, 7, 29))

# certify: the stream's --max-order is drawn from this band, and each pass
# runs one slice of a batch of one-shot certificates.
STREAM_ORDER_BAND = (178, 182)
ONE_SHOT_BATCH = 1200
ONE_SHOT_SLICE = 400
_ONE_SHOT_PATTERN = (
    "check", "lct-snc", "check", "sylvester", "check", "lct-monomial",
    "check", "delpezzo-deg2", "lct-snc", "check", "delpezzo-deg4", "check",
    "family", "check", "lct-snc", "lct-monomial", "check", "delpezzo-deg2",
    "sylvester", "delpezzo-deg4",
)
_PRIME_POOL = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)

ORACLE_CASES = (
    ("monomial", "--exponents", "1"), ("monomial", "--exponents", "2"),
    ("monomial", "--exponents", "4"), ("bp", "--n", "2"), ("bp", "--n", "3"),
    ("bp", "--n", "4"),
)


class CheckFailed(Exception):
    """An operation's output disagrees with the benchmark's expectation."""


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Operations


@dataclass
class Op:
    """One call into the program.

    `spec` is the generated input (argv or config) as text.  `call` returns
    the raw output, which the runner times; `check` raises CheckFailed on a
    wrong output; `key` is the output with timings removed, which must not
    change from pass to pass; `records` counts its certificate records.
    `single` marks calls that yield one certificate; their latencies form
    cert_p50_ms and cert_tail_ms.
    """

    label: str
    spec: str
    call: object
    check: object
    key: object
    records: object
    single: bool = True
    slice: int | None = None


def run_cli(argv):
    """cli.main(argv) with stdout captured; a non-zero exit is a failure."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    text = buf.getvalue()
    if rc != 0:
        raise CheckFailed(f"exit code {rc} for {argv}")
    return text


_ELAPSED_JSON = re.compile(r', "elapsed_s": [-+0-9.eE]+')


def normalized(text, fmt="json"):
    """Output text with the timing field removed; everything else byte for byte."""
    if fmt == "json":
        return _ELAPSED_JSON.sub("", text)
    out = []
    drop = None
    for line in text.splitlines(keepends=True):
        if line.startswith("command,"):
            header = next(csv.reader([line]))
            drop = header.index("elapsed_s") if "elapsed_s" in header else None
        if drop is not None:
            row = next(csv.reader([line]))
            line = ",".join(row[:drop] + row[drop + 1:]) + "\n"
        out.append(line)
    return "".join(out)


def cli_op(label, argv, check, single=True, fmt="json", slice=None):
    def records(text):
        if fmt == "csv":
            return sum(1 for line in text.splitlines() if not line.startswith("command,"))
        return text.count("\n")

    return Op(label, " ".join(argv), lambda: run_cli(argv), check,
              lambda text: normalized(text, fmt), records, single, slice)


def api_op(label, cfg, check, single=True):
    def key(res):
        tuples = None if res.tuples is None else [t.orders for t, _ in res.tuples]
        return json.dumps([res.counts, tuples], sort_keys=True)

    def records(res):
        return 1 if res.tuples is None else len(res.tuples)

    return Op(label, repr(cfg), lambda: orbke.enumerate_tuples(cfg), check, key, records, single)


# ---------------------------------------------------------------------------
# Independent arithmetic


def verdict(n, orders):
    """The four-way classification, from the definition with Fractions."""
    c1 = sum(Fraction(1, m) for m in orders) - 1
    m_max = max(orders)
    if c1 <= 0:
        return "NotFano", c1
    if c1 < Fraction(n + 1, n * m_max):
        return "OldKE", c1
    if c1 < Fraction(n + 1, m_max):
        return "NewOnlyKE", c1
    return "NoCriterion", c1


def coprime_count(lo, hi, primes):
    """#{k in [lo, hi] : gcd(k, prod(primes)) = 1} by period and remainder."""
    if lo > hi:
        return 0
    period = math.prod(primes)
    phi = math.prod(p - 1 for p in primes)
    whole, rest = divmod(hi - lo + 1, period)
    return whole * phi + sum(1 for k in range(hi - rest + 1, hi + 1) if math.gcd(k, period) == 1)


def sylvester(k):
    seq = [2]
    for _ in range(k - 1):
        seq.append(seq[-1] * seq[-1] - seq[-1] + 1)
    return seq


def prime_factors(n):
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# Checks


def one_record(text):
    recs = [json.loads(line) for line in text.splitlines()]
    expect(len(recs) == 1, f"expected one record, got {len(recs)}")
    return recs[0]


def check_count_record(text, want, jobs):
    rec = one_record(text)
    expect(rec["verdict"] == "complete", f"verdict {rec['verdict']}")
    expect(rec["input"]["jobs"] == jobs, f"ran with jobs={rec['input']['jobs']}")
    expect(rec["counts"] == {"NewOnlyKE": want}, f"counts {rec['counts']} != {want}")


def check_subtree(res, want):
    expect(res.tuples is None, "count mode returned tuples")
    expect(res.counts == {"NewOnlyKE": want}, f"counts {res.counts} != {want}")


def check_materialized(res, cls, want_orders):
    got = [t.orders for t, _ in res.tuples]
    expect(got == want_orders, f"{len(got)} tuples differ from serial ({len(want_orders)})")
    expect(res.counts == {cls: len(want_orders)}, f"counts {res.counts}")
    for t, report in res.tuples:
        expect(report.classification == cls, f"{t.orders} labelled {report.classification}")


def check_tuple_list(orders_list, n, cls, prefix=(), c1s=None):
    """Every tuple is sorted, pairwise coprime, extends prefix and is in cls.

    The list must be in strictly increasing lexicographic order; `c1s`, when
    given, are the reported c1 strings to compare with the exact sums.
    """
    prev = None
    for i, orders in enumerate(orders_list):
        expect(prev is None or orders > prev, f"{orders} out of order")
        prev = orders
        expect(orders[:len(prefix)] == prefix, f"{orders} outside prefix {prefix}")
        expect(list(orders) == sorted(orders), f"{orders} not sorted")
        expect(all(math.gcd(a, b) == 1 for j, a in enumerate(orders) for b in orders[j + 1:]),
               f"{orders} not pairwise coprime")
        label, c1 = verdict(n, orders)
        expect(label == cls, f"{orders} is {label}, not {cls}")
        expect(c1s is None or c1s[i] == str(c1), f"c1 of {orders}")


def check_check(text, n, orders):
    rec = one_record(text)
    want, c1 = verdict(n, orders)
    m_max = max(orders)
    big = math.prod(orders)
    expect(rec["verdict"] == want, f"check {orders}: {rec['verdict']} != {want}")
    d = rec["derived"]
    expect(d["c1"] == str(c1), f"c1 {d['c1']} != {c1}")
    expect(d["old_bound"] == str(Fraction(n + 1, n * m_max)), "old bound")
    expect(d["new_bound"] == str(Fraction(n + 1, m_max)), "new bound")
    expect(d["link_order_product"] == big, "link order product")
    expect(d["link_weights"] == [big // m for m in sorted(orders)], "link weights")


def check_snc(text, n, entries):
    rec = one_record(text)
    delta = sum((d * (1 - Fraction(1, m)) for d, m in entries), Fraction(0)) / (n + 1)
    m_max = max(m for _, m in entries)
    ok = 0 < delta < 1 and m_max - 1 < delta / (1 - delta)
    expect(rec["derived"]["delta"] == str(delta), f"delta {rec['derived']['delta']} != {delta}")
    expect(rec["verdict"] == ("passes" if ok else "fails"), f"snc {entries}: {rec['verdict']}")


def check_monomial(text, exps):
    rec = one_record(text)
    expect(rec["verdict"] == str(Fraction(1, max(exps))), f"monomial {exps}: {rec['verdict']}")


def check_dp2(text, sings):
    rec = one_record(text)
    ok = all(k <= 2 for k in sings)
    expect(rec["verdict"] == ("passes" if ok else "fails"), f"deg2 {sings}: {rec['verdict']}")


def check_dp4(text, lams):
    rec = one_record(text)
    method = "disjoint-ramification" if len(set(lams)) == 3 else "quotient-of-quadric"
    expect(rec["verdict"] == "passes", f"deg4 {lams}: {rec['verdict']}")
    expect(rec["derived"]["method"] == method, f"deg4 {lams}: {rec['derived']['method']}")


def check_family(text, n):
    rec = one_record(text)
    seq = sylvester(n + 1)
    top = seq[n]
    prefix = seq[:n] + [top - 2]
    d = (top - 1) * (top - 2)
    lo, hi = top - 2, n * d
    primes = sorted({p for v in prefix for p in prime_factors(v)})
    fam = rec["family"]
    expect(fam["prefix"] == prefix, f"family prefix {fam['prefix']}")
    expect(fam["last_interval_open"] == [lo, hi], f"family interval {fam['last_interval_open']}")
    expect(fam["forbidden_primes"] == primes, "family primes")
    # Prefix sum is 1 + 1/D: the old bound holds iff m < D/n.
    old_top = min(hi - 1, -(-d // n) - 1)
    want = {
        "admissible": coprime_count(lo + 1, hi - 1, primes),
        "OldKE": coprime_count(lo + 1, old_top, primes),
        "NewOnlyKE": coprime_count(max(lo + 1, old_top + 1), hi - 1, primes),
    }
    expect(rec["counts"] == want, f"family counts {rec['counts']} != {want}")


def check_sylvester(text, k):
    rec = one_record(text)
    expect(rec["sequence"] == sylvester(k), "sylvester sequence")
    expect(rec["verdict"] == "verified", f"sylvester verdict {rec['verdict']}")


def check_stream_json(text, want):
    recs = [json.loads(line) for line in text.splitlines()]
    items, summary = recs[:-1], recs[-1]
    expect(len(items) == want, f"stream has {len(items)} items, count mode says {want}")
    expect(summary["counts"] == {"NewOnlyKE": want}, f"stream summary {summary['counts']}")
    check_tuple_list([tuple(r["orders"]) for r in items], 4, "NewOnlyKE",
                     c1s=[r["c1"] for r in items])


def check_stream_csv(text, want, max_order):
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0]
    items = [r for r in rows[1:] if r[0] == "enumerate-item"]
    expect(len(items) == want, f"csv stream has {len(items)} rows, count mode says {want}")
    col = header.index("orders")
    orders_list = [tuple(int(x) for x in r[col].split(";")) for r in items]
    expect(all(max(o) <= max_order for o in orders_list), "csv order above --max-order")
    check_tuple_list(orders_list, 4, "NewOnlyKE")


def check_oracle(text, kind, arg, seed):
    rec = one_record(text)
    analytic = Fraction(1, int(arg)) if kind == "monomial" else Fraction(2, int(arg))
    expect(rec["analytic"] == str(analytic), f"oracle analytic {rec['analytic']}")
    expect(rec["input"]["seed"] == seed, "oracle seed echo")
    expect(rec["verdict"] == "within-tolerance", f"oracle {kind} {arg}: {rec['verdict']}")
    rel = abs(rec["estimate"]["threshold"] - float(analytic)) / float(analytic)
    expect(rel <= rec["input"]["tolerance"], f"oracle {kind} {arg} off by {rel:.3f}")


# ---------------------------------------------------------------------------
# Workload construction


@dataclass
class Workload:
    """Operations of one pass, plus the reference calls that set expectations.

    `references` are run once per run, untimed; each is a (label, thunk)
    pair whose thunk raises on failure.  `slices` is the number of distinct
    one-shot slices that passes cycle through (1 when there are none).
    `kernel` names the calibration kernel whose work resembles the pass.
    """

    name: str
    seed: int
    ops: list
    references: list = field(default_factory=list)
    slices: int = 1
    kernel: str = "python"

    def pass_ops(self, index):
        s = index % self.slices
        return [op for op in self.ops if op.slice is None or op.slice == s]


def _rng(name, seed):
    return random.Random(f"{name}:{seed}")


def _coprime_orders(rng, n):
    primes = rng.sample(_PRIME_POOL, n + 2)
    return [p ** rng.randint(1, 2) for p in primes]


def _one_shot(kind, rng):
    """(argv, check) for one certificate of the given kind."""
    if kind == "check":
        n = rng.randint(1, 4)
        orders = _coprime_orders(rng, n)
        argv = ["check", "--dim", str(n)] + [str(m) for m in orders]
        return argv, lambda t: check_check(t, n, orders)
    if kind == "lct-snc":
        n = rng.randint(1, 4)
        entries = [(rng.randint(1, 2), m) for m in _coprime_orders(rng, n)]
        argv = ["lct", "snc", "--dim", str(n)]
        for d, m in entries:
            argv += ["--divisor", f"{d}:{m}"]
        return argv, lambda t: check_snc(t, n, entries)
    if kind == "lct-monomial":
        exps = [rng.randint(1, 9) for _ in range(rng.randint(1, 4))]
        return ["lct", "monomial"] + [str(a) for a in exps], lambda t: check_monomial(t, exps)
    if kind == "delpezzo-deg2":
        sings = [rng.randint(1, 4) for _ in range(rng.randint(0, 3))]
        argv = ["delpezzo", "deg2", "--sing", ",".join(f"A{k}" for k in sings)]
        return argv, lambda t: check_dp2(t, sings)
    if kind == "delpezzo-deg4":
        nonzero = [x for x in range(-6, 7) if x]
        lams = [Fraction(rng.choice(nonzero), rng.randint(1, 4)) for _ in range(3)]
        if rng.random() < 0.3:
            lams[2] = lams[rng.randint(0, 1)]
        argv = ["delpezzo", "deg4", "--lambda=" + ",".join(str(x) for x in lams)]
        return argv, lambda t: check_dp4(t, lams)
    if kind == "family":
        # Dimension 4 would need a period of 5.9e8 in coprime_count.
        n = rng.randint(2, 3)
        return ["family", "--dim", str(n)], lambda t: check_family(t, n)
    k = rng.randint(1, 8)
    return ["sylvester", "--k", str(k)], lambda t: check_sylvester(t, k)


def _count(seed, pinned):
    rng = _rng("count", seed)
    ops = [cli_op("count-dim4", ["count", "--dim", "4", "--jobs", "1"],
                  lambda t: check_count_record(t, pinned["dim4"], 1))]
    refs = []
    for group in DIM5_POOL:
        prefix = rng.choice(sorted(group))
        want = pinned["dim5"][prefix]
        cfg = orbke.SearchConfig(n=5, mode="count", prefix_filter=prefix)
        ops.append(api_op(f"dim5-{'-'.join(map(str, prefix))}", cfg,
                          lambda res, w=want: check_subtree(res, w)))
    for prefix in DIM5_MATERIALIZE:
        want = pinned["dim5"][prefix]

        def confirm(prefix=prefix, want=want):
            res = orbke.enumerate_tuples(orbke.SearchConfig(n=5, prefix_filter=prefix))
            orders = [t.orders for t, _ in res.tuples]
            expect(len(orders) == want, f"materialized {prefix}: {len(orders)} != {want}")
            check_tuple_list(orders, 5, "NewOnlyKE", prefix)

        refs.append((f"materialize-{prefix}", confirm))
    return Workload("count", seed, ops, refs)


def _count_par(seed, pinned):
    rng = _rng("count-par", seed)
    serial = {}

    def reference(cls):
        def run():
            res = orbke.enumerate_tuples(orbke.SearchConfig(n=3, classes=(cls,)))
            serial[cls] = [t.orders for t, _ in res.tuples]
            expect(len(serial[cls]) == pinned[f"dim3-{cls}"], f"serial dim 3 {cls}")
            check_tuple_list(serial[cls], 3, cls)
        return run

    ops = [cli_op("count-dim4-jobs2", ["count", "--dim", "4", "--jobs", "2"],
                  lambda t: check_count_record(t, pinned["dim4"], 2))]
    for cls in ("NewOnlyKE", "OldKE"):
        cfg = orbke.SearchConfig(n=3, classes=(cls,), parallel_width=2)
        ops.append(api_op(f"materialize-dim3-{cls}-width2", cfg,
                          lambda res, c=cls: check_materialized(res, c, serial[c])))
    rng.shuffle(ops)
    refs = [(f"serial-dim3-{cls}", reference(cls)) for cls in ("NewOnlyKE", "OldKE")]
    return Workload("count-par", seed, ops, refs)


def _certify(seed, pinned):
    rng = _rng("certify", seed)
    k = rng.randint(*STREAM_ORDER_BAND)
    expected = {}

    def reference():
        rec = one_record(run_cli(["count", "--dim", "4", "--max-order", str(k), "--jobs", "1"]))
        expected["n"] = rec["counts"]["NewOnlyKE"]

    ops = []
    for fmt, check in (("json", lambda t: check_stream_json(t, expected["n"])),
                       ("csv", lambda t: check_stream_csv(t, expected["n"], k))):
        argv = ["enumerate", "--dim", "4", "--max-order", str(k), "--format", fmt]
        ops.append(cli_op(f"stream-{fmt}", argv, check, single=False, fmt=fmt))
    for i in range(ONE_SHOT_BATCH):
        kind = _ONE_SHOT_PATTERN[i % len(_ONE_SHOT_PATTERN)]
        argv, check = _one_shot(kind, rng)
        ops.append(cli_op(kind, argv, check, slice=i // ONE_SHOT_SLICE))
    return Workload("certify", seed, ops, [(f"count-max-order-{k}", reference)],
                    slices=ONE_SHOT_BATCH // ONE_SHOT_SLICE)


def _oracle(seed, pinned):
    ops = []
    for kind, flag, arg in ORACLE_CASES:
        argv = ["oracle", kind, flag, arg, "--seed", str(seed)]
        ops.append(cli_op(f"oracle-{kind}-{arg}", argv,
                          lambda t, k=kind, a=arg: check_oracle(t, k, a, seed)))
    return Workload("oracle", seed, ops, kernel="numpy")


# Expected counts: NewOnlyKE in dimension 4, both bounded classes in
# dimension 3, and every dimension-5 pool subtree.
PINNED = {
    "dim4": 8369332,
    "dim3-NewOnlyKE": 2484,
    "dim3-OldKE": 1028,
    "dim5": {p: c for group in DIM5_POOL for p, c in group.items()},
}

_BUILDERS = {"count": _count, "count-par": _count_par, "certify": _certify, "oracle": _oracle}
WORKLOADS = tuple(_BUILDERS)


def build(name, seed, pinned=PINNED):
    """The workload `name` for `seed`; `pinned` holds the expected constants."""
    return _BUILDERS[name](seed, pinned)
