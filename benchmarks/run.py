#!/usr/bin/env python3
"""orbke benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 benchmarks/run.py --workload count --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
breakdown from a traced run.  Human-readable lines come first; the last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics.  The exit code is 0 only when every output check passed.
See benchmarks/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracing
from calibration import Speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 9
IMPORTTIME_REPEATS = 3
MIN_PASSES = 3
CHUNK_S = 0.25
TAIL_BEYOND = 10
TAIL_LADDER = (50, 75, 95)
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "cert_p50_ms": "ms", "cert_tail_ms": "ms",
    "records_per_s": "1/s", "peak_rss_mb": "MiB",
}

# Per-layer metrics: (name, unit).  "<fn>.calls/busy_s/self_s" come from
# spans, the rest from counters, the import profile and the replay.
PER_LAYER = (
    [(f"enumeration.{f}.{k}", u) for f in ("enumerate_tuples", "iter_tuples")
     for k, u in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))]
    + [("enumeration.admissible_last_interval.calls", "count"),
       ("enumeration.admissible_last_interval.busy_s", "s"),
       ("enumeration.nodes_visited", "count"),
       ("enumeration.pool.tasks", "count"),
       ("enumeration.pool.wait_s", "s"),
       ("exactmath.count_coprime_in_range.calls", "count"),
       ("exactmath.count_coprime_in_range.busy_s", "s"),
       ("exactmath.count_coprime_in_range.subset_terms_offered", "count"),
       ("exactmath.coprime_in_range.calls", "count"),
       ("exactmath.coprime_in_range.busy_s", "s"),
       ("exactmath.coprime_in_range.yielded", "count"),
       ("exactmath.factorize.calls", "count"),
       ("exactmath.factorize.busy_s", "s")]
    + [(f"{m}.{f}.{k}", u)
       for m, f in (("orbifold", "classify"), ("orbifold", "make_tuple"),
                    ("lct", "snc_ke_check"), ("lct", "dp2_check"), ("lct", "dp4_check"),
                    ("lct", "monomial_lct"), ("oracle", "estimate_bp_threshold"),
                    ("oracle", "estimate_monomial_threshold"), ("oracle", "verify_threshold"))
       for k, u in (("calls", "count"), ("busy_s", "s"))]
    + [("oracle.samples", "count"),
       ("cli.main.calls", "count"), ("cli.main.busy_s", "s"), ("cli.main.self_s", "s"),
       ("cli.Emitter.write.calls", "count"), ("cli.Emitter.write.busy_s", "s"),
       ("cli.bytes_out", "bytes"),
       ("setup.import.numpy_s", "s"), ("setup.import.orbke_s", "s"),
       ("trace.overhead_s", "s")]
    + [(f"replay.{f}.us_per_call", "us") for f in tracing.REPLAYED]
)


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, label, exc):
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")


class PassResult:
    """Times of one pass; `wall` and `single_ms` are scaled, `raw_wall` is not."""

    def __init__(self):
        self.wall = 0.0
        self.raw_wall = 0.0
        self.single_ms = {}
        self.records = 0
        self.bytes_out = 0

    def close_chunk(self, chunk, speed):
        """Add the (op, seconds) pairs of `chunk`, scaled by its slowdown, and empty it."""
        if not chunk:
            return
        slow = speed.mark() if speed is not None else 1.0
        for op, dt in chunk:
            self.wall += dt / slow
            self.raw_wall += dt
            if op.single:
                self.single_ms.setdefault(op.label, []).append(dt / slow * 1e3)
        chunk.clear()


def run_pass(workload, index, tally, keys, check=True, speed=None):
    """Run every operation of pass `index`: time each call, then check it.

    The first output of each operation is checked in full and its digest
    (timings aside) kept in `keys`; a later output is correct exactly when
    its digest matches, and fails the operation otherwise.  With `speed`,
    the calibration kernel runs whenever CHUNK_S of calls have passed, and
    each call's time is scaled by the slowdown of its chunk.
    """
    res = PassResult()
    chunk = []
    for op in workload.pass_ops(index):
        tally.attempted += 1
        t0 = perf_counter()
        try:
            out = op.call()
            dt = perf_counter() - t0
            if check:
                key = hashlib.sha256(op.key(out).encode()).hexdigest()
                if id(op) not in keys:
                    op.check(out)
                    keys[id(op)] = key
                elif keys[id(op)] != key:
                    raise RuntimeError("output differs from the checked output of an earlier pass")
        except Exception as exc:  # every failure is counted; the run goes on
            tally.fail(op.label, exc)
            continue
        res.records += op.records(out)
        if isinstance(out, str):
            res.bytes_out += len(out.encode())
        chunk.append((op, dt))
        if speed is None or perf_counter() - speed.marked_at >= CHUNK_S:
            res.close_chunk(chunk, speed)
    res.close_chunk(chunk, speed)
    return res


def run_references(workload, tally):
    for label, thunk in workload.references:
        tally.attempted += 1
        try:
            thunk()
        except Exception as exc:  # counted as a failed operation
            tally.fail(label, exc)


# ---------------------------------------------------------------------------
# Fresh-process measurements


def child_env():
    env = dict(os.environ)
    env.pop("ORBKE_JOBS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv):
    return subprocess.run([sys.executable] + argv, cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)


def measure_setup(tally):
    """Times of `python -m orbke.cli --version` in a fresh interpreter: (raw, scaled)."""
    raw, scaled = [], []
    speed = Speed("python")
    for _ in range(SETUP_REPEATS):
        tally.attempted += 1
        t0 = perf_counter()
        proc = run_child(["-m", "orbke.cli", "--version"])
        dt = perf_counter() - t0
        slow = speed.mark()
        if proc.returncode != 0 or not proc.stdout.startswith("orbke "):
            tally.fail("setup", RuntimeError(f"exit {proc.returncode}: {proc.stderr[-200:]}"))
            continue
        raw.append(dt)
        scaled.append(dt / slow)
    return raw, scaled


def measure_imports(tally):
    """Cumulative import times of numpy and of orbke + orbke.cli, from -X importtime."""
    numpy_s, orbke_s = [], []
    for _ in range(IMPORTTIME_REPEATS):
        tally.attempted += 1
        proc = run_child(["-X", "importtime", "-c", "import orbke.cli"])
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e6
        if proc.returncode != 0 or "numpy" not in cumulative or "orbke.cli" not in cumulative:
            tally.fail("importtime", RuntimeError(proc.stderr[-200:]))
            continue
        numpy_s.append(cumulative["numpy"])
        orbke_s.append(cumulative["orbke"] + cumulative["orbke.cli"])
    med = lambda xs: statistics.median(xs) if xs else 0.0
    return med(numpy_s), med(orbke_s)


def measure_peak_rss(args, tally):
    """Peak RSS in MiB of a fresh process that runs one pass of the workload."""
    proc = run_child([str(HERE / "run.py"), "--workload", args.workload,
                      "--seed", str(args.seed), "--rss-probe"])
    try:
        probe = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        tally.attempted += 1
        tally.fail("rss-probe", RuntimeError(f"exit {proc.returncode}: {proc.stderr[-300:]}"))
        return 0.0
    tally.attempted += probe["attempted"]
    tally.failed += probe["failed"]
    tally.errors += probe["errors"][:10 - len(tally.errors)]
    return probe["peak_rss_mb"]


def rss_probe(wl):
    """--rss-probe: run one unchecked pass and print this process's peak RSS."""
    tally = Tally()
    run_pass(wl, 0, tally, {}, check=False)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"peak_rss_mb": peak_mb, "attempted": tally.attempted,
                      "failed": tally.failed, "errors": tally.errors}))
    return 0


# ---------------------------------------------------------------------------
# Provenance and statistics


def commit_id():
    """HEAD of the checkout's git metadata, read from files; 'unknown' without it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args):
    import numpy
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit_id(), "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": nproc, "cpu": cpu_model(),
    }


def tail(samples):
    """(value, percentile): the highest of TAIL_LADDER with TAIL_BEYOND samples beyond it.

    A fixed ladder keeps the percentile the same from run to run when the
    sample count varies a little.
    """
    xs = sorted(samples)
    n = len(xs)
    pct = max((p for p in TAIL_LADDER if n * (100 - p) / 100 >= TAIL_BEYOND), default=50)
    return xs[min(n - 1, int(n * pct / 100))], pct


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


# ---------------------------------------------------------------------------
# The two kinds of run


def end_to_end(args, wl, tally, lines):
    setup_raw, setup = measure_setup(tally)
    peak_mb = measure_peak_rss(args, tally)
    run_references(wl, tally)
    keys = {}
    run_pass(wl, 0, tally, keys)  # warm-up, checked but not measured
    passes = []
    speed = Speed(wl.kernel)
    started = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - started < args.seconds:
        passes.append(run_pass(wl, len(passes) + 1, tally, keys, speed=speed))
    raw_walls = [p.raw_wall for p in passes]
    walls = [p.wall for p in passes]
    by_kind = {}
    for p in passes:
        for label, xs in p.single_ms.items():
            by_kind.setdefault(label, []).extend(xs)
    med = lambda xs: statistics.median(xs) if xs else 0.0
    single = [x for xs in by_kind.values() for x in xs]
    kind_p50 = {label: statistics.median(xs) for label, xs in by_kind.items()}
    p50_ms = med(list(kind_p50.values()))
    # The tail is taken over each call's latency relative to its kind's
    # median, so a mix of fast and slow kinds cannot move the percentile
    # from one kind's cluster to another's between runs.
    ratios = [x / kind_p50[label] for label, xs in by_kind.items() for x in xs]
    tail_ratio, tail_pct = tail(ratios) if ratios else (0.0, 0)
    rates = [p.records / w for p, w in zip(passes, walls) if w > 0]
    metrics = {
        "setup_s": med(setup),
        "wall_s": med(walls),
        "cert_p50_ms": p50_ms,
        "cert_tail_ms": p50_ms * tail_ratio,
        "records_per_s": med(rates),
        "peak_rss_mb": peak_mb,
    }
    q1, q3 = quartiles(walls)
    notes = {
        "setup_s": f"median of {len(setup)} fresh `python -m orbke.cli --version` "
                   f"(raw {med(setup_raw):.4f} s)",
        "wall_s": f"median of {len(walls)} warm passes, q1 {q1:.4f} q3 {q3:.4f} "
                  f"(raw {med(raw_walls):.4f} s)",
        "cert_p50_ms": f"median over {len(kind_p50)} call kinds of each kind's median "
                       f"({len(single)} calls; plain median {med(single):.4f})",
        "cert_tail_ms": f"cert_p50_ms times p{tail_pct} ({tail_ratio:.4f}) of {len(ratios)} "
                        f"latencies over their kind's median (at least {TAIL_BEYOND} beyond it)",
        "records_per_s": f"{med([p.records for p in passes]):.0f} records per pass",
        "peak_rss_mb": "max RSS of a fresh process running one pass",
    }
    lines.append(f"# {speed.summary()}; times below are scaled to the reference speed")
    lines.append("# median ms per call kind: " + ", ".join(
        f"{label} {statistics.median(xs):.3f}" for label, xs in sorted(by_kind.items())))
    for name, value in metrics.items():
        lines.append(f"{name:<16} {value:>14.6f} {END_TO_END_UNITS[name]:<4} {notes[name]}")
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}


def per_layer(args, wl, tally, lines):
    numpy_s, orbke_s = measure_imports(tally)
    run_references(wl, tally)
    keys = {}
    run_pass(wl, 0, tally, keys)  # warm-up
    plain, traced = [], []
    tracer = tracing.Tracer()
    started = perf_counter()
    index = 1
    while not traced or perf_counter() - started < args.seconds:
        plain.append(run_pass(wl, index, tally, keys))
        tracer.recording = not traced
        tracer.install()
        try:
            traced.append(run_pass(wl, index, tally, keys))
        finally:
            tracer.uninstall()
        index += 1
    totals = tracer.summary()
    n = len(traced)
    values = {name: totals.get(name, 0) / n for name, _ in PER_LAYER}
    values["enumeration.pool.wait_s"] = totals.get(f"{tracing.POOL_WAIT}.busy_s", 0.0) / n
    values["cli.bytes_out"] = sum(p.bytes_out for p in traced) / n
    values["setup.import.numpy_s"] = numpy_s
    values["setup.import.orbke_s"] = orbke_s
    plain_wall = statistics.median(p.wall for p in plain)
    traced_wall = statistics.median(p.wall for p in traced)
    values["trace.overhead_s"] = traced_wall - plain_wall
    for name, us in tracing.replay(tracer.recorded).items():
        values[f"replay.{name}.us_per_call"] = us
    lines.append(f"untraced wall_s {plain_wall:.4f} s, traced {traced_wall:.4f} s "
                 f"over {n} pass pairs; per-layer values are per traced pass")
    for name in tracing.REPLAYED:
        lines.append(f"replay.{name}: {len(tracer.recorded[name])} recorded calls")
    units = dict(PER_LAYER)
    for name, _ in PER_LAYER:
        lines.append(f"{name:<56} {values[name]:>16.6f} {units[name]}")
    return {name: {"value": values[name], "unit": units[name]} for name, _ in PER_LAYER}


def result(tally, metrics):
    """The final JSON object and the exit code: 0 only if every check passed."""
    ok = tally.failed == 0 and tally.attempted > 0
    report = {"correct": ok, "attempted": max(tally.attempted, 1),
              "failed": tally.failed, "metrics": metrics}
    return report, 0 if ok else 1


def parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description="orbke benchmark")
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--rss-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    if not (SRC / "orbke" / "__init__.py").is_file():
        print(f"error: no orbke package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("ORBKE_JOBS", None)
    import orbke
    if Path(orbke.__file__).resolve().parent != SRC / "orbke":
        print(f"error: imported orbke from {orbke.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads  # imports orbke, so only once src is on the path
    args = parse_args(argv, workloads.WORKLOADS)
    wl = workloads.build(args.workload, args.seed)
    if args.rss_probe:
        return rss_probe(wl)

    tally = Tally()
    info = provenance(args)
    lines = ["# " + " ".join(f"{k}={v}" for k, v in info.items())]
    measure = per_layer if args.trace else end_to_end
    metrics = measure(args, wl, tally, lines)
    frac = tally.failed / tally.attempted if tally.attempted else 1.0
    lines.append(f"fail_frac {frac:.6f} ({tally.failed} of {tally.attempted} operations failed)")
    lines += [f"FAILED {e}" for e in tally.errors]
    print("\n".join(lines))
    report, code = result(tally, metrics)
    print(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
