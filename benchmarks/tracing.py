"""Spans around the calls into each orbke module, recorded from outside.

Tracer.install() replaces every binding of each traced public function, in
every orbke module that holds it, with a wrapper that opens a span on entry
and closes it on exit.  Generators are timed across each next(), not at
creation.  Spans stay in flat arrays until summary(), which derives busy
time per function and self time as a span minus the spans it encloses.

The wrappers only time, count and record arguments; they pass arguments
and results through unchanged.  Process-pool workers forked while tracing
run with the original functions restored, so worker time shows only as
the parent's wait on the pool.
"""

from __future__ import annotations

import functools
import importlib
import io
import statistics
import sys
from array import array
from time import perf_counter

# (module, function, is_generator) for every traced public function.
LAYER_FUNCTIONS = (
    ("enumeration", "enumerate_tuples", False),
    ("enumeration", "iter_tuples", True),
    ("enumeration", "admissible_last_interval", False),
    ("exactmath", "count_coprime_in_range", False),
    ("exactmath", "coprime_in_range", True),
    ("exactmath", "factorize", False),
    ("orbifold", "classify", False),
    ("orbifold", "make_tuple", False),
    ("lct", "snc_ke_check", False),
    ("lct", "dp2_check", False),
    ("lct", "dp4_check", False),
    ("lct", "monomial_lct", False),
    ("oracle", "estimate_bp_threshold", False),
    ("oracle", "estimate_monomial_threshold", False),
    ("oracle", "verify_threshold", False),
    ("cli", "main", False),
)
EMITTER_WRITE = "cli.Emitter.write"
POOL_WAIT = "enumeration.pool.wait"

# Functions whose arguments are recorded for replay, at most RECORD_CAP
# calls each (the first ones of the recorded pass).
REPLAYED = ("admissible_last_interval", "count_coprime_in_range", "classify", "Emitter.write")
RECORD_CAP = 20_000


def _module(name):
    return importlib.import_module(f"orbke.{name}")


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.recording = False
        self.counters = {}
        self.recorded = {name: [] for name in REPLAYED}
        self._names = []
        self._ids = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = []
        self._patches = []

    # -- spans ------------------------------------------------------------

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self._names)
            self._names.append(name)
        return self._ids[name]

    def open(self, nid):
        idx = len(self._start)
        stack = self._stack
        self._name.append(nid)
        self._parent.append(stack[-1] if stack else -1)
        self._end.append(0.0)
        stack.append(idx)
        self._start.append(perf_counter())
        return idx

    def close(self, idx):
        self._end[idx] = perf_counter()
        self._stack.pop()

    def add(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def record(self, name, args):
        calls = self.recorded[name]
        if self.recording and len(calls) < RECORD_CAP:
            calls.append(args)

    # -- wrappers ---------------------------------------------------------

    def _wrap_call(self, name, fn, before=None, after=None):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(result)
            return result

        return traced

    def _wrap_generator(self, name, fn):
        calls = f"{name}.calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.add(calls)
            return self.timed_iter(name, fn(*args, **kwargs))

        return traced

    def timed_iter(self, name, iterator):
        """Iterate `iterator`, one span per next(), counting items yielded."""
        nid = self.name_id(name)
        yielded = f"{name}.yielded"
        iterator = iter(iterator)
        while True:
            idx = self.open(nid)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self.close(idx)
            self.add(yielded)
            yield item

    # -- installation -----------------------------------------------------

    def _hooks(self, layer, fname):
        """(before, after) callbacks that count work or record arguments."""
        key = f"{layer}.{fname}"
        if fname == "enumerate_tuples":
            return None, lambda res: self.add("enumeration.nodes_visited", res.nodes_visited)
        if fname == "count_coprime_in_range":
            def before(args):
                self.add(f"{key}.subset_terms_offered", 1 << len(args[2]))
                self.record(fname, args)
            return before, None
        if fname in ("admissible_last_interval", "classify"):
            return (lambda args: self.record(fname, args)), None
        if fname.startswith("estimate_"):
            def before(args):
                cfg = args[1]
                self.add("oracle.samples", cfg.samples_per_shell * len(cfg.cutoffs))
            return before, None
        return None, None

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every binding of the traced functions in every orbke module."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "orbke" or n.startswith("orbke."))]
        for layer, fname, is_gen in LAYER_FUNCTIONS:
            original = getattr(_module(layer), fname)
            name = f"{layer}.{fname}"
            if is_gen:
                wrapper = self._wrap_generator(name, original)
            else:
                wrapper = self._wrap_call(name, original, *self._hooks(layer, fname))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
        cli = _module("cli")
        write = cli.Emitter.write

        def record_write(args):
            self.record("Emitter.write", (args[0].fmt, args[1]))

        self._patch(cli.Emitter, "write", self._wrap_call(EMITTER_WRITE, write, record_write))
        enumeration = _module("enumeration")
        self._patch(enumeration, "ProcessPoolExecutor",
                    functools.partial(_TracedPool, self, enumeration.ProcessPoolExecutor))

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- results ----------------------------------------------------------

    def summary(self):
        """Totals per metric name: calls, busy_s, self_s and the counters."""
        n = len(self._start)
        child = array("d", bytes(8 * n))
        spans = [0] * len(self._names)
        busy = [0.0] * len(self._names)
        own = [0.0] * len(self._names)
        start, end, parent, name = self._start, self._end, self._parent, self._name
        for i in range(n - 1, -1, -1):
            dur = end[i] - start[i]
            nid = name[i]
            spans[nid] += 1
            busy[nid] += dur
            own[nid] += dur - child[i]
            if parent[i] >= 0:
                child[parent[i]] += dur
        out = dict(self.counters)
        for nid, label in enumerate(self._names):
            out.setdefault(f"{label}.calls", spans[nid])
            out[f"{label}.spans"] = spans[nid]
            out[f"{label}.busy_s"] = busy[nid]
            out[f"{label}.self_s"] = own[nid]
        return out


class _TracedPool:
    """Stands in for ProcessPoolExecutor: counts tasks, times the waits.

    Workers start by restoring the original functions, so they run the
    program's own code; the parent's time blocked on results and on
    shutdown is the pool's wait.
    """

    def __init__(self, tracer, real, *args, **kwargs):
        kwargs.setdefault("initializer", tracer.uninstall)
        self._tracer = tracer
        self._pool = real(*args, **kwargs)

    def __enter__(self):
        self._pool.__enter__()
        return self

    def __exit__(self, *exc):
        idx = self._tracer.open(self._tracer.name_id(POOL_WAIT))
        try:
            return self._pool.__exit__(*exc)
        finally:
            self._tracer.close(idx)

    def map(self, fn, *iterables, **kwargs):
        iterables = [list(it) for it in iterables]
        self._tracer.add("enumeration.pool.tasks", len(iterables[0]) if iterables else 0)
        return self._tracer.timed_iter(POOL_WAIT, self._pool.map(fn, *iterables, **kwargs))


def replay(recorded, repeats=3):
    """Isolated microseconds per call of each replayed function.

    Runs the recorded arguments through the original public function alone,
    `repeats` times, and reports the median; 0.0 where nothing was recorded.
    Call after uninstall().
    """
    cli = _module("cli")
    funcs = {
        "admissible_last_interval": _module("enumeration").admissible_last_interval,
        "count_coprime_in_range": _module("exactmath").count_coprime_in_range,
        "classify": _module("orbifold").classify,
    }
    out = {}
    for name in REPLAYED:
        calls = recorded.get(name, [])
        if not calls:
            out[name] = 0.0
            continue
        times = []
        for _ in range(repeats):
            if name == "Emitter.write":
                emitters = {}
                t0 = perf_counter()
                for fmt, record in calls:
                    em = emitters.get(fmt)
                    if em is None:
                        em = emitters[fmt] = cli.Emitter(fmt, io.StringIO())
                    em.write(record)
            else:
                fn = funcs[name]
                t0 = perf_counter()
                for args in calls:
                    fn(*args)
            times.append(perf_counter() - t0)
        out[name] = statistics.median(times) / len(calls) * 1e6
    return out
