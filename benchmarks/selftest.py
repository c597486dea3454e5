"""Self-tests of the benchmark harness, not of orbke.

    python3 benchmarks/selftest.py

Checks that tracing changes no output, that a seed fixes the generated
inputs, and that the output gate reports a wrong expectation as a failure.
Takes about ten seconds on two cores.
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def pass_outputs(wl, index, tracer=None):
    """Each operation's output of one pass, with only the timing field removed."""
    out = []
    for op in wl.pass_ops(index):
        if tracer is not None:
            tracer.install()
        try:
            result = op.call()
        finally:
            if tracer is not None:
                tracer.uninstall()
        out.append(op.key(result))
    return out


class TracingChangesNothing(unittest.TestCase):
    def check_workload(self, name):
        wl = workloads.build(name, 11)
        tracer = tracing.Tracer()
        plain = pass_outputs(wl, 0)
        traced = pass_outputs(wl, 0, tracer)
        self.assertEqual(len(plain), len(traced))
        for op, a, b in zip(wl.pass_ops(0), plain, traced):
            self.assertEqual(a, b, op.label)
        return tracer.summary()

    def test_certify_stdout_identical(self):
        totals = self.check_workload("certify")
        self.assertGreater(totals["orbifold.classify.calls"], 0)
        self.assertGreater(totals["cli.Emitter.write.calls"], 0)

    def test_count_par_identical_through_pool(self):
        totals = self.check_workload("count-par")
        self.assertGreater(totals["enumeration.pool.tasks"], 0)
        self.assertGreater(totals[f"{tracing.POOL_WAIT}.busy_s"], 0)

    def test_self_time_excludes_children(self):
        wl = workloads.build("count", 11)
        tracer = tracing.Tracer()
        pass_outputs(wl, 0, tracer)
        t = tracer.summary()
        children = (t["enumeration.admissible_last_interval.busy_s"]
                    + t["exactmath.count_coprime_in_range.busy_s"]
                    + t["exactmath.factorize.busy_s"])
        busy = t["enumeration.enumerate_tuples.busy_s"]
        self.assertAlmostEqual(t["enumeration.enumerate_tuples.self_s"], busy - children, places=6)
        self.assertGreater(t["enumeration.nodes_visited"], 0)


class SeedFixesInputs(unittest.TestCase):
    def specs(self, name, seed):
        return [(op.label, op.spec, op.slice) for op in workloads.build(name, seed).ops]

    def test_same_seed_same_inputs(self):
        for name in workloads.WORKLOADS:
            self.assertEqual(self.specs(name, 5), self.specs(name, 5), name)

    def test_other_seed_other_inputs(self):
        for name in ("count", "certify", "oracle"):
            self.assertNotEqual(self.specs(name, 5), self.specs(name, 6), name)


class GateCatchesWrongExpectation(unittest.TestCase):
    def test_wrong_pinned_count_fails(self):
        pinned = dict(workloads.PINNED, dim4=workloads.PINNED["dim4"] + 1)
        wl = workloads.build("count", 3, pinned=pinned)
        tally = run.Tally()
        run.run_pass(wl, 0, tally, {})
        self.assertEqual(tally.failed, 1)
        self.assertIn("count-dim4", tally.errors[0])
        report, code = run.result(tally, {})
        self.assertFalse(report["correct"])
        self.assertNotEqual(code, 0)

    def test_right_pinned_count_passes(self):
        wl = workloads.build("count", 3)
        tally = run.Tally()
        run.run_pass(wl, 0, tally, {})
        self.assertEqual(tally.failed, 0)
        self.assertEqual(run.result(tally, {})[1], 0)


if __name__ == "__main__":
    unittest.main()
