"""Calibration kernels that track the host's speed between measurements.

On a shared host the CPU speed one process sees drifts by up to a third
over tens of seconds, and the workloads drift with it.  Each timed interval
is bracketed by runs of a fixed kernel that shares no code with orbke, and
the interval's time is divided by the kernel's slowdown against its time on
the reference host (2-CPU Intel Xeon VM, Python 3.11.7, numpy 2.4.6).  A
change to orbke moves the scaled time as it moves the raw one.

Two kernels match the two kinds of work: `python` runs an exact-rational
depth-first search like the enumeration and builds and uses an argparse
tree like the command line; `numpy` draws Philox samples and reduces
complex arrays like the oracle.  Each takes about 15 ms, so it can run
every quarter second of measured work.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np


def egyptian(k, total=Fraction(1), lo=2):
    """Number of sorted k-tuples of integers >= lo whose reciprocals sum to total."""
    if k == 1:
        return 1 if total.numerator == 1 and total.denominator >= lo else 0
    count = 0
    x = max(lo, math.ceil(1 / total))
    while Fraction(k, x) >= total:
        rest = total - Fraction(1, x)
        if rest > 0:
            count += egyptian(k - 1, rest, x)
        x += 1
    return count


def _parser():
    """An argparse tree like a small command-line front end."""
    parser = argparse.ArgumentParser(prog="kernel")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("check", "count", "family", "oracle"):
        p = sub.add_parser(name)
        p.add_argument("--dim", type=int, required=True)
        p.add_argument("--format", choices=("json", "csv", "text"), default="json")
        p.add_argument("orders", type=int, nargs="*")
    return parser


def python_kernel():
    for _ in range(3):
        if egyptian(5) != 147:
            raise AssertionError("calibration kernel miscounted")
        args = _parser().parse_args(["check", "--dim", "2", "2", "3", "5", "17"])
        json.dumps(vars(args))


def numpy_kernel():
    for shell in range(2):
        rng = np.random.Generator(np.random.Philox(key=[7, shell]))
        u = rng.random((40_000, 2))
        z = np.sqrt(u[:, 0]) * np.exp(2j * math.pi * u[:, 1])
        w = np.abs(z[:, None] - np.exp(1j * np.arange(3))[None, :])
        float(np.log(w + 1e-12).sum(axis=1).max())


# Kernel and its median time on the reference host, in seconds.
KERNELS = {
    "python": (python_kernel, 0.012),
    "numpy": (numpy_kernel, 0.015),
}


class Speed:
    """Kernel times bracketing a sequence of measured intervals.

    mark() runs the kernel, closing the interval since the previous run, and
    returns that interval's slowdown: the mean of its two bracketing kernel
    times over the reference time.  Dividing a time measured in the
    interval by it gives seconds at the reference host's speed.
    """

    def __init__(self, kernel):
        self.name = kernel
        self._kernel, self.reference_s = KERNELS[kernel]
        self.kernel_s = []
        self.marked_at = 0.0
        self._run()

    def _run(self):
        t0 = perf_counter()
        self._kernel()
        self.marked_at = perf_counter()
        self.kernel_s.append(self.marked_at - t0)

    def mark(self):
        self._run()
        return (self.kernel_s[-2] + self.kernel_s[-1]) / 2 / self.reference_s

    def summary(self):
        return (f"{self.name} calibration kernel median {statistics.median(self.kernel_s):.4f} s "
                f"over {len(self.kernel_s)} runs, reference {self.reference_s} s")
