"""Reference implementations the tests compare the package against."""

from __future__ import annotations

import math

from orbke import RamTuple, classify


def brute_force_oracle(n: int, max_order: int, min_order: int = 2):
    """Exhaustively classify every sorted valid tuple with entries <= max_order.

    No pruning beyond tuple validity (sortedness, coprimality, min_order).
    Returns a list of (orders, classification) pairs in lexicographic
    order.  The scan visits up to max_order**(n+2) candidates, so keep it
    small.
    """
    out = []
    slots = n + 2

    def rec(prefix, prod):
        if len(prefix) == slots:
            out.append((prefix, classify(RamTuple(n, prefix)).classification))
            return
        if not prefix:
            lo = min_order
        elif prefix[-1] == 1:
            lo = 1
        else:
            lo = prefix[-1] + 1
        for v in range(lo, max_order + 1):
            if math.gcd(v, prod) == 1:
                rec(prefix + (v,), prod * v)

    rec((), 1)
    return out
