"""Shared fixtures and strategies for the orbke test suite."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import strategies as st

from orbke import classify, cli, iter_tuples

# Small primes whose powers build pairwise-coprime order tuples quickly.
_PRIME_POOL = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)


def coprime_counts(primes, top):
    """(phi[0], ..., phi[top]): phi[x] counts the 1 <= k <= x coprime to every prime, by gcd."""
    q = math.prod(primes)
    counts = [0]
    for k in range(1, top + 1):
        counts.append(counts[-1] + (math.gcd(k, q) == 1))
    return tuple(counts)


@st.composite
def coprime_orders(draw, length, min_order=2, max_exp=2):
    """A sorted tuple of `length` pairwise-coprime integers >= min_order.

    Built from powers of distinct primes so coprimality holds by
    construction; min_order=1 may add repeated unit entries.
    """
    k = draw(st.integers(min_value=0, max_value=length)) if min_order == 1 else 0
    primes = draw(
        st.lists(
            st.sampled_from(_PRIME_POOL),
            min_size=length - k,
            max_size=length - k,
            unique=True,
        )
    )
    exps = draw(
        st.lists(
            st.integers(min_value=1, max_value=max_exp),
            min_size=len(primes),
            max_size=len(primes),
        )
    )
    orders = [1] * k + [p**e for p, e in zip(primes, exps)]
    return tuple(sorted(orders))


def assert_pairwise_coprime(orders):
    for i in range(len(orders)):
        for j in range(i + 1, len(orders)):
            assert math.gcd(orders[i], orders[j]) == 1


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance-criterion lines after the test summary."""
    import sys

    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    results = getattr(mod, "RESULTS", None)
    if results:
        terminalreporter.section("acceptance criteria")
        for line in results:
            terminalreporter.write_line(line)


@pytest.fixture
def run_cli(capsys):
    """Invoke the CLI in-process; return (exit_code, stdout, stderr)."""

    def run(*argv):
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


def json_records(stdout):
    """Parse JSON-lines output into a list of dicts."""
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


def reference_items(cfg):
    """The enumerate-item dicts of cfg's stream, each built from iter_tuples and classify."""
    for t, _ in iter_tuples(cfg):
        report = classify(t)
        yield {
            "command": "enumerate-item",
            "orders": list(t.orders),
            "classification": report.classification,
            "c1": str(report.c1),
            "old_ok": report.old_ok,
            "new_ok": report.new_ok,
        }
