"""Opt-in: the dimension-5 counts, pinned as regression values.

NewOnlyKE(5) = 64,903,006,110,707 and OldKE(5) = 14,941,517,672,994 are the
agreement of repeated full runs of one counting kernel (seven runs of the
NewOnlyKE count, two of the OldKE count), not frozen constants: no path that
shares no code with the interval solver has reproduced them.  Each count
runs about a minute on two worker processes, so the test is skipped unless
the environment sets ORBKE_DIM5=1:

    ORBKE_DIM5=1 python -m pytest -q tests/test_dim5.py
"""

from __future__ import annotations

import os

import pytest

from conftest import json_records

DIM5 = {"new-only": ("NewOnlyKE", 64_903_006_110_707), "old": ("OldKE", 14_941_517_672_994)}

pytestmark = pytest.mark.skipif(
    os.environ.get("ORBKE_DIM5") != "1", reason="dimension-5 counts run only with ORBKE_DIM5=1")


@pytest.mark.parametrize("klass", sorted(DIM5))
def test_dim5_count(run_cli, klass):
    code, out, err = run_cli("count", "--dim", "5", "--class", klass, "--jobs", "2")
    assert (code, err) == (0, "")
    label, want = DIM5[klass]
    (record,) = json_records(out)
    assert record["counts"] == {label: want} and record["verdict"] == "complete"
