"""CLI surface: certificates, formats, exit-code policy, and round-trips."""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import os
import random
import re
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import orbke
from orbke import SearchConfig, __version__, cli
from orbke.enumeration import MAX_SEARCH_DIM
from orbke.oracle import MAX_GRID_POINTS
from orbke.orbifold import CLASSIFICATIONS

from conftest import json_records, reference_items


class TestCheck:
    def test_new_only_certificate(self, run_cli):
        code, out, err = run_cli("check", "--dim", "2", "2", "3", "5", "17")
        assert code == 0
        (rec,) = json_records(out)
        assert rec["command"] == "check"
        assert rec["version"] == __version__
        assert rec["verdict"] == "NewOnlyKE"
        assert rec["input"]["orders"] == [2, 3, 5, 17]
        assert rec["derived"]["c1"] == "47/510"
        assert rec["derived"]["old_bound"] == "3/34"
        assert rec["derived"]["new_bound"] == "3/17"
        assert rec["derived"]["link_order_product"] == 510
        assert rec["derived"]["link_weights"] == [255, 170, 102, 30]
        ineqs = {row["name"]: row for row in rec["inequalities"]}
        assert ineqs["c1-below-new-bound"]["holds"] is True
        assert ineqs["c1-below-old-bound"]["holds"] is False
        assert ineqs["zero-below-c1"]["holds"] is True
        assert any("contact-structure" in c for c in rec["caveats"])

    def test_not_fano(self, run_cli):
        code, out, _ = run_cli("check", "--dim", "2", "2", "3", "7", "43")
        assert code == 0
        (rec,) = json_records(out)
        assert rec["verdict"] == "NotFano"
        assert rec["derived"]["c1"] == "-1/1806"

    def test_unit_orders_flag(self, run_cli):
        code, out, _ = run_cli(
            "check", "--dim", "1", "--allow-unit-orders", "1", "1", "1"
        )
        assert code == 0
        (rec,) = json_records(out)
        assert rec["derived"]["c1"] == "2"

    def test_negative_verdict_still_exits_zero(self, run_cli):
        code, _, _ = run_cli("check", "--dim", "2", "2", "3", "5", "61")
        assert code == 0

    def test_wrong_length_exits_one(self, run_cli):
        code, _, err = run_cli("check", "--dim", "2", "2", "3", "5")
        assert code == 1
        assert err

    def test_coprime_violation_exits_one(self, run_cli):
        code, _, err = run_cli("check", "--dim", "2", "2", "3", "4", "5")
        assert code == 1
        assert "gcd" in err


class TestEnumerate:
    def test_materialize_golden(self, run_cli):
        code, out, _ = run_cli("enumerate", "--dim", "2")
        assert code == 0
        recs = json_records(out)
        items = [r for r in recs if r["command"] == "enumerate-item"]
        summary = recs[-1]
        assert [r["orders"][-1] for r in items] == [
            17, 19, 23, 29, 31, 37, 41, 43, 47, 49, 53, 59,
        ]
        assert all(r["classification"] == "NewOnlyKE" for r in items)
        assert all(r["old_ok"] is False and r["new_ok"] is True for r in items)
        assert summary["command"] == "enumerate"
        assert summary["counts"] == {"NewOnlyKE": 12}
        assert summary["verdict"] == "complete"

    def test_count_alias(self, run_cli):
        code, out, _ = run_cli("count", "--dim", "2")
        assert code == 0
        (rec,) = json_records(out)
        assert rec["command"] == "count"
        assert rec["counts"] == {"NewOnlyKE": 12}
        assert rec["nodes_visited"] >= 1

    def test_all_classes_need_max_order(self, run_cli):
        code, _, err = run_cli("count", "--dim", "2", "--class", "all")
        assert code == 1
        assert "max" in err.lower()

    def test_all_classes_capped(self, run_cli):
        code, out, _ = run_cli(
            "count", "--dim", "2", "--class", "all", "--max-order", "30"
        )
        assert code == 0
        (rec,) = json_records(out)
        assert rec["counts"] == {
            "NotFano": 2519,
            "OldKE": 11,
            "NewOnlyKE": 4,
            "NoCriterion": 0,
        }

    def test_node_cap_exits_two(self, run_cli):
        code, _, err = run_cli("count", "--dim", "3", "--max-nodes", "20")
        assert code == 2
        assert "node" in err.lower()

    def test_deep_node_cap_partial_is_pinned(self, run_cli):
        # The cap falls inside dimension 5's leaf slices, whose windows are
        # solved a slice at a time; the cap is still checked at every leaf.
        code, out, err = run_cli("count", "--dim", "5", "--max-nodes", "100000")
        assert (code, out) == (2, "")
        assert err == "error: node cap 100000 exceeded (progress: {'NewOnlyKE': 8682779})\n"

    def test_dimension_above_the_bound_exits_one(self, run_cli):
        code, out, err = run_cli("count", "--dim", str(MAX_SEARCH_DIM + 1), "--max-nodes", "1000")
        assert code == 1
        assert out == ""
        assert err.startswith("error: dimension must be in 1..")

    def test_dimension_at_the_bound_reaches_the_node_cap(self, run_cli):
        # The walk recurses once per prefix entry; at the bound it must run
        # into the node cap, not the recursion limit.
        code, _, err = run_cli("count", "--dim", str(MAX_SEARCH_DIM), "--max-nodes", "1000")
        assert code == 2
        assert err.startswith("error: node cap 1000 exceeded")

    @pytest.mark.parametrize("command", ["count", "enumerate"])
    def test_unit_orders_at_the_bound_stay_within_the_recursion_limit(self, run_cli, command):
        # Unit orders fill every prefix slot, so the walk recurses to full depth.
        code, _, err = run_cli(command, "--dim", str(MAX_SEARCH_DIM), "--allow-unit-orders",
                               "--max-order", "2", "--class", "all", "--max-nodes", "100000")
        assert code in (0, 2), err

    def test_unit_orders_need_max_order(self, run_cli):
        code, _, err = run_cli("count", "--dim", "2", "--allow-unit-orders")
        assert code == 1
        assert "max_order" in err

    def test_jobs_do_not_change_the_record(self, run_cli, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a small count started a process pool")

        # Both counts are below POOL_MIN_LEAVES, so --jobs 2 runs in-process.
        monkeypatch.setattr(orbke.enumeration, "ProcessPoolExecutor", no_pool)
        for dim in ("3", "4"):
            records = []
            for jobs in ("1", "2"):
                code, out, _ = run_cli("count", "--dim", dim, "--jobs", jobs)
                assert code == 0
                (rec,) = json_records(out)
                assert rec["input"].pop("jobs") == int(jobs)
                rec.pop("elapsed_s")
                records.append(rec)
            assert records[0] == records[1]

    # --jobs is the only way to ask for workers; ORBKE_JOBS is not read.
    def test_jobs_env_default(self, run_cli, monkeypatch):
        monkeypatch.setenv("ORBKE_JOBS", "2")
        code, out, _ = run_cli("count", "--dim", "2")
        assert code == 0
        (rec,) = json_records(out)
        assert rec["input"]["jobs"] == 1
        assert rec["counts"] == {"NewOnlyKE": 12}

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_jobs_env_below_one_exits_one(self, run_cli, monkeypatch, value):
        monkeypatch.setenv("ORBKE_JOBS", value)
        code, out, _ = run_cli("count", "--dim", "2")
        assert code == 0
        (rec,) = json_records(out)
        assert rec["input"]["jobs"] == 1
        assert rec["counts"] == {"NewOnlyKE": 12}
        # A worker count below one still exits 1, but only through --jobs.
        code, out, err = run_cli("count", "--dim", "2", "--jobs", value)
        assert code == 1
        assert out == ""
        assert "parallel_width" in err

    def test_old_class(self, run_cli):
        code, out, _ = run_cli("count", "--dim", "2", "--class", "old")
        assert code == 0
        (rec,) = json_records(out)
        assert rec["counts"] == {"OldKE": 14}


class TestFamily:
    def test_dim2(self, run_cli):
        code, out, _ = run_cli("family", "--dim", "2")
        assert code == 0
        (rec,) = json_records(out)
        assert rec["family"]["prefix"] == [2, 3, 5]
        assert rec["family"]["last_interval_open"] == [5, 60]
        assert rec["family"]["forbidden_primes"] == [2, 3, 5]
        assert rec["counts"] == {"admissible": 15, "NewOnlyKE": 12, "OldKE": 3}
        assert rec["verdict"] == "derived"
        assert any("family-range" in c for c in rec["caveats"])

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_admissible_is_new_only_plus_old(self, run_cli, dim):
        # The coprime count of the interval against the search's count of
        # its one leaf; dimension 6 factors c7 - 2 = 10,650,056,950,805.
        code, out, _ = run_cli("family", "--dim", str(dim))
        assert code == 0
        (rec,) = json_records(out)
        counts = rec["counts"]
        assert counts["admissible"] == counts["NewOnlyKE"] + counts["OldKE"]
        if dim == 6:
            # Regression values: repeated runs of this kernel agree, no
            # independent derivation pins them.
            assert counts["NewOnlyKE"] == 130_558_641_381_087_211_708_416_000
            assert counts["OldKE"] == 3_730_246_896_600_390_226_788_173

    def test_bad_dim_exits_one(self, run_cli):
        code, _, _ = run_cli("family", "--dim", "9")
        assert code == 1


class TestSylvester:
    def test_k6(self, run_cli):
        code, out, _ = run_cli("sylvester", "--k", "6")
        assert code == 0
        (rec,) = json_records(out)
        assert rec["sequence"] == [2, 3, 7, 43, 1807, 3263443]
        assert rec["verdict"] == "verified"
        assert len(rec["inequalities"]) == 6
        assert all(row["holds"] is True for row in rec["inequalities"])
        assert all(
            row["name"].startswith("reciprocal-sum-identity-")
            for row in rec["inequalities"]
        )

    def test_k9_exits_one(self, run_cli):
        code, _, _ = run_cli("sylvester", "--k", "9")
        assert code == 1


class TestLct:
    def test_snc(self, run_cli):
        code, out, _ = run_cli("lct", "snc", "--dim", "2", "--divisor", "4:2")
        assert code == 0
        (rec,) = json_records(out)
        assert rec["derived"]["delta"] == "2/3"
        assert rec["derived"]["beta"] == "2"
        assert rec["derived"]["c"] == "1"
        assert rec["derived"]["method"] == "identity-cover"
        assert rec["verdict"] == "passes"
        assert any("snc-arrangement" in c for c in rec["caveats"])

    def test_snc_failing_is_still_exit_zero(self, run_cli):
        code, out, _ = run_cli("lct", "snc", "--dim", "2", "--divisor", "4:5")
        assert code == 0
        (rec,) = json_records(out)
        assert rec["verdict"] == "fails"
        assert rec["derived"]["delta"] == "16/15"
        assert rec["derived"]["beta"] is None
        names = [row["name"] for row in rec["inequalities"]]
        assert "delta-below-one" in names

    def test_snc_multiple_divisors(self, run_cli):
        code, out, _ = run_cli(
            "lct", "snc", "--dim", "2",
            "--divisor", "1:2", "--divisor", "1:3",
            "--divisor", "1:5", "--divisor", "1:17",
        )
        assert code == 0
        (rec,) = json_records(out)
        assert rec["derived"]["delta"] == "1483/1530"
        assert rec["verdict"] == "passes"

    def test_snc_malformed_divisor(self, run_cli):
        code, _, _ = run_cli("lct", "snc", "--dim", "2", "--divisor", "4x2")
        assert code == 1

    def test_monomial(self, run_cli):
        code, out, _ = run_cli("lct", "monomial", "1", "2")
        assert code == 0
        (rec,) = json_records(out)
        assert rec["verdict"] == "1/2"
        assert rec["derived"]["threshold"] == "1/2"

    def test_monomial_bad_exponent(self, run_cli):
        code, _, _ = run_cli("lct", "monomial", "0")
        assert code == 1


class TestDelPezzo:
    def test_deg2_pass(self, run_cli):
        code, out, _ = run_cli("delpezzo", "deg2", "--sing", "A1,A2")
        assert code == 0
        (rec,) = json_records(out)
        assert rec["verdict"] == "passes"
        assert rec["derived"]["c"] == "2/3"
        assert rec["derived"]["beta"] == "2"
        assert rec["derived"]["method"] == "quotient-cover"

    def test_deg2_a3_fails(self, run_cli):
        code, out, _ = run_cli("delpezzo", "deg2", "--sing", "A3")
        assert code == 0
        (rec,) = json_records(out)
        assert rec["verdict"] == "fails"
        assert rec["derived"]["c"] == "1/2"

    def test_deg2_smooth(self, run_cli):
        code, out, _ = run_cli("delpezzo", "deg2")
        assert code == 0
        (rec,) = json_records(out)
        assert rec["derived"]["c"] == "inf"
        assert rec["verdict"] == "passes"

    def test_deg2_bare_integers(self, run_cli):
        code, out, _ = run_cli("delpezzo", "deg2", "--sing", "1,2")
        assert code == 0
        (rec,) = json_records(out)
        assert rec["verdict"] == "passes"

    def test_deg4_distinct(self, run_cli):
        code, out, _ = run_cli("delpezzo", "deg4", "--lambda", "1,2,3")
        assert code == 0
        (rec,) = json_records(out)
        assert rec["derived"]["method"] == "disjoint-ramification"
        assert rec["derived"]["c"] == "inf"
        assert any("quadric-pencil" in c for c in rec["caveats"])

    def test_deg4_coincident(self, run_cli):
        code, out, _ = run_cli("delpezzo", "deg4", "--lambda", "1,1,2")
        assert code == 0
        (rec,) = json_records(out)
        assert rec["derived"]["method"] == "quotient-of-quadric"

    def test_deg4_zero_lambda_exits_one(self, run_cli):
        code, _, _ = run_cli("delpezzo", "deg4", "--lambda", "0,1,2")
        assert code == 1

    def test_deg4_rational_lambdas(self, run_cli):
        code, out, _ = run_cli("delpezzo", "deg4", "--lambda", "1/2,2/3,5")
        assert code == 0
        (rec,) = json_records(out)
        assert rec["derived"]["method"] == "disjoint-ramification"


class TestOracleCommands:
    def test_monomial_within_tolerance(self, run_cli):
        code, out, _ = run_cli(
            "oracle", "monomial", "--exponents", "2",
            "--samples", "8000", "--seed", "5",
        )
        assert code == 0
        (rec,) = json_records(out)
        assert rec["analytic"] == "1/2"
        assert rec["verdict"] == "within-tolerance"
        est = rec["estimate"]["threshold"]
        assert abs(est - 0.5) / 0.5 <= 0.1
        assert any("stochastic" in c for c in rec["caveats"])

    def test_bp_within_tolerance(self, run_cli):
        code, out, _ = run_cli(
            "oracle", "bp", "--n", "2", "--samples", "8000", "--seed", "5"
        )
        assert code == 0
        (rec,) = json_records(out)
        assert rec["analytic"] == "1"
        assert rec["verdict"] == "within-tolerance"

    def test_grid_miss_exits_one(self, run_cli):
        code, _, err = run_cli(
            "oracle", "monomial", "--exponents", "1",
            "--samples", "8000", "--grid", "2:4:1/2",
        )
        assert code == 1
        assert "below" in err

    def test_grid_points_cap(self, run_cli):
        # A grid of MAX_GRID_POINTS runs; one point more is refused by the
        # parser with one error line, before any Fraction of it is built.
        argv = ("oracle", "monomial", "--exponents", "2", "--samples", "1000",
                "--cutoffs", "1e-2,1e-3,1e-4,1e-5,1e-6", "--grid")
        cap = MAX_GRID_POINTS
        code, out, _ = run_cli(*argv, f"1/{cap}:1:1/{cap}")
        assert code == 0
        (rec,) = json_records(out)
        assert len(rec["input"]["lambda_grid"]) == cap
        code, out, err = run_cli(*argv, f"1/{cap + 1}:1:1/{cap + 1}")
        assert (code, out) == (1, "")
        assert err == f"error: grid has {cap + 1} points, more than the cap {cap}\n"

    @pytest.mark.parametrize("grid, line", [
        ("2:4:1", "error: threshold outside grid (below): every probed lambda is "
                  "supercritical (slopes <= -1); the threshold lies below the grid"),
        ("1/10:3/10:1/10", "error: threshold outside grid (above): no probed lambda is "
                           "supercritical (slopes > -0.1); the threshold lies above the grid"),
    ])
    def test_grid_miss_stderr_is_one_pinned_line(self, grid, line):
        code, out, err = _fresh_cli(
            "oracle", "monomial", "--exponents", "1", "--samples", "1000",
            "--cutoffs", "1e-2,1e-3,1e-4,1e-5,1e-6", "--grid", grid,
        )
        assert code == 1
        assert out == ""
        assert err == line + "\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--seed", str(2**64)), "seed"),
            (("--seed", str(2**63)), "seed"),
            (("--cutoffs", "1,0.5,0.25,0.125,0.0625"), "(0, 1)"),
            (("--grid", "1:1000000000:1"), "grid has 1000000000 points"),
            (("--samples", "4000001"), "array cells"),
            # 999,001 samples x (996 grid points + 5 cutoffs) = 10^9 + 1.
            (("--samples", "999001", "--grid", "1:996:1",
              "--cutoffs", "0.5,0.25,0.125,0.0625,0.03125"), "evaluations"),
            # 4,001 coordinates times 1,000 samples.
            (("--exponents", *["1"] * 4001, "--samples", "1000"), "array cells"),
            (("--n", str(10 ** 300 + 1)), "n must be"),
            (("--tol", "inf"), "tolerance"),
        ],
    )
    def test_rejected_before_sampling(self, run_cli, argv, message):
        target = (("bp",) if "--n" in argv else ("monomial",) if "--exponents" in argv
                  else ("monomial", "--exponents", "1"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli("oracle", *target, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize("grid", ["1e400:3e400:1e400", "1e-400:3e-400:1e-400"])
    @pytest.mark.parametrize("target", [("monomial", "--exponents", "1"), ("bp", "--n", "2")])
    def test_grid_that_breaks_as_floats_exits_one(self, target, grid):
        # Exact Fractions that overflow or flush to zero as floats.
        code, out, err = _fresh_cli("oracle", *target, "--grid", grid)
        assert code == 1
        assert out == ""
        assert err.startswith("error: lambda_grid must stay finite")
        assert "Traceback" not in err

    @pytest.mark.parametrize("grid, message", [
        ("1e307:3e307:1e307", "error: -2 lambda log|f| overflows a float"),
        ("1e160:3e160:1e160", "error: the slope fit of log I"),
    ])
    @pytest.mark.parametrize("target", [("monomial", "--exponents", "1"), ("bp", "--n", "2")])
    def test_grid_too_large_for_the_estimate_exits_one(self, target, grid, message):
        # Finite float grids whose -2 lambda log|f| or slope fit leaves the
        # float range: one error line, no numpy warning, no direction.
        code, out, err = _fresh_cli("oracle", *target, "--grid", grid, "--samples", "2000")
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(message) and "probe a smaller lambda_grid" in err

    @pytest.mark.parametrize("cutoffs", [
        "1e-70,1e-71,1e-72,1e-73,1e-74", "1e-150,1e-151,1e-152,1e-153,1e-154",
    ])
    def test_bp_deep_cutoffs(self, run_cli, cutoffs):
        code, out, _ = run_cli(
            "oracle", "bp", "--n", "2", "--samples", "4000", "--seed", "1", "--cutoffs", cutoffs,
        )
        assert code == 0
        (rec,) = json_records(out)
        assert rec["verdict"] == "within-tolerance"
        assert abs(rec["estimate"]["threshold"] - 1) <= 0.1

    def test_custom_cutoffs(self, run_cli):
        code, out, _ = run_cli(
            "oracle", "monomial", "--exponents", "1",
            "--samples", "8000", "--cutoffs", "1e-8,1e-10,1e-12,1e-14,1e-16",
        )
        assert code == 0
        (rec,) = json_records(out)
        assert len(rec["input"]["cutoffs"]) == 5


class TestFormats:
    def test_csv_numeric_content_matches_json(self, run_cli):
        _, json_out, _ = run_cli("check", "--dim", "2", "2", "3", "7", "43")
        _, csv_out, _ = run_cli(
            "check", "--dim", "2", "2", "3", "7", "43", "--format", "csv"
        )
        (rec,) = json_records(json_out)
        rows = list(csv.DictReader(io.StringIO(csv_out)))
        assert len(rows) == 1
        flat = rows[0]
        assert flat["derived.c1"] == rec["derived"]["c1"] == "-1/1806"
        assert flat["verdict"] == rec["verdict"]
        assert flat["inequalities.0.name"] == rec["inequalities"][0]["name"]
        for i, row in enumerate(rec["inequalities"]):
            assert flat[f"inequalities.{i}.holds"] == ("true" if row["holds"] else "false")
            assert flat[f"inequalities.{i}.lhs"] == row["lhs"]
            assert flat[f"inequalities.{i}.rhs"] == row["rhs"]

    def test_csv_reemits_header_on_shape_change(self, run_cli):
        _, out, _ = run_cli("enumerate", "--dim", "2", "--format", "csv")
        header_lines = [
            line for line in out.splitlines() if line.startswith("command,")
        ]
        # item records and the trailing summary have different shapes
        assert len(header_lines) == 2

    def test_text_format(self, run_cli):
        _, out, _ = run_cli(
            "check", "--dim", "2", "2", "3", "5", "17", "--format", "text"
        )
        assert "verdict = NewOnlyKE" in out
        assert "derived.c1 = 47/510" in out
        assert "input.orders = 2;3;5;17" in out

    def test_out_file(self, run_cli, tmp_path):
        target = tmp_path / "cert.jsonl"
        code, out, _ = run_cli(
            "check", "--dim", "2", "2", "3", "5", "17", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        (rec,) = json_records(target.read_text())
        assert rec["verdict"] == "NewOnlyKE"

    def test_rejected_run_leaves_out_file_untouched(self, run_cli, tmp_path):
        target = tmp_path / "cert.jsonl"
        code, _, _ = run_cli("check", "--dim", "2", "2", "3", "5", "17", "--out", str(target))
        assert code == 0
        written = target.read_bytes()
        assert written
        code, out, err = run_cli("check", "--dim", "2", "2", "3", "4", "5", "--out", str(target))
        assert code == 1
        assert out == "" and err.startswith("error:")
        assert target.read_bytes() == written
        code, _, _ = run_cli("count", "--dim", "4", "--max-nodes", "5", "--out", str(target))
        assert code == 2
        assert target.read_bytes() == written

    @pytest.mark.parametrize("name", ["missing-dir/x.jsonl", "."])
    def test_unwritable_out_path_exits_one(self, run_cli, tmp_path, monkeypatch, name):
        # A missing directory, or a directory as the file: rejected with an
        # error line, not a traceback after the whole computation.
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli("count", "--dim", "4", "--out", name)
        assert code == 1
        assert out == ""
        assert err.startswith("error: cannot write --out")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("argv", [
        ("check", "--dim", "2", "2", "3", "5", "17"),
        ("enumerate", "--dim", "3"),
    ])
    def test_failed_out_write_exits_one_without_traceback(self, run_cli, argv):
        # /dev/full accepts the up-front probe and fails every write: one
        # error line and exit 1, in-process and from a fresh interpreter.
        line = "error: cannot write --out /dev/full: No space left on device\n"
        assert run_cli(*argv, "--out", "/dev/full") == (1, "", line)
        assert _fresh_cli(*argv, "--out", "/dev/full") == (1, "", line)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("argv", [
        ("check", "--dim", "2", "2", "3", "5", "17"),
        ("enumerate", "--dim", "3"),
        ("--version",),
        ("--help",),
        ("check", "--help"),
    ])
    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    def test_full_stdout_exits_one_without_traceback(self, argv, buffered):
        # A full stdout ends the run as a failed --out write does: one error
        # line and exit 1, whether the failure shows at a write or at the
        # last flush, for help and version text as for records.
        env = _fresh_env()
        env.pop("PYTHONUNBUFFERED", None)
        flags = [] if buffered else ["-u"]
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, *flags, "-m", "orbke.cli", *argv],
                                  stdout=full, stderr=subprocess.PIPE, text=True, env=env)
        assert (proc.returncode, proc.stderr) == (
            1, "error: cannot write stdout: No space left on device\n")

    def test_rejected_run_creates_no_out_file(self, run_cli, tmp_path):
        target = tmp_path / "cert.jsonl"
        code, _, err = run_cli("check", "--dim", "2", "2", "3", "4", "5", "--out", str(target))
        assert code == 1 and err.startswith("error: gcd")
        assert not target.exists()


ENVELOPE_CASES = {
    "check": ("check", "--dim", "2", "2", "3", "5", "17"),
    "enumerate": ("enumerate", "--dim", "2"),
    "count": ("count", "--dim", "2"),
    "family": ("family", "--dim", "2"),
    "sylvester": ("sylvester", "--k", "4"),
    "lct-snc": ("lct", "snc", "--dim", "2", "--divisor", "4:2"),
    "lct-monomial": ("lct", "monomial", "1", "2"),
    "delpezzo-deg2": ("delpezzo", "deg2", "--sing", "A1,A2"),
    "delpezzo-deg4": ("delpezzo", "deg4", "--lambda", "1,1,2"),
    "oracle-monomial": ("oracle", "monomial", "--exponents", "2", "--seed", "1",
                        "--samples", "2000"),
    "oracle-bp": ("oracle", "bp", "--n", "3", "--samples", "2000"),
}


def _last_record_keys(out, fmt):
    """Top-level keys of the last record, in the order they were written."""
    if fmt == "json":
        return list(json_records(out)[-1])
    if fmt == "csv":
        flat = [row for row in csv.reader(io.StringIO(out)) if row[0] == "command"][-1]
    else:
        block = out.strip().split("\n\n")[-1]
        flat = [line.split(" = ", 1)[0] for line in block.splitlines()]
    return list(dict.fromkeys(key.split(".")[0] for key in flat))


class TestEnvelope:
    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    @pytest.mark.parametrize("name", list(ENVELOPE_CASES))
    def test_record_envelope(self, run_cli, name, fmt):
        code, out, _ = run_cli(*ENVELOPE_CASES[name], "--format", fmt)
        assert code == 0
        keys = _last_record_keys(out, fmt)
        assert keys[:3] == ["command", "version", "input"]
        tail = keys[keys.index("caveats"):]
        assert tail == ["caveats", "elapsed_s"] + (["nodes_visited"] if name == "count" else [])


def _reference_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    return str(value)


def _reference_flat_items(value, key=""):
    """The generator flattener the list-building `cli._flat_items` replaced."""
    if isinstance(value, dict):
        for sub, inner in value.items():
            yield from _reference_flat_items(inner, f"{key}.{sub}" if key else sub)
    elif isinstance(value, (list, tuple)):
        if all(not isinstance(v, (dict, list, tuple)) for v in value):
            yield key, ";".join(_reference_scalar(v) for v in value)
        else:
            for i, inner in enumerate(value):
                yield from _reference_flat_items(inner, f"{key}.{i}")
    else:
        yield key, _reference_scalar(value)


class TestFlattener:
    """`cli._flat_items` gives the reference's pairs, in its order, on every record.

    Items do not pass through `Emitter.write` (their lines come from
    `Emitter.item_format`'s templates), so the item dicts are built as the
    stream tests' reference builds them, and their keys are the csv item
    header's.
    """

    RUNS = [
        *ENVELOPE_CASES.values(),
        ("check", "--dim", "2", "2", "3", "7", "43"),
        ("enumerate", "--dim", "3", "--class", "all", "--max-order", "30"),
        ("enumerate", "--dim", "3", "--max-nodes", "20"),
        ("count", "--dim", "3", "--class", "all", "--max-order", "30", "--jobs", "2"),
        ("lct", "snc", "--dim", "2", "--divisor", "1:3", "--divisor", "1:5"),
    ]

    @pytest.mark.parametrize("fmt", ["csv", "text"])
    def test_matches_reference_on_every_subcommand(self, run_cli, monkeypatch, fmt):
        records = []
        write = cli.Emitter.write

        def recording_write(self, record):
            records.append(record)
            return write(self, record)

        monkeypatch.setattr(cli.Emitter, "write", recording_write)
        codes = [run_cli(*argv, "--format", fmt)[0] for argv in self.RUNS]
        assert codes == [2 if "--max-nodes" in argv else 0 for argv in self.RUNS]
        assert "enumerate-item" not in {r["command"] for r in records}
        records += reference_items(SearchConfig(n=3, classes=CLASSIFICATIONS, max_order=30))
        commands = {r["command"] for r in records}
        assert commands >= {name for name in ENVELOPE_CASES} | {"enumerate-item"}
        assert sum(r["command"] == "enumerate-item" for r in records) > 100
        for record in records:
            flat = cli._flat_items(record)
            assert flat == list(_reference_flat_items(record))
            if record["command"] == "enumerate-item":
                assert tuple(key for key, _ in flat) == cli.ITEM_KEYS

    @pytest.mark.parametrize("value", [
        {}, {"a": []}, {"a": ()}, {"a": [None, True, False, 0, 1.5, "x"]},
        {"a": [[1, 2], [3]], "b": {"c": {"d": None}}, "e": [{"f": (1,)}, 2]},
        {"a": [1, {"b": 2}]}, [1, [2, 3]], (), 7, None, True,
    ])
    def test_matches_reference_on_edge_shapes(self, value):
        assert cli._flat_items(value) == list(_reference_flat_items(value))


class TestRoundTrip:
    def test_check_roundtrip_identical_modulo_timing(self, run_cli):
        _, out1, _ = run_cli("check", "--dim", "2", "2", "3", "5", "17")
        (rec1,) = json_records(out1)
        echoed = [str(m) for m in rec1["input"]["orders"]]
        _, out2, _ = run_cli("check", "--dim", str(rec1["input"]["dim"]), *echoed)
        (rec2,) = json_records(out2)
        rec1.pop("elapsed_s"), rec2.pop("elapsed_s")
        assert rec1 == rec2


def _fresh_cli(*argv):
    """`python -m orbke.cli` in a fresh interpreter; (exit_code, stdout, stderr).

    The child imports the package under test, installed or not, and formats
    usage text for 80 columns.
    """
    proc = subprocess.run(
        [sys.executable, "-m", "orbke.cli", *argv],
        capture_output=True,
        text=True,
        env=_fresh_env(),
    )
    return proc.returncode, proc.stdout, proc.stderr


def _fresh_env():
    src = str(Path(orbke.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, "COLUMNS": "80"}


class TestExitPolicy:
    def test_usage_error_exits_one(self, run_cli):
        assert run_cli("check")[0] == 1
        assert run_cli("frobnicate")[0] == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "--dim", "2", "2", "3", "5", "17", "--seed", "1"),
            ("lct", "monomial", "2", "--max-nodes", "0"),
            ("count", "--dim", "2", "--count-only"),
            ("enumerate", "--dim", "2", "--count-only"),
            ("enumerate", "--dim", "2", "--jobs", "2"),
        ],
    )
    def test_flag_outside_its_commands_exits_one(self, run_cli, argv):
        code, out, err = run_cli(*argv)
        assert code == 1
        assert out == ""
        assert "unrecognized arguments" in err

    def test_version_exits_zero(self, run_cli):
        code, out, _ = run_cli("--version")
        assert code == 0
        assert __version__ in out

    def test_module_entry_point(self):
        code, out, _ = _fresh_cli("--version")
        assert code == 0
        assert __version__ in out

    def test_oserror_from_elsewhere_surfaces(self, monkeypatch):
        # Only an OSError raised writing stdout is folded into exit 1; one
        # from another module (a pool that cannot start) is a plain failure.
        def failing_main():
            raise OSError(38, "Function not implemented")

        monkeypatch.setattr(cli, "main", failing_main)
        with pytest.raises(OSError, match="Function not implemented"):
            cli.entry()

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_closed_output_exits_one_without_traceback(self, fmt):
        # The stream is over 600 kB, far past a pipe buffer, so the writer
        # is still writing when the reader closes its end after one line.
        proc = subprocess.Popen(
            [sys.executable, "-m", "orbke.cli", "enumerate", "--dim", "4",
             "--max-order", "180", "--format", fmt],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=_fresh_env(),
        )
        try:
            assert proc.stdout.readline()
            proc.stdout.close()
            code = proc.wait(timeout=60)
            err = proc.stderr.read().decode()
        finally:
            proc.kill()
            proc.stdout.close()
            proc.stderr.close()
        assert code == 1
        assert "Traceback" not in err and "BrokenPipeError" not in err


class TestDeterminism:
    def test_repeat_run_identical_modulo_timing(self, run_cli):
        _, out1, _ = run_cli(
            "count", "--dim", "2", "--class", "all", "--max-order", "20"
        )
        _, out2, _ = run_cli(
            "count", "--dim", "2", "--class", "all", "--max-order", "20"
        )
        recs1, recs2 = json_records(out1), json_records(out2)
        for r in recs1 + recs2:
            r.pop("elapsed_s", None)
        assert recs1 == recs2

    def test_oracle_seed_flag_reproducible(self, run_cli):
        args = (
            "oracle", "monomial", "--exponents", "1",
            "--samples", "8000", "--seed", "99",
        )
        _, out1, _ = run_cli(*args)
        _, out2, _ = run_cli(*args)
        (r1,), (r2,) = json_records(out1), json_records(out2)
        assert r1["estimate"] == r2["estimate"]


def _blank_elapsed(text):
    """Output text with every elapsed_s value blanked, json-lines or csv."""
    if not text.startswith("command,"):
        return re.sub(r'"elapsed_s": [^,}]+', '"elapsed_s": ""', text)
    rows = list(csv.reader(io.StringIO(text)))
    drop = None
    for row in rows:
        if row[0] == "command":
            drop = row.index("elapsed_s") if "elapsed_s" in row else None
        elif drop is not None:
            row[drop] = ""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


class TestParserReuse:
    """`main` builds its parser once per process and parses with it again."""

    CALLS = [
        *ENVELOPE_CASES.values(),
        ("check", "--dim", "2", "2", "3", "5", "17", "--format", "csv"),
        ("enumerate", "--dim", "2", "--format", "text"),
        ("count", "--dim", "3", "--class", "all", "--max-order", "30", "--jobs", "1"),
        ("lct", "snc", "--dim", "2", "--divisor", "1:3", "--divisor", "1:5"),
        ("oracle", "bp", "--n", "2", "--seed", "5", "--samples", "1000", "--tol", "0.5"),
        ("check", "--dim", "2"),
        ("frobnicate",),
        ("--version",),
        ("lct", "--help"),
    ]

    def test_parser_is_built_once(self, run_cli, monkeypatch):
        run_cli("--version")
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        codes = [run_cli(*argv)[0] for argv in self.CALLS]
        assert codes.count(0) == len(self.CALLS) - 2
        assert built == []

    # Each call follows one that could leave state behind in a reused parser:
    # an append list, a non-default choice, a usage error, the version exit
    # and an explicit seed.
    SEQUENCE = [
        ("lct", "snc", "--dim", "2", "--divisor", "1:3", "--divisor", "1:5"),
        ("lct", "snc", "--dim", "2", "--divisor", "1:3"),
        ("check", "--dim", "2", "2", "3", "5", "17", "--format", "csv"),
        ("check", "--dim", "2", "2", "3", "5", "17"),
        ("check", "--dim", "2"),
        ("sylvester", "--k", "3"),
        ("--version",),
        ("lct", "monomial", "2", "3"),
        ("oracle", "bp", "--n", "2", "--seed", "5", "--samples", "1000"),
        ("oracle", "bp", "--n", "2", "--samples", "1000"),
        # Usage errors and help at every depth of the subcommand dispatch.
        ("check", "--dim", "2", "2", "3", "5", "17", "--bogus"),
        ("lct",),
        ("lct", "bogus"),
        ("check", "--version"),
        ("-h",),
        ("lct", "-h"),
        ("lct", "snc", "-h"),
        ("check", "-h"),
    ]

    def test_reused_parser_matches_fresh_processes(self, run_cli, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert cli._build_parser() is cli._build_parser()
        with ThreadPoolExecutor(max_workers=2) as pool:
            fresh = pool.map(lambda argv: _fresh_cli(*argv), self.SEQUENCE)
            reused = [run_cli(*argv) for argv in self.SEQUENCE]
            fresh = list(fresh)
        for argv, (code, out, err), (fresh_code, fresh_out, fresh_err) in zip(
                self.SEQUENCE, reused, fresh):
            assert (code, _blank_elapsed(out), err) == (
                fresh_code, _blank_elapsed(fresh_out), fresh_err), argv
        assert [code for code, _, _ in reused] == [0, 0, 0, 0, 1, 0, 0, 0, 0, 0,
                                                   1, 1, 1, 1, 0, 0, 0, 0]
        top_usage = run_cli("frobnicate")[2].split("orbke: error:")[0]
        assert reused[10][2] == top_usage + (
            "orbke: error: unrecognized arguments: --bogus\n")


# The one-shot certificate kinds of the benchmark's certify workload, in its
# order; _one_shot_argv draws an argv of each kind as the workload does.
ONE_SHOT_PATTERN = (
    "check", "lct-snc", "check", "sylvester", "check", "lct-monomial",
    "check", "delpezzo-deg2", "lct-snc", "check", "delpezzo-deg4", "check",
    "family", "check", "lct-snc", "lct-monomial", "check", "delpezzo-deg2",
    "sylvester", "delpezzo-deg4",
)
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)


def _one_shot_argv(kind, rng):
    def orders(n):
        return [str(p ** rng.randint(1, 2)) for p in rng.sample(_PRIMES, n + 2)]

    if kind == "check":
        n = rng.randint(1, 4)
        return ["check", "--dim", str(n), *orders(n)]
    if kind == "lct-snc":
        n = rng.randint(1, 4)
        argv = ["lct", "snc", "--dim", str(n)]
        for m in orders(n):
            argv += ["--divisor", f"{rng.randint(1, 2)}:{m}"]
        return argv
    if kind == "lct-monomial":
        return ["lct", "monomial", *(str(rng.randint(1, 9)) for _ in range(rng.randint(1, 4)))]
    if kind == "delpezzo-deg2":
        sings = (f"A{rng.randint(1, 4)}" for _ in range(rng.randint(0, 3)))
        return ["delpezzo", "deg2", "--sing", ",".join(sings)]
    if kind == "delpezzo-deg4":
        lams = (f"{rng.choice((-6, -1, 1, 2, 5))}/{rng.randint(1, 4)}" for _ in range(3))
        return ["delpezzo", "deg4", "--lambda=" + ",".join(lams)]
    if kind == "family":
        return ["family", "--dim", str(rng.randint(2, 3))]
    return ["sylvester", "--k", str(rng.randint(1, 8))]


# Words for random argvs: command names, options of every parser, their
# abbreviations and --opt=value forms, "--", help and version, and words
# no parser knows ("--=x" reads as an abbreviation of two top options).
_WORDS = (
    "check", "enumerate", "count", "family", "sylvester", "lct", "snc",
    "monomial", "delpezzo", "deg2", "deg4", "oracle", "bp", "frobnicate",
    "2", "3", "5", "17", "-1", "", "a b", "--dim", "--di", "--dim=2",
    "--format", "--fo", "--format=csv", "text", "--out", "--", "-", "-h",
    "-hx", "--help", "--he", "--version", "--ver", "--=x", "--bogus", "-x",
    "--k", "--sing", "A1,A2", "--lambda", "--lambda=1,1,2", "1,2,3",
    "--divisor", "1:3", "--exponents", "--n", "--seed", "--samples",
    "--class", "all", "--max-order", "--jobs", "--allow-unit-orders",
)
_HEADS = (
    (), ("check",), ("lct",), ("lct", "snc"), ("lct", "monomial"),
    ("delpezzo",), ("delpezzo", "deg2"), ("delpezzo", "deg4"), ("oracle",),
    ("oracle", "bp"), ("oracle", "monomial"), ("count",), ("enumerate",),
    ("family",), ("sylvester",),
)


def _parse_outcome(parse, argv):
    """(namespace dict or exit code, stdout, stderr) of parse(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


class TestDispatch:
    """`main` parses with its subcommand's parser what the whole tree parses."""

    def _assert_parity(self, argvs):
        reference = cli._build_parser().parse_args
        for argv in argvs:
            want = _parse_outcome(reference, list(argv))
            assert _parse_outcome(cli._parse_args, argv) == want, argv
            assert _parse_outcome(cli._parse_args, tuple(argv)) == want, argv

    def test_one_shot_corpus(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        rng = random.Random(27)
        argvs = [_one_shot_argv(ONE_SHOT_PATTERN[i % len(ONE_SHOT_PATTERN)], rng)
                 for i in range(1200)]
        self._assert_parity(argvs)
        assert all(isinstance(_parse_outcome(cli._parse_args, a)[0], dict) for a in argvs)

    def test_every_subcommand_and_option_form(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        self._assert_parity([
            *TestParserReuse.CALLS,
            ("check", "--dim=2", "2", "3", "5", "17", "--format=csv"),
            ("check", "--di", "2", "2", "3", "5", "17", "--fo", "text", "--allow"),
            ("check", "--dim", "2", "--", "2", "3", "5", "17"),
            ("lct", "monomial", "--", "-1", "2"),
            ("lct", "snc", "--dim", "2", "--div", "1:3", "--divisor=1:5"),
            ("delpezzo", "deg4", "--lam", "1,1,2", "--out=cert.jsonl"),
            ("oracle", "monomial", "--exp", "1", "2", "--seed=3", "--tol", "0.5"),
            ("count", "--dim", "3", "--cl", "all", "--max-o", "30", "--jobs=2"),
            ("enumerate", "--dim", "3", "--jobs", "2"),
            ("check", "--dim", "2", "2", "3", "5", "17", "--=x"),
            ("lct", "--", "snc", "--dim", "2"),
        ])

    def test_random_argvs(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        rng = random.Random(2701)
        self._assert_parity(
            [*rng.choice(_HEADS), *rng.choices(_WORDS, k=rng.randint(0, 6))]
            for _ in range(1500)
        )

    def test_argv_none_reads_sys_argv(self, monkeypatch):
        for argv in (["lct", "snc", "--dim", "2", "--divisor", "1:3"], ["sylvester", "--k", "2"]):
            monkeypatch.setattr(sys, "argv", ["orbke", *argv])
            assert vars(cli._parse_args()) == vars(cli._build_parser().parse_args())
