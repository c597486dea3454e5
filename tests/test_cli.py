"""CLI surface: certificates, formats, exit-code policy, and round-trips."""

from __future__ import annotations

import argparse
import csv
import io
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import orbke
from orbke import __version__, cli

from conftest import json_records


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

    def test_count_only(self, run_cli):
        code, out, _ = run_cli("enumerate", "--dim", "2", "--count-only")
        assert code == 0
        (rec,) = json_records(out)
        assert rec["counts"] == {"NewOnlyKE": 12}
        assert rec["nodes_visited"] >= 1

    def test_count_alias(self, run_cli):
        code, out, _ = run_cli("count", "--dim", "2")
        assert code == 0
        (rec,) = json_records(out)
        assert rec["command"] == "count"
        assert rec["counts"] == {"NewOnlyKE": 12}

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

    def test_stream_echoes_the_serial_run(self, run_cli):
        code, out, _ = run_cli("enumerate", "--dim", "2", "--jobs", "4")
        assert code == 0
        assert json_records(out)[-1]["input"]["jobs"] == 1

    def test_jobs_env_default(self, run_cli, monkeypatch):
        monkeypatch.setenv("ORBKE_JOBS", "2")
        code, out, _ = run_cli("count", "--dim", "2")
        assert code == 0
        (rec,) = json_records(out)
        assert rec["counts"] == {"NewOnlyKE": 12}

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_jobs_env_below_one_exits_one(self, run_cli, monkeypatch, value):
        monkeypatch.setenv("ORBKE_JOBS", value)
        code, out, err = run_cli("count", "--dim", "2")
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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--seed", str(2**64)), "seed"),
            (("--seed", str(2**63)), "seed"),
            (("--cutoffs", "1,0.5,0.25,0.125,0.0625"), "(0, 1)"),
            (("--grid", "1:1000000000:1"), "grid has 1000000000 points"),
            (("--samples", "4000001"), "array cells"),
            (("--samples", "1000000", "--grid", "1:201:1",
              "--cutoffs", "0.5,0.25,0.125,0.0625,0.03125"), "evaluations"),
            (("--n", "4001", "--samples", "1000"), "array cells"),
            (("--tol", "inf"), "tolerance"),
        ],
    )
    def test_rejected_before_sampling(self, run_cli, argv, message):
        target = ("bp",) if "--n" in argv else ("monomial", "--exponents", "1")
        code, out, err = run_cli("oracle", *target, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and message in err

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
    src = str(Path(orbke.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "orbke.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path, "COLUMNS": "80"},
    )
    return proc.returncode, proc.stdout, proc.stderr


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
        assert [code for code, _, _ in reused] == [0, 0, 0, 0, 1, 0, 0, 0, 0, 0]
