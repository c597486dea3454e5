"""`orbke enumerate` streams: the bytes, the cross-check and the item values.

The command renders its items from the search's integer rows with one
fixed line template per format.  These tests hold it to a reference
rendering that builds each item dict from `iter_tuples` and `classify` and
writes it through the generic `Emitter.write`, to the cross-check between
the solved class window and the re-derived verdict, and to plain Fraction
arithmetic on every item.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import random
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import orbke
from orbke import SearchConfig, __version__, cli, enumeration, iter_tuples, orbifold
from orbke.errors import NodeBudgetExceeded
from orbke.orbifold import CLASSIFICATIONS

from conftest import json_records, reference_items

FORMATS = ("json", "csv", "text")
CLASSES = {"new-only": ("NewOnlyKE",), "old": ("OldKE",), "all": CLASSIFICATIONS}
# The infinite classes need a cap.  Up to 60, dimension 2 has 50,257 tuples
# and dimension 3 has 185,132, too many for a quick test; the caps below
# keep each stream under 10,000 items, and dimension 3 still shows all four
# verdicts.
ALL_CAP = {1: 60, 2: 40, 3: 30}


@pytest.fixture
def frozen_clock(monkeypatch):
    """Pin the CLI's clock, so every elapsed_s reads 0.0 and streams compare byte for byte."""
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: 0.0))


def _argv(dim, klass):
    argv = ["enumerate", "--dim", str(dim), "--class", klass]
    if klass == "all":
        argv += ["--max-order", str(ALL_CAP[dim])]
    return argv


def _reference_streams(klass, **search):
    """{format: text} of the stream of the search with SearchConfig fields search.

    Each item dict is built from iter_tuples and classify and written with
    `Emitter.write`; a stream the node cap stops has no summary.
    """
    cfg = SearchConfig(classes=CLASSES[klass], **search)
    outs = {fmt: io.StringIO() for fmt in FORMATS}
    emitters = [cli.Emitter(fmt, out) for fmt, out in outs.items()]
    counts = dict.fromkeys(cfg.classes, 0)
    try:
        for item in reference_items(cfg):
            counts[item["classification"]] += 1
            for emit in emitters:
                emit.write(item)
    except NodeBudgetExceeded:
        return {fmt: out.getvalue() for fmt, out in outs.items()}
    summary = {
        "command": "enumerate",
        "version": __version__,
        "input": {
            "dim": cfg.n, "class": klass, "count_only": False, "max_order": cfg.max_order,
            "min_order": cfg.min_order, "jobs": 1, "max_nodes": cfg.node_cap,
        },
        "counts": counts,
        "verdict": "complete",
        "caveats": [cli.CONTACT_NOTE],
        "elapsed_s": 0.0,
    }
    for emit in emitters:
        emit.write(summary)
    return {fmt: out.getvalue() for fmt, out in outs.items()}


def _assert_streams(run_cli, tmp_path, argv, code, want):
    """argv writes want[fmt] and exits code in every format, on stdout and through --out."""
    for fmt in FORMATS:
        got = run_cli(*argv, "--format", fmt)
        assert got[:2] == (code, want[fmt]), fmt
        path = tmp_path / f"stream.{fmt}"
        got = run_cli(*argv, "--format", fmt, "--out", str(path))
        assert got[:2] == (code, "")
        assert path.read_text() == want[fmt], fmt


class TestByteIdentity:
    @pytest.mark.parametrize("klass", list(CLASSES))
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_stream_equals_reference(self, run_cli, frozen_clock, tmp_path, dim, klass):
        max_order = ALL_CAP[dim] if klass == "all" else None
        want = _reference_streams(klass, n=dim, max_order=max_order)
        _assert_streams(run_cli, tmp_path, _argv(dim, klass), 0, want)

    # (argv, exit code, SearchConfig fields, class) of the streams at the
    # edges of the item renderer.
    EDGES = {
        # The item 1;1;1 has c1 "2", with P = 1.
        "unit-orders": (
            ["enumerate", "--dim", "1", "--allow-unit-orders", "--class", "all",
             "--max-order", "6"],
            0, {"n": 1, "min_order": 1, "max_order": 6}, "all",
        ),
        # No item: csv prints the summary's header only.
        "empty": (["enumerate", "--dim", "4", "--max-order", "10"], 0,
                  {"n": 4, "max_order": 10}, "new-only"),
        # The node cap stops the stream after 50 items: exit 2, no summary.
        "capped": (["enumerate", "--dim", "3", "--max-nodes", "20"], 2,
                   {"n": 3, "node_cap": 20}, "new-only"),
    }

    @pytest.mark.parametrize("case", list(EDGES))
    def test_edge_stream_equals_reference(self, run_cli, frozen_clock, tmp_path, case):
        argv, code, search, klass = self.EDGES[case]
        want = _reference_streams(klass, **search)
        _assert_streams(run_cli, tmp_path, argv, code, want)
        lines = want["json"].splitlines()
        items = [r for r in json_records(want["json"]) if r["command"] == "enumerate-item"]
        if case == "unit-orders":
            assert {"command": "enumerate-item", "orders": [1, 1, 1],
                    "classification": "NoCriterion", "c1": "2", "old_ok": False,
                    "new_ok": False} in items
        elif case == "empty":
            assert (len(lines), items) == (1, [])
            # The summary's header and its row, nothing else.
            header, row = want["csv"].splitlines()
            assert header.startswith("command,version,input.dim,")
            assert row.startswith("enumerate,")
        else:
            assert (len(lines), len(items)) == (50, 50)

    def test_dim4_stream_equals_reference(self, run_cli, frozen_clock, tmp_path):
        """Dimension 4, whose stream the certify benchmark times: 3,822 items up to order 120."""
        want = _reference_streams("new-only", n=4, max_order=120)
        assert want["json"].count('"enumerate-item"') == 3822
        argv = ["enumerate", "--dim", "4", "--max-order", "120"]
        _assert_streams(run_cli, tmp_path, argv, 0, want)

    # sha256 of each stream of `enumerate --dim 3 --class all --max-order 30`
    # with elapsed_s 0.0, as written before items were built from rows, with
    # the summary's contact-structure caveat in its homology-sphere wording;
    # this pins the emitter's own bytes, which the reference above shares.
    DIGESTS = {
        "json": "aba8a9fdaa73a2ebaf6412ea1e7282f379ca6d46e8f25cee2daca34329cd76ca",
        "csv": "4682eeac700af39abdcba82c842a44e3314b2d6b8553a246040d10966b30ab4f",
        "text": "314d5ace0f8d695a89acbaf6519978f20ba5bd4fb41bac7c9163702036365451",
    }

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_stream_digest(self, run_cli, frozen_clock, fmt):
        code, out, _ = run_cli(*_argv(3, "all"), "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[fmt]


class TestFastPath:
    """Items skip the generic path: no dict through `Emitter.write`, no `json.dumps`."""

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_only_the_summary_takes_the_generic_path(self, run_cli, monkeypatch, fmt):
        written = []
        dumped = []
        write, dumps = cli.Emitter.write, cli.json.dumps

        def recording_write(self, record):
            written.append(record["command"])
            return write(self, record)

        def counting_dumps(*args, **kwargs):
            dumped.append(args)
            return dumps(*args, **kwargs)

        monkeypatch.setattr(cli.Emitter, "write", recording_write)
        monkeypatch.setattr(cli.json, "dumps", counting_dumps)
        code, out, _ = run_cli("enumerate", "--dim", "3", "--format", fmt)
        assert code == 0
        assert out.count("enumerate-item") == 2484
        assert written == ["enumerate"]
        assert len(dumped) == (fmt == "json")


def _shift_old_cut(N, P, n, cuts=enumeration._cuts):
    """_cuts with the OldKE cut moved up by one, so one order lands in the wrong window."""
    a, b, tail = cuts(N, P, n)
    return a + 1, b, tail


# The first tuple the shifted cut misfiles: the prefix sums below 1, so its
# last order, the cut itself, is the first order of the NotFano tail.
MISFILED = "(2, 3, 7, 47, 395) solved into OldKE but classifies as NotFano"


class TestCrossCheck:
    def test_iter_tuples_raises(self, monkeypatch):
        monkeypatch.setattr(enumeration, "_cuts", _shift_old_cut)
        with pytest.raises(AssertionError) as info:
            list(iter_tuples(SearchConfig(n=3, classes=("OldKE",))))
        assert str(info.value) == MISFILED

    def test_cli_raises(self, run_cli, monkeypatch):
        monkeypatch.setattr(enumeration, "_cuts", _shift_old_cut)
        with pytest.raises(AssertionError) as info:
            run_cli("enumerate", "--dim", "3", "--class", "old")
        assert str(info.value) == MISFILED

    def test_raises_under_optimize(self):
        script = (
            "import os, sys\n"
            "from orbke import SearchConfig, cli, enumeration, iter_tuples\n"
            "cuts = enumeration._cuts\n"
            "def shifted(N, P, n):\n"
            "    a, b, tail = cuts(N, P, n)\n"
            "    return a + 1, b, tail\n"
            "enumeration._cuts = shifted\n"
            "print(sys.flags.optimize)\n"
            "runs = (\n"
            "    lambda: list(iter_tuples(SearchConfig(n=3, classes=('OldKE',)))),\n"
            "    lambda: cli.main(['enumerate', '--dim', '3', '--class', 'old',\n"
            "                      '--out', os.devnull]),\n"
            ")\n"
            "for run in runs:\n"
            "    try:\n"
            "        run()\n"
            "    except AssertionError as exc:\n"
            "        print(exc)\n"
            "    else:\n"
            "        print('no error')\n"
        )
        src = str(Path(orbke.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["1", MISFILED, MISFILED]


def _shift_new_cut(N, P, n, cuts=enumeration._cuts):
    """_cuts with the NewOnlyKE cut of a sum above 1 moved up by one: the NoCriterion cut order joins the window."""
    a, b, tail = cuts(N, P, n)
    return a, b + (tail == "NoCriterion"), tail


def _lower_old_cut(N, P, n, cuts=enumeration._cuts):
    """_cuts with the OldKE cut moved down by one, so the last OldKE order opens the next window."""
    a, b, tail = cuts(N, P, n)
    return a - 1, b, tail


# The head (2, 3, 7, 11, 23) has NewOnlyKE last orders 25, 29 and 31, one
# block, and its NoCriterion cut 37 is coprime to it: the shifted cut adds
# 37 at the end of the window.
NEW_HEAD = (2, 3, 7, 11, 23)
NEW_MISFILED = "(2, 3, 7, 11, 23, 37) solved into NewOnlyKE but classifies as NoCriterion"


class TestBlockCrossCheck:
    """Each block is checked at both ends before it is yielded."""

    def test_last_row_of_a_window(self, monkeypatch):
        cfg = SearchConfig(n=4, prefix_filter=NEW_HEAD)
        blocks = list(enumeration.iter_row_blocks(cfg))
        assert [(head, ms) for head, *_, ms in blocks] == [(NEW_HEAD, [25, 29, 31])]
        monkeypatch.setattr(enumeration, "_cuts", _shift_new_cut)
        for run in (enumeration.iter_row_blocks, enumeration.iter_rows, iter_tuples):
            got = []
            with pytest.raises(AssertionError) as info:
                got.extend(run(cfg))
            assert str(info.value) == NEW_MISFILED
            # The misfiled block reaches no consumer, not even its good rows.
            assert got == []

    def test_cli_raises_on_a_shifted_new_cut(self, run_cli, monkeypatch):
        monkeypatch.setattr(enumeration, "_cuts", _shift_new_cut)
        with pytest.raises(AssertionError) as info:
            run_cli("enumerate", "--dim", "4", "--max-order", "60")
        assert str(info.value) == ("(2, 3, 5, 11, 19, 23) solved into NewOnlyKE but "
                                   "classifies as NoCriterion")

    def test_first_row_of_a_window(self, monkeypatch):
        monkeypatch.setattr(enumeration, "_cuts", _lower_old_cut)
        with pytest.raises(AssertionError) as info:
            list(enumeration.iter_rows(SearchConfig(n=3, classes=("OldKE", "NewOnlyKE"))))
        assert str(info.value) == ("(2, 3, 7, 29, 31) solved into NewOnlyKE but "
                                   "classifies as OldKE")

    def test_cli_checks_each_head_in_lowest_terms(self, run_cli, monkeypatch):
        # A head whose reciprocal sum 6/8 is not in lowest terms would print
        # unreduced c1 values; the command refuses it before its first item.
        block = ((2, 4), 8, 6, (True, False, True, "NewOnlyKE"), [5])
        monkeypatch.setattr(cli, "iter_row_blocks", lambda cfg: iter([block]))
        with pytest.raises(AssertionError) as info:
            run_cli("enumerate", "--dim", "1")
        assert str(info.value) == "(2, 4) has reciprocal sum 6/8 out of lowest terms"

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_one_write_per_block(self, monkeypatch, fmt):
        cfg = SearchConfig(n=4, max_order=180)
        blocks = sum(1 for _ in enumeration.iter_row_blocks(cfg))
        out = _CountingOut()
        monkeypatch.setattr(cli.sys, "stdout", out)
        assert cli.main(["enumerate", "--dim", "4", "--max-order", "180", "--format", fmt]) == 0
        assert out.getvalue().count("enumerate-item") == 9032
        # The items come in one write per block.
        assert sum("enumerate-item" in text for text in out.writes) == blocks


class _CountingOut(io.StringIO):
    """A StringIO that keeps the text of each write."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


def _coprime_blocks(seed, n):
    """Seeded row blocks (head, Ph, Nh, verdict, ms) of pairwise coprime orders of dimension n.

    Each head has n + 1 sorted orders, some of them units, and its last
    orders are grouped into blocks of one verdict, as `iter_row_blocks`
    yields them.  Dimension 5 has products above 10**13; the last head is
    all units with m = 1, the item whose c1 is the integer n + 1.
    """
    rng = random.Random(seed * 10 + n)
    heads = []
    for _ in range(12):
        head = [1] * rng.randint(0, n)
        while len(head) < n + 1:
            a = rng.randint(2, 3000)
            if all(math.gcd(a, b) == 1 for b in head):
                head.append(a)
        heads.append(tuple(sorted(head)))
    heads.append((1,) * (n + 1))
    blocks = []
    for head in heads:
        Ph = math.prod(head)
        Nh = sum(Ph // a for a in head)
        ms = [1] if Ph == 1 else []
        while len(ms) < 8:
            m = rng.randint(max(head[-1], 2), 4000)
            if math.gcd(m, Ph) == 1 and m not in ms:
                ms.append(m)
        ms.sort()
        verdicts = [orbifold.fano_fields(n, head + (m,))[3:] for m in ms]
        for i, m in enumerate(ms):
            if i and verdicts[i] == verdicts[i - 1]:
                blocks[-1][4].append(m)
            else:
                blocks.append((head, Ph, Nh, verdicts[i], [m]))
    return blocks


class TestRatioText:
    """The c1 of a streamed item reads as str(Fraction(D, P)), though no Fraction is built."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_fraction(self, run_cli, monkeypatch, seed):
        built = _spy(monkeypatch, cli)
        pairs = []
        for n in range(1, 6):
            blocks = _coprime_blocks(seed, n)
            monkeypatch.setattr(cli, "iter_row_blocks", lambda cfg: iter(blocks))
            code, out, _ = run_cli("enumerate", "--dim", str(n), "--class", "all",
                                   "--allow-unit-orders", "--max-order", "4000")
            assert code == 0
            items = [r for r in json_records(out) if r["command"] == "enumerate-item"]
            assert len(items) == sum(len(ms) for *_, ms in blocks)
            for item in items:
                _, D, P, *_ = orbifold.fano_fields(n, tuple(item["orders"]))
                assert item["c1"] == str(Fraction(D, P)), item["orders"]
                pairs.append((n, D, P))
        assert built == []
        # The edges are all there: NotFano's D < 0, P = 1 with D a multiple
        # of P (c1 "n + 1" with unit orders) and dimension-5 products.
        assert any(D < 0 for _, D, _ in pairs)
        assert {(n, D) for n, D, P in pairs if P == 1} == {(n, n + 1) for n in range(1, 6)}
        assert any(P > 10**13 for n, _, P in pairs if n == 5)

    def test_unit_orders_item(self, run_cli):
        # Orders 1;1;1: D = 2, P = 1, and every format writes c1 as "2".
        _, D, P, *_ = orbifold.fano_fields(1, (1, 1, 1))
        assert (D, P) == (2, 1)
        argv = ("enumerate", "--dim", "1", "--allow-unit-orders", "--class", "all",
                "--max-order", "1")
        want = {
            "json": '"orders": [1, 1, 1], "classification": "NoCriterion", "c1": "2",',
            "csv": "enumerate-item,1;1;1,NoCriterion,2,",
            "text": "orders = 1;1;1\nclassification = NoCriterion\nc1 = 2\n",
        }
        for fmt, text in want.items():
            code, out, _ = run_cli(*argv, "--format", fmt)
            assert code == 0 and out.count("enumerate-item") == 1, fmt
            assert text in out, fmt


def _spy(monkeypatch, module):
    """Count the Fractions that module builds; the list grows by one per build."""
    built = []

    def counting(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(module, "Fraction", counting)
    return built


class TestAgreement:
    def test_items_match_fraction_arithmetic(self, run_cli, monkeypatch):
        cli_built = _spy(monkeypatch, cli)
        report_built = _spy(monkeypatch, orbifold)
        code, out, _ = run_cli("enumerate", "--dim", "3", "--class", "all", "--max-order", "30")
        assert code == 0
        items = [r for r in json_records(out) if r["command"] == "enumerate-item"]
        assert len(items) == 3915
        # No Fraction per item: c1 comes from one gcd, and no report is built.
        assert (cli_built, report_built) == ([], [])
        n = 3
        for item in items:
            orders = item["orders"]
            c1 = sum(Fraction(1, m) for m in orders) - 1
            old_ok = c1 < Fraction(n + 1, n * max(orders))
            new_ok = c1 < Fraction(n + 1, max(orders))
            label = ("NotFano" if c1 <= 0 else "OldKE" if old_ok
                     else "NewOnlyKE" if new_ok else "NoCriterion")
            got = (item["c1"], item["old_ok"], item["new_ok"], item["classification"])
            assert got == (str(c1), old_ok, new_ok, label), orders
        assert {item["classification"] for item in items} == set(CLASSIFICATIONS)
