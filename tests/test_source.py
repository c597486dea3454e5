"""Properties of the package source itself."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import orbke

SRC = Path(orbke.__file__).resolve().parent


def test_no_assert_statements():
    # `python -O` strips assert statements, so an invariant written as one
    # would silently stop being checked.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_oracle_randomness_comes_from_shell_streams():
    # Estimates are bit-reproducible only because the one draw of a run
    # comes from a Philox generator keyed by the seed in _rng; any other
    # numpy.random entry point would break that.
    tree = ast.parse((SRC / "oracle.py").read_text())
    used = [
        (node.attr, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "random"
        and isinstance(node.value.value, ast.Name)
        and node.value.value.id in ("np", "numpy")
    ]
    assert {name for name, _ in used} == {"Generator", "Philox"}
    rng = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_rng"
    )
    inside = range(rng.lineno, rng.end_lineno + 1)
    assert all(line in inside for _, line in used)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[-1] == "random" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert (node.module or "").split(".")[-1] != "random"


def test_cli_envelope_is_stamped_only_in_main():
    # main stamps "version" and "elapsed_s" on every record; a handler that
    # read the version or the clock itself would be growing its own envelope.
    # The one other reader is the parser's own `--version` flag.
    tree = ast.parse((SRC / "cli.py").read_text())
    used = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "__version__")
        or (isinstance(node, ast.Attribute) and node.attr == "perf_counter")
    ]
    functions = {
        node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    main = functions["main"]
    inside = range(main.lineno, main.end_lineno + 1)
    version_flag = [
        node.lineno
        for node in ast.walk(functions["_build_parser"])
        if isinstance(node, ast.Call) and node.args
        and isinstance(node.args[0], ast.Constant) and node.args[0].value == "--version"
    ]
    assert used and all(line in inside or line in version_flag for line in used)


def test_cli_main_catches_only_the_two_error_families():
    # The exit-code policy comes from the two error families (InputError
    # exits 1, ResourceLimitExceeded 2) plus argparse's SystemExit; a new
    # error type joins a family rather than growing its own clause in main.
    tree = ast.parse((SRC / "cli.py").read_text())
    main = next(
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "main"
    )
    caught = [
        ast.unparse(node.type) if node.type else "<bare except>"
        for node in ast.walk(main)
        if isinstance(node, ast.ExceptHandler)
    ]
    assert sorted(caught) == ["InputError", "ResourceLimitExceeded", "SystemExit"]


def test_exact_modules_have_no_floats():
    # Counts and verdicts are exact: the search and its arithmetic use no
    # true division, float literal, float() call or numpy.
    for name in ("enumeration.py", "exactmath.py"):
        tree = ast.parse((SRC / name).read_text())
        found = []
        for node in ast.walk(tree):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                found.append(("/", node.lineno))
            elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                found.append(("float literal", node.lineno))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
                found.append(("float()", node.lineno))
            elif isinstance(node, ast.Import) and any(a.name.split(".")[0] == "numpy" for a in node.names):
                found.append(("numpy", node.lineno))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
                found.append(("numpy", node.lineno))
        assert found == [], name


def test_only_oracle_imports_numpy():
    # numpy serves the Monte-Carlo oracle alone; the exact modules, the CLI
    # and the package root reach it only through oracle.py.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                found.append(path.name)
    assert set(found) == {"oracle.py"}


def test_integer_checks_go_through_check_int():
    # errors.check_int is the one integer rule (any Integral but bool, as a
    # plain int); a hand-rolled isinstance(_, int) elsewhere would drift
    # from it, as the copies in lct and oracle once rejected numpy integers.
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2):
                continue
            kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            if any(isinstance(k, ast.Name) and k.id == "int" for k in kinds):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_module_reads_the_environment():
    # Every knob is an argument or a config field; a setting read from the
    # environment would be a second, invisible way to ask for the same thing.
    names = {"environ", "getenv", "putenv"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Attribute) and node.attr in names
                    and isinstance(node.value, ast.Name) and node.value.id == "os"):
                found.append(f"{path.name}:{node.lineno}")
            elif (isinstance(node, ast.ImportFrom) and node.module == "os"
                    and any(a.name in names for a in node.names)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _users(name):
    """The innermost function around each use of `name` in the package source."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Name) and node.id == name) or (
                    isinstance(node, ast.Attribute) and node.attr == name):
                enclosing = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                found.add(min(enclosing, key=lambda f: f.end_lineno - f.lineno).name
                          if enclosing else "<module>")
    return found


def test_only_the_plan_walks_the_search_tree():
    # _Search.plan is the one walk of the search tree, and it alone asks
    # for the window of a prefix's next order; a second caller of
    # _next_window would be a second walk for count, materialize or the
    # pool to keep in step with it.
    assert _users("_next_window") == {"plan"}


def test_only_last_windows_clips_the_cut_points():
    # _last_windows is the one caller of _cuts: materialize mode's leaves
    # and admissible_last_interval read their class windows from it, so a
    # second caller would be a second copy of the clipping to keep in step
    # with it.  Count mode's flat leaf pass solves the same cut points
    # inline, without _cuts; test_enumeration.py::TestFlatLeafPass guards
    # that copy, leaf by leaf against _last_windows.
    assert _users("_cuts") == {"_last_windows"}


def test_only_usable_cpus_reads_the_cpu_count():
    # enumeration.usable_cpus is the one reader of the CPU count: the pool
    # sizes itself from it, so a second reader could let another part of
    # the program see a different machine.
    assert _users("sched_getaffinity") == {"usable_cpus"}
    assert _users("cpu_count") == {"usable_cpus"}


def test_verdict_fields_decides_every_label():
    # orbifold.verdict_fields is the one place a label is decided:
    # fano_fields calls it for a tuple of orders and the search's blocks
    # with the sums of each block's end rows.  Neither blocks nor the rows
    # flattened from them re-derive a tuple through fano_fields, and both
    # sieve their last coordinates rather than taking a gcd per one.
    assert _users("verdict_fields") == {"fano_fields", "blocks"}
    assert {"blocks", "rows"}.isdisjoint(_users("fano_fields"))
    assert {"blocks", "rows"}.isdisjoint(_users("gcd"))


def test_recount_imports_only_the_standard_library():
    # tests/test_recount.py reproduces the frozen counts by a path that
    # shares no code with the package: it imports no orbke module, and no
    # test helper either, since those import orbke.
    path = Path(__file__).with_name("test_recount.py")
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            found.append("." * node.level + (node.module or ""))
    assert found and all(name.split(".")[0] in sys.stdlib_module_names for name in found), found
