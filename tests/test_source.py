"""Properties of the package source itself."""

from __future__ import annotations

import ast
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
    # Estimates are bit-reproducible under any (lambda, shell) schedule only
    # because every stream is a Philox generator keyed by (seed, shell) in
    # _shell_rng; any other numpy.random entry point would break that.
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
    shell_rng = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_shell_rng"
    )
    inside = range(shell_rng.lineno, shell_rng.end_lineno + 1)
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
