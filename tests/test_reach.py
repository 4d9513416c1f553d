"""`src/subhess` holds what a command reaches.

An `ast` name scan of the package. Roots: `cli.main`, every module-level
statement that is not a definition (constants, tables, re-exports), and
`PERFBENCH_NAMES`, the functions the benchmark harness under `perfbench/`
calls that no command reaches. A reached function or class reaches every
module-level definition whose name it mentions, in its own module or through
a `from subhess.<module> import` line (including the ones inside function
bodies). Any module-level function or class left unreached is code only tests
use: delete it, or move it into `tests/oracles.py` when it is a test oracle.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "subhess"
TESTS = ROOT / "tests"
PERFBENCH = ROOT / "perfbench"

PERFBENCH_NAMES = ("doubling_cascade", "hessian_l1", "neg_part_lq", "potential_report")

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _modules(src: Path) -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(src.glob("*.py"))}


def _imports(tree: ast.Module) -> dict[str, tuple[str, str]]:
    """Local name -> (module, name) of every `from subhess.<module> import`
    in the module, at any depth."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module \
                and node.module.startswith("subhess."):
            mod = node.module.split(".", 1)[1]
            for alias in node.names:
                out[alias.asname or alias.name] = (mod, alias.name)
    return out


def _names(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def unreached(src: Path = SRC, extra_roots: tuple[str, ...] = PERFBENCH_NAMES) -> list[str]:
    """`module.py:line name` of every module-level function or class that
    no root reaches."""
    modules = _modules(src)
    defs = {(mod, node.name): node for mod, tree in modules.items()
            for node in tree.body if isinstance(node, _DEFS)}
    imports = {mod: _imports(tree) for mod, tree in modules.items()}

    def resolve(mod: str, names: set[str]) -> list[tuple[str, str]]:
        out = []
        for name in names:
            if (mod, name) in defs:
                out.append((mod, name))
            elif name in imports[mod]:
                out.append(imports[mod][name])
        return out

    todo = [("cli", "main")]
    todo += [key for key in defs if key[1] in extra_roots]
    for mod, tree in modules.items():
        for stmt in tree.body:
            if not isinstance(stmt, _DEFS):
                todo += resolve(mod, _names(stmt))
    seen: set[tuple[str, str]] = set()
    while todo:
        key = todo.pop()
        if key in seen or key not in defs:
            continue
        seen.add(key)
        todo += resolve(key[0], _names(defs[key]))
    left = sorted((mod, node.lineno, name) for (mod, name), node in defs.items()
                  if (mod, name) not in seen)
    return [f"{mod}.py:{line} {name}" for mod, line, name in left]


def missing_from_perfbench(perfbench: Path = PERFBENCH,
                           names: tuple[str, ...] = PERFBENCH_NAMES) -> list[str]:
    text = "\n".join(path.read_text() for path in sorted(perfbench.glob("*.py")))
    return [name for name in names if not re.search(rf"\b{name}\b", text)]


def imports_from_tests(src: Path = SRC, tests: Path = TESTS) -> list[str]:
    """`module.py:line module` of every import of a `tests/` module in src."""
    test_modules = {"tests"} | {path.stem for path in tests.glob("*.py")}
    out = []
    for mod, tree in _modules(src).items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                targets = [node.module]
            else:
                continue
            out += [f"{mod}.py:{node.lineno} {t}" for t in targets
                    if t.split(".")[0] in test_modules]
    return out


def test_every_definition_is_reached():
    assert unreached() == []


def test_allowlist_is_called_by_perfbench():
    assert missing_from_perfbench() == []


def test_src_does_not_import_tests():
    assert imports_from_tests() == []


def test_scan_names_a_planted_unreached_definition(tmp_path):
    pkg = tmp_path / "subhess"
    pkg.mkdir()
    for path in SRC.glob("*.py"):
        (pkg / path.name).write_text(path.read_text())
    with open(pkg / "verifier.py", "a") as fh:
        fh.write("\n\ndef planted_unreached():\n    return tally\n")
    found = unreached(pkg)
    assert len(found) == 1 and found[0].endswith(" planted_unreached")
    assert found[0].startswith("verifier.py:")


def test_scan_names_an_allowlisted_name_perfbench_lost(tmp_path):
    assert missing_from_perfbench(tmp_path, PERFBENCH_NAMES) == list(PERFBENCH_NAMES)
    assert missing_from_perfbench(names=("no_such_benchmark_call",)) == ["no_such_benchmark_call"]


def test_scan_names_an_import_from_tests(tmp_path):
    pkg = tmp_path / "subhess"
    pkg.mkdir()
    (pkg / "cli.py").write_text("def main():\n    from oracles import eval_all\n")
    assert imports_from_tests(pkg) == ["cli.py:2 oracles"]
