"""`src/subhess` holds what a command reaches.

Four `ast` scans.

* Definitions. Roots: `cli.main`, every module-level statement that is not a
  definition (constants, tables, re-exports), and `PERFBENCH_NAMES`, the
  functions the benchmark harness under `perfbench/` calls that no command
  reaches. A reached function or class reaches every module-level definition
  whose name it mentions, in its own module or through a
  `from subhess.<module> import` line (including the ones inside function
  bodies). Any module-level function or class left unreached is code only
  tests use: delete it, or move it into `tests/oracles.py` when it is a test
  oracle.
* Members. A method, property, class-level field or `self.x` set in
  `__init__` is read when its name is loaded as an attribute somewhere in
  `src/` outside its own body, or in `perfbench/*.py`. The fields of
  `SERIALIZED` classes count as read: an artifact writes them through
  `dataclasses.fields`. Dunder methods run implicitly and are not scanned.
  The match is by name, so a member can only be missed, never wrongly
  named.
* Parameters. A defaulted parameter of a function, method or `__init__` in
  `src/` is set, by keyword or by position, by some call in `src/` or in
  `perfbench/*.py`, unless `UNSET_PARAMS` names it with its reason. Calls
  are matched by name, import aliases resolved, and a call of a class is a
  call of its `__init__`; so a parameter can be missed, never wrongly named.
* Imports. Every name a module in `src/` or `tests/` imports is used in it.

`python tests/test_reach.py` prints the number of defaulted parameters in
`src/`.
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

# classes an artifact writes field by field (`area_fractions.json`)
SERIALIZED = ("FractionRow",)

# defaulted parameters no call sets, kept with the reason: (callee, parameter)
UNSET_PARAMS = {
    ("doubling_laminate", "two_p"): "the exact-rational 2^p seam: the identity tests "
                                    "in tests/test_constructions.py pass a rational s",
}

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


def _members(cls: ast.ClassDef) -> list[tuple[int, str, ast.AST | None]]:
    """(line, name, own body or None) of each method, property, class-level
    annotated field and `self.x` assigned in `__init__`."""
    out = []
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            out.append((node.lineno, node.target.id, None))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                out.append((node.lineno, node.name, node))
            elif node.name == "__init__":
                for sub in ast.walk(node):
                    targets = (sub.targets if isinstance(sub, ast.Assign)
                               else [sub.target] if isinstance(sub, ast.AnnAssign) else [])
                    out += [(t.lineno, t.attr, None) for t in targets
                            if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
                            and t.value.id == "self"]
    return out


def _reads(tree: ast.AST) -> list[str]:
    """Every attribute name loaded in `tree`."""
    return [node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]


def unread_members(src: Path = SRC, perfbench: Path = PERFBENCH,
                   serialized: tuple[str, ...] = SERIALIZED) -> list[str]:
    """`module.py:line Class.member` of every class member that neither
    `src/` (outside the member's own body) nor `perfbench/` reads."""
    modules = _modules(src)
    reads: dict[str, int] = {}
    for tree in modules.values():
        for name in _reads(tree):
            reads[name] = reads.get(name, 0) + 1
    bench = {name for path in sorted(perfbench.glob("*.py"))
             for name in _reads(ast.parse(path.read_text(), str(path)))}
    out = []
    for mod, tree in modules.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name in serialized:
                continue
            for line, name, body in _members(cls):
                own = _reads(body).count(name) if body is not None else 0
                if reads.get(name, 0) <= own and name not in bench:
                    out.append((mod, line, f"{cls.name}.{name}"))
    return [f"{mod}.py:{line} {name}" for mod, line, name in sorted(out)]


def _defaulted(tree: ast.Module) -> list[tuple[int, str, str, int | None]]:
    """(line, callee, parameter, position) of each defaulted parameter of a
    function, method or `__init__`. The callee of an `__init__` is its class;
    a method's positions start after `self` or `cls`; a keyword-only
    parameter has position None."""
    out = []

    def visit(node: ast.AST, cls: str | None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                pos = args.posonlyargs + args.args
                if cls is not None and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                               for d in child.decorator_list):
                    pos = pos[1:]
                callee = cls if cls is not None and child.name == "__init__" else child.name
                first = len(pos) - len(args.defaults)
                out.extend((child.lineno, callee, a.arg, i)
                           for i, a in enumerate(pos) if i >= first)
                out.extend((child.lineno, callee, a.arg, None)
                           for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)
            visit(child, None)

    visit(tree, None)
    return out


def _calls(tree: ast.Module) -> list[tuple[str, float, set]]:
    """(callee, positional count, keywords) of each call by name or
    attribute, import aliases resolved. A `*` argument counts as every
    position; a `**` argument puts None among the keywords."""
    aliases = {a.asname: a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               for a in node.names if a.asname}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name is None:
            continue
        n_pos = float("inf") if any(isinstance(a, ast.Starred) for a in node.args) else len(node.args)
        out.append((aliases.get(name, name), n_pos, {k.arg for k in node.keywords}))
    return out


def unset_params(src: Path = SRC, perfbench: Path = PERFBENCH,
                 allowed: dict = UNSET_PARAMS) -> list[str]:
    """`module.py:line callee(parameter)` of every defaulted parameter in
    `src/` that no call in `src/` or `perfbench/*.py` sets."""
    modules = _modules(src)
    trees = [*modules.values(), *(ast.parse(path.read_text(), str(path))
                                  for path in sorted(perfbench.glob("*.py")))]
    calls: dict[str, list[tuple[float, set]]] = {}
    for tree in trees:
        for name, n_pos, keywords in _calls(tree):
            calls.setdefault(name, []).append((n_pos, keywords))
    out = []
    for mod, tree in modules.items():
        for line, callee, param, pos in _defaulted(tree):
            if (callee, param) in allowed:
                continue
            if not any(param in kws or None in kws or (pos is not None and pos < n_pos)
                       for n_pos, kws in calls.get(callee, [])):
                out.append(f"{mod}.py:{line} {callee}({param})")
    return out


def unused_imports(dirs: tuple[Path, ...] = (SRC, TESTS)) -> list[str]:
    """`path:line name` of every imported name its module never uses. A
    package `__init__.py` uses what its `__all__` lists; a name used only
    inside a quoted annotation counts as unused."""
    out = []
    for folder in dirs:
        for path in sorted(folder.glob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            used = _names(tree)
            for node in ast.walk(tree):
                if isinstance(node, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                    used |= {e.value for e in node.value.elts}
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [(a.asname or a.name.split(".")[0]) for a in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                    names = [a.asname or a.name for a in node.names]
                else:
                    continue
                out += [f"{folder.name}/{path.name}:{node.lineno} {name}"
                        for name in names if name not in used]
    return out


def test_every_definition_is_reached():
    assert unreached() == []


def test_every_member_is_read():
    assert unread_members() == []


def test_every_default_is_overridden():
    assert unset_params() == []


def test_every_import_is_used():
    assert unused_imports() == []


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


def _src_copy(tmp_path: Path) -> Path:
    pkg = tmp_path / "subhess"
    pkg.mkdir()
    for path in SRC.glob("*.py"):
        (pkg / path.name).write_text(path.read_text())
    return pkg


def _plant(path: Path, anchor: str, lines: str) -> int:
    """Insert `lines` after the line `anchor`; the line number of the first."""
    text = path.read_text().splitlines(keepends=True)
    at = next(i for i, line in enumerate(text) if line.rstrip() == anchor) + 1
    path.write_text("".join(text[:at]) + lines + "".join(text[at:]))
    return at + 1


def test_member_scan_names_a_planted_unread_field(tmp_path):
    pkg = _src_copy(tmp_path)
    _plant(pkg / "verifier.py", "    ok: bool", "    planted_field: int = 0\n")
    assert unread_members(pkg) == []  # FractionRow is serialized field by field
    line = _plant(pkg / "synthesizer.py", "    grad_step: Iv  # certified sup |grad u_j - grad "
                  "u_{j-1}|", "    planted_field: int = 0\n")
    assert unread_members(pkg) == [f"synthesizer.py:{line} StairLayerReport.planted_field"]


def test_member_scan_names_a_planted_unread_method(tmp_path):
    pkg = _src_copy(tmp_path)
    # a method that only calls itself is still unread
    line = _plant(pkg / "verifier.py", "        return sqrt_iv(Iv(0, self.ball_sq_hi))",
                  "\n    def planted_method(self, k: int) -> Iv:\n"
                  "        return self.planted_method(k - 1) if k else self.mean(0)\n")
    assert unread_members(pkg) == [f"verifier.py:{line + 1} Tally.planted_method"]
    # one read from outside its own body clears it
    with open(pkg / "cli.py", "a") as fh:
        fh.write("\n\ndef _reader(t):\n    return t.planted_method(1)\n")
    assert unread_members(pkg) == []


def test_member_scan_counts_perfbench_and_serialized_reads(tmp_path):
    found = unread_members(perfbench=tmp_path)
    assert [m.split()[1] for m in found] == [
        "ObstacleInstance.xs", "ObstacleInstance.ys",
        "BruteForceResult.floor", "BruteForceResult.patches"]
    found = unread_members(serialized=())
    assert [m.split()[1] for m in found] == ["FractionRow.fraction", "FractionRow.required"]


def test_import_scan_names_a_planted_unused_import(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import os\nimport os.path as osp\nfrom math import pi, tau\n\n\n"
        "def f(x: str) -> float:\n    return pi * osp.sep.count(x)\n")
    assert unused_imports((tmp_path,)) == [f"{tmp_path.name}/mod.py:1 os",
                                           f"{tmp_path.name}/mod.py:3 tau"]


def test_scan_names_an_allowlisted_name_perfbench_lost(tmp_path):
    assert missing_from_perfbench(tmp_path, PERFBENCH_NAMES) == list(PERFBENCH_NAMES)
    assert missing_from_perfbench(names=("no_such_benchmark_call",)) == ["no_such_benchmark_call"]


def test_scan_names_an_import_from_tests(tmp_path):
    pkg = tmp_path / "subhess"
    pkg.mkdir()
    (pkg / "cli.py").write_text("def main():\n    from oracles import eval_all\n")
    assert imports_from_tests(pkg) == ["cli.py:2 oracles"]


def test_param_scan_names_a_planted_unset_parameter(tmp_path):
    pkg = _src_copy(tmp_path)
    line = _plant(pkg / "verifier.py", "ZERO = Iv(0)",
                  "\n\ndef planted(x, knob=1, *, flag=False):\n    return x + knob\n"
                  "\n\nclass Planted:\n    def __init__(self, a, b=0):\n        self.a = a + b\n"
                  "\n    def method(self, c=0):\n        return c\n")
    with open(pkg / "cli.py", "a") as fh:
        fh.write("\n\ndef _caller(obj):\n    return planted(1), Planted(1), obj.method()\n")
    assert unset_params(pkg) == [f"verifier.py:{line + 2} planted(knob)",
                                 f"verifier.py:{line + 2} planted(flag)",
                                 f"verifier.py:{line + 7} Planted(b)",
                                 f"verifier.py:{line + 10} method(c)"]
    # positions count after `self`, and a call through an import alias counts
    with open(pkg / "obstacle.py", "a") as fh:
        fh.write("\n\nfrom subhess.verifier import planted as alias, Planted as P\n\n\n"
                 "def _setter(obj):\n    return alias(1, 2, flag=True), P(1, 2), obj.method(3)\n")
    assert unset_params(pkg) == []


def test_param_allowlist_entries_are_still_unset():
    found = unset_params(allowed={})
    assert [entry.split()[1] for entry in found] == [
        f"{callee}({param})" for callee, param in UNSET_PARAMS]


if __name__ == "__main__":
    print(f"defaulted parameters in src/: "
          f"{sum(len(_defaulted(tree)) for tree in _modules(SRC).values())}")
