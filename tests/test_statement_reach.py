"""Every statement in `src/subhess` runs under a command or a benchmark call.

The fifth reach scan, at the level of statements (`test_reach.py` holds the
other four). It has two parts.

* The driver, `trace()`. In a fresh interpreter it installs a line tracer
  limited to `src/subhess`, imports `subhess`, and then runs `COMMANDS`
  through `cli.main`, each into a directory of its own: the reference and
  refusal commands of `commands.ROWS`, among them one run with decimals
  longer than the interpreter's int -> str digit limit, two `--config` cases
  and one `obstacle solve --obstacle file.csv` case. It then calls the
  `PERFBENCH_NAMES` functions of `test_reach.py` on a small cascade, as the
  `cascade-deep` benchmark workload calls them. It returns the executed lines of each module.
* The classifier, `classify()`, is pure: it takes module sources and
  executed lines and sorts every statement into reached, exempt or
  unreached. A statement is reached when any line of it fires, its body
  included; a multi-line statement fires on different lines under
  Python 3.10 and 3.11, and this rule reads both alike. Exempt are `raise`
  and `assert` statements, except-handler bodies, the `__main__` guard, and
  statements that do nothing (docstrings, `pass`, `global`, `nonlocal`).

Any other unreached statement must sit in a function that `UNREACHED` names,
with the input, fault or acceptance criterion that reaches it. An entry is
stale, and fails the scan, when its function is gone or fully reached.

`python tests/test_statement_reach.py` prints how many statements are
reached, exempt and allowlisted.
"""

from __future__ import annotations

import ast
import inspect
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction as F
from pathlib import Path

from commands import ROWS, prepare
from test_reach import PERFBENCH_NAMES

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "subhess"

# (exit status, argv) of each traced `cli.main` run, each from the working
# directory that holds the files the config and obstacle-file rows read
COMMANDS = tuple((row.status, list(row.argv)) for row in ROWS)

# functions holding statements no traced run reaches: qualname -> what reaches them
UNREACHED: dict[str, str] = {
    "cli._run_laminate": "a moment-table row whose direct and recursion enclosures are "
                         "disjoint: the shifted constant planted in tests/test_cli.py "
                         "TestVerdictGate",
    "laminate.elementary_split.rebuild": "splitting an atom that follows a whole split "
                                         "subtree in depth-first order (tests/test_laminate.py "
                                         "test_split_of_each_position[2])",
    "obstacle.radial_instance": "`obstacle solve --obstacle radial-flat`, the unpinned "
                                "radial datum (tests/test_obstacle.py "
                                "test_superharmonic_verdict_and_feasibility)",
    "obstacle.self_obstacle_suite": "a deviation column that grows under refinement, "
                                    "planted in tests/test_obstacle.py "
                                    "test_growing_deviation_gets_a_suggestion",
    "scalars.Iv.__reduce__": "pickle and deepcopy of an Iv or of a potential holding them "
                             "(test_pickle_and_deepcopy in tests/test_scalars.py and "
                             "tests/test_synthesizer.py)",
    "scalars.Iv.__mul__": "a negative exact factor: the exact-rational laminate SIMPLE of "
                          "tests/test_verifier.py test_continuity_audit_rational_exact",
    "scalars._dy": "a rounding that carries into a new mantissa bit: tests/test_scalars.py "
                   "TestDy test_rounding_carry_keeps_the_mantissa_bound",
    "scalars.Dy.__eq__": "comparing a Dy with a value that is not an interval, such as None "
                         "(tests/test_scalars.py TestDy test_exact_dyadics_stay_exact)",
    "scalars.Iv.__truediv__": "a negative exact divisor: `realize --p 81`, the largest p "
                              "below T_BITS + 2 (tests/test_cli.py "
                              "test_p_within_t_bits_accepted)",
    "scalars.Iv.__eq__": "comparing an Iv with a value that is not an exact rational, "
                         "such as None (tests/test_scalars.py test_equality_and_hash)",
    "scalars.Iv.__hash__": "an Iv in a set or as a dict key, and so a frozen SymMat2 "
                           "(tests/test_scalars.py test_equality_and_hash)",
    "scalars.Iv.__repr__": "an assertion message that shows an Iv: the planted shrunk box "
                           "of tests/test_synthesizer.py TestStoredRampRows",
    "scalars.Iv.__str__": "an error message naming an inexact interval: `laminate --p` "
                          "within about 1e-90 of log2 3 (tests/test_cli.py "
                          "TestCouldNotCertify) and the refused splits and builds",
    "scalars.rpow": "an integer moment exponent, `laminate --q 2`: acceptance criterion 1 "
                    "and tests/test_laminate.py test_neg_pow, and on an enclosed base "
                    "tests/test_scalars.py TestIntegerPowers",
    "sym2.rank_one_connected": "a split that is not along one coordinate axis, refused by "
                               "elementary_split and build_pattern_node (tests/test_sym2.py "
                               "TestRankOne, tests/test_synthesizer.py TestErrors)",
    "synthesizer._quad_ranges": "a W'' enclosure that straddles 0 under a slope that "
                                "changes sign (tests/test_synthesizer.py TestQuadRanges); "
                                "no stripe the commands build has one",
    "wavecone.agreement_suite": "an oracle disagreement: the flipped member planted in "
                                "tests/test_wavecone.py test_gate_catches_flipped_member",
    "wavecone.lattice_suite": "a failed cone invariant: the faults planted in "
                              "tests/test_wavecone.py "
                              "test_lattice_suite_names_each_planted_fault",
}

_QUIET = (ast.Pass, ast.Global, ast.Nonlocal)


def _drive(work: Path) -> dict[str, list[int]]:
    """Trace the package through `COMMANDS` and the benchmark calls; the
    sorted executed lines of each module."""
    prefix = str(SRC) + os.sep
    hits: dict[str, set[int]] = {}
    tracers: dict[str, object] = {}

    def local_for(path: str):
        if not path.startswith(prefix):
            return None
        add = hits.setdefault(Path(path).stem, set()).add

        def on_line(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return on_line

        return on_line

    def on_call(frame, event, arg):
        path = frame.f_code.co_filename
        if path not in tracers:
            tracers[path] = local_for(path)
        return tracers[path]

    sys.settrace(on_call)
    import subhess.cli

    prepare(work)
    os.chdir(work)
    for i, (status, argv) in enumerate(COMMANDS):
        got = subhess.cli.main(["--out", str(work / f"run{i}"), *argv])
        if got != status:
            raise RuntimeError(f"{' '.join(argv)} exited {got}, not {status}")

    from subhess import constructions, synthesizer, verifier
    unit = (F(0), F(0), F(1), F(1))
    p = F(13, 10)
    lam = constructions.doubling_cascade(p, 2)[0]
    pot = synthesizer.realize_laminate(lam, unit, F(1, 16), dev_cap=F(1, 2))
    pot.cell_count()  # perfbench/tracing.py reads it after every build
    verifier.potential_report(pot, q_list=(p,))
    verifier.area_fractions(pot, F(1, 16))
    verifier.hessian_l1(pot)
    for i in (0, 1):
        verifier.neg_part_lq(pot, p, i)
    sys.settrace(None)
    return {mod: sorted(lines) for mod, lines in hits.items()}


def trace() -> dict[str, set[int]]:
    """The executed lines of each module of `src/subhess`, from a fresh
    interpreter that imports the package under the tracer."""
    with tempfile.TemporaryDirectory() as work:
        # the script's own directory, tests/, comes first on sys.path
        env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
        proc = subprocess.run([sys.executable, __file__, "--drive", work], env=env,
                              capture_output=True, text=True)
        if proc.returncode:
            raise RuntimeError(f"traced run failed:\n{proc.stderr}")
        executed = json.loads((Path(work) / "executed.json").read_text())
    return {mod: set(lines) for mod, lines in executed.items()}


# -- the classifier --------------------------------------------------------------------


def _statements(tree: ast.Module):
    """(statement, qualname of its innermost function or class, exempt) for
    every statement; the qualname of a module-level statement is ""."""

    def visit(body, qual: str, exempt: bool, docstring: bool):
        for i, stmt in enumerate(body):
            quiet = isinstance(stmt, _QUIET) or (
                i == 0 and docstring and isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant) and isinstance(stmt.value.value, str))
            main_guard = (qual == "" and isinstance(stmt, ast.If)
                          and ast.unparse(stmt.test) == "__name__ == '__main__'")
            own = exempt or quiet or main_guard or isinstance(stmt, (ast.Raise, ast.Assert))
            yield stmt, qual, own
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(stmt.body, f"{qual}.{stmt.name}".lstrip("."), own, True)
                continue
            for field in ("body", "orelse", "finalbody"):
                yield from visit(getattr(stmt, field, []), qual, own, False)
            for handler in getattr(stmt, "handlers", []):
                yield from visit(handler.body, qual, True, False)

    yield from visit(tree.body, "", False, True)


def classify(sources: dict[str, str], executed: dict[str, set[int]]) -> dict:
    """Sort every statement of every module into `reached`, `exempt` and
    `unreached`; the last is a list of (module, line, qualname), where the
    qualname is "module.Class.function" (or "module" at module level)."""
    out = {"reached": 0, "exempt": 0, "unreached": []}
    for mod, text in sorted(sources.items()):
        lines = executed.get(mod, set())
        for stmt, qual, exempt in _statements(ast.parse(text)):
            qualname = f"{mod}.{qual}".rstrip(".")
            first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
            if exempt:
                out["exempt"] += 1
            elif lines.intersection(range(first, stmt.end_lineno + 1)):
                out["reached"] += 1
            else:
                out["unreached"].append((mod, stmt.lineno, qualname))
    return out


def violations(found: dict, allowed: dict[str, str]) -> tuple[list[str], list[str]]:
    """`module.py:line qualname` of each unreached statement outside the
    allowlisted functions, and the stale allowlist entries: those naming no
    function that holds an unreached statement, gone or fully reached."""
    left = [f"{mod}.py:{line} {qual}" for mod, line, qual in found["unreached"]
            if qual not in allowed]
    hit = {qual for _, _, qual in found["unreached"]}
    return left, sorted(set(allowed) - hit)


def _sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}


# -- tests -------------------------------------------------------------------------------


def test_every_statement_is_reached():
    left, stale = violations(classify(_sources(), trace()), UNREACHED)
    assert left == []
    assert stale == []


def test_driver_calls_every_benchmark_name():
    source = inspect.getsource(_drive)
    assert [name for name in PERFBENCH_NAMES if f".{name}(" not in source] == []


def test_every_allowlist_entry_names_what_reaches_it():
    # a test file, a command or an acceptance criterion
    for reason in UNREACHED.values():
        assert "tests/" in reason or "`" in reason or "criterion" in reason, reason


PLANTED = '''\
"""Module docstring."""

import sys


def reached(x):
    """Docstring."""
    if x < 0:
        raise ValueError(x)
    assert x is not None
    try:
        y = 1 / x
    except ZeroDivisionError:
        y = 0
        return y
    return (y +
            1)


def planted(x):
    if x:
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(reached(1))
'''

# the lines of PLANTED that fire under Python 3.11 when it is imported and
# runs `reached(1)` and `planted(0)`
PLANTED_RUN = {1, 3, 6, 8, 10, 11, 12, 16, 17, 20, 21, 23, 26}


def test_classifier_names_a_planted_unreached_return():
    found = classify({"mod": PLANTED}, {"mod": PLANTED_RUN})
    assert violations(found, {}) == (["mod.py:22 mod.planted"], [])
    # a multi-line statement is reached through any of its lines
    assert classify({"mod": PLANTED}, {"mod": PLANTED_RUN - {16}}) == found


def test_classifier_ignores_raise_and_except_bodies():
    found = classify({"mod": PLANTED}, {"mod": PLANTED_RUN})
    assert found["unreached"] == [("mod", 22, "mod.planted")]
    # two docstrings, the raise, the assert, the two statements of the
    # handler body, and the __main__ guard with its body
    assert found["exempt"] == 8


def test_classifier_passes_an_allowlisted_function():
    found = classify({"mod": PLANTED}, {"mod": PLANTED_RUN})
    assert violations(found, {"mod.planted": "planted(1)"}) == ([], [])


def test_classifier_fails_a_stale_allowlist_entry():
    found = classify({"mod": PLANTED}, {"mod": PLANTED_RUN | {22}})
    assert violations(found, {"mod.planted": "planted(1)"}) == ([], ["mod.planted"])
    assert violations(found, {"mod.gone": "a deleted function"}) == ([], ["mod.gone"])


if __name__ == "__main__":
    if sys.argv[1:2] == ["--drive"]:
        work = Path(sys.argv[2])
        (work / "executed.json").write_text(json.dumps(_drive(work)))
    else:
        found = classify(_sources(), trace())
        allowed = sum(1 for _, _, qual in found["unreached"] if qual in UNREACHED)
        print(f"statements in src/: {found['reached']} reached, {found['exempt']} exempt, "
              f"{allowed} allowlisted in {len(UNREACHED)} functions, "
              f"{len(found['unreached']) - allowed} unreached")
