"""Command-line entry point: one experiment per process, artifacts + manifest.

Subcommands
    laminate    certified splitting report and moment tables
    realize     build a potential from a doubling measure and verify it
    staircase   nested multi-level build with per-level divergence columns
    wavecone    membership agreement and lattice invariants
    obstacle    projected-SOR runs: `solve` and the `selfcheck` coincidence

Each runner returns its verdict and its report files as text; `run` alone
writes them into the output directory with `manifest.json` (config hash,
package and dependency versions, runtime since parsing began, output
digests).  A failed run leaves only the manifest, which names the failure.
Report files are byte-deterministic for a fixed config; timestamps and
runtimes live only in the manifest.  Interval quantities are serialized as
explicit lower/upper endpoint pairs, either as directed decimals
(`certified-interval` mode, the default) or as exact fraction strings
(`rational` mode).

Exit codes: 0 pass, 2 invalid parameters, 3 budget exhausted, 4 a verdict
gate failed (an unconverged `obstacle solve` and a disjoint direct/recursion
pair in `laminate`'s moment table included), 5 could not certify (a build, a
certified comparison or the wave-cone LP certificate could not be settled)
or any other failure once the output directory exists.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

import subhess
from subhess.constructions import (
    MAX_LEVELS,
    cascade_moment_table,
    doubling_laminate,
    verify_doubling,
)
from subhess.laminate import dumps as laminate_dumps
from subhess.scalars import Iv, Undecided, fr_str, iv_dec
from subhess.sym2 import SymMat2
from subhess.synthesizer import (
    BudgetExceeded,
    BuildError,
    T_BITS,
    check_compensators,
    realize_laminate,
    staircase_build,
)
from subhess.verifier import (
    area_fractions,
    report_columns,
    report_items,
    report_phis,
    tally,
)
from subhess.wavecone import CertificationError, agreement_suite, lattice_suite

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_VERDICT = 4
EXIT_UNCERTIFIED = 5

SCALAR_MODES = ("certified-interval", "rational")


@dataclasses.dataclass
class ExperimentConfig:
    command: str
    params: dict
    out_dir: Path
    scalar_mode: str = "certified-interval"
    digits: int = 30
    inputs: object = None  # what the command's `prepare` built; not hashed

    def validated(self) -> "ExperimentConfig":
        """Check the config and run its command's `prepare`, before any
        output directory exists."""
        # --out must be a directory, or be creatable as one
        for path in (self.out_dir, *self.out_dir.parents):
            if path.exists():
                _require(path.is_dir(), f"--out {self.out_dir}: {path} exists and is "
                         "not a directory")
                break
        if self.scalar_mode not in SCALAR_MODES:
            raise ValueError(f"scalar mode {self.scalar_mode!r} not in {SCALAR_MODES}")
        if self.digits < 1:
            raise ValueError("digits must be >= 1")
        self.inputs = _COMMANDS[self.command].prepare(self.params)
        return self


# ---------------------------------------------------------------------------
# prepare steps: module preconditions checked before any work, and what a
# runner needs built from its parameters


def _require(cond: bool, message: str):
    if not cond:
        raise ValueError(message)


def _validate_laminate(p: dict):
    _require(p["p"] > 1, "p must be > 1")
    _require(p["k"] > 0, "scale k must be positive")
    _require(p["m"] >= 0, "cascade length m must be >= 0")
    for q in p["q"]:
        _require(q >= 1, f"moment exponent {q} must be >= 1")


def _prepare_realize(p: dict):
    """The doubling laminate, once its splits are known to be realizable."""
    _require(p["p"] > 1, "p must be > 1")
    _require(p["k"] > 0, "scale k must be positive")
    # the split fractions must stay inside (0, 1) after dyadic rounding;
    # 1 - alpha < 2^(1-p) rounds away once p >= T_BITS + 2: refuse before 2^p
    _require(p["p"] < T_BITS + 2, f"p = {p['p']} >= T_BITS + 2: the split fraction "
             f"alpha rounds to 1 at T_BITS = {T_BITS} bits, outside (0, 1)")
    _require(0 < p["eps"] < 1, "eps must lie in (0, 1)")
    # both split fractions must round inside (0, 1) at T_BITS, and a tiny eps
    # must not need compensators too narrow to cancel that rounding's drift
    lam = doubling_laminate(p["p"], p["k"])[0]
    check_compensators(lam, p["eps"])
    _require(p["budget"] is None or p["budget"] >= 1, "budget must be positive")
    for q in p["q"]:
        _require(q >= 1, f"moment exponent {q} must be >= 1")
    return lam


def _require_depth_cap(levels: int):
    # the message `staircase_params` raises at the first level past the cap
    _require(levels <= MAX_LEVELS, f"level {MAX_LEVELS + 1} epsilon underflow")


def _validate_staircase(p: dict):
    _require(p["levels"] >= 1, "need at least one level")
    _require_depth_cap(p["levels"])
    _require(p["q"] >= 1, "moment exponent must be >= 1")
    _require(p["i"] in (0, 1), "diagonal index must be 0 or 1")


# size caps, refused before any allocation; each message names what its cap
# protects (tracemalloc: 11.3 n x n float arrays for a solve and 12.5 for a
# selfcheck grid at n = 257; an exact brute-force LP solve took 0.26-0.34 s
# median, 0.6-0.8 s at most, per non-member at n = 64 on a shared 2-vCPU x86 guest)
MAX_GRID_N = 2049
MAX_CONE_N = 64
MAX_LATTICE_RADIUS = 8


def _require_grid_cap(n: int):
    _require(n <= MAX_GRID_N, f"grid size n = {n} exceeds the cap of {MAX_GRID_N}: "
             f"a run holds about twelve n x n float arrays, about 400 MB at the cap")


def _validate_wavecone(p: dict):
    _require(p["n"] >= 2, "dimension must be >= 2")
    _require(p["n"] <= MAX_CONE_N, f"dimension n = {p['n']} exceeds the cap of "
             f"{MAX_CONE_N}: each non-member's exact brute-force LP solve takes about "
             f"0.3 s (up to 0.8 s measured) at the cap and grows like n^3")
    _require(p["trials"] >= 1, "need at least one trial")
    _require(p["radius"] >= 1, "lattice radius must be >= 1")
    _require(p["radius"] <= MAX_LATTICE_RADIUS, f"lattice radius {p['radius']} exceeds "
             f"the cap of {MAX_LATTICE_RADIUS}: the lattice suite visits "
             f"(2r+1)^min(n,3) vectors, 4,913 at the cap")


# built from the `obstacle` builders `_prepare_obstacle_solve` imports, with numpy
_OBSTACLE_BUILTINS = {
    "radial": lambda radial_instance, square_instance, n: radial_instance(n, pinned=True),
    "radial-flat": lambda radial_instance, square_instance, n: radial_instance(n, pinned=False),
    "cup": lambda radial_instance, square_instance, n: square_instance(
        n, lambda X, Y: -0.5 * (X * X + Y * Y)),
    "bowl": lambda radial_instance, square_instance, n: square_instance(
        n, lambda X, Y: 0.5 * ((X - 0.5) ** 2 + (Y - 0.5) ** 2)),
    "harmonic": lambda radial_instance, square_instance, n: square_instance(
        n, lambda X, Y: 0 * X - 1e6, lambda X, Y: X * X - Y * Y),
}


def _prepare_obstacle_solve(p: dict):
    """The obstacle instance, builtin or read from a CSV grid file."""
    _require(p["n"] >= 8, "grid size must be >= 8")
    _require_grid_cap(p["n"])
    _require(p["omega"] is None or 0 < p["omega"] < 2, "relaxation factor must lie in (0, 2)")
    _require(math.isfinite(p["tol"]) and p["tol"] > 0, "tol must be finite and positive")
    _require(p["max_iter"] >= 1, "max_iter must be positive")
    import numpy as np
    from subhess.obstacle import radial_instance, square_instance
    name, n = p["obstacle"], p["n"]
    if name in _OBSTACLE_BUILTINS:
        return _OBSTACLE_BUILTINS[name](radial_instance, square_instance, n)
    _require(Path(name).is_file(),
             f"obstacle {name!r} is neither builtin {tuple(_OBSTACLE_BUILTINS)} nor a file")
    try:
        grid = np.loadtxt(name, delimiter=",")
    except OSError as exc:
        raise ValueError(f"cannot read obstacle file {name!r}: {exc}") from exc
    if grid.ndim != 2 or grid.shape[0] != grid.shape[1]:
        raise ValueError(f"obstacle file {name!r} is not a square grid")
    if grid.shape[0] != n:
        raise ValueError(
            f"obstacle file holds a {grid.shape[0]}x{grid.shape[1]} grid, but n={n}")
    return square_instance(n, grid)


def _validate_obstacle_selfcheck(p: dict):
    _require(p["depth"] >= 1, "staircase depth must be >= 1")
    _require_depth_cap(p["depth"])
    _require(len(p["n"]) > 0, "the grid size list is empty")
    _require(all(n >= 8 for n in p["n"]), "grid sizes must be >= 8")
    for n in p["n"]:
        _require_grid_cap(n)
    # a gate that compares against inf passes vacuously
    _require(math.isfinite(p["tol"]) and p["tol"] > 0, "tol must be finite and positive")
    _require(math.isfinite(p["gate_c"]) and p["gate_c"] >= 0,
             "gate constant must be finite and nonnegative")


# ---------------------------------------------------------------------------
# serialization


def _iv_pair(v: Iv, mode: str, digits: int) -> tuple[str, str]:
    if mode == "rational":
        return fr_str(v.lo), fr_str(v.hi)
    return iv_dec(v, digits)


def _jsonable(x, mode: str, digits: int):
    if isinstance(x, Iv):
        lo, hi = _iv_pair(x, mode, digits)
        return {"lower": lo, "upper": hi}
    if isinstance(x, SymMat2):
        a11, a12, a22 = x.entries()
        return {k: _jsonable(v, mode, digits) for k, v in
                (("a11", a11), ("a12", a12), ("a22", a22))}
    if isinstance(x, Fraction):
        return fr_str(x)
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return {f.name: _jsonable(getattr(x, f.name), mode, digits)
                for f in dataclasses.fields(x)}
    if isinstance(x, dict):
        return {str(k): _jsonable(v, mode, digits) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v, mode, digits) for v in x]
    return x


def _json_text(payload, cfg: ExperimentConfig) -> str:
    return json.dumps(_jsonable(payload, cfg.scalar_mode, cfg.digits),
                      sort_keys=True, indent=2) + "\n"


def _csv_text(rows: list[list[str]]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _flatten_iv_rows(rows: Sequence[dict], mode: str, digits: int) -> list[list[str]]:
    """CSV rows from dicts whose values may be intervals (two columns each,
    `<key>_lower` and `<key>_upper`, or bare `lower` and `upper` under the
    key "")."""
    header: list[str] = []
    for key, val in rows[0].items():
        if isinstance(val, Iv):
            stem = f"{key}_" if key else ""
            header += [f"{stem}lower", f"{stem}upper"]
        else:
            header.append(key)
    out = [header]
    for row in rows:
        cells: list[str] = []
        for key, val in row.items():
            if isinstance(val, Iv):
                cells += list(_iv_pair(val, mode, digits))
            elif isinstance(val, Fraction):
                cells.append(fr_str(val))
            else:
                cells.append(str(val))
        out.append(cells)
    return out


def _report_items_rows(items, mode: str, digits: int) -> list[list[str]]:
    return _flatten_iv_rows([{"name": item.name, "": item.value, "note": item.note}
                             for item in items], mode, digits)


# ---------------------------------------------------------------------------
# manifest


def _config_digest(cfg: ExperimentConfig) -> str:
    canon = json.dumps(
        {"command": cfg.command, "params": _jsonable(cfg.params, "rational", 30),
         "scalar_mode": cfg.scalar_mode, "digits": cfg.digits},
        sort_keys=True,
    )
    return hashlib.sha256(canon.encode()).hexdigest()


def _numpy_version() -> str:
    """From numpy once an obstacle run loaded it, else from the lighter metadata."""
    if "numpy" in sys.modules:
        return sys.modules["numpy"].__version__
    import importlib.metadata
    return importlib.metadata.version("numpy")


def _manifest_text(cfg: ExperimentConfig, outputs: dict[str, str], started: float,
                   failure: dict) -> str:
    manifest = {
        "command": cfg.command,
        "config": _jsonable(
            {"params": cfg.params, "scalar_mode": cfg.scalar_mode, "digits": cfg.digits},
            "rational", 30),
        "config_sha256": _config_digest(cfg),
        "versions": {
            "package": subhess.__version__,
            "python": sys.version.split()[0],
            "numpy": _numpy_version(),
        },
        "runtime_seconds": time.perf_counter() - started,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "outputs": outputs,
        **failure,
    }
    return json.dumps(manifest, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def _run_laminate(cfg: ExperimentConfig) -> tuple[int, dict[str, str]]:
    p = cfg.params
    lam, params = doubling_laminate(p["p"], p["k"])
    report = verify_doubling(lam, params, p["q"])
    ok = report["ok"]
    files = {"doubling_report.json": _json_text(report, cfg)}
    if p["m"] >= 1:
        rows = cascade_moment_table(p["p"], p["q"], p["m"])
        files["moment_table.csv"] = _csv_text(_flatten_iv_rows(rows, cfg.scalar_mode, cfg.digits))
        # every direct moment's enclosure must meet its recursion's
        for row in rows:
            for direct, rec in ((c, c.replace("_direct", "_rec")) for c in row if "_direct" in c):
                if not (row[direct] - row[rec]).contains(0):
                    print(f"moment_table.csv row m={row['m']}: {direct} and {rec} are disjoint",
                          file=sys.stderr)
                    ok = False
    return (EXIT_OK if ok else EXIT_VERDICT), files


def _run_realize(cfg: ExperimentConfig) -> tuple[int, dict[str, str]]:
    p, lam = cfg.params, cfg.inputs
    unit = (Fraction(0), Fraction(0), Fraction(1), Fraction(1))
    pot = realize_laminate(lam, unit, p["eps"])
    # the budget, the report and the area fractions read one tally
    t = tally(pot, report_phis(p["q"]))
    if p["budget"] is not None and t.cells > p["budget"]:
        raise BudgetExceeded(f"{t.cells} cells exceed the budget {p['budget']}")
    items = report_items(pot, t, p["q"])
    fr = area_fractions(pot, p["eps"], t=t)
    exact = next(item for item in items if item.name == "boundary_deviation").note == "exact"
    return (EXIT_OK if exact and all(row.ok for row in fr) else EXIT_VERDICT), {
        "laminate.json": laminate_dumps(lam) + "\n",
        "realize_report.csv": _csv_text(_report_items_rows(items, cfg.scalar_mode, cfg.digits)),
        "area_fractions.json": _json_text({"rows": fr, "cell_count": t.cells}, cfg),
    }


def _run_staircase(cfg: ExperimentConfig) -> tuple[int, dict[str, str]]:
    p = cfg.params
    result = staircase_build(p["levels"])
    pot = result.potential
    q_list = (p["q"],)
    t = tally(pot, report_phis(q_list))
    items = report_items(pot, t, q_list)
    cols = report_columns(q_list)
    rows = []
    for layer in result.layers:
        j = layer.level.j
        omega = t.over(("omega", j))
        rows.append({
            "level": j,
            "p": layer.level.p,
            "k": layer.level.k,
            "eps": layer.level.eps,
            "omega_area": Iv(omega.area),
            "grad_step": layer.grad_step,
            # bounded column: this level's share of the l1 mass
            "l1_contribution": t.over(("level", j)).integrals[cols["l1_diag"]],
            # growing column: certified mean on the nested region
            "neg_mean_omega": omega.bracket(cols[(p["q"], p["i"])]),
        })
    return (EXIT_OK if t.min_trace.lo >= 0 else EXIT_VERDICT), {
        "staircase_report.csv": _csv_text(_report_items_rows(items, cfg.scalar_mode, cfg.digits)),
        "staircase_levels.csv": _csv_text(_flatten_iv_rows(rows, cfg.scalar_mode, cfg.digits)),
    }


def _run_wavecone(cfg: ExperimentConfig) -> tuple[int, dict[str, str]]:
    p = cfg.params
    agree = agreement_suite(p["n"], p["trials"], seed=p["seed"])
    # the exhaustive lattice sweep is exponential in n; cap the dimension
    lattice = lattice_suite(min(p["n"], 3), radius=p["radius"])
    rows = [
        {"suite": "agreement", "cases": agree["trials"],
         "failures": len(agree["disagreements"]), "ok": agree["all_agree"]},
        {"suite": "lattice", "cases": lattice["vectors"],
         "failures": len(lattice["failures"]), "ok": lattice["all_ok"]},
    ]
    ok = agree["all_agree"] and lattice["all_ok"]
    return (EXIT_OK if ok else EXIT_VERDICT), {
        "wavecone_report.json": _json_text({"agreement": agree, "lattice": lattice}, cfg),
        "wavecone_summary.csv": _csv_text(_flatten_iv_rows(rows, cfg.scalar_mode, cfg.digits)),
    }


def _run_obstacle_solve(cfg: ExperimentConfig) -> tuple[int, dict[str, str]]:
    import numpy as np
    from subhess.obstacle import solve as obstacle_solve
    p, inst = cfg.params, cfg.inputs
    sol = obstacle_solve(inst, p["omega"], tol=p["tol"], max_iter=p["max_iter"])
    grid = io.StringIO()
    np.savetxt(grid, sol.u, fmt="%.17g", delimiter=",")
    report = {
        "obstacle": p["obstacle"],
        "n": inst.n,
        "h": inst.h,
        "shape": inst.shape,
        "iterations": sol.iterations,
        "converged": sol.converged,
        "residuals": {
            "positive_stencil_sum": sol.residuals[0],
            "obstacle_violation": sol.residuals[1],
            "complementarity_product": sol.residuals[2],
            "complementarity_min": sol.complementarity_min,
        },
        "contact_nodes": int(((sol.u - inst.phi)[inst.interior] <= p["tol"]).sum()),
        "interior_nodes": int(inst.interior.sum()),
    }
    return (EXIT_OK if sol.converged else EXIT_VERDICT), {
        "obstacle_solution.csv": grid.getvalue(),
        "obstacle_report.json": _json_text(report, cfg),
    }


def _run_obstacle_selfcheck(cfg: ExperimentConfig) -> tuple[int, dict[str, str]]:
    from subhess.obstacle import self_obstacle_suite
    p = cfg.params
    pot = staircase_build(p["depth"]).potential
    suite = self_obstacle_suite(pot, p["n"], tol=p["tol"])
    ok = all(row["sup_dev"] <= p["tol"] + p["gate_c"] * row["h"]
             for row in suite["rows"])
    return (EXIT_OK if ok else EXIT_VERDICT), {
        "selfcheck_report.json": _json_text({"depth": p["depth"], **suite}, cfg),
    }


def run(cfg: ExperimentConfig, started: float) -> int:
    """Execute a validated config; the one place that writes to cfg.out_dir.

    The runner returns its verdict and its files as text. If it raises, no
    report file is written: exit 3 for an exhausted budget, 5 for anything
    else, with the exception named in the manifest's note and on stderr; an
    unexpected one also leaves its traceback in the manifest. Files are
    hashed from the bytes written. `started` is the `time.perf_counter()`
    reading taken before the arguments were parsed."""
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    failure = {}
    try:
        status, files = _COMMANDS[cfg.command].run(cfg)
    except Exception as exc:
        status, files = EXIT_UNCERTIFIED, {}
        if isinstance(exc, BudgetExceeded):
            status, failure["note"] = EXIT_BUDGET, f"budget exhausted: {exc}"
        elif isinstance(exc, (BuildError, Undecided, CertificationError)):
            failure["note"] = f"could not certify: {type(exc).__name__}: {exc}"
        else:
            failure["note"] = f"failed: {type(exc).__name__}: {exc}"
            failure["traceback"] = traceback.format_exc().splitlines()
        print(failure["note"], file=sys.stderr)
    outputs = {}
    for name, text in files.items():
        data = text.encode()
        (cfg.out_dir / name).write_bytes(data)
        outputs[name] = hashlib.sha256(data).hexdigest()
    (cfg.out_dir / "manifest.json").write_text(_manifest_text(cfg, outputs, started, failure))
    return status


# ---------------------------------------------------------------------------
# argument parsing


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not an exact number: {text!r}") from exc


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma list of integers: {text!r}") from exc


_REQUIRED = object()


class _Param(NamedTuple):
    """One subcommand parameter. `conv` reads its flag and its config-file
    value; `default` is its effective default; `extras` go to argparse."""

    dest: str
    flag: str
    conv: Callable
    default: object = _REQUIRED
    extras: dict = {}


class _Command(NamedTuple):
    """One subcommand: its help, its parameters in `params` order, `prepare`
    (validates the params and returns what `run` reads as `cfg.inputs`) and
    `run`, which returns the exit status and the report files by name."""

    help: str
    params: tuple[_Param, ...]
    prepare: Callable[[dict], object]
    run: Callable[[ExperimentConfig], tuple[int, dict[str, str]]]


# Flags default to None so values from --config are not shadowed;
# `config_from_args` applies the effective defaults.
_COMMANDS: dict[str, _Command] = {
    "laminate": _Command("splitting report and moment tables", (
        _Param("p", "--p", _fraction),
        _Param("k", "--k", _fraction, Fraction(1)),
        _Param("m", "--m", int, 0, {"help": "cascade length for the moment table"}),
        _Param("q", "--q", _fraction, [Fraction(3, 2)],
               {"action": "append", "help": "moment exponent (repeatable; default 3/2)"}),
    ), _validate_laminate, _run_laminate),
    "realize": _Command("build from a doubling measure and verify", (
        _Param("p", "--p", _fraction),
        _Param("k", "--k", _fraction, Fraction(1)),
        _Param("eps", "--eps", _fraction),
        _Param("q", "--q", _fraction, [Fraction(3, 2)], {"action": "append"}),
        _Param("budget", "--budget", int, None,
               {"help": "abort (exit 3) if the cell partition exceeds this"}),
    ), _prepare_realize, _run_realize),
    "staircase": _Command("nested build with per-level columns", (
        _Param("levels", "--J", int, extras={"help": "number of levels"}),
        _Param("q", "--q", _fraction, Fraction(3, 2)),
        _Param("i", "--i", int, 1, {"choices": (0, 1),
                                    "help": "diagonal entry for the negative-part column"}),
    ), _validate_staircase, _run_staircase),
    "wavecone": _Command("membership agreement suites", (
        _Param("n", "--n", int),
        _Param("trials", "--trials", int, 1000),
        _Param("seed", "--seed", int, 0),
        _Param("radius", "--radius", int, 2, {"help": "lattice radius"}),
    ), _validate_wavecone, _run_wavecone),
    "obstacle-solve": _Command("solve one instance", (
        _Param("n", "--n", int),
        _Param("omega", "--omega", float, None,
               {"help": "relaxation factor (default: 2/(1+sin(pi/(n-1))))"}),
        _Param("tol", "--tol", float, 1e-10),
        _Param("max_iter", "--max-iter", int, 200_000),
        _Param("obstacle", "--obstacle", str, "radial",
               {"help": f"builtin {tuple(_OBSTACLE_BUILTINS)} or a CSV grid file"}),
    ), _prepare_obstacle_solve, _run_obstacle_solve),
    "obstacle-selfcheck": _Command("a nested build as its own obstacle", (
        _Param("depth", "--depth", int, extras={"help": "staircase depth"}),
        _Param("n", "--n", _int_list, [65, 129, 257], {"help": "comma list of grid sizes"}),
        _Param("tol", "--tol", float, 1e-10),
        _Param("gate_c", "--gate-c", float, 1.0,
               {"help": "allowance constant: require sup_dev <= tol + c*h"}),
    ), _validate_obstacle_selfcheck, _run_obstacle_selfcheck),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subhess",
        description="certified constructions, verification and side checks",
    )
    parser.add_argument("--out", type=Path, default=None,
                        help="output directory (default ./<command>_out)")
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON file with parameter defaults for the subcommand "
                             "(every key must be one of its parameters)")
    parser.add_argument("--scalar-mode", choices=SCALAR_MODES,
                        default="certified-interval")
    parser.add_argument("--digits", type=int, default=30,
                        help="decimal digits for certified-interval output")
    sub = parser.add_subparsers(dest="command", required=True)
    obstacle = None
    for command, spec in _COMMANDS.items():
        if command.startswith("obstacle-"):
            if obstacle is None:
                obstacle = sub.add_parser("obstacle", help="projected-SOR runs") \
                    .add_subparsers(dest="obstacle_command", required=True)
            cmd = obstacle.add_parser(command.removeprefix("obstacle-"), help=spec.help)
        else:
            cmd = sub.add_parser(command, help=spec.help)
        for prm in spec.params:
            cmd.add_argument(prm.flag, dest=prm.dest, type=prm.conv, **prm.extras)
    return parser


def _config_defaults(path: Optional[Path]) -> dict:
    if path is None:
        return {}
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    return data


def _file_value(prm: _Param, val):
    """A config-file value read by the converter of its flag, as str(value);
    repeatable flags take a list, element by element."""
    try:
        if prm.extras.get("action") == "append":
            return [prm.conv(str(v)) for v in (val if isinstance(val, list) else [val])]
        if prm.conv is _int_list and isinstance(val, list):
            val = ",".join(map(str, val))
        return prm.conv(str(val))
    except (argparse.ArgumentTypeError, ValueError) as exc:
        raise ValueError(f"config key {prm.dest!r}: {exc}") from None


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """Flags win over config-file values, which win over built-in defaults."""
    file_vals = _config_defaults(args.config)
    command = args.command
    if command == "obstacle":
        command = f"obstacle-{args.obstacle_command}"
    spec = _COMMANDS[command].params
    unknown = sorted(set(file_vals) - {prm.dest for prm in spec})
    if unknown:
        raise ValueError(f"config key(s) {', '.join(unknown)} not parameters of "
                         f"{command}; expected a subset of "
                         f"{', '.join(prm.dest for prm in spec)}")
    params = {}
    for prm in spec:
        flag_val = getattr(args, prm.dest, None)
        if flag_val is not None:
            params[prm.dest] = flag_val
        elif file_vals.get(prm.dest) is not None:
            params[prm.dest] = _file_value(prm, file_vals[prm.dest])
        else:
            params[prm.dest] = prm.default
    missing = sorted(key for key, val in params.items() if val is _REQUIRED)
    if missing:
        raise ValueError(f"missing required parameter(s): {', '.join(missing)}")
    out_dir = args.out if args.out is not None else Path(f"./{command}_out")
    return ExperimentConfig(
        command=command,
        params=params,
        out_dir=out_dir,
        scalar_mode=args.scalar_mode,
        digits=args.digits,
    ).validated()


def main(argv: Optional[Sequence[str]] = None) -> int:
    started = time.perf_counter()
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
    except ValueError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return run(cfg, started)


if __name__ == "__main__":
    sys.exit(main())
