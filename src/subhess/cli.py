"""Command-line entry point: one experiment per process, artifacts + manifest.

Subcommands
    laminate    certified splitting report and moment tables
    realize     build a potential from a doubling measure and verify it
    staircase   nested multi-level build with per-level divergence columns
    wavecone    membership agreement and lattice invariants
    obstacle    projected-SOR runs: `solve` and the `selfcheck` coincidence

Every run writes its report files plus `manifest.json` (config hash, package
and dependency versions, runtimes, output digests) into the output directory.
Report files are byte-deterministic for a fixed config; timestamps and
runtimes live only in the manifest.  Interval quantities are serialized as
explicit lower/upper endpoint pairs, either as directed decimals
(`certified-interval` mode, the default) or as exact fraction strings
(`rational` mode).

Exit codes: 0 pass, 2 invalid parameters, 3 budget exhausted (a partial
manifest is still written), 4 a verdict gate failed (an unconverged
`obstacle solve` and a disjoint direct/recursion pair in `laminate`'s moment
table included), 5 could not certify (a build, a certified comparison or the
wave-cone LP certificate could not be settled; the manifest names the exception).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

import subhess
from subhess.constructions import (
    MAX_LEVELS,
    cascade_moment_table,
    doubling_laminate,
    verify_doubling,
)
from subhess.laminate import dumps as laminate_dumps
from subhess.obstacle import (
    radial_instance,
    self_obstacle_suite,
    solve as obstacle_solve,
    square_instance,
)
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

    def validated(self) -> "ExperimentConfig":
        if self.scalar_mode not in SCALAR_MODES:
            raise ValueError(f"scalar mode {self.scalar_mode!r} not in {SCALAR_MODES}")
        if self.digits < 1:
            raise ValueError("digits must be >= 1")
        _VALIDATORS[self.command](self.params)
        return self


# ---------------------------------------------------------------------------
# parameter validation (module preconditions checked before any work)


def _require(cond: bool, message: str):
    if not cond:
        raise ValueError(message)


def _validate_laminate(p: dict):
    _require(p["p"] > 1, "p must be > 1")
    _require(p["k"] > 0, "scale k must be positive")
    _require(p["m"] >= 0, "cascade length m must be >= 0")
    for q in p["q"]:
        _require(q >= 1, f"moment exponent {q} must be >= 1")


def _validate_realize(p: dict):
    _require(p["p"] > 1, "p must be > 1")
    _require(p["k"] > 0, "scale k must be positive")
    # the split fractions must stay inside (0, 1) after dyadic rounding;
    # 1 - alpha < 2^(1-p) rounds away once p >= T_BITS + 2: refuse before 2^p
    _require(p["p"] < T_BITS + 2, f"p = {p['p']} >= T_BITS + 2: the split fraction "
             f"alpha rounds to 1 at T_BITS = {T_BITS} bits, outside (0, 1)")
    _require(0 < p["eps"] < 1, "eps must lie in (0, 1)")
    # both split fractions must round inside (0, 1) at T_BITS, and a tiny eps
    # must not need compensators too narrow to cancel that rounding's drift
    check_compensators(doubling_laminate(p["p"], p["k"])[0], p["eps"])
    _require(p["budget"] is None or p["budget"] >= 1, "budget must be positive")
    for q in p["q"]:
        _require(q >= 1, f"moment exponent {q} must be >= 1")


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
# selfcheck grid at n = 257; 8 MB for one brute-force LP at n = 64)
MAX_GRID_N = 2049
MAX_CONE_N = 64
MAX_LATTICE_RADIUS = 8


def _require_grid_cap(n: int):
    _require(n <= MAX_GRID_N, f"grid size n = {n} exceeds the cap of {MAX_GRID_N}: "
             f"a run holds about twelve n x n float arrays, about 400 MB at the cap")


def _validate_wavecone(p: dict):
    _require(p["n"] >= 2, "dimension must be >= 2")
    _require(p["n"] <= MAX_CONE_N, f"dimension n = {p['n']} exceeds the cap of "
             f"{MAX_CONE_N}: each brute-force LP is a dense n(n-1) x (n+1) matrix, "
             f"about 8 MB at the cap and growing like n^3")
    _require(p["trials"] >= 1, "need at least one trial")
    _require(p["radius"] >= 1, "lattice radius must be >= 1")
    _require(p["radius"] <= MAX_LATTICE_RADIUS, f"lattice radius {p['radius']} exceeds "
             f"the cap of {MAX_LATTICE_RADIUS}: the lattice suite visits "
             f"(2r+1)^min(n,3) vectors, 4,913 at the cap")


_OBSTACLE_BUILTINS = ("radial", "radial-flat", "cup", "bowl", "harmonic")


def _validate_obstacle_solve(p: dict):
    _require(p["n"] >= 8, "grid size must be >= 8")
    _require_grid_cap(p["n"])
    _require(p["omega"] is None or 0 < p["omega"] < 2, "relaxation factor must lie in (0, 2)")
    _require(p["tol"] > 0, "tol must be positive")
    _require(p["max_iter"] >= 1, "max_iter must be positive")
    name = p["obstacle"]
    if name not in _OBSTACLE_BUILTINS:
        _require(Path(name).is_file(), f"obstacle {name!r} is neither builtin {_OBSTACLE_BUILTINS} nor a file")


def _validate_obstacle_selfcheck(p: dict):
    _require(p["depth"] >= 1, "staircase depth must be >= 1")
    _require_depth_cap(p["depth"])
    _require(all(n >= 8 for n in p["n"]), "grid sizes must be >= 8")
    for n in p["n"]:
        _require_grid_cap(n)
    _require(p["tol"] > 0, "tol must be positive")
    _require(p["gate_c"] >= 0, "gate constant must be nonnegative")


_VALIDATORS = {
    "laminate": _validate_laminate,
    "realize": _validate_realize,
    "staircase": _validate_staircase,
    "wavecone": _validate_wavecone,
    "obstacle-solve": _validate_obstacle_solve,
    "obstacle-selfcheck": _validate_obstacle_selfcheck,
}


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
    if isinstance(x, (np.floating,)):
        return float(x)
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.bool_,)):
        return bool(x)
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return {f.name: _jsonable(getattr(x, f.name), mode, digits)
                for f in dataclasses.fields(x)}
    if isinstance(x, dict):
        return {str(k): _jsonable(v, mode, digits) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v, mode, digits) for v in x]
    if isinstance(x, Path):
        return str(x)
    return x


def _write_json(path: Path, payload, mode: str, digits: int):
    data = json.dumps(_jsonable(payload, mode, digits), sort_keys=True, indent=2)
    path.write_text(data + "\n")


def _write_csv(path: Path, rows: list[list[str]]) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


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


def _sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _config_digest(cfg: ExperimentConfig) -> str:
    canon = json.dumps(
        {"command": cfg.command, "params": _jsonable(cfg.params, "rational", 30),
         "scalar_mode": cfg.scalar_mode, "digits": cfg.digits},
        sort_keys=True,
    )
    return _sha256_bytes(canon.encode())


def _write_manifest(cfg: ExperimentConfig, outputs: list[Path], started: float,
                    note: Optional[str] = None):
    import scipy

    manifest = {
        "command": cfg.command,
        "config": _jsonable(
            {"params": cfg.params, "scalar_mode": cfg.scalar_mode, "digits": cfg.digits},
            "rational", 30),
        "config_sha256": _config_digest(cfg),
        "versions": {
            "package": subhess.__version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "runtime_seconds": time.time() - started,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "outputs": {p.name: _sha256_bytes(p.read_bytes()) for p in outputs},
    }
    if note is not None:
        manifest["note"] = note
    path = cfg.out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def _run_laminate(cfg: ExperimentConfig) -> tuple[int, list[Path]]:
    p = cfg.params
    q_list = p["q"]
    lam, params = doubling_laminate(p["p"], p["k"])
    report = verify_doubling(lam, params, q_list)
    ok = report["ok"]
    rpt = cfg.out_dir / "doubling_report.json"
    _write_json(rpt, report, cfg.scalar_mode, cfg.digits)
    outputs = [rpt]
    if p["m"] >= 1:
        rows = cascade_moment_table(p["p"], q_list, p["m"])
        csv_path = cfg.out_dir / "moment_table.csv"
        _write_csv(csv_path, _flatten_iv_rows(rows, cfg.scalar_mode, cfg.digits))
        outputs.append(csv_path)
        # every direct moment's enclosure must meet its recursion's
        for row in rows:
            for direct, rec in ((c, c.replace("_direct", "_rec")) for c in row if "_direct" in c):
                if not (row[direct] - row[rec]).contains(0):
                    print(f"{csv_path.name} row m={row['m']}: {direct} and {rec} are disjoint",
                          file=sys.stderr)
                    ok = False
    return (EXIT_OK if ok else EXIT_VERDICT), outputs


def _run_realize(cfg: ExperimentConfig) -> tuple[int, list[Path]]:
    p = cfg.params
    lam, _params = doubling_laminate(p["p"], p["k"])
    unit = (Fraction(0), Fraction(0), Fraction(1), Fraction(1))
    pot = realize_laminate(lam, unit, p["eps"])
    cells = pot.cell_count()
    if p["budget"] is not None and cells > p["budget"]:
        raise BudgetExceeded(f"{cells} cells exceed the budget {p['budget']}")
    outputs = []
    lam_path = cfg.out_dir / "laminate.json"
    lam_path.write_text(laminate_dumps(lam, indent=2) + "\n")
    outputs.append(lam_path)
    # the report and the area fractions read one tally
    t = tally(pot, report_phis(p["q"]))
    items = report_items(pot, t, p["q"])
    rpt = cfg.out_dir / "realize_report.csv"
    _write_csv(rpt, _report_items_rows(items, cfg.scalar_mode, cfg.digits))
    outputs.append(rpt)
    fr = area_fractions(pot, p["eps"], t=t)
    fr_path = cfg.out_dir / "area_fractions.json"
    _write_json(fr_path, {"rows": fr, "cell_count": cells}, cfg.scalar_mode, cfg.digits)
    outputs.append(fr_path)
    verdict = pot.boundary_report()["exact"] and all(row.ok for row in fr)
    return (EXIT_OK if verdict else EXIT_VERDICT), outputs


def _run_staircase(cfg: ExperimentConfig) -> tuple[int, list[Path]]:
    p = cfg.params
    result = staircase_build(p["levels"])
    pot = result.potential
    outputs = []
    q_list = (p["q"],)
    t = tally(pot, report_phis(q_list))
    items = report_items(pot, t, q_list)
    rpt = cfg.out_dir / "staircase_report.csv"
    _write_csv(rpt, _report_items_rows(items, cfg.scalar_mode, cfg.digits))
    outputs.append(rpt)
    neg = 1 + p["i"]  # report_phis order: l1_diag, neg part of H_00, of H_11
    rows = []
    for layer in result.layers:
        j = layer.j
        omega = t.over(("omega", j))
        rows.append({
            "level": j,
            "p": layer.p,
            "k": layer.k,
            "eps": layer.eps,
            "omega_area": Iv(omega.area),
            "grad_step": layer.grad_step,
            # bounded column: this level's share of the l1 mass
            "l1_contribution": t.over(("level", j)).integrals[0],
            # growing column: certified mean on the nested region
            "neg_mean_omega": omega.bracket(neg),
        })
    lv_path = cfg.out_dir / "staircase_levels.csv"
    _write_csv(lv_path, _flatten_iv_rows(rows, cfg.scalar_mode, cfg.digits))
    outputs.append(lv_path)
    return (EXIT_OK if t.min_trace.lo >= 0 else EXIT_VERDICT), outputs


def _run_wavecone(cfg: ExperimentConfig) -> tuple[int, list[Path]]:
    p = cfg.params
    agree = agreement_suite(p["n"], p["trials"], seed=p["seed"])
    # the exhaustive lattice sweep is exponential in n; cap the dimension
    lattice = lattice_suite(min(p["n"], 3), radius=p["radius"])
    payload = {"agreement": agree, "lattice": lattice}
    rpt = cfg.out_dir / "wavecone_report.json"
    _write_json(rpt, payload, cfg.scalar_mode, cfg.digits)
    rows = [
        {"suite": "agreement", "cases": agree["trials"],
         "failures": len(agree["disagreements"]), "ok": agree["all_agree"]},
        {"suite": "lattice", "cases": lattice["vectors"],
         "failures": len(lattice["failures"]), "ok": lattice["all_ok"]},
    ]
    csv_path = cfg.out_dir / "wavecone_summary.csv"
    _write_csv(csv_path, _flatten_iv_rows(rows, cfg.scalar_mode, cfg.digits))
    ok = agree["all_agree"] and lattice["all_ok"]
    return (EXIT_OK if ok else EXIT_VERDICT), [rpt, csv_path]


def _obstacle_instance(p: dict):
    name = p["obstacle"]
    n = p["n"]
    if name == "radial":
        return radial_instance(n, pinned=True)
    if name == "radial-flat":
        return radial_instance(n, pinned=False)
    if name == "cup":
        return square_instance(n, lambda X, Y: -0.5 * (X * X + Y * Y))
    if name == "bowl":
        return square_instance(n, lambda X, Y: 0.5 * ((X - 0.5) ** 2 + (Y - 0.5) ** 2))
    if name == "harmonic":
        return square_instance(n, lambda X, Y: 0 * X - 1e6,
                               lambda X, Y: X * X - Y * Y)
    grid = np.loadtxt(name, delimiter=",")
    if grid.ndim != 2 or grid.shape[0] != grid.shape[1]:
        raise ValueError(f"obstacle file {name!r} is not a square grid")
    if grid.shape[0] != n:
        raise ValueError(
            f"obstacle file holds a {grid.shape[0]}x{grid.shape[1]} grid, but n={n}")
    return square_instance(n, grid)


def _run_obstacle_solve(cfg: ExperimentConfig) -> tuple[int, list[Path]]:
    p = cfg.params
    inst = _obstacle_instance(p)
    sol = obstacle_solve(inst, p["omega"], tol=p["tol"], max_iter=p["max_iter"])
    grid_path = cfg.out_dir / "obstacle_solution.csv"
    np.savetxt(grid_path, sol.u, fmt="%.17g", delimiter=",")
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
        "contact_nodes": int(
            ((sol.u - inst.phi)[inst.interior] <= p["tol"]).sum()),
        "interior_nodes": int(inst.interior.sum()),
    }
    rpt = cfg.out_dir / "obstacle_report.json"
    _write_json(rpt, report, cfg.scalar_mode, cfg.digits)
    return (EXIT_OK if sol.converged else EXIT_VERDICT), [grid_path, rpt]


def _run_obstacle_selfcheck(cfg: ExperimentConfig) -> tuple[int, list[Path]]:
    p = cfg.params
    pot = staircase_build(p["depth"]).potential
    suite = self_obstacle_suite(pot, p["n"], tol=p["tol"])
    rpt = cfg.out_dir / "selfcheck_report.json"
    _write_json(rpt, {"depth": p["depth"], **suite}, cfg.scalar_mode, cfg.digits)
    ok = all(row["sup_dev"] <= p["tol"] + p["gate_c"] * row["h"]
             for row in suite["rows"])
    return (EXIT_OK if ok else EXIT_VERDICT), [rpt]


_RUNNERS = {
    "laminate": _run_laminate,
    "realize": _run_realize,
    "staircase": _run_staircase,
    "wavecone": _run_wavecone,
    "obstacle-solve": _run_obstacle_solve,
    "obstacle-selfcheck": _run_obstacle_selfcheck,
}


def run(cfg: ExperimentConfig) -> int:
    """Execute a validated config; artifacts land in cfg.out_dir."""
    started = time.time()
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    try:
        status, outputs = _RUNNERS[cfg.command](cfg)
    except BudgetExceeded as exc:
        _write_manifest(cfg, [], started, note=f"budget exhausted: {exc}")
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (BuildError, Undecided, CertificationError) as exc:
        # BuildError subclasses ValueError: caught here, it never reaches
        # main's "invalid parameters" handler
        note = f"could not certify: {type(exc).__name__}: {exc}"
        _write_manifest(cfg, [], started, note=note)
        print(note, file=sys.stderr)
        return EXIT_UNCERTIFIED
    _write_manifest(cfg, outputs, started)
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


# per command: its help and its parameters, in `params` order. Flags default
# to None so values from --config are not shadowed; `config_from_args`
# applies the effective defaults.
_COMMAND_SPEC: dict[str, tuple[str, tuple[_Param, ...]]] = {
    "laminate": ("splitting report and moment tables", (
        _Param("p", "--p", _fraction),
        _Param("k", "--k", _fraction, Fraction(1)),
        _Param("m", "--m", int, 0, {"help": "cascade length for the moment table"}),
        _Param("q", "--q", _fraction, [Fraction(3, 2)],
               {"action": "append", "help": "moment exponent (repeatable; default 3/2)"}),
    )),
    "realize": ("build from a doubling measure and verify", (
        _Param("p", "--p", _fraction),
        _Param("k", "--k", _fraction, Fraction(1)),
        _Param("eps", "--eps", _fraction),
        _Param("q", "--q", _fraction, [Fraction(3, 2)], {"action": "append"}),
        _Param("budget", "--budget", int, None,
               {"help": "abort (exit 3) if the cell partition exceeds this"}),
    )),
    "staircase": ("nested build with per-level columns", (
        _Param("levels", "--J", int, extras={"help": "number of levels"}),
        _Param("q", "--q", _fraction, Fraction(3, 2)),
        _Param("i", "--i", int, 1, {"choices": (0, 1),
                                    "help": "diagonal entry for the negative-part column"}),
    )),
    "wavecone": ("membership agreement suites", (
        _Param("n", "--n", int),
        _Param("trials", "--trials", int, 1000),
        _Param("seed", "--seed", int, 0),
        _Param("radius", "--radius", int, 2, {"help": "lattice radius"}),
    )),
    "obstacle-solve": ("solve one instance", (
        _Param("n", "--n", int),
        _Param("omega", "--omega", float, None,
               {"help": "relaxation factor (default: 2/(1+sin(pi/(n-1))))"}),
        _Param("tol", "--tol", float, 1e-10),
        _Param("max_iter", "--max-iter", int, 200_000),
        _Param("obstacle", "--obstacle", str, "radial",
               {"help": f"builtin {_OBSTACLE_BUILTINS} or a CSV grid file"}),
    )),
    "obstacle-selfcheck": ("a nested build as its own obstacle", (
        _Param("depth", "--depth", int, extras={"help": "staircase depth"}),
        _Param("n", "--n", _int_list, [65, 129, 257], {"help": "comma list of grid sizes"}),
        _Param("tol", "--tol", float, 1e-10),
        _Param("gate_c", "--gate-c", float, 1.0,
               {"help": "allowance constant: require sup_dev <= tol + c*h"}),
    )),
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
    for command, (text, params) in _COMMAND_SPEC.items():
        if command.startswith("obstacle-"):
            if obstacle is None:
                obstacle = sub.add_parser("obstacle", help="projected-SOR runs") \
                    .add_subparsers(dest="obstacle_command", required=True)
            cmd = obstacle.add_parser(command.removeprefix("obstacle-"), help=text)
        else:
            cmd = sub.add_parser(command, help=text)
        for prm in params:
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
    _, spec = _COMMAND_SPEC[command]
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
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
    except ValueError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        return run(cfg)
    except ValueError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
