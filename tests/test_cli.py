"""End-to-end runs of the command-line entry point.

Each test invokes main() in-process with a tmp_path output directory and
inspects exit codes and artifacts.  Heavy parameter choices are avoided;
the goal is the contract (artifacts, determinism, exit codes), not depth.
"""

import csv
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import subhess.cli as cli
import subhess.constructions as constructions
import subhess.obstacle as obstacle
import subhess.synthesizer as synthesizer
import subhess.verifier as verifier
from subhess.cli import main
from subhess.constructions import cascade_moment_table
from subhess.laminate import phi_neg_pow
from subhess.scalars import iv_dec
from subhess.sym2 import SymMat2
from subhess.synthesizer import PiecewisePotential, staircase_build
from subhess.verifier import tally

from oracles import loads as laminate_loads

F = Fraction


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def forbid(monkeypatch, *targets) -> list:
    """Replace each (owner, name) by a stub that records the name and raises;
    returns the names called, in order."""
    called = []
    for owner, name in targets:
        def stub(*args, _name=name, **kwargs):
            called.append(_name)
            raise AssertionError(f"{_name} was called")
        monkeypatch.setattr(owner, name, stub)
    return called


def run(tmp_path, *argv, sub=None):
    out = tmp_path / "out"
    args = ["--out", str(out)] + list(argv)
    return main(args), out


def loaded_by_fresh_runs(tmp_path, runs, roots) -> tuple[list, list]:
    """(output dirs, sorted modules under the top-level packages `roots` in
    sys.modules) after a fresh interpreter ran each argv of `runs` to exit 0."""
    outs = [str(tmp_path / f"run{i}") for i in range(len(runs))]
    code = ("import json, sys\n"
            "import subhess.cli\n"
            f"for out, argv in zip({outs!r}, {runs!r}):\n"
            "    assert subhess.cli.main(['--out', out, *argv]) == 0\n"
            "print(json.dumps(sorted(m for m in sys.modules "
            f"if m.partition('.')[0] in {tuple(roots)!r})))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parent.parent)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return outs, json.loads(proc.stdout)


class TestLaminateCommand:
    def test_artifacts_and_verdict(self, tmp_path):
        code, out = run(tmp_path, "laminate", "--p", "1.5", "--m", "4", "--q", "1.5")
        assert code == 0
        report = json.loads((out / "doubling_report.json").read_text())
        assert report["ok"] is True
        assert report["l1_moment"]["ok"] is True
        assert set(json.loads((out / "manifest.json").read_text())["outputs"]) == {
            "doubling_report.json",
            "moment_table.csv",
        }

    def test_moment_table_matches_library(self, tmp_path):
        code, out = run(tmp_path, "laminate", "--p", "3/2", "--m", "3", "--q", "3/2")
        assert code == 0
        rows = read_csv(out / "moment_table.csv")
        header, data = rows[0], rows[1:]
        table = cascade_moment_table(F(3, 2), [F(3, 2)], 3)
        assert len(data) == len(table) == 4
        a_lo = header.index("a_direct_lower")
        for row, ref in zip(data, table):
            lo, hi = iv_dec(ref["a_direct"], 30)
            assert row[a_lo] == lo and row[a_lo + 1] == hi

    def test_no_cascade_table_when_m_zero(self, tmp_path):
        code, out = run(tmp_path, "laminate", "--p", "1.2")
        assert code == 0
        assert not (out / "moment_table.csv").exists()

    def test_rational_mode_exact_endpoints(self, tmp_path):
        code, out = run(tmp_path, "--scalar-mode", "rational", "laminate", "--p", "1.5")
        assert code == 0
        report = json.loads((out / "doubling_report.json").read_text())
        val = report["l1_moment"]["constant"]
        lo, hi = F(val["lower"]), F(val["upper"])
        assert lo <= hi and hi - lo < F(1, 10**20)


class TestDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path):
        argv = ["laminate", "--p", "1.35", "--m", "3", "--q", "5/4"]
        code_a, out_a = main(["--out", str(tmp_path / "a")] + argv), tmp_path / "a"
        code_b, out_b = main(["--out", str(tmp_path / "b")] + argv), tmp_path / "b"
        assert code_a == code_b == 0
        for name in ("doubling_report.json", "moment_table.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        man_a = json.loads((out_a / "manifest.json").read_text())
        man_b = json.loads((out_b / "manifest.json").read_text())
        assert man_a["config_sha256"] == man_b["config_sha256"]
        assert man_a["outputs"] == man_b["outputs"]

    def test_manifest_records_versions_and_runtime(self, tmp_path):
        code, out = run(tmp_path, "wavecone", "--n", "2", "--trials", "10")
        assert code == 0
        man = json.loads((out / "manifest.json").read_text())
        assert man["versions"]["package"]
        assert set(man["versions"]) == {"package", "python", "numpy"}
        assert man["runtime_seconds"] >= 0
        assert man["command"] == "wavecone"

    def test_certified_commands_load_no_numpy_or_scipy(self, tmp_path):
        # numpy serves the obstacle commands only, scipy the test oracles
        # only: a fresh interpreter runs the four certified commands without
        # loading either, and each manifest still names numpy's version
        runs = [["laminate", "--p", "3/2", "--m", "2"], ["realize", "--p", "3/2", "--eps", "1/10"],
                ["staircase", "--J", "1"], ["wavecone", "--n", "3", "--trials", "20"]]
        outs, loaded = loaded_by_fresh_runs(tmp_path, runs, ("numpy", "scipy"))
        assert loaded == []
        for out in outs:
            man = json.loads((Path(out) / "manifest.json").read_text())
            assert man["versions"]["numpy"] == np.__version__

    def test_obstacle_commands_load_no_scipy(self, tmp_path):
        # the obstacle commands run on the declared dependencies too: a
        # fresh interpreter runs both without loading the oracles' scipy
        runs = [["obstacle", "solve", "--n", "33"],
                ["obstacle", "selfcheck", "--depth", "1", "--n", "9"]]
        _, loaded = loaded_by_fresh_runs(tmp_path, runs, ("scipy",))
        assert loaded == []


class TestValidation:
    @pytest.mark.parametrize(
        "argv",
        [
            ["laminate", "--p", "0.9"],
            ["laminate", "--p", "3/2", "--q", "1/2"],
            ["realize", "--p", "1.5", "--eps", "2"],
            ["realize", "--eps", "1/10"],
            ["staircase", "--q", "3/2"],
            ["wavecone", "--n", "1"],
            ["obstacle", "solve", "--n", "4"],
            ["obstacle", "solve", "--n", "65", "--omega", "2.0"],
            ["obstacle", "solve", "--n", "65", "--obstacle", "no-such-file.csv"],
            ["obstacle", "selfcheck", "--depth", "0"],
        ],
    )
    def test_bad_parameters_exit_2(self, tmp_path, argv):
        code, out = run(tmp_path, *argv)
        assert code == 2
        assert not out.exists()

    def test_bad_digits_rejected(self, tmp_path):
        assert main(["--out", str(tmp_path / "o"), "--digits", "0",
                     "laminate", "--p", "1.5"]) == 2

    @pytest.mark.parametrize("p", ["82", "83", "100"])
    def test_p_beyond_t_bits_refused(self, tmp_path, capsys, p):
        # alpha = (2^p - 1)/(2^p + 1) rounds to 1 at T_BITS = 80 bits
        code, out = run(tmp_path, "realize", "--p", p, "--eps", "1/10")
        assert code == 2
        assert "T_BITS = 80 bits, outside (0, 1)" in capsys.readouterr().err
        assert not out.exists()

    def test_huge_p_refused_from_p_alone(self, tmp_path, capsys, monkeypatch):
        # no 2^p is formed: neither the laminate nor a power of two is built
        called = forbid(monkeypatch, (cli, "doubling_laminate"), (constructions, "pow2"))
        code, out = run(tmp_path, "realize", "--p", "10000000", "--eps", "1/10")
        assert called == []
        assert code == 2
        assert "T_BITS" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("eps", ["1/137438953472", "1/100000000000", "1/1000000000000"])
    def test_eps_beyond_compensator_bits_refused(self, tmp_path, capsys, monkeypatch, eps):
        # compensator offsets grow like 2^(2*bits - T_BITS): refused before any build
        called = forbid(monkeypatch, (cli, "realize_laminate"),
                        (synthesizer, "build_pattern_node"))
        code, out = run(tmp_path, "realize", "--p", "3/2", "--eps", eps)
        assert called == []
        assert code == 2
        assert "T_BITS = 80 bits" in capsys.readouterr().err
        assert not out.exists()

    def test_one_split_check_refuses_on_both_paths(self, tmp_path, capsys, monkeypatch):
        # planted: the per-split check refuses every split. `prepare` runs it
        # through check_compensators, so realize exits 2 before --out exists,
        # and a node build runs the same check and refuses too
        def refuse(*args):
            raise synthesizer.BuildError("planted split refusal")

        monkeypatch.setattr(synthesizer, "_unit_profile", refuse)
        code, out = run(tmp_path, "realize", "--p", "3/2", "--eps", "1/20")
        assert code == 2
        assert "planted split refusal" in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(synthesizer.BuildError, match="planted split refusal"):
            synthesizer.build_pattern_node(
                tag="0", level=0, base=SymMat2.diag(1, 1), mat_b=SymMat2.diag(2, 1),
                mat_c=SymMat2.diag(0, 1), t=F(1, 2), rect_w=F(1), rect_h=F(1),
                eps_h=F(3, 8), eps_a=F(1, 4), dev_cap=F(1, 2))

    @pytest.mark.parametrize("p, eps", [
        ("3/2", "1/10000000000"),
        # 40 compensator bits, past p = 3/2's cutoff: 22/7 rounds close enough
        ("22/7", "1/137438953472"),
    ])
    def test_eps_within_compensator_bits_runs(self, tmp_path, p, eps):
        code, _ = run(tmp_path, "realize", "--p", p, "--eps", eps)
        assert code == 0

    def test_p_within_t_bits_accepted(self):
        parser = cli.build_parser()
        args = parser.parse_args(["realize", "--p", "81", "--eps", "1/10"])
        assert cli.config_from_args(args).params["p"] == 81

    @pytest.mark.parametrize("argv, bound, cost", [
        (["obstacle", "solve", "--n", "2050"], "cap of 2049", "400 MB"),
        (["obstacle", "selfcheck", "--depth", "1", "--n", "65,2050"], "cap of 2049", "400 MB"),
        (["wavecone", "--n", "65"], "cap of 64", "0.3 s"),
        (["wavecone", "--n", "3", "--radius", "9"], "cap of 8", "4,913"),
    ], ids=["solve-n", "selfcheck-n", "wavecone-n", "lattice-radius"])
    def test_sizes_above_cap_refused(self, tmp_path, capsys, monkeypatch, argv, bound, cost):
        # refused by the validator, before any grid, LP or lattice is built,
        # naming what the cap protects
        called = forbid(monkeypatch, (obstacle, "radial_instance"),
                        (obstacle, "square_instance"), (obstacle, "self_obstacle_suite"),
                        (cli, "agreement_suite"), (cli, "lattice_suite"),
                        (cli, "staircase_build"))
        code, out = run(tmp_path, *argv)
        assert called == []
        assert code == 2
        err = capsys.readouterr().err
        assert bound in err and cost in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["staircase", "--J", "16"],
        ["obstacle", "selfcheck", "--depth", "16"],
    ], ids=["staircase", "selfcheck"])
    def test_too_deep_staircase_refused(self, tmp_path, capsys, argv):
        # eps_16 = 4^-16 = 2^-32 floors to 0 at 30 fractional bits: refused
        # by the validator, before the output directory exists
        code, out = run(tmp_path, *argv)
        assert code == 2
        assert "level 16 epsilon underflow" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n", ["", ",", None], ids=["empty", "comma", "config"])
    def test_empty_grid_list_refused(self, tmp_path, capsys, n):
        # refused by the validator, before the output directory exists
        if n is None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"n": []}))
            code, out = run(tmp_path, "--config", str(cfg), "obstacle", "selfcheck", "--depth", "1")
        else:
            code, out = run(tmp_path, "obstacle", "selfcheck", "--depth", "1", "--n", n)
        assert code == 2
        assert "grid size list is empty" in capsys.readouterr().err
        assert not out.exists()

    def test_size_caps_in_validators(self):
        parser = cli.build_parser()

        def config(argv):
            return cli.config_from_args(parser.parse_args(argv))

        at_cap = [
            ["obstacle", "solve", "--n", "2049"],
            ["obstacle", "selfcheck", "--depth", "3", "--n", "65,129,257,2049"],
            ["wavecone", "--n", "64", "--radius", "8"],
            ["staircase", "--J", "15"],
            ["obstacle", "selfcheck", "--depth", "15"],
        ]
        for argv in at_cap:
            config(argv)
        above = [
            (["obstacle", "solve", "--n", "2050"], "grid size n = 2050"),
            (["obstacle", "selfcheck", "--depth", "1", "--n", "2050"], "grid size n = 2050"),
            (["wavecone", "--n", "65"], "dimension n = 65"),
            (["wavecone", "--n", "2", "--radius", "9"], "lattice radius 9"),
        ]
        for argv, message in above:
            with pytest.raises(ValueError, match=message):
                config(argv)

    def test_unparseable_fraction_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--out", str(tmp_path / "o"), "laminate", "--p", "abc"])
        assert exc.value.code == 2


class TestOutDir:
    @pytest.mark.parametrize("below", [None, "sub"], ids=["file", "below-a-file"])
    def test_out_that_is_a_file_refused(self, tmp_path, capsys, monkeypatch, below):
        afile = tmp_path / "afile"
        afile.write_text("")
        out = afile if below is None else afile / below
        built = []
        monkeypatch.setattr(cli, "doubling_laminate",
                            lambda *a: built.append(a) or constructions.doubling_laminate(*a))
        code = main(["--out", str(out), "realize", "--p", "3/2", "--eps", "1/20"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"invalid parameters: --out {out}: {afile} exists and is not a directory" in err
        assert built == []  # refused before prepare built anything
        assert afile.read_text() == "" and sorted(tmp_path.iterdir()) == [afile]


class TestBudget:
    def test_exhaustion_writes_partial_manifest(self, tmp_path):
        code, out = run(tmp_path, "realize", "--p", "1.5", "--eps", "1/10",
                        "--budget", "100")
        assert code == 3
        man = json.loads((out / "manifest.json").read_text())
        assert "budget" in man["note"]
        assert man["outputs"] == {}
        assert not (out / "realize_report.csv").exists()


class TestRealizeCommand:
    def test_artifacts(self, tmp_path):
        code, out = run(tmp_path, "realize", "--p", "3/2", "--eps", "1/10",
                        "--q", "3/2")
        assert code == 0
        lam = laminate_loads((out / "laminate.json").read_text())
        assert len(lam.atoms) == 3
        fr = json.loads((out / "area_fractions.json").read_text())
        assert fr["cell_count"] > 0
        assert all(row["ok"] for row in fr["rows"])
        rows = read_csv(out / "realize_report.csv")
        names = [r[0] for r in rows[1:]]
        assert "hessian_l1_mean" in names and "min_trace" in names
        assert "neg_part_l3/2_i1" in names

    def test_tiny_eps_passes_its_area_gate(self, tmp_path):
        # compensators narrow with eps, so they never eat the eps allowance
        code, out = run(tmp_path, "realize", "--p", "3/2", "--eps", "1/1000000")
        assert code == 0
        fr = json.loads((out / "area_fractions.json").read_text())
        assert fr["rows"] and all(row["ok"] for row in fr["rows"])


    # per command: laminate builds, seam walks, nodes() walks (the tally's
    # class walk and ball_sq read, then the staircase's per-level gradient
    # sum, then the audit), pattern-node builds and per-node cell-class
    # enumerations (`_node_cell_classes`): one per node, counted by the
    # tally's walk alone
    WORK = (
        (["realize", "--p", "3/2", "--eps", "1/20"],
         {"laminate": 1, "audit": 1, "nodes": 3, "build": 2, "classes": 2}),
        (["staircase", "--J", "3"],
         {"laminate": 3, "audit": 1, "nodes": 4, "build": 6, "classes": 6}),
    )

    @staticmethod
    def counted_work(monkeypatch) -> dict:
        calls = {}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        # the staircase builds each level's laminate in the synthesizer
        for module in (cli, synthesizer):
            monkeypatch.setattr(module, "doubling_laminate",
                                counted("laminate", module.doubling_laminate))
        monkeypatch.setattr(verifier, "continuity_audit",
                            counted("audit", verifier.continuity_audit))
        monkeypatch.setattr(synthesizer, "build_pattern_node",
                            counted("build", synthesizer.build_pattern_node))
        monkeypatch.setattr(synthesizer, "_node_cell_classes",
                            counted("classes", synthesizer._node_cell_classes))
        monkeypatch.setattr(PiecewisePotential, "nodes",
                            counted("nodes", PiecewisePotential.nodes))
        return calls

    def test_one_build_and_one_seam_walk(self, tmp_path, monkeypatch):
        calls = self.counted_work(monkeypatch)
        for idx, (argv, expected) in enumerate(self.WORK):
            calls.update(dict.fromkeys(expected, 0))
            code, _ = run(tmp_path / str(idx), *argv)
            assert code == 0
            assert calls == expected, argv

    def test_planted_second_tally_is_counted(self, tmp_path, monkeypatch):
        calls = self.counted_work(monkeypatch)
        once = cli.tally
        monkeypatch.setattr(cli, "tally", lambda *args: (once(*args), once(*args))[1])
        argv, expected = self.WORK[1]
        calls.update(dict.fromkeys(expected, 0))
        code, _ = run(tmp_path, *argv)
        assert code == 0
        assert calls["classes"] == 2 * expected["classes"] and calls != expected


class TestStaircaseCommand:
    def test_levels_csv(self, tmp_path):
        code, out = run(tmp_path, "staircase", "--J", "2")
        assert code == 0
        rows = read_csv(out / "staircase_levels.csv")
        header, data = rows[0], rows[1:]
        assert [r[header.index("level")] for r in data] == ["1", "2"]
        l1_lo = header.index("l1_contribution_lower")
        assert all(float(r[l1_lo]) > 0 for r in data)
        neg_lo = header.index("neg_mean_omega_lower")
        assert all(float(r[neg_lo]) >= 0 for r in data)
        report = read_csv(out / "staircase_report.csv")
        by_name = {r[0]: r for r in report[1:]}
        assert float(by_name["min_trace"][1]) >= 0

    def test_columns_read_the_report_order(self, tmp_path, monkeypatch):
        # planted: the report lists H_11 before H_00; the --i 1 column still
        # reads the negative part of H_11 on each Omega_j
        monkeypatch.setattr(verifier, "_neg_rows",
                            lambda q_list: [(q, i) for q in q_list for i in (1, 0)])
        code, out = run(tmp_path, "staircase", "--J", "2", "--i", "1")
        assert code == 0
        rows = read_csv(out / "staircase_levels.csv")
        header, data = rows[0], rows[1:]
        t = tally(staircase_build(2).potential, (phi_neg_pow(1, F(3, 2)),))
        lo, hi = header.index("neg_mean_omega_lower"), header.index("neg_mean_omega_upper")
        for r in data:
            want = t.over(("omega", int(r[header.index("level")]))).bracket(0)
            assert (r[lo], r[hi]) == iv_dec(want, 30)


    def test_exact_endpoints_past_the_int_str_limit(self, tmp_path):
        # the decimals of --digits 5000 run past Python's 4,300-digit
        # int -> str limit; exact endpoints render as num/den in full (the
        # longer ones of tests/test_scalars.py too), grad_deviation's as the
        # dyadic of its rounded square roots, no longer past the limit
        code, out = run(tmp_path / "stair", "--scalar-mode", "rational", "staircase", "--J", "5")
        assert code == 0
        by_name = {r[0]: r for r in read_csv(out / "staircase_report.csv")[1:]}
        num, den = by_name["grad_deviation"][2].split("/")
        assert num.isdigit() and den.isdigit() and int(den) & (int(den) - 1) == 0
        code, out = run(tmp_path / "digits", "--digits", "5000", "realize", "--p", "3/2",
                        "--eps", "1/10")
        assert code == 0
        by_name = {r[0]: r for r in read_csv(out / "realize_report.csv")[1:]}
        whole, frac = by_name["hessian_l1_mean"][1].split(".")
        assert whole.isdigit() and len(frac) == 5000 and frac.isdigit()

class TestWaveconeCommand:
    def test_agreement_and_lattice(self, tmp_path):
        code, out = run(tmp_path, "wavecone", "--n", "2", "--trials", "50")
        assert code == 0
        rep = json.loads((out / "wavecone_report.json").read_text())
        assert rep["agreement"]["all_agree"] is True
        assert rep["lattice"]["all_ok"] is True
        rows = read_csv(out / "wavecone_summary.csv")
        assert rows[1][3] == "True" and rows[2][3] == "True"


class TestObstacleCommand:
    def test_radial_solve(self, tmp_path):
        code, out = run(tmp_path, "obstacle", "solve", "--n", "33",
                        "--obstacle", "radial", "--tol", "1e-11")
        assert code == 0
        rep = json.loads((out / "obstacle_report.json").read_text())
        assert rep["converged"] is True
        assert 0 < rep["contact_nodes"] < rep["interior_nodes"]
        u = np.loadtxt(out / "obstacle_solution.csv", delimiter=",")
        assert u.shape == (33, 33)

    def test_obstacle_from_file(self, tmp_path):
        xs = np.linspace(0.0, 1.0, 17)
        grid = 0.2 - ((xs[:, None] - 0.5) ** 2 + (xs[None, :] - 0.5) ** 2)
        path = tmp_path / "phi.csv"
        np.savetxt(path, grid, delimiter=",")
        code, out = run(tmp_path, "obstacle", "solve", "--n", "17",
                        "--obstacle", str(path))
        assert code == 0
        rep = json.loads((out / "obstacle_report.json").read_text())
        # concave paraboloid: clipping is already the solution
        assert rep["contact_nodes"] == rep["interior_nodes"]

    def test_file_size_mismatch_exits_2(self, tmp_path):
        path = tmp_path / "phi.csv"
        np.savetxt(path, np.zeros((9, 9)), delimiter=",")
        code, out = run(tmp_path, "obstacle", "solve", "--n", "17",
                        "--obstacle", str(path))
        assert code == 2

    @pytest.mark.parametrize("text, message", [
        ("0,0,0\n0,0,0\n0,0,0\n", "obstacle file holds a 3x3 grid, but n=9"),
        ("a,b\n", "could not convert string 'a'"),
        ("\n".join(",".join("nan" if i == j == 4 else "0" for j in range(9))
                   for i in range(9)), "non-finite nodal data on active nodes"),
    ], ids=["wrong-size", "unparsable", "nan"])
    def test_bad_file_refused_before_out(self, tmp_path, capsys, text, message):
        path = tmp_path / "phi.csv"
        path.write_text(text)
        code, out = run(tmp_path, "obstacle", "solve", "--n", "9", "--obstacle", str(path))
        assert code == 2
        assert f"invalid parameters: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_unreadable_file_refused_before_out(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "phi.csv"
        np.savetxt(path, np.zeros((9, 9)), delimiter=",")

        def unreadable(*args, **kwargs):
            raise PermissionError("Permission denied")

        monkeypatch.setattr(np, "loadtxt", unreadable)
        code, out = run(tmp_path, "obstacle", "solve", "--n", "9", "--obstacle", str(path))
        assert code == 2
        assert "cannot read obstacle file" in capsys.readouterr().err
        assert not out.exists()

    def test_selfcheck_coincidence(self, tmp_path):
        code, out = run(tmp_path, "obstacle", "selfcheck", "--depth", "1",
                        "--n", "17,33")
        assert code == 0
        rep = json.loads((out / "selfcheck_report.json").read_text())
        assert rep["fitted_c"] == 0.0
        assert [r["n"] for r in rep["rows"]] == [17, 33]


class TestVerdictGate:
    def test_failed_laminate_verdict_exits_4(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "verify_doubling",
                            lambda lam, params, q_list: {"ok": False})
        code, out = run(tmp_path, "laminate", "--p", "1.5")
        assert code == 4
        # report and manifest still written for inspection
        assert (out / "doubling_report.json").exists()
        assert (out / "manifest.json").exists()

    def test_shifted_moment_constant_fails_table_gate(self, tmp_path, monkeypatch, capsys):
        # planted fault: the recursion's unit-scale constant c_i(p, q) is off
        real = constructions.neg_moment_constant
        monkeypatch.setattr(constructions, "neg_moment_constant",
                            lambda *args: real(*args) + F(1, 10**6))
        code, out = run(tmp_path, "laminate", "--p", "3/2", "--m", "3", "--q", "3/2")
        assert code == 4
        err = capsys.readouterr().err
        assert "moment_table.csv row m=1: b1_direct_q0 and b1_rec_q0 are disjoint" in err
        assert (out / "moment_table.csv").exists() and (out / "manifest.json").exists()

    def test_table_gate_alone_decides_exit(self, tmp_path, monkeypatch, capsys):
        code, out = run(tmp_path, "laminate", "--p", "3/2", "--m", "3", "--q", "3/2")
        assert code == 0 and capsys.readouterr().err == ""
        real = cli.cascade_moment_table

        def shifted(*args):
            rows = real(*args)
            rows[-1]["a_rec"] = rows[-1]["a_rec"] + 1
            return rows

        monkeypatch.setattr(cli, "cascade_moment_table", shifted)
        code, out = run(tmp_path, "laminate", "--p", "3/2", "--m", "3", "--q", "3/2")
        assert code == 4
        assert json.loads((out / "doubling_report.json").read_text())["ok"] is True
        err = capsys.readouterr().err
        assert err == "moment_table.csv row m=3: a_direct and a_rec are disjoint\n"

    def test_failed_selfcheck_gate_exits_4(self, tmp_path, monkeypatch):
        fake = {"rows": [{"n": 17, "h": 1 / 16, "sup_dev": 0.5}],
                "fitted_c": 8.0, "shrinking": False, "suggestion": None}
        monkeypatch.setattr(obstacle, "self_obstacle_suite",
                            lambda pot, n_list, tol: fake)
        code, out = run(tmp_path, "obstacle", "selfcheck", "--depth", "1",
                        "--n", "17", "--gate-c", "1.0")
        assert code == 4

    def test_unconverged_solve_exits_4(self, tmp_path):
        code, out = run(tmp_path, "obstacle", "solve", "--n", "33",
                        "--max-iter", "5")
        assert code == 4
        rep = json.loads((out / "obstacle_report.json").read_text())
        assert rep["converged"] is False and rep["iterations"] == 5
        man = json.loads((out / "manifest.json").read_text())
        assert sorted(man["outputs"]) == ["obstacle_report.json", "obstacle_solution.csv"]


# a 110-digit decimal of log2(3): the certified comparison p > log2(3) stalls
LOG2_3_110 = ("1.584962500721156181453738943947816508759814407692481060455752654541"
              "09822779435856252228047491808824209098066247")


class TestCouldNotCertify:
    @pytest.mark.parametrize("argv, exc_name", [
        (["realize", "--p", "3/2", "--eps", "1/10"], "BuildError"),
        (["laminate", "--p", LOG2_3_110], "Undecided"),
    ], ids=["build-error", "undecided"])
    def test_exits_5_with_manifest_note(self, tmp_path, capsys, monkeypatch, argv, exc_name):
        def no_convergence(*args, **kwargs):
            raise cli.BuildError("certification did not converge for node 0")

        # planted: the validator refuses every realize input known to fail its build
        monkeypatch.setattr(cli, "realize_laminate", no_convergence)
        code, out = run(tmp_path, *argv)
        assert code == 5
        man = json.loads((out / "manifest.json").read_text())
        assert man["note"].startswith(f"could not certify: {exc_name}: ")
        assert man["outputs"] == {}
        assert "invalid parameters" not in capsys.readouterr().err

    def test_unresolved_cone_patch_exits_5(self, tmp_path, monkeypatch):
        def stall(*args, **kwargs):
            raise cli.CertificationError("residual floor unresolved")

        monkeypatch.setattr(cli, "agreement_suite", stall)
        code, out = run(tmp_path, "wavecone", "--n", "2", "--trials", "1")
        assert code == 5
        man = json.loads((out / "manifest.json").read_text())
        assert man["note"] == ("could not certify: CertificationError: "
                               "residual floor unresolved")


# small arguments for each command, and the first library call its runner
# makes, with the module it is read from when the runner calls it
SMALL_RUNS = {
    "laminate": (["laminate", "--p", "3/2"], cli, "doubling_laminate"),
    "realize": (["realize", "--p", "3/2", "--eps", "1/10"], cli, "realize_laminate"),
    "staircase": (["staircase", "--J", "1"], cli, "staircase_build"),
    "wavecone": (["wavecone", "--n", "2", "--trials", "1"], cli, "agreement_suite"),
    "obstacle-solve": (["obstacle", "solve", "--n", "9"], obstacle, "solve"),
    "obstacle-selfcheck": (["obstacle", "selfcheck", "--depth", "1", "--n", "9"], cli,
                           "staircase_build"),
}


class TestFailedRun:
    """Whatever a runner raises, `run` leaves only a manifest that names it."""

    def test_every_command_has_a_case(self):
        assert set(SMALL_RUNS) == set(cli._COMMANDS)

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_unexpected_exception_exits_5(self, tmp_path, capsys, monkeypatch, command):
        argv, owner, first_call = SMALL_RUNS[command]

        def planted(*args, **kwargs):
            raise ZeroDivisionError("planted")

        monkeypatch.setattr(owner, first_call, planted)
        code, out = run(tmp_path, *argv)
        assert code == 5
        man = json.loads((out / "manifest.json").read_text())
        assert man["note"].startswith("failed: ZeroDivisionError")
        assert man["traceback"][-1] == "ZeroDivisionError: planted"
        assert man["outputs"] == {}
        assert os.listdir(out) == ["manifest.json"]
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err == "failed: ZeroDivisionError: planted\n"

    def test_audit_failure_leaves_only_manifest(self, tmp_path, monkeypatch):
        def seam_jump(pot):
            raise cli.BuildError("planted seam jump")

        monkeypatch.setattr(verifier, "continuity_audit", seam_jump)
        code, out = run(tmp_path, "realize", "--p", "3/2", "--eps", "1/20")
        assert code == 5
        assert os.listdir(out) == ["manifest.json"]
        man = json.loads((out / "manifest.json").read_text())
        assert man["note"] == "could not certify: BuildError: planted seam jump"

    def test_late_value_error_exits_5(self, tmp_path, capsys, monkeypatch):
        # only `prepare` refuses an input with exit 2
        def planted(*args, **kwargs):
            raise ValueError("planted")

        monkeypatch.setattr(cli, "tally", planted)
        code, out = run(tmp_path, "realize", "--p", "3/2", "--eps", "1/20")
        assert code == 5
        assert capsys.readouterr().err == "failed: ValueError: planted\n"
        assert os.listdir(out) == ["manifest.json"]


class TestRunPath:
    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_runner_touches_no_file(self, tmp_path, command):
        argv = SMALL_RUNS[command][0]
        never = tmp_path / "never"
        cfg = cli.config_from_args(cli.build_parser().parse_args(["--out", str(never), *argv]))
        status, files = cli._COMMANDS[command].run(cfg)
        assert not never.exists() and os.listdir(tmp_path) == []
        assert status == 0 and files and all(isinstance(text, str) for text in files.values())

    def test_runtime_covers_prepare(self, tmp_path, monkeypatch):
        real = cli.doubling_laminate

        def slow(*args):
            time.sleep(0.2)
            return real(*args)

        # `prepare` builds the realize laminate before `run` is called
        monkeypatch.setattr(cli, "doubling_laminate", slow)
        code, out = run(tmp_path, "realize", "--p", "3/2", "--eps", "1/20")
        assert code == 0
        assert json.loads((out / "manifest.json").read_text())["runtime_seconds"] >= 0.2


class TestConfigFile:
    def test_defaults_from_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": "1.5", "m": 4, "q": ["3/2"]}))
        code = main(["--out", str(tmp_path / "o"), "--config", str(cfg),
                     "laminate", "--m", "0"])
        assert code == 0
        man = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert man["config"]["params"]["m"] == 0
        assert man["config"]["params"]["p"] == "3/2"
        assert not (tmp_path / "o" / "moment_table.csv").exists()

    def test_config_must_be_object(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        code = main(["--out", str(tmp_path / "o"), "--config", str(cfg),
                     "laminate", "--p", "1.5"])
        assert code == 2

    @pytest.mark.parametrize("keys", [{"trails": 5, "n": 2}, {"resolution": 16}],
                             ids=["misspelt", "retired"])
    def test_unknown_keys_refused(self, tmp_path, capsys, keys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(keys))
        code = main(["--out", str(tmp_path / "o"), "--config", str(cfg),
                     "wavecone", "--n", "2", "--trials", "3"])
        assert code == 2
        unknown = next(k for k in keys if k != "n")
        assert unknown in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, keys", [
        (["wavecone", "--trials", "3"], {"n": 40.0}),
        (["staircase"], {"levels": 2.5}),
        (["realize", "--p", "3/2"], {"eps": [0.1]}),
    ], ids=["wavecone-n-float", "staircase-levels-float", "realize-eps-list"])
    def test_mistyped_values_refused(self, tmp_path, capsys, command, keys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(keys))
        code = main(["--out", str(tmp_path / "o"), "--config", str(cfg), *command])
        assert code == 2
        (key,) = keys
        assert f"config key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_string_value_read_like_its_flag(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": "3"}))
        code = main(["--out", str(tmp_path / "o"), "--config", str(cfg),
                     "wavecone", "--trials", "3"])
        assert code == 0
        flag = main(["--out", str(tmp_path / "f"), "wavecone", "--n", "3", "--trials", "3"])
        assert flag == 0
        man, man_flag = (json.loads((tmp_path / d / "manifest.json").read_text())
                         for d in ("o", "f"))
        assert man["config"]["params"]["n"] == 3
        assert man["config_sha256"] == man_flag["config_sha256"]

    def test_list_value_for_comma_list_flag(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"depth": 1, "n": [9, 17]}))
        parser = cli.build_parser()
        from_file = cli.config_from_args(parser.parse_args(
            ["--out", str(tmp_path / "o"), "--config", str(cfg), "obstacle", "selfcheck"]))
        from_flag = cli.config_from_args(parser.parse_args(
            ["--out", str(tmp_path / "o"), "obstacle", "selfcheck", "--depth", "1",
             "--n", "9,17"]))
        assert from_file.params == from_flag.params
        assert from_file.params["n"] == [9, 17]

    def test_missing_config_file(self, tmp_path):
        code = main(["--out", str(tmp_path / "o"), "--config",
                     str(tmp_path / "nope.json"), "laminate", "--p", "1.5"])
        assert code == 2


class TestDefaultOutDir:
    def test_out_defaults_to_command_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["wavecone", "--n", "2", "--trials", "5"]) == 0
        assert (tmp_path / "wavecone_out" / "manifest.json").exists()
