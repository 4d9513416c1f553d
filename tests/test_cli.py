"""End-to-end runs of the command-line entry point.

Each test invokes main() in-process with a tmp_path output directory and
inspects exit codes and artifacts.  Heavy parameter choices are avoided;
the goal is the contract (artifacts, determinism, exit codes), not depth.
"""

import csv
import json
import time
from fractions import Fraction

import numpy as np
import pytest

import subhess.cli as cli
import subhess.constructions as constructions
from subhess.cli import main
from subhess.constructions import cascade_moment_table
from subhess.scalars import iv_dec

from oracles import loads as laminate_loads

F = Fraction


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def run(tmp_path, *argv, sub=None):
    out = tmp_path / "out"
    args = ["--out", str(out)] + list(argv)
    return main(args), out


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
        assert man["runtime_seconds"] >= 0
        assert man["command"] == "wavecone"


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

    def test_huge_p_refused_from_p_alone(self, tmp_path, capsys):
        # no 2^p is formed: the refusal costs what parsing costs
        start = time.perf_counter()
        code, out = run(tmp_path, "realize", "--p", "10000000", "--eps", "1/10")
        assert time.perf_counter() - start < 0.1
        assert code == 2
        assert "T_BITS" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("eps", ["1/137438953472", "1/100000000000", "1/1000000000000"])
    def test_eps_beyond_compensator_bits_refused(self, tmp_path, capsys, eps):
        # compensator offsets grow like 2^(2*bits - T_BITS): refused before any build
        start = time.perf_counter()
        code, out = run(tmp_path, "realize", "--p", "3/2", "--eps", eps)
        assert time.perf_counter() - start < 0.1
        assert code == 2
        assert "T_BITS = 80 bits" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("argv, bound", [
        (["obstacle", "solve", "--n", "2050"], "cap of 2049"),
        (["obstacle", "selfcheck", "--depth", "1", "--n", "65,2050"], "cap of 2049"),
        (["wavecone", "--n", "65"], "cap of 64"),
        (["wavecone", "--n", "3", "--radius", "9"], "cap of 8"),
    ], ids=["solve-n", "selfcheck-n", "wavecone-n", "lattice-radius"])
    def test_sizes_above_cap_refused(self, tmp_path, capsys, argv, bound):
        # refused by the validator, before any grid, LP or lattice is built
        start = time.perf_counter()
        code, out = run(tmp_path, *argv)
        assert time.perf_counter() - start < 0.5
        assert code == 2
        err = capsys.readouterr().err
        assert bound in err and ("MB" in err or "4,913" in err)
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
            config(argv).validated()
        above = [
            (["obstacle", "solve", "--n", "2050"], "grid size n = 2050"),
            (["obstacle", "selfcheck", "--depth", "1", "--n", "2050"], "grid size n = 2050"),
            (["wavecone", "--n", "65"], "dimension n = 65"),
            (["wavecone", "--n", "2", "--radius", "9"], "lattice radius 9"),
        ]
        for argv, message in above:
            with pytest.raises(ValueError, match=message):
                config(argv).validated()

    def test_unparseable_fraction_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--out", str(tmp_path / "o"), "laminate", "--p", "abc"])
        assert exc.value.code == 2


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
        monkeypatch.setattr(cli, "self_obstacle_suite",
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

    def test_missing_config_file(self, tmp_path):
        code = main(["--out", str(tmp_path / "o"), "--config",
                     str(tmp_path / "nope.json"), "laminate", "--p", "1.5"])
        assert code == 2


class TestDefaultOutDir:
    def test_out_defaults_to_command_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["wavecone", "--n", "2", "--trials", "5"]) == 0
        assert (tmp_path / "wavecone_out" / "manifest.json").exists()
