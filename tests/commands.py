"""The reference commands and the bytes of their report artifacts.

`ROWS` is one table of (argv, exit status, {report file: sha256}), with a
substring the run must write to stderr where a row names one. Each row runs
in a working directory that holds `INPUT_FILES`, with `--out` naming a fresh
directory inside it; `manifest.json` is not a report (it holds runtimes and
timestamps), so it is not hashed, but it must hash exactly the files beside
it. A refusal (exit 2) must leave no `--out` directory, and a run that raises
leaves only its manifest.

Exact-arithmetic artifacts do not depend on the platform. The obstacle rows
compute in floats (`floats=True`), so their hashes hold for the numpy
version `NUMPY` only; under another version their exit status is still
checked, and the hash comparison is skipped with that reason.

A change that alters an artifact on purpose updates its hash here in the
same change and names it in CHANGES.md.

    python tests/commands.py --console subhess --root DIR

runs every row through a console command (for example the installed
`subhess` script, or `"python -m subhess.cli"`) in subdirectories of DIR
and exits 1 on any mismatch, naming the command (and the file or the
missing stderr text);
`--print` writes the table's rows as computed by the in-process entry point.
"""

from __future__ import annotations

import hashlib
import json
import shlex
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

NUMPY = "2.4.6"  # the numpy version the `floats` rows were hashed under

# the files the config and obstacle-file rows read, relative to the working directory
INPUT_FILES = {
    "laminate.json": '{"p": "3/2", "m": 2, "q": ["1.5"]}\n',
    "selfcheck.json": '{"depth": 1, "n": [9]}\n',
    "wavecone.json": '{"n": 40.0}\n',  # a float where the flag reads an int
    "phi.csv": "".join(",".join(["-1"] * 9) + "\n" for _ in range(9)),
    "phi3.csv": "0,0,0\n0,0,0\n0,0,0\n",
}


class Row(NamedTuple):
    argv: tuple[str, ...]
    status: int
    artifacts: dict[str, str]  # report file name -> sha256 of its bytes
    floats: bool = False  # computed in floats: the hashes hold for NUMPY only
    stderr: str = ""  # a substring the run must write to stderr

    @property
    def command(self) -> str:
        return shlex.join(self.argv)


ROWS = (
    # the reference commands
    Row(("realize", "--p", "3/2", "--eps", "1/20", "--q", "3/2", "--q", "13/10"), 0, {
        "area_fractions.json": "07db630984a57d0741c1eeb409a3d4ce416cec70529721a8abd2195c7859edd2",
        "laminate.json": "bf949b7743cdff2a69ce9847bb9930ec14c18fb2b8cb3b5ad5ef21acab1b2d4b",
        "realize_report.csv": "bb591fd2b0cae0d37f7ecef47dfc10c3ff6133a29dd5b66841164d8abc55cc1b",
    }),
    Row(("realize", "--p", "13/10", "--k", "2", "--eps", "1/40", "--q", "6/5"), 0, {
        "area_fractions.json": "2ded87024d5d76f47dd758187ed083ad4514eb47f45519897c9182e0934377fd",
        "laminate.json": "e5708ddf0cf1e3a93f3ff380bce0f4f3d8465e1e05ee1a34d2a55d1368205a6c",
        "realize_report.csv": "98058aaaba46f38bb1228184d636529c3cf6f0adbb572b53f5121631c7b5df50",
    }),
    Row(("realize", "--p", "6/5", "--eps", "1/10"), 0, {
        "area_fractions.json": "47d08e871013dac81887e971caf00035f37f99a292b3e7304a178c669fa1ada1",
        "laminate.json": "35a8035f03b9fc53a3c4f88ae0542d00ef2a72268877475c50e719c2a219acba",
        "realize_report.csv": "04f76cef78365576d28f35dc42bc2f84e6b27779ed1dac76ce568414b0f1ba59",
    }),
    Row(("realize", "--p", "3/2", "--eps", "1/20"), 0, {
        "area_fractions.json": "07db630984a57d0741c1eeb409a3d4ce416cec70529721a8abd2195c7859edd2",
        "laminate.json": "bf949b7743cdff2a69ce9847bb9930ec14c18fb2b8cb3b5ad5ef21acab1b2d4b",
        "realize_report.csv": "2768b024896a4152fcf3e678bead8cb14ce6521b06c607cfbeaec30bab98759d",
    }),
    Row(("--scalar-mode", "rational", "realize", "--p", "3/2", "--eps", "1/10"), 0, {
        "area_fractions.json": "36de14519c02fd586bd764e12012589ef778108461caadc67ee593fe25df9abc",
        "laminate.json": "bf949b7743cdff2a69ce9847bb9930ec14c18fb2b8cb3b5ad5ef21acab1b2d4b",
        "realize_report.csv": "77e279d453c1c00debd43772319e66c3376b90e1a6e1371b88d06cbcfeef8d6a",
    }),
    Row(("staircase", "--J", "2"), 0, {
        "staircase_levels.csv": "22051ac4c78125f6ff2d0143049ed48e4571eac4440e4e7d92287dabd68f5558",
        "staircase_report.csv": "e6baec511ffad8752338a09957fa96fee1379b19162437b47b9323cc84a93b3c",
    }),
    Row(("staircase", "--J", "3", "--q", "5/4", "--i", "1"), 0, {
        "staircase_levels.csv": "392de776a0a0c70802970102f348d97b581b78959d3feed186cd78154c28e9f1",
        "staircase_report.csv": "bb65d5ffea569486e1d983d21712fc18512b4fe06061f881e55ef24e8cdf6237",
    }),
    Row(("staircase", "--J", "4"), 0, {
        "staircase_levels.csv": "eaeddb22da774b911a9bbef4324e5f191c2d712e17fd2e8792a4a73a8f8a877f",
        "staircase_report.csv": "3c0a974e0edbe959626974729be5994c4d44bd43c1d3a8cbfb5554c570eb54c7",
    }),
    Row(("laminate", "--p", "3/2", "--m", "8", "--q", "3/2"), 0, {
        "doubling_report.json": "478b0f76d0cb5679df2416a0313205b3a1cdc4c6f305fc58b42764cedd85fe15",
        "moment_table.csv": "a9195822e880fed4044320167c52c94165dca50e757e8450281349a58081f4b5",
    }),
    Row(("laminate", "--p", "1.5", "--m", "8", "--q", "1.5"), 0, {
        "doubling_report.json": "478b0f76d0cb5679df2416a0313205b3a1cdc4c6f305fc58b42764cedd85fe15",
        "moment_table.csv": "a9195822e880fed4044320167c52c94165dca50e757e8450281349a58081f4b5",
    }),
    Row(("laminate", "--p", "2", "--m", "3"), 0, {
        "doubling_report.json": "c7a489e79c230a6704d9a67abc5ebcbce8a082df87232fe623d244071eb9bb89",
        "moment_table.csv": "eb3f23f659025dae6d3fcae54d771d0e49214f93a852edb1025ee3bdc875a462",
    }),
    Row(("obstacle", "solve", "--n", "129"), 0, {
        "obstacle_report.json": "19ce3b494b75781d76da2a33dfa04e130cb9f9b0b72b282a9a7ea680e6f9e356",
        "obstacle_solution.csv": "ffc46957fc471fe52f5f6a2f9be445ce90932612194ae548ffaa337d08da87b7",
    }, floats=True),
    Row(("obstacle", "solve", "--n", "33", "--obstacle", "bowl", "--max-iter", "7"), 4, {
        "obstacle_report.json": "35d5833b91e4b055fed2b4ecfe84a4bc4fdd3e967410caba0e8a642232f9cfdd",
        "obstacle_solution.csv": "596eb4d32a1cce972d4655680d55ae49dcd4ad5493396e521547b67f879bd15a",
    }, floats=True),
    Row(("obstacle", "selfcheck", "--depth", "2", "--n", "33,65"), 0, {
        "selfcheck_report.json": "9583f62c4e3dee5b17c5f6a564e9399ed00e98acc55bdc1b75f77ccf536f0353",
    }, floats=True),
    Row(("wavecone", "--n", "3", "--trials", "200"), 0, {
        "wavecone_report.json": "510ef55a90b9289a496cc3def0a221e0b1755641bd7d91f883825e47f9c559de",
        "wavecone_summary.csv": "73a7c89306a8fd3e7e5f056b86c724d7e67cdfa08991ae8e4ecca1243e310ea5",
    }),
    Row(("wavecone", "--n", "3", "--trials", "100"), 0, {
        "wavecone_report.json": "7e3f64696e88f683a95f5011043abccc80e6dc549d9236727afffefcccd95b50",
        "wavecone_summary.csv": "63485120c405682a30eb5926e1ab53015674640d88edf5ca3ad1c222019f8619",
    }),
    # the wave cone at its dimension cap, one exact LP solve per non-member
    Row(("wavecone", "--n", "64", "--trials", "1"), 0, {
        "wavecone_report.json": "2b2f4735449569426fcba45367c1cbb33202a72714ada7f59e9c96a7ef4150d5",
        "wavecone_summary.csv": "41e892bbccacd8f32b9c286aad897f9740b1f155bb7358bbdd63aa053dfa75a2",
    }),
    Row(("staircase", "--J", "3", "--i", "0"), 0, {
        "staircase_levels.csv": "37cbfd908e30dda90acc0a72734f3c0c309cf14f5e66640bd2e5e560c1a4a6af",
        "staircase_report.csv": "181980da7b638c58b497c3e106cc51ae202e4cf3e2a55bb0a6a8ede021644a02",
    }),
    # compensators narrow with a tiny eps, so its own area gate passes
    Row(("realize", "--p", "3/2", "--eps", "1/1000000"), 0, {
        "area_fractions.json": "463c9465bba4b805cd73b35b3dc66e3542f424b692a007cd917489128cbb44c1",
        "laminate.json": "bf949b7743cdff2a69ce9847bb9930ec14c18fb2b8cb3b5ad5ef21acab1b2d4b",
        "realize_report.csv": "a0e7a6f8a8ba1d0ce8e38b441d3718e7d82b4fec82eaa54bf1308d66e38b81a6",
    }),
    # the refusals
    Row(("staircase", "--J", "16"), 2, {}, stderr="underflow"),
    Row(("obstacle", "selfcheck", "--depth", "16"), 2, {}),
    Row(("realize", "--p", "10000000", "--eps", "1/10"), 2, {}, stderr="T_BITS"),
    Row(("realize", "--p", "3/2", "--eps", "1/100000000000"), 2, {}, stderr="T_BITS"),
    Row(("realize", "--p", "3/2", "--eps", "1/20", "--budget", "10"), 3, {}),
    Row(("obstacle", "solve", "--n", "2050"), 2, {}, stderr="cap of 2049"),
    Row(("obstacle", "selfcheck", "--depth", "1", "--n", ""), 2, {}),
    Row(("--config", "wavecone.json", "wavecone"), 2, {}),
    Row(("obstacle", "solve", "--n", "9", "--obstacle", "phi3.csv"), 2, {}, stderr="3x3"),
    # a tolerance or gate constant of inf would pass its gate vacuously
    Row(("obstacle", "solve", "--n", "33", "--obstacle", "bowl", "--tol", "inf"), 2, {},
        stderr="tol must be finite"),
    Row(("obstacle", "selfcheck", "--depth", "1", "--n", "9", "--tol", "inf"), 2, {},
        stderr="tol must be finite"),
    Row(("obstacle", "selfcheck", "--depth", "1", "--n", "9", "--gate-c", "inf"), 2, {},
        stderr="gate constant must be finite"),
    # decimals and exact endpoints past the interpreter's 4,300-digit int -> str limit
    Row(("--scalar-mode", "rational", "staircase", "--J", "5"), 0, {
        "staircase_levels.csv": "7d5e559fda9bd262e9a23b1382ef9aa4dfbf4cf91d5d8948ae60d13c6facb388",
        "staircase_report.csv": "5fa6cc2e90a5aa7208d680bd9ea899e9f05c76b59246b205a923948fc956c408",
    }),
    Row(("--digits", "5000", "laminate", "--p", "3/2", "--m", "1"), 0, {
        "doubling_report.json": "b9bdcaf47fbf09e64862f91d2c2763adad52f54b328728ece736c80004b46d8a",
        "moment_table.csv": "2df6e43c0fa2a669b76a47a48feab598b9ee017a7f9a9a83e0d45be0706d62f4",
    }),
    # config files, a list for a repeatable flag and for a comma-list flag,
    # and an obstacle read from a file
    Row(("--config", "laminate.json", "laminate"), 0, {
        "doubling_report.json": "478b0f76d0cb5679df2416a0313205b3a1cdc4c6f305fc58b42764cedd85fe15",
        "moment_table.csv": "63a9f3ab909dc04338ac0b1b99a2b330f9eb3c4d4ad9c15ffa9726c8fa1f151f",
    }),
    Row(("--config", "selfcheck.json", "obstacle", "selfcheck"), 0, {
        "selfcheck_report.json": "752fcbe56e8128c49754b82a5b4243e734fc664badd4003cbc010b1953ca3846",
    }, floats=True),
    Row(("obstacle", "solve", "--n", "9", "--obstacle", "phi.csv"), 0, {
        "obstacle_report.json": "4d64873cd6394afcf5edd1407274e10e3b62ead5f8c73d11dec3c9df1b169745",
        "obstacle_solution.csv": "d68f5fd4846960ab4ecb805af4c2ed7a636b0b1f800a4806f6863ccaa1a1a6b0",
    }, floats=True),
)


def digests(out: Path) -> dict[str, str]:
    """sha256 of every report file in a run's output directory."""
    if not out.is_dir():
        return {}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.name != "manifest.json"}


def mismatches(row: Row, status: int, err: str, out: Path, numpy_version: str) -> list[str]:
    """What differs between a row and its run into `out`, which wrote `err`
    to stderr, one line per difference, each naming the command (and the
    file, for a hash)."""
    if status != row.status:
        return [f"{row.command}: exit {status}, expected {row.status}"]
    found = [f"{row.command}: stderr lacks {row.stderr!r}"] if row.stderr not in err else []
    if row.status == 2:
        return found + ([f"{row.command}: a refusal left {out}"] if out.exists() else [])
    got = digests(out)
    manifest = out / "manifest.json"
    if not manifest.is_file() or json.loads(manifest.read_text())["outputs"] != got:
        found.append(f"{row.command}: manifest.json does not hash exactly the files beside it")
    if row.floats and numpy_version != NUMPY:
        return found
    return found + [f"{row.command}: {name} has sha256 {got.get(name)}, expected "
                    f"{row.artifacts.get(name)}"
                    for name in sorted(set(got) | set(row.artifacts))
                    if got.get(name) != row.artifacts.get(name)]


def prepare(work: Path) -> None:
    for name, text in INPUT_FILES.items():
        (work / name).write_text(text)


def _console(argv: list[str]) -> int:
    """Run every row through a console command; 1 on any mismatch."""
    console = shlex.split(argv[argv.index("--console") + 1])
    root = Path(argv[argv.index("--root") + 1])
    root.mkdir(parents=True, exist_ok=True)
    prepare(root)
    import numpy
    failed = []
    for i, row in enumerate(ROWS):
        out = root / f"row{i}"
        proc = subprocess.run([*console, "--out", str(out), *row.argv], cwd=root,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        failed += mismatches(row, proc.returncode, proc.stderr, out, numpy.__version__)
    skipped = sum(row.floats for row in ROWS) if numpy.__version__ != NUMPY else 0
    print("\n".join(failed) or f"{len(ROWS)} rows match ({skipped} float rows not hashed "
                               f"under numpy {numpy.__version__}; pinned at {NUMPY})")
    return 1 if failed else 0


def _row_text(row: Row) -> str:
    """A row as this table writes it."""
    argv = ", ".join(json.dumps(a) for a in row.argv)
    files = "".join(f"\n        {json.dumps(name)}: {json.dumps(digest)},"
                    for name, digest in row.artifacts.items())
    tail = (", floats=True" if row.floats else "") + (
        f", stderr={json.dumps(row.stderr)}" if row.stderr else "")
    return f"    Row(({argv}), {row.status}, {{{files}{chr(10) + '    ' if files else ''}}}{tail}),"


def _print() -> int:
    """The rows as the in-process entry point computes them today."""
    import contextlib
    import io
    import os
    import tempfile

    import subhess.cli
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        prepare(work)
        os.chdir(work)
        for i, row in enumerate(ROWS):
            out = work / f"row{i}"
            with contextlib.redirect_stderr(io.StringIO()):
                status = subhess.cli.main(["--out", str(out), *row.argv])
            print(_row_text(row._replace(status=status, artifacts=digests(out))))
    return 0


if __name__ == "__main__":
    sys.exit(_print() if "--print" in sys.argv else _console(sys.argv))
