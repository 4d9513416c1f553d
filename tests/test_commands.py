"""Every reference command exits as its row of `commands.ROWS` says and writes
the very bytes the row hashes; each row runs in-process into `tmp_path`."""

import re

import numpy
import pytest

import subhess.cli as cli

from commands import NUMPY, ROWS, mismatches, prepare


def run_row(row, work, monkeypatch, capsys):
    """The row's exit status, what it wrote to stderr, and its `--out`."""
    prepare(work)
    monkeypatch.chdir(work)
    out = work / "out"
    capsys.readouterr()
    status = cli.main(["--out", str(out), *row.argv])
    return status, capsys.readouterr().err, out


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.command)
def test_row_exits_and_hashes_as_pinned(row, tmp_path, monkeypatch, capsys):
    status, err, out = run_row(row, tmp_path, monkeypatch, capsys)
    assert mismatches(row, status, err, out, numpy.__version__) == []
    if row.floats and numpy.__version__ != NUMPY:
        pytest.skip(f"float artifacts hashed under numpy {NUMPY}, not {numpy.__version__}: "
                    "the exit status is checked, the hashes are not")


def test_rows_are_distinct_and_hash_what_they_write():
    assert len({row.argv for row in ROWS}) == len(ROWS)
    for row in ROWS:
        # refusals and failed runs write no report
        assert bool(row.artifacts) == (row.status in (0, 4)), row.command


def test_planted_digit_names_command_and_file(tmp_path, monkeypatch, capsys):
    row = ROWS[0]
    csv_text = cli._csv_text

    def one_digit_changed(rows):
        text = csv_text(rows)
        at = re.search(r"\d", text.split("\n", 1)[1]).start() + text.index("\n") + 1
        return text[:at] + str((int(text[at]) + 1) % 10) + text[at + 1:]

    monkeypatch.setattr(cli, "_csv_text", one_digit_changed)
    status, err, out = run_row(row, tmp_path, monkeypatch, capsys)
    found = mismatches(row, status, err, out, NUMPY)
    assert len(found) == 1 and found[0].startswith(f"{row.command}: realize_report.csv has ")


def test_wrong_exit_and_leftover_refusal_are_named(tmp_path):
    refusal = next(row for row in ROWS if row.status == 2)
    assert mismatches(refusal, 0, "", tmp_path, NUMPY) == [
        f"{refusal.command}: exit 0, expected 2"]
    assert mismatches(refusal, 2, refusal.stderr, tmp_path, NUMPY) == [
        f"{refusal.command}: a refusal left {tmp_path}"]


def test_missing_stderr_text_is_named(tmp_path):
    refusal = next(row for row in ROWS if row.stderr)
    assert mismatches(refusal, 2, "invalid parameters\n", tmp_path / "none", NUMPY) == [
        f"{refusal.command}: stderr lacks {refusal.stderr!r}"]


def test_manifest_must_hash_exactly_the_files_beside_it(tmp_path, monkeypatch, capsys):
    row = next(row for row in ROWS if row.status == 0 and not row.floats)
    status, err, out = run_row(row, tmp_path, monkeypatch, capsys)
    assert mismatches(row, status, err, out, NUMPY) == []
    stray = f"{row.command}: manifest.json does not hash exactly the files beside it"
    (out / "stray.txt").write_text("not a report\n")
    assert stray in mismatches(row, status, err, out, NUMPY)
    (out / "stray.txt").unlink()
    (out / "manifest.json").unlink()
    assert mismatches(row, status, err, out, NUMPY) == [stray]
