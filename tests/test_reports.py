"""Checked-in reports: each command of ``tests/reports/commands.json`` must
give the recorded exit code, standard output, standard error and written
files, byte for byte.

Every case runs ``cli.main`` in-process in an empty working directory,
into which the files its ``inputs`` cases recorded are copied first
(``plotdata`` reads the artifacts of ``solve`` and ``spectrum``).  The
expected bytes of case NAME live in ``tests/reports/NAME/``: ``exit``,
``stdout``, ``stderr``, and each written file under ``files/``.

    PYTHONPATH=src python tests/test_reports.py

rewrites every expected file from the current tree.  A change that is
meant to move a report regenerates them and says which fields moved.
"""

import contextlib
import io
import json
import os
import pathlib
import shutil

import pytest

from feigenbaum import cli

REPORTS = pathlib.Path(__file__).parent / "reports"
CASES = json.loads((REPORTS / "commands.json").read_text())


def _files(root: pathlib.Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _stage_inputs(case, workdir: pathlib.Path) -> set:
    """Copy the recorded files of the cases ``case`` reads into workdir."""
    staged = set()
    for name in case.get("inputs", ()):
        for rel, data in _files(REPORTS / name / "files").items():
            (workdir / rel).parent.mkdir(parents=True, exist_ok=True)
            (workdir / rel).write_bytes(data)
            staged.add(rel)
    return staged


def run_case(case, workdir: pathlib.Path) -> dict:
    """{relative name: bytes} of what the case gives: "exit", "stdout",
    "stderr", and "files/<path>" for each file it writes."""
    staged = _stage_inputs(case, workdir)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(case["argv"]))
    finally:
        os.chdir(cwd)
    got = {"exit": b"%d\n" % code, "stdout": out.getvalue().encode(),
           "stderr": err.getvalue().encode()}
    for rel, data in _files(workdir).items():
        if rel not in staged:
            got["files/" + rel] = data
    return got


def _first_difference(name, want: bytes, got: bytes) -> str:
    a, b = want.decode().splitlines(), got.decode().splitlines()
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return "%s line %d:\n  expected %r\n  got      %r" % (name, i + 1, x, y)
    if len(a) != len(b):
        return "%s: expected %d lines, got %d" % (name, len(a), len(b))
    return "%s: line endings differ" % name


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_report_bytes(case, tmp_path):
    got = run_case(case, tmp_path)
    want = _files(REPORTS / case["name"])
    assert sorted(got) == sorted(want), "written files differ"
    for rel in sorted(want):
        if got[rel] != want[rel]:
            pytest.fail(_first_difference(rel, want[rel], got[rel]), pytrace=False)


def regenerate():
    scratch = REPORTS / ".work"
    for case in CASES:
        target = REPORTS / case["name"]
        shutil.rmtree(target, ignore_errors=True)
        shutil.rmtree(scratch, ignore_errors=True)
        scratch.mkdir()
        for rel, data in run_case(case, scratch).items():
            (target / rel).parent.mkdir(parents=True, exist_ok=True)
            (target / rel).write_bytes(data)
    shutil.rmtree(scratch)


if __name__ == "__main__":
    regenerate()
