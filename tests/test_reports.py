"""Checked-in reports: each command of ``tests/reports/commands.json`` must
give the recorded exit code, standard output, standard error and written
files, byte for byte.

Every case runs ``cli.main`` in-process in an empty working directory,
into which the files its ``inputs`` cases recorded are copied first
(``plotdata`` reads the artifacts of ``solve`` and ``spectrum``).  The
expected bytes of case NAME live in ``tests/reports/NAME/``: ``exit``,
``stdout``, ``stderr``, and each written file under ``files/``.

A mismatch is described by :func:`compare`: every decimal number that
moved, with |delta| and whether |delta| < 10^(-D/2) at the case's D
digits, and any other difference (text such as tag and parity, integers
such as k, exit codes and dimensions, line counts), which round-off
cannot explain.

    PYTHONPATH=src python tests/test_reports.py

rewrites every expected file from the current tree and prints what
:func:`compare` finds against the files it replaces.  A change that is
meant to move a report regenerates them and says which fields moved.
"""

import contextlib
import io
import json
import os
import pathlib
import re
import shutil
from fractions import Fraction

import pytest

from feigenbaum import cli

REPORTS = pathlib.Path(__file__).parent / "reports"
CASES = json.loads((REPORTS / "commands.json").read_text())
BY_NAME = {case["name"]: case for case in CASES}
# A number is a decimal, which round-off may move, when it has a point
# or an exponent; otherwise it is an integer, which must not move.
NUMBER = re.compile(r"(-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)")


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


def _digits(case) -> int:
    """D of a case: its --digits, else that of the artifact it reads first."""
    argv = case["argv"]
    if "--digits" in argv:
        return int(argv[argv.index("--digits") + 1])
    return _digits(BY_NAME[case["inputs"][0]])


def compare(name, want: bytes, got: bytes, digits: int) -> list:
    """Lines saying how ``got`` differs from ``want``: one per moved
    decimal (line number, the text before it, old -> new, |delta| and
    whether |delta| < 10^(-digits/2)), and one per line that differs in
    anything but its decimals."""
    a, b = want.decode().splitlines(), got.decode().splitlines()
    if len(a) != len(b):
        return ["%s: expected %d lines, got %d" % (name, len(a), len(b))]
    out = []
    for i, (x, y) in enumerate(zip(a, b), 1):
        xs, ys = NUMBER.split(x), NUMBER.split(y)
        # odd pieces are numbers; only decimals may differ
        if len(xs) != len(ys) or any(
                p != q and (j % 2 == 0 or not set(".eE") & set(p + q))
                for j, (p, q) in enumerate(zip(xs, ys))):
            out.append("%s line %d differs beyond its decimals:\n  expected %r\n  got      %r"
                       % (name, i, x, y))
            continue
        for j in range(1, len(xs), 2):
            if xs[j] != ys[j]:
                delta = abs(Fraction(ys[j]) - Fraction(xs[j]))
                out.append("%s line %d %s%s -> %s  |delta| %.2g %s 10^-%g" % (
                    name, i, xs[j - 1].lstrip(), xs[j], ys[j], delta,
                    "<" if delta ** 2 * 10 ** digits < 1 else ">=", digits / 2))
    return out or ["%s: line endings differ" % name]


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_report_bytes(case, tmp_path):
    got = run_case(case, tmp_path)
    want = _files(REPORTS / case["name"])
    assert sorted(got) == sorted(want), "written files differ"
    moved = [line for rel in sorted(want) if got[rel] != want[rel]
             for line in compare(rel, want[rel], got[rel], _digits(case))]
    if moved:
        pytest.fail("\n".join(moved), pytrace=False)


def regenerate():
    scratch = REPORTS / ".work"
    for case in CASES:
        target = REPORTS / case["name"]
        shutil.rmtree(scratch, ignore_errors=True)
        scratch.mkdir()
        got = run_case(case, scratch)
        want = _files(target) if target.exists() else {}
        for rel in sorted(set(want) | set(got)):
            if rel not in want or rel not in got:
                print("%s/%s %s" % (case["name"], rel, "new" if rel in got else "gone"))
            elif got[rel] != want[rel]:
                for line in compare(rel, want[rel], got[rel], _digits(case)):
                    print("%s/%s" % (case["name"], line))
        shutil.rmtree(target, ignore_errors=True)
        for rel, data in got.items():
            (target / rel).parent.mkdir(parents=True, exist_ok=True)
            (target / rel).write_bytes(data)
    shutil.rmtree(scratch)


if __name__ == "__main__":
    regenerate()
