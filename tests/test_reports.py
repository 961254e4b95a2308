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

    PYTHONPATH=src python tests/test_reports.py [NAME...]

rewrites the expected files of the named cases (of every case when no
name is given) from the current tree and prints what :func:`compare`
finds against the files it replaces.  It ends with a summary: for each
case, file and field (a JSON key, or a CSV or TSV column) the count of
moved decimals, how many of them went down and how many up, their line
range, the largest |delta| and whether every move is below 10^(-D/2),
then every other difference.  A change that is
meant to move a report regenerates them and says which fields moved; a
new case is added to ``commands.json`` and generated by name, leaving
the others as they are.
"""

import contextlib
import io
import json
import os
import pathlib
import re
import shutil
import sys
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


def _pieces(x: str, y: str):
    """(xs, ys), the lines x and y split around their numbers (the odd
    pieces), or None when they differ in anything but their decimals."""
    xs, ys = NUMBER.split(x), NUMBER.split(y)
    if len(xs) != len(ys) or any(
            p != q and (j % 2 == 0 or not set(".eE") & set(p + q))
            for j, (p, q) in enumerate(zip(xs, ys))):
        return None
    return xs, ys


def _delta(old: str, new: str, digits: int):
    """(|new - old|, whether it is below 10^(-digits/2))."""
    delta = abs(Fraction(new) - Fraction(old))
    return delta, delta ** 2 * 10 ** digits < 1


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
        pieces = _pieces(x, y)
        if pieces is None:
            out.append("%s line %d differs beyond its decimals:\n  expected %r\n  got      %r"
                       % (name, i, x, y))
            continue
        xs, ys = pieces
        for j in range(1, len(xs), 2):
            if xs[j] != ys[j]:
                delta, below = _delta(xs[j], ys[j], digits)
                out.append("%s line %d %s%s -> %s  |delta| %.2g %s 10^-%g" % (
                    name, i, xs[j - 1].lstrip(), xs[j], ys[j], delta,
                    "<" if below else ">=", digits / 2))
    return out or ["%s: line endings differ" % name]


KEY = re.compile(r'"([^"]+)":')


def _field_reader(lines):
    """field(i, before): the field of a number on line i (from 0) after
    the text ``before`` it on that line.  In a JSON file that is the
    innermost key, in a CSV or TSV file the column of the last header
    line (a "# " line of a TSV file, a line without digits of a CSV file),
    else "line"."""
    keys, stack, headers, header = [], [], [], None
    for line in lines:
        found = KEY.findall(line)
        keys.append(found[-1] if found else stack[-1] if stack else "line")
        body = line.strip().rstrip(",")
        if body.endswith(("[", "{")):
            stack.append(keys[-1])
        elif body.startswith(("]", "}")) and stack:
            stack.pop()
        if line.startswith("# "):
            header = ("\t", line[2:].split("\t"))
        elif "," in line and not re.search(r"\d", line):
            header = (",", line.split(","))
        headers.append(header)

    def field(i, before):
        found = KEY.findall(before)
        if found or headers[i] is None:
            return found[-1] if found else keys[i]
        sep, names = headers[i]
        col = before.count(sep)
        return names[col] if col < len(names) else "column %d" % col
    return field


def _tally(moves, other, case, rel, want: bytes, got: bytes, digits: int):
    """Add the decimals that moved from ``want`` to ``got`` to ``moves``,
    {(case, file, field): [count, first line, last line, largest |delta|,
    every |delta| below 10^(-D/2), count down, count up]}, and every other
    difference to ``other``."""
    a, b = want.decode().splitlines(), got.decode().splitlines()
    if len(a) != len(b):
        other.append("%s %s: expected %d lines, got %d" % (case, rel, len(a), len(b)))
        return
    field, clean = _field_reader(b), True
    for i, (x, y) in enumerate(zip(a, b)):
        pieces = _pieces(x, y)
        if pieces is None:
            other.append("%s %s line %d differs beyond its decimals" % (case, rel, i + 1))
            clean = False
            continue
        xs, ys = pieces
        for j in range(1, len(xs), 2):
            if xs[j] != ys[j]:
                delta, below = _delta(xs[j], ys[j], digits)
                key = (case, rel, field(i, "".join(ys[:j])))
                entry = moves.setdefault(key, [0, i + 1, i + 1, 0, True, 0, 0])
                entry[0] += 1
                entry[5 if Fraction(ys[j]) < Fraction(xs[j]) else 6] += 1
                entry[2] = i + 1
                entry[3] = max(entry[3], delta)
                entry[4] = entry[4] and below
                clean = False
    if clean:
        other.append("%s %s: line endings differ" % (case, rel))


def _summary(moves, other) -> list:
    """The lines of the closing summary of :func:`regenerate`."""
    cases = {key[0] for key in moves} | {line.split()[0] for line in other}
    out = ["summary: %d decimals moved in %d cases; %d other differences"
           % (sum(e[0] for e in moves.values()), len(cases), len(other))]
    for (case, rel, field), (count, first, last, top, below, down, up) in sorted(moves.items()):
        out.append("  %s %s %s: %d moved (%d down, %d up), lines %d-%d, largest |delta| %.2g,"
                   " %s 10^(-D/2)" % (case, rel, field, count, down, up, first, last, top,
                                      "all below" if below else "NOT all below"))
    return out + ["  " + line for line in other]


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_report_bytes(case, tmp_path):
    got = run_case(case, tmp_path)
    want = _files(REPORTS / case["name"])
    assert sorted(got) == sorted(want), "written files differ"
    moved = [line for rel in sorted(want) if got[rel] != want[rel]
             for line in compare(rel, want[rel], got[rel], _digits(case))]
    if moved:
        pytest.fail("\n".join(moved), pytrace=False)


def test_reports_hold_one_directory_per_case():
    # a case removed from commands.json must not leave its fixture behind
    held = {(p.name, p.is_dir()) for p in REPORTS.iterdir()}
    assert held == {("commands.json", False)} | {(name, True) for name in BY_NAME}


def test_summary_counts_the_moves_down_and_up():
    want = b'{\n  "residual": "1.5e-30",\n  "residual": "2.0e-30",\n  "k": 3\n}\n'
    got = b'{\n  "residual": "1.2e-30",\n  "residual": "2.5e-30",\n  "k": 3\n}\n'
    moves, other = {}, []
    _tally(moves, other, "case", "stdout", want, got, 24)
    assert _summary(moves, other) == [
        "summary: 2 decimals moved in 1 cases; 0 other differences",
        "  case stdout residual: 2 moved (1 down, 1 up), lines 2-3, largest |delta| 5e-31,"
        " all below 10^(-D/2)"]


def regenerate(names=()):
    unknown = set(names) - set(BY_NAME)
    if unknown:
        raise SystemExit("no such case: %s" % ", ".join(sorted(unknown)))
    scratch = REPORTS / ".work"
    moves, other = {}, []
    for case in [BY_NAME[name] for name in names] or CASES:
        target = REPORTS / case["name"]
        shutil.rmtree(scratch, ignore_errors=True)
        scratch.mkdir()
        got = run_case(case, scratch)
        want = _files(target) if target.exists() else {}
        for rel in sorted(set(want) | set(got)):
            if rel not in want or rel not in got:
                change = "new" if rel in got else "gone"
                print("%s/%s %s" % (case["name"], rel, change))
                other.append("%s %s %s" % (case["name"], rel, change))
            elif got[rel] != want[rel]:
                for line in compare(rel, want[rel], got[rel], _digits(case)):
                    print("%s/%s" % (case["name"], line))
                _tally(moves, other, case["name"], rel, want[rel], got[rel], _digits(case))
        shutil.rmtree(target, ignore_errors=True)
        for rel, data in got.items():
            (target / rel).parent.mkdir(parents=True, exist_ok=True)
            (target / rel).write_bytes(data)
    shutil.rmtree(scratch)
    print("\n".join(_summary(moves, other)))


if __name__ == "__main__":
    regenerate(sys.argv[1:])
