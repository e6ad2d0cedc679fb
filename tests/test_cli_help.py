"""Golden help and usage text of the ``amplehk`` command line.

``amplehk --help``, each subcommand's ``--help`` and the ``error:`` line of
a fixed list of bad command lines are stored in
``tests/golden/cli_help.json`` with their exit codes.  A change to the
parser's construction must leave all of them byte-identical.  ``COLUMNS`` is
pinned to 100 so that argparse wraps the same way on every terminal and on
Python 3.10 to 3.13 (at 80, 3.13 wraps the top-level usage line differently).

Invalid-choice errors are not in the list: the way argparse quotes the
choices in that message differs between Python versions.

Regenerate the fixture (only when a help or usage change is intended) with::

    PYTHONPATH=src python tests/test_cli_help.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

import amplehk.cli as cli

FIXTURE = Path(__file__).resolve().parent / "golden" / "cli_help.json"
COLUMNS = "100"

SUBCOMMANDS = ("homology", "ktheory", "hk-check", "smale-check", "span-check", "fullgroup-dims")

ARGV_CASES: list[list[str]] = (
    [["--help"]]
    + [[command, "--help"] for command in SUBCOMMANDS]
    + [
        [],
        ["ktheory"],
        ["homology", "doc.json", "--bogus"],
        ["homology", "doc.json", "--max-degree", "x"],
        ["homology", "doc.json", "--max-degree"],
        ["homology", "doc.json", "--size-bound", "big"],
        ["hk-check", "doc.json", "--words", "3"],
        ["span-check", "first.json", "second.json"],
        ["fullgroup-dims", "doc.json", "--words", "1.5"],
        ["fullgroup-dims", "doc.json", "--words", "-1"],
        ["smale-check", "doc.json", "--max-degree", "65"],
        ["ktheory", "doc.json", "--telescope-depth", "deep"],
        # Options a subcommand does not take, removed from it or never its own.
        ["homology", "doc.json", "--rational-only"],
        ["ktheory", "doc.json", "--max-degree", "2"],
        ["ktheory", "doc.json", "--size-bound", "10"],
        ["ktheory", "doc.json", "--rational-only"],
        ["hk-check", "doc.json", "--rational-only"],
        ["smale-check", "doc.json", "--size-bound", "10"],
        ["smale-check", "doc.json", "--rational-only"],
        ["span-check", "doc.json", "--max-degree", "2"],
        ["span-check", "doc.json", "--size-bound", "10"],
        ["span-check", "doc.json", "--rational-only"],
        ["fullgroup-dims", "doc.json", "--rational-only"],
    ]
)


def run_argv(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as e:
            code = e.code
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def load_fixture() -> list[dict]:
    return json.loads(FIXTURE.read_text())


@pytest.fixture(autouse=True)
def fixed_width(monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)


def test_fixture_covers_every_case():
    assert [case["argv"] for case in load_fixture()] == ARGV_CASES


@pytest.mark.parametrize("index", range(len(ARGV_CASES)), ids=lambda i: " ".join(ARGV_CASES[i]) or "(none)")
def test_output_matches_golden(index):
    assert run_argv(ARGV_CASES[index]) == load_fixture()[index]


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps([run_argv(a) for a in ARGV_CASES], indent=1) + "\n")
