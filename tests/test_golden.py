"""Golden CLI output: stdout bytes and exit code for every shipped model.

Every document in ``models/`` runs under every subcommand, in text and JSON
format, plain and with ``--rational-only`` or ``--max-degree 2``.  The
expected stdout and exit code of each run are stored in
``tests/golden/cli_outputs.json``; a change to any of them is a change to
the program's output and must be deliberate.

Regenerate the fixture (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
from pathlib import Path

import pytest

import amplehk.cli as cli

ROOT = Path(__file__).resolve().parent.parent
MODELS_DIR = ROOT / "models"
FIXTURE = Path(__file__).resolve().parent / "golden" / "cli_outputs.json"

SUBCOMMANDS = ("homology", "ktheory", "hk-check", "smale-check", "span-check", "fullgroup-dims")
VARIANTS = ((), ("--rational-only",), ("--max-degree", "2"))
FORMATS = ("text", "json")


def cases() -> list[str]:
    keys = []
    for path in sorted(MODELS_DIR.glob("*.json")):
        for command in SUBCOMMANDS:
            for variant in VARIANTS:
                for fmt in FORMATS:
                    keys.append(" ".join((path.name, command, "--format", fmt) + variant))
    return keys


def run_case(key: str) -> dict:
    name, command, *flags = key.split(" ")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, str(MODELS_DIR / name), *flags])
    return {"exit": code, "stdout": out.getvalue()}


@functools.cache
def load_fixture() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case():
    assert sorted(load_fixture()) == sorted(cases())


@pytest.mark.parametrize("key", cases())
def test_output_matches_golden(key):
    assert run_case(key) == load_fixture()[key]


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps({k: run_case(k) for k in cases()}, indent=1, sort_keys=True) + "\n")
