"""Seeded fuzz test of ``cli.main`` over the shipped models and a few
seeded finite groupoids.

Every document runs under random subcommands, formats and flag values,
including negative, huge and non-integer values and unknown flags, and
``--size-bound`` down to 1, where the finite groupoids' reduced complexes
outgrow it.  Whatever the input, ``main`` must return one of the documented
exit codes and let no exception escape.  ``--max-degree`` stays at most 4,
so every case finishes in milliseconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import amplehk.cli as cli  # noqa: E402
from conftest import finite_document, random_finite_groupoid  # noqa: E402
from oracles import disjoint_union_groupoids, pair_groupoid, transitive_groupoid  # noqa: E402

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"
MODELS = sorted(str(p) for p in MODELS_DIR.glob("*.json"))
SUBCOMMANDS = ("homology", "ktheory", "hk-check", "smale-check", "span-check", "fullgroup-dims")
MODEL_COMMANDS = ("homology", "ktheory", "hk-check", "fullgroup-dims")


def applicable(path: str) -> tuple[str, ...]:
    """The subcommands that accept the document at ``path``."""
    kind = json.loads(Path(path).read_text()).get("model")
    if kind is None:
        return ("span-check",)
    return MODEL_COMMANDS + ("smale-check",) if kind == "sft" else MODEL_COMMANDS


APPLICABLE = {path: applicable(path) for path in MODELS}

# Finite groupoids whose reduced complexes are far smaller than their nerves.
FINITE = {
    "transitive_3x2": transitive_groupoid(3, 2),
    "pair_3": pair_groupoid(3),
    "union": disjoint_union_groupoids(transitive_groupoid(2, 3), pair_groupoid(2)),
    "random_5": random_finite_groupoid(random.Random(5), max_arrows=16),
    "random_11": random_finite_groupoid(random.Random(11), max_arrows=16),
}

MISSING = str(MODELS_DIR / "no_such_model.json")
HUGE = st.sampled_from(["10" + "0" * 30, str(2**64), str(-(2**64))])
NOT_AN_INT = st.sampled_from(["x", "1.5", "", "0x10", "--", "3e2"])
# Unknown or removed flags, and a flag without its value.
UNKNOWN = st.sampled_from([["--stage", "3"], ["--telescope-depth", "3"], ["--rational-only"],
                           ["--bogus"], ["-x"], ["--max-degree"], ["extra"]])


def rarely(draw) -> bool:
    """True about one time in five."""
    return draw(st.integers(0, 9)) in (3, 6)


def mostly(draw, good: st.SearchStrategy[str], bad: st.SearchStrategy[str]) -> str:
    """A usable value most of the time, so most runs get past the parser."""
    return draw(bad) if rarely(draw) else draw(good)


@pytest.fixture(scope="module")
def pool(tmp_path_factory) -> dict[str, tuple[str, ...]]:
    """Each document path with the subcommands that accept it: the shipped
    models and the ``FINITE`` groupoids written out as documents."""
    directory = tmp_path_factory.mktemp("finite")
    out = dict(APPLICABLE)
    for name, g in FINITE.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(finite_document(g)))
        out[str(path)] = MODEL_COMMANDS
    return out


@st.composite
def argvs(draw, pool: dict[str, tuple[str, ...]]) -> list[str]:
    """A subcommand, usually a document from ``pool`` it accepts, and up to
    three flags, each usually well formed."""
    paths = list(pool)
    if rarely(draw):
        command = draw(st.sampled_from(SUBCOMMANDS))
        path = draw(st.sampled_from(paths + [MISSING, None]))
    else:
        path = draw(st.sampled_from(paths))
        command = draw(st.sampled_from(pool[path]))
    argv = [command] + ([] if path is None else [path])
    for _ in range(draw(st.integers(0, 3))):
        flag = draw(st.sampled_from(
            ["--max-degree", "--size-bound", "--words", "--format", "unknown"]
        ))
        if flag == "--max-degree":
            argv += [flag, mostly(draw, st.integers(-1, 4).map(str), NOT_AN_INT)]
        elif flag == "--size-bound":
            argv += [flag, mostly(draw, st.integers(-2, 40).map(str), st.one_of(HUGE, NOT_AN_INT))]
        elif flag == "--words" and command == "fullgroup-dims":
            argv += [flag, mostly(draw, st.integers(-2, 12).map(str), st.one_of(HUGE, NOT_AN_INT))]
        elif flag == "--format":
            argv += [flag, mostly(draw, st.sampled_from(["text", "json"]), st.sampled_from(["xml", ""]))]
        elif rarely(draw):
            argv += draw(UNKNOWN)
    return argv


def call(argv: list[str]) -> tuple[int | None, str, BaseException | None]:
    out, err = io.StringIO(), io.StringIO()
    code, escaped = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except (Exception, SystemExit) as e:
            escaped = e
    return code, out.getvalue(), escaped


@settings(derandomize=True, deadline=None, database=None, max_examples=1000)
@given(data=st.data())
def test_main_returns_a_documented_exit_code(pool, data):
    argv = data.draw(argvs(pool), label="argv")
    code, out, escaped = call(argv)
    assert escaped is None, f"{argv}: {escaped!r} escaped cli.main"
    assert code in (0, 1, 2, 3), f"{argv}: exit {code}"
    if code == 1:
        assert any(
            mark in out
            for mark in ("verdict: mismatch", '"verdict": "mismatch"',
                         "functorial: false", '"functorial": false')
        ), f"{argv}: exit 1 without a mismatch on stdout"
