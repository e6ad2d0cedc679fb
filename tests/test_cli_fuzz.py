"""Seeded fuzz test of ``cli.main`` over the shipped models, a few seeded
finite groupoids, and seeded symbolic documents: shifts of finite type, AF
and Cantor minimal diagrams, and products nested up to three deep that mix
them with the finite groupoids.

Every document runs under random subcommands, formats and flag values,
including negative, huge and non-integer values and unknown flags, and
``--size-bound`` down to 1, where the finite groupoids' reduced complexes
outgrow it.  Whatever the input, ``main`` must return one of the documented
exit codes and let no exception escape.  ``--max-degree`` stays at most 4,
so every case finishes in milliseconds.  Under default flags the exit code
of each seeded document is known from how it was built.
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
from conftest import finite_document, nonnegative, random_finite_groupoid  # noqa: E402
from oracles import (  # noqa: E402
    disjoint_union_groupoids,
    pair_groupoid,
    transitive_groupoid,
    units_with_isotropy_by_name,
)

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



def diagram(rng: random.Random, tail: list[list[int]]) -> dict:
    """A Bratteli diagram with up to two seeded levels before ``tail``."""
    sizes = [rng.randint(1, 3) for _ in range(rng.randint(0, 2))] + [len(tail)]
    head = [nonnegative(rng, above, below) for below, above in zip(sizes, sizes[1:])]
    return {"level_sizes": sizes, "incidences": head, "tail": tail}


# Tails that are not primitive (no power is entrywise positive), or whose
# path space is a single point.
NOT_PRIMITIVE = ([[1]], [[1, 1], [0, 1]], [[0, 1], [1, 0]], [[2, 0], [0, 1]], [[1, 2, 0], [0, 1, 0], [1, 1, 1]])


def seeded_documents() -> dict[str, tuple[dict, frozenset[str]]]:
    """Seeded documents by name, each with the hypotheses it fails:
    "simplicity" when a factor is a Cantor minimal diagram whose tail is
    not primitive, "isotropy" when a factor is a finite groupoid with a
    non-identity loop."""
    rng = random.Random("fuzz:symbolic")
    leaves: dict[str, tuple[dict, frozenset[str]]] = {}
    for k in range(8):
        n = rng.randint(1, 4)
        leaves[f"sft_{k}"] = ({"model": "sft", "matrix": nonnegative(rng, n, n)}, frozenset())
    for k in range(4):
        n = rng.randint(1, 3)
        tail = [[rng.choice((0, 0, 1, 2)) for _ in range(n)] for _ in range(n)]
        leaves[f"af_{k}"] = ({"model": "af", **diagram(rng, tail)}, frozenset())
    for k in range(4):
        n = rng.randint(1, 3)
        tail = nonnegative(rng, n, n, entries=(1, 2)) if n > 1 else [[rng.randint(2, 3)]]
        leaves[f"cantor_{k}"] = ({"model": "cantor_z", "diagram": diagram(rng, tail)}, frozenset())
    for k, tail in enumerate(NOT_PRIMITIVE):
        doc = {"model": "cantor_z", "diagram": diagram(rng, tail)}
        leaves[f"cantor_not_primitive_{k}"] = (doc, frozenset({"simplicity"}))
    for name, g in FINITE.items():
        leaves[name] = (finite_document(g), frozenset({"isotropy"} if units_with_isotropy_by_name(g) else ()))

    # A factor that fails simplicity decides the whole product, so one is
    # drawn only one time in eight.
    simple = [leaf for leaf in leaves.values() if "simplicity" not in leaf[1]]
    not_simple = [leaf for leaf in leaves.values() if "simplicity" in leaf[1]]

    def product(depth: int) -> tuple[dict, frozenset[str]]:
        factors = [
            product(depth - 1) if depth > 1 and rng.random() < 0.5
            else rng.choice(not_simple if rng.random() < 0.125 else simple)
            for _ in range(2)
        ]
        return {"model": "product", "factors": [f[0] for f in factors]}, factors[0][1] | factors[1][1]

    products = {f"product_{k}": product(1 + k % 3) for k in range(36)}
    return {**{name: leaf for name, leaf in leaves.items() if name not in FINITE}, **products}


SEEDED = seeded_documents()
# Commands whose hypotheses include torsion-free isotropy.
ISOTROPY_COMMANDS = ("ktheory", "hk-check", "fullgroup-dims")


def expected_exit(faults: frozenset[str], command: str) -> int:
    """2 for a failed hypothesis the command needs, 0 otherwise."""
    if "simplicity" in faults or ("isotropy" in faults and command in ISOTROPY_COMMANDS):
        return 2
    return 0


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
def seeded(tmp_path_factory) -> dict[str, frozenset[str]]:
    """The path of each ``SEEDED`` document, written out, with its faults."""
    directory = tmp_path_factory.mktemp("seeded")
    out = {}
    for name, (doc, faults) in SEEDED.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(doc))
        out[str(path)] = faults
    return out


@pytest.fixture(scope="module")
def pool(tmp_path_factory, seeded) -> dict[str, tuple[str, ...]]:
    """Each document path with the subcommands that accept it: the shipped
    models, the ``FINITE`` groupoids written out as documents, and the
    ``SEEDED`` documents."""
    directory = tmp_path_factory.mktemp("finite")
    out = dict(APPLICABLE)
    for name, g in FINITE.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(finite_document(g)))
        out[str(path)] = MODEL_COMMANDS
    out.update({path: applicable(path) for path in seeded})
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


def test_seeded_documents_exit_as_built(seeded, pool):
    wrong = []
    for path, faults in seeded.items():
        for command in pool[path]:
            code, _, escaped = call([command, path])
            if escaped is not None or code != expected_exit(faults, command):
                wrong.append((Path(path).stem, command, code, escaped))
    assert wrong == []
    # The products reach every expected outcome.
    outcomes = {faults for path, faults in seeded.items() if Path(path).stem.startswith("product_")}
    assert {frozenset(), frozenset({"simplicity"}), frozenset({"isotropy"})} <= outcomes
