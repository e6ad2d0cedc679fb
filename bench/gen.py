"""Seeded generators for the benchmark workloads.

Each workload is one *pass*: a fixed list of items, each a CLI argument list
plus the document it reads.  The seed changes the documents (labels, arrow
order, matrix entries) but never the size classes, so figures from two seeds
can be compared and a claim can be re-checked on a seed nobody tuned for.
The program under test only ever sees the JSON text written here.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("bar_complex", "symbolic_dense", "cli_small_docs")

DOC = "{doc}"  # placeholder in an argument list for the item's document path


def dump(doc) -> str:
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def _item(cls: str, argv: list[str], doc: str | None, expect: dict | None = None) -> dict:
    return {"cls": cls, "argv": argv, "doc": doc, "expect": expect}


# ---------------------------------------------------------------------------
# finite groupoids: disjoint unions of transitive blocks with cyclic isotropy


def _tokens(rng: random.Random, count: int, prefix: str) -> list[str]:
    seen: set[str] = set()
    out = []
    while len(out) < count:
        tok = f"{prefix}{rng.getrandbits(24):06x}"
        if tok not in seen:
            seen.add(tok)
            out.append(tok)
    return out


def finite_doc(rng: random.Random, blocks: list[tuple[int, int]]) -> dict:
    """Disjoint union of transitive groupoids on n units with isotropy Z/k.

    Block (n, k) has n*n*k arrows (i, j, g): source unit j, target unit i,
    group element g; (i, j, g) . (j, l, h) = (i, l, g + h).  Unit and arrow
    names are random and the composition and inverse tables are shuffled,
    so two seeds give different documents for isomorphic groupoids.

    Units and arrows stay in the order transitive_groupoid uses, (i, j, g).
    The nerve is enumerated in arrow order and the elimination's pivots
    follow it, so a shuffled arrow list moves the cost of one groupoid by up to half
    (Z/5 to degree 3: 0.96-1.48 s over five orders), which would swamp any
    comparison between seeds.
    """
    units: list[str] = []
    arrows: list[dict] = []
    compose: list[list[str]] = []
    inverse: dict[str, str] = {}
    for n, k in blocks:
        names = _tokens(rng, n, "u")
        ids = iter(_tokens(rng, n * n * k, "a"))
        arrow = {(i, j, g): next(ids) for i in range(n) for j in range(n) for g in range(k)}
        units.extend(names)
        for (i, j, g), a in arrow.items():
            arrows.append({"id": a, "source": names[j], "target": names[i]})
            inverse[a] = arrow[(j, i, (-g) % k)]
            for l in range(n):
                for h in range(k):
                    compose.append([a, arrow[(j, l, h)], arrow[(i, l, (g + h) % k)]])
    rng.shuffle(compose)
    keys = list(inverse)
    rng.shuffle(keys)
    return {
        "model": "finite",
        "units": units,
        "arrows": arrows,
        "compose": compose,
        "inverse": {a: inverse[a] for a in keys},
    }


def _blocks_cls(blocks: list[tuple[int, int]]) -> str:
    return "+".join(f"T{n}x{k}" for n, k in sorted(blocks))


# ---------------------------------------------------------------------------
# symbolic models


def _nonneg(rng: random.Random, rows: int, cols: int, density: float, top: int) -> list[list[int]]:
    m = [[rng.randint(1, top) if rng.random() < density else 0 for _ in range(cols)] for _ in range(rows)]
    for i in range(rows):
        if not any(m[i]):
            m[i][rng.randrange(cols)] = 1
    for j in range(cols):
        if not any(m[i][j] for i in range(rows)):
            m[rng.randrange(rows)][j] = 1
    return m


def sft_doc(rng: random.Random, n: int, density: float, top: int) -> dict:
    return {"model": "sft", "matrix": _nonneg(rng, n, n, density, top)}


def _tail(rng: random.Random, n: int, core: int) -> list[list[int]]:
    """Nonnegative n x n tail whose rank drops under powers when core < n.

    In block form [[P, X], [0, N]] with P core x core and N strictly upper
    triangular (nilpotent), so rank(T) exceeds the eventual rank, which is
    that of P; a simultaneous row and column shuffle hides the blocks.
    """
    t = _nonneg(rng, n, n, 0.3, 2)
    for i in range(core, n):
        for j in range(i + 1):
            t[i][j] = 0
    order = list(range(n))
    rng.shuffle(order)
    return [[t[i][j] for j in order] for i in order]


def af_doc(rng: random.Random, n: int, core: int) -> dict:
    mid = rng.randint(2, 4)
    return {
        "model": "af",
        "level_sizes": [1, mid, n],
        "incidences": [_nonneg(rng, mid, 1, 1.0, 2), _nonneg(rng, n, mid, 0.6, 2)],
        "tail": _tail(rng, n, core),
    }


def _first_positive_power(tail: list[list[int]]) -> int:
    n = len(tail)
    base = [[x > 0 for x in row] for row in tail]
    power = base
    for k in range(1, (n - 1) ** 2 + 2):
        if all(all(row) for row in power):
            return k
        power = [[any(power[i][t] and base[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
    raise ValueError("tail is not primitive")


def cantor_doc(rng: random.Random, n: int) -> dict:
    """Cantor minimal Z-system with a primitive tail, certified at its own depth.

    A random sparse tail plus a cyclic permutation (irreducible) and one loop
    (aperiodic) is primitive; ``telescope_depth`` is the first power that is
    entrywise positive, so certification always succeeds.
    """
    tail = _nonneg(rng, n, n, 0.25, 2)
    order = list(range(n))
    rng.shuffle(order)
    for a, b in zip(order, order[1:] + order[:1]):
        tail[a][b] = max(tail[a][b], 1)
    tail[order[0]][order[0]] = max(tail[order[0]][order[0]], 1)
    diagram = af_doc(rng, n, n)
    diagram["tail"] = tail
    del diagram["model"]
    return {"model": "cantor_z", "diagram": diagram, "telescope_depth": _first_positive_power(tail)}


def product_doc(*factors: dict) -> dict:
    """Right-nested product of two or more factors."""
    doc = factors[-1]
    for f in reversed(factors[:-1]):
        doc = {"model": "product", "factors": [f, doc]}
    return doc


def span_doc(rng: random.Random, sizes: tuple[int, ...]) -> dict:
    """A span, or the composable pair of spans, over boundary sets of ``sizes``."""

    def span(left: list[str], right: list[str], mids: int) -> dict:
        mid = _tokens(rng, mids, "m")
        return {
            "left": left,
            "mid": mid,
            "right": right,
            "left_leg": {z: rng.choice(left) for z in mid},
            "right_leg": {z: rng.choice(right) for z in mid},
        }

    sets = [_tokens(rng, s, "x") for s in sizes]
    spans = [span(a, b, rng.randint(1, 2 * len(a))) for a, b in zip(sets, sets[1:])]
    return {"span": spans[0]} if len(spans) == 1 else {"compose": spans}


# ---------------------------------------------------------------------------
# workloads


def bar_complex(rng: random.Random) -> list[dict]:
    """Finite groupoids through the bar complex, top nerve level <= ~650 cells.

    Blocks (n, k) are transitive on n units with isotropy Z/k, so (1, k) is
    the group Z/k and (n, 1) the pair groupoid.  Both torsion isotropy
    (hk-check exit 2) and principal groupoids (verdict match) occur.
    """
    # Under both subcommands.  The six slots with about 250 top-level cells
    # (0.12-0.18 s each) straddle the 90th percentile of call times, so
    # doc_s_p90 sits inside a plateau instead of on a step between sizes.
    both = [
        ([(1, 2)], 1), ([(1, 2)], 2), ([(1, 2)], 3), ([(1, 3)], 1), ([(1, 3)], 2), ([(1, 3)], 3),
        ([(1, 4)], 1), ([(1, 4)], 2), ([(1, 4)], 3), ([(1, 5)], 1), ([(1, 5)], 2),
        ([(1, 6)], 1), ([(1, 6)], 2),
        ([(2, 1)], 1), ([(2, 1)], 2), ([(2, 1)], 3), ([(3, 1)], 1), ([(3, 1)], 2), ([(3, 1)], 3),
        ([(4, 1)], 1), ([(4, 1)], 2), ([(5, 1)], 1),
        ([(2, 2)], 1), ([(2, 2)], 2), ([(2, 3)], 1), ([(3, 2)], 1),
        ([(1, 2), (2, 1)], 1), ([(1, 3), (2, 1)], 2), ([(1, 2), (1, 3), (3, 1)], 2),
        ([(2, 1), (3, 1)], 2), ([(1, 4), (2, 2)], 2), ([(1, 2), (1, 2)], 3),
    ]
    # The heaviest slots (top level 400-650 cells) run under one subcommand
    # only, to keep a pass near five seconds on a 2-core Xeon.
    once = [
        ([(1, 5)], 3, "hk-check"), ([(2, 2)], 3, "homology"),
        ([(2, 3)], 2, "hk-check"), ([(3, 2)], 2, "homology"),
    ]
    slots = [(b, d, c) for b, d in both for c in ("hk-check", "homology")] + once
    items = [
        _item(
            f"finite:{_blocks_cls(blocks)}:d{degree}:{command}",
            [command, DOC, "--max-degree", str(degree), "--format", "json"],
            dump(finite_doc(rng, blocks)),
        )
        for blocks, degree, command in slots
    ]
    # One finite x finite product: Kunneth over two bar complexes.
    for left, right, degree, command in (
        ([(1, 3)], [(2, 1)], 2, "homology"),
        ([(2, 1)], [(3, 1)], 2, "hk-check"),
    ):
        doc = product_doc(finite_doc(rng, left), finite_doc(rng, right))
        items.append(
            _item(
                f"product:{_blocks_cls(left)}*{_blocks_cls(right)}:d{degree}:{command}",
                [command, DOC, "--max-degree", str(degree), "--format", "json"],
                dump(doc),
            )
        )
    rng.shuffle(items)
    return items


def symbolic_dense(rng: random.Random) -> list[dict]:
    """SFTs (n 20-60), AF and cantor_z tails (n 8-16) and their products.

    No nerve: the work is dense elimination of I - A^T with invariant factors
    above 100 bits, and colimit ranks of powered tails.
    """
    items = []
    # Three SFTs (n 50-60) cost 0.25-0.6 s; the five next heaviest documents
    # (0.1-0.15 s) straddle the 90th percentile of call times, so doc_s_p90
    # sits inside that group rather than on the step below the largest.
    sfts = [
        (20, 0.3, 1, "hk-check"), (20, 0.6, 3, "hk-check"), (20, 0.3, 1, "ktheory"),
        (20, 0.6, 3, "ktheory"), (20, 0.45, 2, "hk-check"), (20, 0.45, 2, "ktheory"),
        (24, 0.5, 2, "hk-check"), (24, 0.5, 2, "ktheory"), (24, 0.3, 1, "hk-check"), (24, 0.3, 1, "ktheory"),
        (30, 0.3, 1, "hk-check"), (30, 0.6, 3, "hk-check"), (30, 0.3, 1, "ktheory"),
        (30, 0.6, 3, "ktheory"), (40, 0.3, 1, "hk-check"), (40, 0.5, 2, "ktheory"),
        (40, 0.6, 3, "ktheory"), (50, 0.3, 1, "hk-check"), (50, 0.6, 3, "ktheory"),
        (60, 0.3, 1, "hk-check"),
    ]
    for n, density, top, command in sfts:
        items.append(
            _item(f"sft:{n}:{density}:{top}:{command}", [command, DOC, "--format", "json"],
                  dump(sft_doc(rng, n, density, top)))
        )
    for n, core in ((8, 8), (8, 5), (10, 6), (10, 10), (12, 12), (12, 8), (14, 9), (16, 16), (16, 10)):
        for command in ("hk-check", "ktheory"):
            items.append(
                _item(f"af:{n}:{core}:{command}", [command, DOC, "--format", "json"],
                      dump(af_doc(rng, n, core)))
            )
    for n, command in ((8, "hk-check"), (8, "ktheory"), (10, "ktheory"), (10, "hk-check"), (12, "hk-check"),
                       (12, "ktheory"), (14, "ktheory"), (16, "hk-check")):
        items.append(
            _item(f"cantor_z:{n}:{command}", [command, DOC, "--format", "json"], dump(cantor_doc(rng, n)))
        )
    for (a, b), command in (((20, 12), "hk-check"), ((24, 16), "ktheory")):
        doc = product_doc(sft_doc(rng, a, 0.4, 2), sft_doc(rng, b, 0.4, 2))
        items.append(_item(f"product:sft{a}*sft{b}:{command}", [command, DOC, "--format", "json"], dump(doc)))
    for (a, b), command in (((20, 10), "hk-check"), ((30, 12), "ktheory")):
        doc = product_doc(sft_doc(rng, a, 0.4, 2), af_doc(rng, b, b))
        items.append(_item(f"product:sft{a}*af{b}:{command}", [command, DOC, "--format", "json"], dump(doc)))
    rng.shuffle(items)
    return items


# Which subcommands read which document kind; smale-check needs an sft.
_COMMANDS = {
    "sft": ("homology", "ktheory", "hk-check", "smale-check", "fullgroup-dims"),
    "af": ("homology", "ktheory", "hk-check", "fullgroup-dims"),
    "cantor_z": ("homology", "ktheory", "hk-check", "fullgroup-dims"),
    "finite": ("homology", "ktheory", "hk-check", "fullgroup-dims"),
    "product": ("homology", "ktheory", "hk-check", "fullgroup-dims"),
    "span": ("span-check",),
}


def _kind(doc: dict) -> str:
    return doc.get("model", "span")


def _malformed(rng: random.Random) -> list[tuple[str, str, str, int]]:
    """(class, subcommand, document text, expected exit) for unusable inputs."""
    good = sft_doc(rng, 3, 0.6, 2)
    zero_row = sft_doc(rng, 3, 0.6, 2)
    zero_row["matrix"][rng.randrange(3)] = [0, 0, 0]
    broken = finite_doc(rng, [(2, 1)])
    broken["compose"].pop(rng.randrange(len(broken["compose"])))
    return [
        ("json_syntax", "homology", dump(good)[:-4], 3),
        ("missing_field", "ktheory", dump({"model": "sft"}), 3),
        ("unknown_kind", "hk-check", dump({"model": "torus", "matrix": [[1]]}), 3),
        ("bad_entry", "homology", dump({"model": "sft", "matrix": [[1, "x"], [1, 1]]}), 3),
        ("ragged", "ktheory", dump({"model": "sft", "matrix": [[1, 1], [1]]}), 3),
        ("three_factors", "hk-check", dump({"model": "product", "factors": [good, good, good]}), 3),
        ("zero_row", "hk-check", dump(zero_row), 3),
        ("negative", "homology", dump({"model": "sft", "matrix": [[1, -1], [1, 1]]}), 3),
        ("missing_compose", "homology", dump(broken), 3),
        ("smale_on_af", "smale-check", dump(af_doc(rng, 3, 3)), 3),
        ("not_a_list", "hk-check", dump([1, 2, 3]), 3),
        ("uncertified", "hk-check",
         dump({"model": "cantor_z", "telescope_depth": 2,
               "diagram": {"level_sizes": [2], "incidences": [], "tail": [[1, 0], [0, 1]]}}), 2),
    ]


def cli_small_docs(rng: random.Random, models_dir: Path) -> list[dict]:
    """Hundreds of tiny documents: every shipped model under every subcommand
    that applies, in both formats, plus seeded small models, nested products,
    spans and malformed inputs."""
    docs: list[tuple[str, str]] = []
    for path in sorted(models_dir.glob("*.json")):
        docs.append((f"models/{path.name}", path.read_text()))
    small = [
        ("sft2", sft_doc(rng, 2, 0.7, 2)), ("sft4", sft_doc(rng, 4, 0.5, 3)),
        ("sft6", sft_doc(rng, 6, 0.4, 2)), ("af3", af_doc(rng, 3, 3)), ("af5", af_doc(rng, 5, 2)),
        ("cantor3", cantor_doc(rng, 3)), ("cantor4", cantor_doc(rng, 4)),
        ("finite:T2x1", finite_doc(rng, [(2, 1)])), ("finite:T1x3", finite_doc(rng, [(1, 3)])),
        ("finite:T1x2+T2x1", finite_doc(rng, [(1, 2), (2, 1)])),
        ("product2:sft*sft", product_doc(sft_doc(rng, 2, 0.7, 2), sft_doc(rng, 3, 0.6, 2))),
        ("product2:sft*af", product_doc(sft_doc(rng, 2, 0.7, 3), af_doc(rng, 3, 2))),
        ("product3:sft*sft*sft", product_doc(*(sft_doc(rng, 2, 0.7, 3) for _ in range(3)))),
        ("product3:finite*sft*cantor",
         product_doc(finite_doc(rng, [(2, 1)]), sft_doc(rng, 2, 0.7, 2), cantor_doc(rng, 2))),
        ("product4:sft*sft*af*sft",
         product_doc(sft_doc(rng, 2, 0.7, 2), sft_doc(rng, 2, 0.7, 3), af_doc(rng, 2, 2), sft_doc(rng, 3, 0.5, 2))),
        ("product4:finite*finite*sft*sft",
         product_doc(finite_doc(rng, [(1, 2)]), finite_doc(rng, [(2, 1)]), sft_doc(rng, 2, 0.7, 2),
                     sft_doc(rng, 2, 0.7, 3))),
        ("span", span_doc(rng, (3, 2))), ("span_pair", span_doc(rng, (2, 3, 2))),
    ]
    docs.extend((cls, dump(doc)) for cls, doc in small)

    items = []
    for cls, text in docs:
        for command in _COMMANDS[_kind(json.loads(text))]:
            for fmt in ("text", "json"):
                items.append(_item(f"{cls}:{command}:{fmt}", [command, DOC, "--format", fmt], text))
    for cls, command, text, code in _malformed(rng):
        items.append(_item(f"malformed:{cls}:{command}", [command, DOC], text, {"exit": code}))
    items.append(_item("malformed:missing_file:homology", ["homology", DOC], None, {"exit": 3}))
    rng.shuffle(items)
    return items


def known_faulty(rng: random.Random) -> list[dict]:
    """Inputs that end outside the documented exit codes at the seed.

    Each should end with exit 3 (unusable input).  Two more known faults are
    left out on purpose because they do not finish in minutes:
    ``telescope_depth: 100000000`` on a non-primitive tail, and
    ``fullgroup-dims --words 100000000``.
    """
    # Written as text: the encoder itself would hit the recursion limit.
    one = json.dumps(sft_doc(rng, 1, 1.0, 1))
    nested = f'{{"model": "product", "factors": [{one}, ' * 600 + json.dumps(sft_doc(rng, 2, 0.7, 2)) + "]}" * 600
    return [
        _item("faulty:max_degree_-1", ["homology", DOC, "--max-degree", "-1"],
              dump(finite_doc(rng, [(2, 1)])), {"exit": 3}),
        _item("faulty:product_depth_600", ["hk-check", DOC], nested, {"exit": 3}),
    ]


def generate(workload: str, seed: int, models_dir: Path) -> list[dict]:
    """One pass of ``workload`` for ``seed``; the same arguments give the
    same items, byte for byte."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "bar_complex":
        return bar_complex(rng)
    if workload == "symbolic_dense":
        return symbolic_dense(rng)
    if workload == "cli_small_docs":
        return cli_small_docs(rng, models_dir)
    raise ValueError(f"unknown workload {workload!r}")
