"""Invariance under moves: presentations of one groupoid give one report.

A move changes a model's presentation but not its groupoid, up to an
equivalence that keeps homology and K-theory, so every command must answer
the same, apart from the ``model`` summary that names the presentation.
The oracle is a classification theorem rather than a second copy of a
formula, so a slip in parsing, in the colimit's stable power or in
elimination shows up as a difference.

- Strong shift equivalence: for nonnegative D and E, the shifts of finite
  type of DE and ED have isomorphic groupoids up to Kakutani equivalence,
  and coker(I - (DE)^T) = coker(I - (ED)^T) (Williams, Ann. Math. 1973;
  Lind and Marcus, *An Introduction to Symbolic Dynamics and Coding*, ch. 7;
  Matui, Proc. LMS 2012).
- Bratteli telescoping: replacing the stationary tail T by T^k keeps the
  dimension group (Bratteli, TAMS 1972) and, for a Cantor minimal system,
  the system up to conjugacy (Herman, Putnam and Skau, Int. J. Math. 1992).
  T is primitive exactly when T^k is, so a failed simplicity certificate
  fails for both.
- Product symmetry and associativity: A x B is isomorphic to B x A, and
  (A x B) x C to A x (B x C), as groupoids.  The Kunneth formula must then
  give one answer for each, Tor terms included, so the factors are drawn
  with torsion on both sides.  The ``model`` summary, each precondition's
  justification and the "precondition failed" note name the factors in
  order, so they are left out of the comparison.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from amplehk import cli
from conftest import finite_document, nonnegative
from oracles import cyclic_group_groupoid, transitive_groupoid

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"


def outcome(capsys, command: str, path: str, *flags: str) -> tuple[int, dict | None, str]:
    """Exit code, JSON output without its ``model`` key, and stderr."""
    code = cli.main([command, path, "--format", "json", *flags])
    out, err = capsys.readouterr()
    report = json.loads(out) if out else None
    if report is not None:
        del report["model"]
    return code, report, err


def write(path, doc: dict) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def matmul(x: list[list[int]], y: list[list[int]]) -> list[list[int]]:
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*y)] for row in x]


def test_strong_shift_equivalent_shifts_give_one_report(capsys, tmp_path):
    rng = random.Random("moves:sse")
    differences = []
    for _ in range(200):
        p, q = rng.randint(1, 5), rng.randint(1, 6)
        d, e = nonnegative(rng, p, q), nonnegative(rng, q, p)
        # D and E have no zero row or column, so neither have DE and ED.
        de = write(tmp_path / "de.json", {"model": "sft", "matrix": matmul(d, e)})
        ed = write(tmp_path / "ed.json", {"model": "sft", "matrix": matmul(e, d)})
        for command in ("hk-check", "homology", "ktheory"):
            if outcome(capsys, command, de) != outcome(capsys, command, ed):
                differences.append((command, d, e))
    assert differences == []


def test_telescoped_tails_give_one_report(capsys, tmp_path):
    rng = random.Random("moves:telescope")
    differences = []
    exits = set()
    for _ in range(50):
        n = rng.randint(1, 4)
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(0, 2))] + [n]
        head = [
            [[rng.choice((0, 1, 2)) for _ in range(below)] for _ in range(above)]
            for below, above in zip(sizes, sizes[1:])
        ]
        tail = [[rng.choice((0, 0, 1, 2)) for _ in range(n)] for _ in range(n)]
        powers = [tail, matmul(tail, tail)]
        powers.append(matmul(powers[1], tail))
        diagrams = [{"level_sizes": sizes, "incidences": head, "tail": t} for t in powers]
        for kind in ("af", "cantor_z"):
            docs = [
                {"model": "af", **diagram} if kind == "af" else {"model": "cantor_z", "diagram": diagram}
                for diagram in diagrams
            ]
            paths = [write(tmp_path / f"t{k}.json", doc) for k, doc in enumerate(docs, 1)]
            for command in ("hk-check", "homology"):
                base = outcome(capsys, command, paths[0])
                exits.add((kind, base[0]))
                for k, path in enumerate(paths[1:], 2):
                    if outcome(capsys, command, path) != base:
                        differences.append((kind, command, k, tail))
    assert differences == []
    # The corpus holds primitive and non-primitive tails alike.
    assert exits == {("af", 0), ("cantor_z", 0), ("cantor_z", 2)}


def product_outcome(capsys, command: str, path: str) -> tuple[int, dict | None]:
    """Exit code and JSON output of a product, without what names its
    factors in order: the ``model`` summary, each precondition's
    justification and the "precondition failed" note."""
    flags = () if command == "ktheory" else ("--max-degree", "2")
    code, report, _ = outcome(capsys, command, path, *flags)
    if report is not None:
        for precondition in report.get("preconditions", ()):
            del precondition["justification"]
        if "notes" in report:
            report["notes"] = [n for n in report["notes"] if not n.startswith("precondition failed: ")]
    return code, report


def product(left: dict, right: dict) -> dict:
    return {"model": "product", "factors": [left, right]}


def product_factors() -> list[dict]:
    """The shipped models, and seeded factors with torsion: Z/k, a finite
    groupoid with Z/2 isotropy on two units, and shifts whose H_0 =
    coker(I - A^T) has torsion."""
    shipped = [json.loads(p.read_text()) for p in sorted(MODELS_DIR.glob("*.json"))]
    factors = [doc for doc in shipped if "model" in doc]
    factors += [finite_document(cyclic_group_groupoid(k)) for k in (2, 3, 4)]
    factors.append(finite_document(transitive_groupoid(2, 2)))
    factors += [{"model": "sft", "matrix": [[k]]} for k in (4, 5)]
    rng = random.Random("moves:torsion-sft")
    shifts: list[dict] = []
    while len(shifts) < 4:
        m = nonnegative(rng, 2, 2)
        # When det(I - A) is not 0, H_0 is finite of order |det(I - A)|.
        if abs((1 - m[0][0]) * (1 - m[1][1]) - m[0][1] * m[1][0]) > 1:
            shifts.append({"model": "sft", "matrix": m})
    return factors + shifts


def test_products_commute(capsys, tmp_path):
    factors = product_factors()
    differences, compared = [], 0
    for i, left in enumerate(factors):
        for right in factors[i + 1:]:
            ab = write(tmp_path / "ab.json", product(left, right))
            ba = write(tmp_path / "ba.json", product(right, left))
            for command in ("homology", "hk-check", "ktheory"):
                compared += 1
                if product_outcome(capsys, command, ab) != product_outcome(capsys, command, ba):
                    differences.append((command, left, right))
    assert differences == [] and compared > 400


def test_products_associate(capsys, tmp_path):
    factors = product_factors()
    rng = random.Random("moves:associate")
    differences = []
    for _ in range(60):
        a, b, c = (rng.choice(factors) for _ in range(3))
        left = write(tmp_path / "left.json", product(product(a, b), c))
        right = write(tmp_path / "right.json", product(a, product(b, c)))
        for command in ("homology", "hk-check", "ktheory"):
            if product_outcome(capsys, command, left) != product_outcome(capsys, command, right):
                differences.append((command, a, b, c))
    assert differences == []
