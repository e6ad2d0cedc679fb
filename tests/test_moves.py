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
"""

from __future__ import annotations

import json
import random

from amplehk import cli


def outcome(capsys, command: str, path: str) -> tuple[int, dict | None, str]:
    """Exit code, JSON output without its ``model`` key, and stderr."""
    code = cli.main([command, path, "--format", "json"])
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


def nonnegative(rng: random.Random, rows: int, cols: int) -> list[list[int]]:
    """A nonnegative matrix with entries drawn from {0, 0, 1, 2}, redrawn
    until no row and no column is zero."""
    while True:
        m = [[rng.choice((0, 0, 1, 2)) for _ in range(cols)] for _ in range(rows)]
        if all(map(any, m)) and all(map(any, zip(*m))):
            return m


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
