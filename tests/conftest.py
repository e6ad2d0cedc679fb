"""Shared fixtures: groupoid corpora, random groupoids and the Smith-form oracle."""

from __future__ import annotations

import random
import sys

import pytest

from amplehk.exact_linalg import IntMatrix, determinant, smith_normal_form
from amplehk.models import FiniteGroupoid
from oracles import (
    cyclic_group_groupoid,
    disjoint_union_groupoids,
    pair_groupoid,
    transitive_groupoid,
    trivial_groupoid,
)


def assert_valid_snf(mat: IntMatrix) -> list[int]:
    """Independent check of a Smith decomposition; returns the diagonal.

    Verifies the defining equation U @ M @ V == D, unimodularity of both
    transforms, nonnegativity, and the divisibility chain.  The first
    invariant factor must also equal the gcd of all entries.
    """
    res = smith_normal_form(mat)
    assert res.U @ mat @ res.V == res.D
    assert abs(determinant(res.U)) == 1
    assert abs(determinant(res.V)) == 1
    diag = res.diagonal()
    for i, d in enumerate(diag):
        assert d >= 0
        if i and diag[i - 1]:
            assert d % diag[i - 1] == 0
        if i and diag[i - 1] == 0:
            assert d == 0
    gcd_all = 0
    for x in mat.entries:
        gcd_all = gcd_all if x == 0 else (abs(x) if gcd_all == 0 else _gcd(gcd_all, abs(x)))
    first = diag[0] if diag else 0
    if mat.entries and any(mat.entries):
        assert first == gcd_all
    else:
        assert first == 0 or not diag
    # Off-diagonal entries of D must vanish.
    for i in range(res.D.rows):
        for j in range(res.D.cols):
            if i != j:
                assert res.D.entry(i, j) == 0
    return diag


def finite_document(g: FiniteGroupoid) -> dict:
    """The JSON model document of a finite groupoid, as ``parse_model`` reads it."""
    return {
        "model": "finite",
        "units": list(g.units),
        "arrows": [{"id": a, "source": s, "target": t} for a, s, t in g.arrows],
        "compose": [[x, y, z] for (x, y), z in g.compose],
        "inverse": dict(g.inverse),
    }


def nonnegative(rng: random.Random, rows: int, cols: int, entries=(0, 0, 1, 2)) -> list[list[int]]:
    """A matrix with entries drawn from ``entries``, redrawn until no row
    and no column is zero."""
    while True:
        m = [[rng.choice(entries) for _ in range(cols)] for _ in range(rows)]
        if all(map(any, m)) and all(map(any, zip(*m))):
            return m


def random_finite_groupoid(rng: random.Random, max_arrows: int = 30) -> FiniteGroupoid:
    """A random disjoint union of transitive blocks, at most ``max_arrows`` arrows.

    Every finite groupoid is a disjoint union of transitive ones, and for
    homological purposes cyclic isotropy already exercises the torsion cases,
    so blocks are (pair groupoid on m units) x (Z/k).
    """
    result: FiniteGroupoid | None = None
    arrows_used = 0
    blocks = rng.randint(1, 3)
    for b in range(blocks):
        m = rng.randint(1, 3)
        k = rng.choice([1, 1, 2, 3])
        cost = m * m * k
        if arrows_used + cost > max_arrows:
            continue
        arrows_used += cost
        block = transitive_groupoid(m, k, prefix=f"b{b}u")
        result = block if result is None else disjoint_union_groupoids(result, block)
    if result is None:
        result = trivial_groupoid(1)
    return result


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def random_int_matrix(rng: random.Random, max_size: int, lo: int, hi: int) -> IntMatrix:
    rows = rng.randint(1, max_size)
    cols = rng.randint(1, max_size)
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]
    )


@pytest.fixture
def deep_corpus() -> list[FiniteGroupoid]:
    """Groupoids small enough for nerve levels up to degree 4."""
    return [
        trivial_groupoid(1),
        trivial_groupoid(2),
        pair_groupoid(2),
        pair_groupoid(3),
        cyclic_group_groupoid(2),
        cyclic_group_groupoid(3),
        transitive_groupoid(2, 2),
        disjoint_union_groupoids(pair_groupoid(2), cyclic_group_groupoid(2)),
    ]


@pytest.fixture
def wide_corpus(deep_corpus) -> list[FiniteGroupoid]:
    """Adds larger groupoids (up to 50 arrows) for shallow nerve checks."""
    return deep_corpus + [
        cyclic_group_groupoid(6),
        transitive_groupoid(3, 2),
        transitive_groupoid(7, 1),
        transitive_groupoid(2, 12),
        disjoint_union_groupoids(cyclic_group_groupoid(4), pair_groupoid(3)),
    ]


def record_calls(monkeypatch, fn) -> list[tuple]:
    """Arguments of every call to ``fn``, under every package name it has."""
    calls = []

    def recorded(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "amplehk" or name.startswith("amplehk."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, recorded)
    return calls
