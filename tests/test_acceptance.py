"""Acceptance suite: the end-to-end guarantees this package makes.

Each test prints one PASS/FAIL line naming its guarantee, so running

    pytest -v -s tests/test_acceptance.py

reads as a checklist.  The checks themselves re-derive every expected value
from scratch (independent oracles, hand-checked closed forms, or cross-module
agreement), never from the code under test.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import amplehk.cli as cli
from amplehk.errors import ModelInvalid
from amplehk.exact_linalg import FgAbelianGroup, IntMatrix
from amplehk.hkcheck import hk_check
from amplehk.homology import homology_finite, homology_sft
from amplehk.ktheory import invariants
from amplehk.models import (
    BratteliModel,
    CantorZModel,
    ProductModel,
    SftModel,
    orbits,
)
from amplehk.spans import compose_spans, transfer_matrix

from conftest import assert_valid_snf, random_finite_groupoid, random_int_matrix
from oracles import (
    boundary_from_face_spans,
    boundary_matrix,
    boundary_matrix_from_levels,
    disjoint_union_spans,
    is_zero,
    nerve_levels,
)

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"


def M(rows):
    return IntMatrix.from_rows(rows)


def _verdict(line: str, ok: bool) -> None:
    print(("PASS: " if ok else "FAIL: ") + line)
    assert ok, line


def _random_sft(rng: random.Random) -> SftModel:
    n = rng.randint(1, 6)
    rows = [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]
    # No zero rows or columns: every vertex must emit and receive an edge.
    for i in range(n):
        if all(x == 0 for x in rows[i]):
            rows[i][rng.randrange(n)] = rng.randint(1, 3)
    for j in range(n):
        if all(rows[i][j] == 0 for i in range(n)):
            rows[rng.randrange(n)][j] = rng.randint(1, 3)
    return SftModel(M(rows))


def _random_span(rng: random.Random, left: tuple, right: tuple):
    from amplehk.spans import FiniteSpan

    mid = tuple(("m", rng.randrange(10**6), k) for k in range(rng.randint(0, 4)))
    return FiniteSpan(
        left,
        mid,
        right,
        {z: rng.choice(left) for z in mid},
        {z: rng.choice(right) for z in mid},
    )


def test_01_full_two_shift_vanishes_and_matches_integrally():
    report = hk_check(SftModel(M([[1, 1], [1, 1]])))
    ok = (
        report.verdict == "match"
        and report.integral_match is True
        and [str(v) for v in report.homology.by_degree] == ["0", "0"]
        and str(report.ktheory.k0) == "0"
        and str(report.ktheory.k1) == "0"
    )
    _verdict("full two-shift has zero homology and K-theory, matching integrally", ok)


def test_02_random_shifts_of_finite_type_match_integrally():
    rng = random.Random(101)
    ok = True
    for _ in range(50):
        try:
            model = _random_sft(rng)
        except ModelInvalid:
            ok = False
            break
        report = hk_check(model)
        h = homology_sft(model)
        k = invariants(model).ktheory()
        if not (
            report.verdict == "match"
            and report.integral_match is True
            and k.k0 == h.by_degree[0]
            and k.k1 == h.by_degree[1]
        ):
            ok = False
            break
    _verdict("50 random shifts of finite type match integrally, engines agreeing", ok)


def test_03_product_of_two_circles_doubles_the_ranks():
    model = ProductModel(SftModel(M([[1]])), SftModel(M([[1]])))
    report = hk_check(model)
    ok = (
        report.verdict == "match"
        and report.integral_match is True
        and (report.even_rank, report.odd_rank) == (2, 2)
        and report.ktheory.k0 == FgAbelianGroup.free(2)
        and report.ktheory.k1 == FgAbelianGroup.free(2)
    )
    _verdict("product of two circle-like shifts has even/odd ranks 2 = 2 on both sides", ok)


def test_04_dyadic_odometer_matches_rationally(capsys):
    odo = CantorZModel(BratteliModel((1,), (), M([[2]])))
    report = hk_check(odo)
    library_ok = (
        report.verdict == "match"
        and (report.even_rank, report.odd_rank) == (1, 1)
        and report.integral_match == "not_applicable"
    )
    code = cli.main(["hk-check", str(MODELS_DIR / "dyadic_odometer.json")])
    capsys.readouterr()
    _verdict(
        "dyadic odometer matches rationally with ranks (1, 1), exit 0",
        library_ok and code == 0,
    )


def test_05_smale_reading_reports_the_same_ranks(capsys):
    code_fib = cli.main(["smale-check", str(MODELS_DIR / "fibonacci.json"), "--format", "json"])
    fib = json.loads(capsys.readouterr().out)
    code_fix = cli.main(["smale-check", str(MODELS_DIR / "fixed_point.json"), "--format", "json"])
    fix = json.loads(capsys.readouterr().out)
    ok = (
        code_fib == 0
        and fib["even_rank"] == 0
        and fib["odd_rank"] == 0
        and fib["ktheory"]["k0"]["rank"] == 0
        and fib["ktheory"]["k1"]["rank"] == 0
        and code_fix == 0
        and (fix["even_rank"], fix["odd_rank"]) == (1, 1)
        and (fix["ktheory"]["k0"]["rank"], fix["ktheory"]["k1"]["rank"]) == (1, 1)
    )
    _verdict("smale-check ranks: hyperbolic example all zero, fixed point (1, 1) = (1, 1)", ok)


def test_06_torsion_isotropy_fails_the_precondition(capsys):
    code = cli.main(["hk-check", str(MODELS_DIR / "z2group.json")])
    out = capsys.readouterr().out
    ok = (
        code == 2
        and "verdict: precondition_failed" in out
        and "a torsion-free group for all units" in out
        and "H_0 = Z" in out
        and "H_1 = Z/2" in out
        and "H_2 = 0" in out
        and "H_3 = Z/2" in out
    )
    _verdict("a one-unit Z/2 model exits 2 with the torsion note, homology still reported", ok)


def test_07_boundaries_square_to_zero_and_count_orbits(deep_corpus):
    ok = True
    for g in deep_corpus:
        levels = nerve_levels(g, 4)
        for n in (1, 2, 3):
            first = boundary_matrix_from_levels(levels, n)
            second = boundary_matrix_from_levels(levels, n + 1)
            if not is_zero(first @ second):
                ok = False
    rng = random.Random(103)
    for _ in range(100):
        g = random_finite_groupoid(rng, max_arrows=30)
        h = homology_finite(g, 0)
        if h.by_degree[0] != FgAbelianGroup.free(len(orbits(g))):
            ok = False
            break
    _verdict(
        "boundaries compose to zero through degree 3; H_0 is free on the orbits "
        "for 100 random groupoids",
        ok,
    )


def test_08_span_transfer_is_functorial_and_additive():
    rng = random.Random(107)
    ok = True
    for _ in range(500):
        a_set = tuple(("a", i) for i in range(rng.randint(1, 3)))
        b_set = tuple(("b", i) for i in range(rng.randint(1, 3)))
        c_set = tuple(("c", i) for i in range(rng.randint(1, 3)))
        first = _random_span(rng, a_set, b_set)
        second = _random_span(rng, b_set, c_set)
        if transfer_matrix(compose_spans(second, first)) != transfer_matrix(second) @ transfer_matrix(first):
            ok = False
            break
        union = disjoint_union_spans(first, second)
        tu = transfer_matrix(union)
        tf, ts = transfer_matrix(first), transfer_matrix(second)
        for i in range(tu.rows):
            for j in range(tu.cols):
                in_a = i < tf.rows and j < tf.cols
                in_b = i >= tf.rows and j >= tf.cols
                expected = (
                    tf.entry(i, j)
                    if in_a
                    else ts.entry(i - tf.rows, j - tf.cols) if in_b else 0
                )
                if tu.entry(i, j) != expected:
                    ok = False
    _verdict("500 random span pairs: transfer is functorial and block-additive", ok)


def test_09_face_spans_rebuild_every_boundary_matrix(deep_corpus):
    ok = True
    for g in deep_corpus:
        for n in (1, 2, 3):
            if boundary_from_face_spans(g, n) != boundary_matrix(g, n):
                ok = False
    _verdict("signed face-span transfers equal the boundary matrices, degrees 1 to 3", ok)


def test_10_vanishing_k_theory_forces_a_rationally_acyclic_full_group(capsys):
    code = cli.main(
        ["fullgroup-dims", str(MODELS_DIR / "o2.json"), "--words", "6", "--format", "json"]
    )
    doc = json.loads(capsys.readouterr().out)
    dims = doc["dims_by_word_length"]
    ok = (
        code == 0
        and doc["k0_rank"] == 0
        and doc["k1_rank"] == 0
        and dims[0] == [1, 0]
        and all(d == [0, 0] for d in dims[1:])
        and doc["trivial_above_word_zero"] is True
    )
    _verdict("full two-shift K ranks (0, 0) give graded dimensions trivial above word 0", ok)


def test_11_smith_normal_form_survives_a_thousand_random_matrices():
    rng = random.Random(109)
    ok = True
    for _ in range(1000):
        try:
            assert_valid_snf(random_int_matrix(rng, 8, -9, 9))
        except AssertionError:
            ok = False
            break
    _verdict("Smith decomposition validated by oracle on 1000 random matrices up to 8x8", ok)
