"""The rank comparison, its report object, and the serializers."""

from __future__ import annotations

import json
import random
import sys

import pytest

import amplehk.cli as cli
import amplehk.colimits as colimits
import amplehk.exact_linalg as exact_linalg
import amplehk.hkcheck as hkcheck
import amplehk.ktheory as ktheory
from amplehk import replace
from amplehk._record import Record
from amplehk.colimits import ColimitInvariants
from amplehk.errors import ModelInvalid, SimplicityNotCertified
from amplehk.exact_linalg import FgAbelianGroup, IntMatrix
from amplehk.hkcheck import (
    VERDICT_MATCH,
    VERDICT_PRECONDITION_FAILED,
    free_graded_commutative_dims,
    hk_check,
    report_to_json_text,
    report_to_text,
    smale_check,
)
from amplehk.homology import GradedGroup
from amplehk.ktheory import KPair, invariants, periodicize
from amplehk.models import (
    BratteliModel,
    CantorZModel,
    ProductModel,
    SftModel,
)
from conftest import record_calls
from oracles import add, cyclic_group_groupoid, identity, pair_groupoid, scale, transpose


def M(rows):
    return IntMatrix.from_rows(rows)


def Z(rank):
    return FgAbelianGroup.free(rank)


class TestPeriodicize:
    def test_exact_grading(self):
        h = GradedGroup((Z(1), Z(2), FgAbelianGroup.cyclic(2), Z(1)), vanishing_above=True)
        periodic = periodicize(h)
        assert (periodic.k0.rank, periodic.k1.rank) == (1, 3)

    def test_truncation_sums_its_listed_degrees(self):
        h = GradedGroup((Z(1), Z(1)), vanishing_above=False)
        assert periodicize(h) == KPair(Z(1), Z(1))

    def test_group_level_sums(self):
        h = GradedGroup(
            (Z(1), FgAbelianGroup.cyclic(2), FgAbelianGroup(1, (3,))), vanishing_above=True
        )
        assert periodicize(h) == KPair(FgAbelianGroup(2, (3,)), FgAbelianGroup.cyclic(2))

    def test_colimit_entry_keeps_only_its_paritys_rank(self):
        h = GradedGroup(
            (ColimitInvariants(rank=1), Z(2), Z(1), FgAbelianGroup.cyclic(2)),
            vanishing_above=True,
        )
        assert periodicize(h) == KPair(ColimitInvariants(rank=2), FgAbelianGroup(2, (2,)))

    def test_empty_parity_is_zero(self):
        h = GradedGroup((ColimitInvariants(rank=1),), vanishing_above=True)
        assert periodicize(h) == KPair(ColimitInvariants(rank=1), FgAbelianGroup.zero())


class TestHkCheck:
    def test_full_two_shift_matches_integrally(self):
        report = hk_check(SftModel(M([[1, 1], [1, 1]])))
        assert report.verdict == VERDICT_MATCH
        assert (report.even_rank, report.odd_rank) == (0, 0)
        assert report.rational_match is True
        assert report.integral_match is True
        assert report.truncation_degree is None
        assert all(p.holds for p in report.preconditions)

    def test_isotropy_torsion_fails_the_precondition(self):
        report = hk_check(cyclic_group_groupoid(2))
        assert report.verdict == VERDICT_PRECONDITION_FAILED
        assert report.ktheory is None
        assert report.rational_match is None
        assert any("a torsion-free group for all units" in n for n in report.notes)
        # Homology is still reported in full.
        assert [str(v) for v in report.homology.by_degree] == ["Z", "Z/2", "0", "Z/2"]
        names = {p.name: p for p in report.preconditions}
        assert not names["torsion_free_isotropy"].holds
        assert names["torsion_free_isotropy"].mode == "computed"

    def test_finite_principal_model_is_a_truncated_match(self):
        report = hk_check(pair_groupoid(2), max_degree=2)
        assert report.verdict == VERDICT_MATCH
        assert report.truncation_degree == 2
        assert any("verified up to degree 2" in n for n in report.notes)
        assert report.integral_match == "not_applicable"

    def test_odometer_matches_rationally(self):
        odo = CantorZModel(BratteliModel((1,), (), M([[2]])))
        report = hk_check(odo)
        assert report.verdict == VERDICT_MATCH
        assert (report.even_rank, report.odd_rank) == (1, 1)
        assert report.integral_match == "not_applicable"
        assert report.truncation_degree is None

    def test_product_matches_integrally(self):
        model = ProductModel(SftModel(M([[1]])), SftModel(M([[1]])))
        report = hk_check(model)
        assert report.verdict == VERDICT_MATCH
        assert report.integral_match is True
        assert (report.even_rank, report.odd_rank) == (2, 2)

    def test_shape_violations_raise(self):
        with pytest.raises(ModelInvalid):
            hk_check(SftModel(M([[1, -1], [1, 1]])))

    def test_uncertified_simplicity_propagates(self):
        with pytest.raises(SimplicityNotCertified):
            hk_check(CantorZModel(BratteliModel((1,), (), M([[1]]))))

    def test_relabelling_units_changes_nothing(self):
        a = hk_check(pair_groupoid(3), max_degree=2)
        b = hk_check(pair_groupoid(3, prefix="w"), max_degree=2)
        assert a == b


class TestSmale:
    def test_hyperbolic_automorphism_presentation(self):
        report = smale_check(SftModel(M([[1, 1], [1, 0]])))
        assert report.dialect == "smale"
        assert report.model == "smale(sft(2 vertices))"
        assert report.verdict == VERDICT_MATCH
        assert (report.even_rank, report.odd_rank) == (0, 0)
        assert any("Smale reading" in n for n in report.notes)

    def test_fixed_point_ranks(self):
        report = smale_check(SftModel(M([[1]])))
        assert (report.even_rank, report.odd_rank) == (1, 1)
        assert report.rational_match is True

    def test_text_rendering_uses_smale_labels(self):
        text = report_to_text(smale_check(SftModel(M([[1]]))))
        assert "H^s_0" in text
        assert "K (unstable algebra)" in text


class TestFreeGradedCommutativeDims:
    def test_single_even_generator(self):
        assert free_graded_commutative_dims(1, 0, 3) == [(1, 0)] * 4

    def test_single_odd_generator(self):
        assert free_graded_commutative_dims(0, 1, 2) == [(1, 0), (0, 1), (0, 0)]

    def test_mixed_generators(self):
        # Two even, one odd: word length 2 holds Sym^2 (dim 3) evenly and
        # (even)(odd) words (dim 2) oddly.
        assert free_graded_commutative_dims(2, 1, 2) == [(1, 0), (2, 1), (3, 2)]

    def test_no_generators(self):
        assert free_graded_commutative_dims(0, 0, 3) == [(1, 0), (0, 0), (0, 0), (0, 0)]

    def test_exterior_algebra_binomials(self):
        dims = free_graded_commutative_dims(0, 4, 4)
        flat = [e + o for e, o in dims]
        assert flat == [1, 4, 6, 4, 1]

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            free_graded_commutative_dims(-1, 0, 2)
        with pytest.raises(ValueError):
            free_graded_commutative_dims(0, 0, -1)


class TestSerialization:
    def test_json_text_is_deterministic(self):
        first = report_to_json_text(hk_check(SftModel(M([[3]]))))
        second = report_to_json_text(hk_check(SftModel(M([[3]]))))
        assert first == second
        assert first.endswith("\n")

    def test_text_rendering_mentions_the_essentials(self):
        text = report_to_text(hk_check(SftModel(M([[3]]))))
        assert "verdict: match" in text
        assert "H_0 = Z/2" in text
        assert "K_0 = Z/2" in text
        assert "rational_match: true" in text
        assert "integral_match: true" in text

    def test_text_marks_failed_preconditions(self):
        text = report_to_text(hk_check(cyclic_group_groupoid(2)))
        assert "FAILS" in text
        assert "verdict: precondition_failed" in text


# Characters a JSON string escapes or passes through: control characters,
# DEL, quotes and backslashes, Latin-1, the BMP, an astral character (a
# surrogate pair in the output) and lone surrogates.
STRING_ALPHABET = (
    [chr(c) for c in range(0x20)]
    + list('"\\/ aZ09~\x7f')
    + ["\u00e9", "\u00ff", "\u2028", "\u4e2d", "\U0001f600", "\ud800", "\udbff", "\udc00", "\udfff"]
)


def random_string(rng: random.Random) -> str:
    return "".join(rng.choice(STRING_ALPHABET) for _ in range(rng.randrange(8)))


def random_document(rng: random.Random, depth: int = 0) -> object:
    """A JSON value of the types the package writes, nested up to 4 deep."""
    kind = rng.randrange(8 if depth < 4 else 5)
    if kind == 0:
        return random_string(rng)
    if kind == 1:
        return rng.choice((0, 1, -1, rng.randrange(-(10**30), 10**30)))
    if kind == 2:
        # More than 5,000 digits: past the default int/str conversion limit.
        return rng.choice((1, -1)) * rng.getrandbits(rng.randrange(16_700, 17_000))
    if kind == 3:
        return rng.choice((True, False, None))
    if kind == 4:
        return rng.choice(({}, [], ()))
    size = rng.randrange(5)
    if kind == 5:
        return {random_string(rng): random_document(rng, depth + 1) for _ in range(size)}
    items = [random_document(rng, depth + 1) for _ in range(size)]
    return items if kind == 6 else tuple(items)


def as_fields(value: object) -> object:
    """``value`` with every record in it replaced by the dict of its fields."""
    if isinstance(value, Record):
        return {name: as_fields(getattr(value, name)) for name in value._fields}
    if isinstance(value, dict):
        return {key: as_fields(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [as_fields(item) for item in value]
    return value


# Records and documents holding them, each built when its test runs.
RECORD_DOCS = {
    "finite report": lambda: hk_check(pair_groupoid(2)),
    "finite report, failed precondition": lambda: hk_check(cyclic_group_groupoid(2)),
    "sft report": lambda: hk_check(SftModel(M([[1, 1], [1, 1]]))),
    "smale report": lambda: smale_check(SftModel(M([[1, 1], [1, 0]]))),
    "graded group with colimits": lambda: GradedGroup(
        (FgAbelianGroup(1), ColimitInvariants(2), FgAbelianGroup(0, (2, 4))), False
    ),
    "k pair": lambda: KPair(FgAbelianGroup(1, (3,)), ColimitInvariants(1)),
    "records in a dict": lambda: {
        "model": "m",
        "ktheory": KPair(FgAbelianGroup.zero(), FgAbelianGroup.free(2)),
        "list": [ColimitInvariants(0)],
    },
}


class TestCanonicalJson:
    """``_canonical_json`` writes the bytes of ``json.dumps(doc, indent=2,
    sort_keys=True)`` plus a newline, without calling ``json.dumps``."""

    @pytest.fixture(autouse=True)
    def unlimited_digits(self):
        # As in cli.main, so json.dumps can write the long integers too.
        if not hasattr(sys, "set_int_max_str_digits"):
            yield
            return
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            yield
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_json_dumps(self, seed):
        rng = random.Random(seed)
        for _ in range(25):
            doc = random_document(rng)
            assert hkcheck._canonical_json(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("make", RECORD_DOCS.values(), ids=RECORD_DOCS.keys())
    def test_records_are_written_as_their_fields(self, make):
        doc = make()
        expected = json.dumps(as_fields(doc), indent=2, sort_keys=True) + "\n"
        assert hkcheck._canonical_json(doc) == expected

    @pytest.mark.parametrize(
        "value",
        [1.5, {1, 2}, b"bytes", {1: "a"}, {"a": 1, 2: "b"}, [0, 0.0], {"k": frozenset()}],
        ids=["float", "set", "bytes", "int key", "mixed keys", "nested float", "nested frozenset"],
    )
    def test_other_types_raise_type_error(self, value):
        with pytest.raises(TypeError):
            hkcheck._canonical_json(value)

    def test_module_does_not_use_json(self):
        assert not hasattr(hkcheck, "json")


SHIFT = SftModel(M([[1, 2, 0], [1, 0, 3], [2, 1, 1]]))
SHIFT_COMPLEX = add(identity(3), scale(transpose(SHIFT.matrix), -1))
# I - A^T as the sparse rows {row: {column: entry}} the Smith kernel takes.
SHIFT_ROWS = {i: {j: x for j, x in enumerate(SHIFT_COMPLEX.row(i)) if x} for i in range(3)}
DIAGRAM = BratteliModel((1, 2), (M([[1], [1]]),), M([[1, 1], [1, 1]]))


def record_eliminations(monkeypatch) -> list[dict]:
    """The nonzero rows of every matrix the Smith kernel eliminates, copied
    before the kernel consumes them, for the test's duration."""
    eliminated = []
    kernel = exact_linalg._smith_factors

    def recorded(rows, n):
        eliminated.append({i: dict(r) for i, r in rows.items() if r})
        return kernel(rows, n)

    monkeypatch.setattr(exact_linalg, "_smith_factors", recorded)
    return eliminated


class TestOneEvaluationPerLeaf:
    """hk-check computes each leaf's homology once, for H and K alike."""

    @pytest.mark.parametrize("command", ("hk-check", "smale-check", "fullgroup-dims"))
    def test_shift_complex_is_eliminated_once(self, monkeypatch, capsys, tmp_path, command):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"model": "sft", "matrix": SHIFT.matrix.to_rows()}))
        eliminated = record_eliminations(monkeypatch)
        assert cli.main([command, str(path)]) == 0
        assert eliminated.count(SHIFT_ROWS) == 1

    def test_af_colimit_is_computed_once(self, monkeypatch):
        colimit_calls = record_calls(monkeypatch, colimits.colimit_invariants)
        report = hk_check(DIAGRAM)
        assert report.verdict == VERDICT_MATCH
        assert len(colimit_calls) == 1

    def test_product_evaluates_each_factor_once(self, monkeypatch):
        eliminated = record_eliminations(monkeypatch)
        colimit_calls = record_calls(monkeypatch, colimits.colimit_invariants)
        report = hk_check(ProductModel(SHIFT, DIAGRAM))
        assert report.verdict == VERDICT_MATCH
        assert eliminated.count(SHIFT_ROWS) == 1
        assert len(colimit_calls) == 1

    def test_nonprincipal_factor_computes_no_k(self, monkeypatch):
        slot_calls = record_k_slot_calls(monkeypatch)
        product_calls = record_calls(monkeypatch, ktheory.k_product)
        colimit_calls = record_calls(monkeypatch, colimits.colimit_invariants)
        for model in (
            ProductModel(cyclic_group_groupoid(2), DIAGRAM),
            ProductModel(pair_groupoid(2), ProductModel(DIAGRAM, cyclic_group_groupoid(2))),
        ):
            report = hk_check(model, max_degree=2)
            assert report.verdict == VERDICT_PRECONDITION_FAILED
            assert report.ktheory is None
        assert slot_calls == [] and product_calls == []
        assert len(colimit_calls) == 2

    def test_isotropy_is_evaluated_once_per_leaf(self, monkeypatch):
        leaves = []
        for cls, record in list(ktheory.RECORDS.items()):

            def recorded(model, slot=record.isotropy):
                leaves.append(model)
                return slot(model)

            monkeypatch.setitem(
                ktheory.RECORDS, cls, replace(record, isotropy=recorded)
            )
        principal, torsion = pair_groupoid(2), cyclic_group_groupoid(2)
        for model, factors in (
            (ProductModel(SHIFT, ProductModel(DIAGRAM, principal)), [SHIFT, DIAGRAM, principal]),
            (ProductModel(torsion, DIAGRAM), [torsion, DIAGRAM]),
        ):
            leaves.clear()
            hk_check(model, max_degree=2)
            assert leaves == factors


def record_k_slot_calls(monkeypatch) -> list:
    """Models passed to any record's K-theory slot, for the test's duration."""
    calls = []
    for cls, record in list(ktheory.RECORDS.items()):
        if record.ktheory is not None:

            def recorded(model, slot=record.ktheory):
                calls.append(model)
                return slot(model)

            monkeypatch.setitem(
                ktheory.RECORDS, cls, replace(record, ktheory=recorded)
            )
    return calls


class TestEngineCrossChecks:
    def test_sft_report_mirrors_engine_groups(self):
        model = SftModel(M([[3]]))
        report = hk_check(model)
        h = invariants(model).homology()
        assert report.homology == h
        assert report.ktheory is not None
        assert report.ktheory.k0 == h.by_degree[0]
