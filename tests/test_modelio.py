"""JSON parsing of model and span documents, with located errors."""

from __future__ import annotations

from pathlib import Path

import pytest

from amplehk import replace
from amplehk.errors import ModelInvalid, ParseError, SchemaError
from amplehk.exact_linalg import IntMatrix
from amplehk.modelio import (
    MAX_INT_DIGITS,
    load_json,
    parse_model,
    parse_span,
    parse_span_document,
)
from amplehk.models import (
    BratteliModel,
    CantorZModel,
    FiniteGroupoid,
    ProductModel,
    SftModel,
)

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"


def M(rows):
    return IntMatrix.from_rows(rows)


class TestLoadJson:
    def test_good(self):
        assert load_json('{"a": 1}') == {"a": 1}

    def test_location_reported(self):
        with pytest.raises(ParseError) as exc:
            load_json('{\n  "a": }')
        assert exc.value.line == 2
        assert exc.value.column is not None
        assert "line 2" in str(exc.value)

    def test_long_digit_runs_outside_integers_are_kept(self):
        run = "9" * (MAX_INT_DIGITS + 1)
        doc = load_json(f'["u{run}", {run[:4000]}.{run}]')
        assert doc[0] == f"u{run}"
        assert isinstance(doc[1], float)

    @pytest.mark.parametrize("sign", ("", "-"))
    def test_integer_literal_past_the_digit_cap(self, sign):
        digits = MAX_INT_DIGITS + 1
        with pytest.raises(ParseError) as exc:
            load_json(f'{{"matrix": [[1, {sign}{"7" * digits}]]}}')
        assert str(exc.value) == (
            f"an integer literal has {digits:,} digits, more than the limit of {MAX_INT_DIGITS:,}"
        )

    @pytest.mark.parametrize("text, key", [
        ('{"model": "sft", "matrix": [[1]], "matrix": [[2]]}', "matrix"),
        ('{"inverse": {"g": "bogus", "e": "e", "g": "g"}}', "g"),
        ('[{"left_leg": {"m": "x", "n": "x", "m": "y"}}]', "m"),
    ])
    def test_repeated_key(self, text, key):
        with pytest.raises(ParseError) as exc:
            load_json(text)
        assert str(exc.value) == f'an object repeats the key "{key}"'

    def test_a_key_may_recur_in_different_objects(self):
        assert load_json('[{"a": 1}, {"a": {"a": 2}}]') == [{"a": 1}, {"a": {"a": 2}}]


class TestParseModel:
    def test_sft(self):
        model = parse_model({"model": "sft", "matrix": [[1, 1], [1, 0]]})
        assert model == SftModel(M([[1, 1], [1, 0]]))

    def test_af(self):
        model = parse_model(
            {"model": "af", "level_sizes": [1, 2], "incidences": [[[1], [1]]], "tail": [[1, 1], [1, 1]]}
        )
        assert model == BratteliModel((1, 2), (M([[1], [1]]),), M([[1, 1], [1, 1]]))

    @pytest.mark.parametrize("depth", [None, 1, 0, True, "deep"])
    def test_cantor_z_ignores_a_telescope_depth(self, depth):
        # Older documents carry a depth; simplicity is decided from the tail.
        doc = {"model": "cantor_z", "diagram": {"level_sizes": [1], "incidences": [], "tail": [[2]]}}
        if depth is not None:
            doc["telescope_depth"] = depth
        assert parse_model(doc) == CantorZModel(BratteliModel((1,), (), M([[2]])))

    def test_finite(self):
        doc = {
            "model": "finite",
            "units": ["x"],
            "arrows": [
                {"id": "e", "source": "x", "target": "x"},
                {"id": "g", "source": "x", "target": "x"},
            ],
            "compose": [["e", "e", "e"], ["e", "g", "g"], ["g", "e", "g"], ["g", "g", "e"]],
            "inverse": {"e": "e", "g": "g"},
        }
        model = parse_model(doc)
        assert isinstance(model, FiniteGroupoid)
        assert model.units == ("x",)
        assert dict(model.compose)[("g", "g")] == "e"
        assert replace(model) == model

    def test_product(self):
        doc = {
            "model": "product",
            "factors": [
                {"model": "sft", "matrix": [[1]]},
                {"model": "sft", "matrix": [[2]]},
            ],
        }
        model = parse_model(doc)
        assert model == ProductModel(SftModel(M([[1]])), SftModel(M([[2]])))

    def test_bundled_documents_parse_cleanly(self):
        for path in sorted(MODELS_DIR.glob("*.json")):
            if path.name == "span_pair.json":
                continue
            model = parse_model(load_json(path.read_text()))
            assert replace(model) == model


class TestSchemaPointers:
    def test_top_level_must_be_object(self):
        with pytest.raises(SchemaError) as exc:
            parse_model([1, 2])
        assert exc.value.pointer == "/"

    def test_missing_model_tag(self):
        with pytest.raises(SchemaError) as exc:
            parse_model({})
        assert exc.value.pointer == "/model"

    def test_unknown_kind(self):
        with pytest.raises(SchemaError) as exc:
            parse_model({"model": "etale"})
        assert exc.value.pointer == "/model"
        assert "etale" in str(exc.value)

    def test_bool_is_not_an_integer(self):
        with pytest.raises(SchemaError) as exc:
            parse_model({"model": "sft", "matrix": [[True]]})
        assert exc.value.pointer == "/matrix/0/0"

    @pytest.mark.parametrize("bad", (1.5, False, "7"))
    def test_first_non_integer_entry_is_located(self, bad):
        rows = [[r * 10 + c for c in range(9)] for r in range(5)]
        rows[3][7] = bad
        rows[4][2] = 2.5
        with pytest.raises(SchemaError) as exc:
            parse_model({"model": "product", "factors": [
                {"model": "sft", "matrix": [[1]]}, {"model": "sft", "matrix": rows},
            ]})
        assert exc.value.pointer == "/factors/1/matrix/3/7"
        assert str(exc.value) == f"/factors/1/matrix/3/7: expected an integer, got {bad!r}"

    def test_ragged_matrix(self):
        with pytest.raises(SchemaError) as exc:
            parse_model({"model": "sft", "matrix": [[1, 2], [3]]})
        assert exc.value.pointer == "/matrix/1"

    def test_level_sizes_are_integers(self):
        with pytest.raises(SchemaError) as exc:
            parse_model({"model": "af", "level_sizes": ["one"], "incidences": [], "tail": [[1]]})
        assert exc.value.pointer == "/level_sizes/0"

    def test_arrow_entries_are_objects(self):
        with pytest.raises(SchemaError) as exc:
            parse_model(
                {"model": "finite", "units": [], "arrows": ["g"], "compose": [], "inverse": {}}
            )
        assert exc.value.pointer == "/arrows/0"

    def test_compose_entries_are_triples(self):
        with pytest.raises(SchemaError) as exc:
            parse_model(
                {
                    "model": "finite",
                    "units": ["x"],
                    "arrows": [{"id": "e", "source": "x", "target": "x"}],
                    "compose": [["e", "e"]],
                    "inverse": {},
                }
            )
        assert exc.value.pointer == "/compose/0"

    def test_composable_pair_listed_twice(self):
        doc = load_json((MODELS_DIR / "z2group.json").read_text())
        doc["compose"].insert(0, ["e", "e", "bogus"])
        with pytest.raises(SchemaError) as exc:
            parse_model(doc)
        assert exc.value.pointer == "/compose/1"
        assert "('e', 'e') is listed twice" in str(exc.value)

    def test_product_arity(self):
        with pytest.raises(SchemaError) as exc:
            parse_model({"model": "product", "factors": [{"model": "sft", "matrix": [[1]]}]})
        assert exc.value.pointer == "/factors"

    def test_nested_pointer_reaches_into_factors(self):
        doc = {
            "model": "product",
            "factors": [
                {"model": "sft", "matrix": [[1]]},
                {"model": "sft", "matrix": [[1, "x"]]},
            ],
        }
        with pytest.raises(SchemaError) as exc:
            parse_model(doc)
        assert exc.value.pointer == "/factors/1/matrix/0/1"



class TestModelViolations:
    """Models check their axioms when built, so parsing rejects a malformed
    model; a nested model's violations are led by its JSON pointer, once."""

    ZERO = {"model": "sft", "matrix": [[0]]}
    ONE = {"model": "sft", "matrix": [[1]]}

    def test_top_level_message_is_unprefixed(self):
        with pytest.raises(ModelInvalid) as exc:
            parse_model({"model": "sft", "matrix": [[0, 0], [1, 0]]})
        assert str(exc.value) == (
            "row 0 of the transition matrix is zero; column 1 of the transition matrix is zero"
        )

    def test_factor_pointer_leads_the_message_once(self):
        doc = {"model": "product", "factors": [self.ONE, self.ZERO]}
        with pytest.raises(ModelInvalid) as exc:
            parse_model(doc)
        assert exc.value.violations == [
            "/factors/1: row 0 of the transition matrix is zero",
            "column 0 of the transition matrix is zero",
        ]

    def test_two_deep_product_names_the_full_pointer_once(self):
        inner = {"model": "product", "factors": [self.ZERO, self.ONE]}
        doc = {"model": "product", "factors": [self.ONE, inner]}
        with pytest.raises(ModelInvalid) as exc:
            parse_model(doc)
        message = str(exc.value)
        assert message.count("/factors/1/factors/0") == 1
        assert message == (
            "/factors/1/factors/0: row 0 of the transition matrix is zero; "
            "column 0 of the transition matrix is zero"
        )


class TestSpanDocuments:
    def good_span(self) -> dict:
        return {
            "left": ["x"],
            "mid": ["m"],
            "right": ["y"],
            "left_leg": {"m": "x"},
            "right_leg": {"m": "y"},
        }

    def test_parse_span(self):
        span = parse_span(self.good_span())
        assert span.mid == ("m",)
        assert span.left_leg["m"] == "x"

    def test_invalid_span_becomes_schema_error(self):
        doc = self.good_span()
        del doc["left_leg"]["m"]
        with pytest.raises(SchemaError) as exc:
            parse_span(doc)
        assert "not a valid span" in str(exc.value)

    def test_single_span_document(self):
        kind, spans = parse_span_document({"span": self.good_span()})
        assert kind == "span"
        assert len(spans) == 1

    def test_compose_document(self):
        kind, spans = parse_span_document({"compose": [self.good_span(), self.good_span()]})
        assert kind == "compose"
        assert len(spans) == 2

    def test_compose_arity(self):
        with pytest.raises(SchemaError) as exc:
            parse_span_document({"compose": [self.good_span()]})
        assert exc.value.pointer == "/compose"

    def test_unrecognized_document(self):
        with pytest.raises(SchemaError):
            parse_span_document({"matrices": []})

    def test_bundled_span_document(self):
        kind, spans = parse_span_document(load_json((MODELS_DIR / "span_pair.json").read_text()))
        assert kind == "compose"
        assert spans[0].right == spans[1].left
