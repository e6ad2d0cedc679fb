"""Parsing of JSON model and span documents.

The document schema mirrors the model dataclasses.  Every model document has
a ``model`` tag naming the class; matrices are row-major arrays of arrays of
integers.  Parse failures carry location information: malformed JSON reports
line and column, schema violations report a JSON pointer to the offending
value.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import ParseError, SchemaError
from .exact_linalg import IntMatrix
from .models import (
    BratteliModel,
    CantorZModel,
    FiniteGroupoid,
    GroupoidModel,
    ProductModel,
    SftModel,
)
from .spans import FiniteSpan

__all__ = [
    "load_json",
    "parse_model",
    "parse_model_file",
    "parse_span",
    "parse_span_document",
]


def load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, line=e.lineno, column=e.colno) from None
    except RecursionError:
        raise ParseError("document is nested too deeply to decode") from None


def _expect_object(doc, pointer: str) -> dict:
    if not isinstance(doc, dict):
        raise SchemaError(pointer, f"expected an object, got {type(doc).__name__}")
    return doc


def _expect_list(doc, pointer: str) -> list:
    if not isinstance(doc, list):
        raise SchemaError(pointer, f"expected an array, got {type(doc).__name__}")
    return doc


def _expect_str(doc, pointer: str) -> str:
    if not isinstance(doc, str):
        raise SchemaError(pointer, f"expected a string, got {type(doc).__name__}")
    return doc


def _expect_int(doc, pointer: str) -> int:
    # bool is an int subclass in Python; reject it explicitly.
    if isinstance(doc, bool) or not isinstance(doc, int):
        raise SchemaError(pointer, f"expected an integer, got {doc!r}")
    return doc


def _get(doc: dict, key: str, pointer: str):
    if key not in doc:
        raise SchemaError(f"{pointer}/{key}", "missing required field")
    return doc[key]


def _parse_matrix(doc, pointer: str) -> IntMatrix:
    rows = _expect_list(doc, pointer)
    parsed: list[list[int]] = []
    width = None
    for i, row in enumerate(rows):
        row = _expect_list(row, f"{pointer}/{i}")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise SchemaError(f"{pointer}/{i}", f"row length {len(row)} differs from {width}")
        parsed.append([_expect_int(x, f"{pointer}/{i}/{j}") for j, x in enumerate(row)])
    return IntMatrix.from_rows(parsed, cols=width or 0)


def _parse_finite(doc: dict, pointer: str) -> FiniteGroupoid:
    units_doc = _expect_list(_get(doc, "units", pointer), f"{pointer}/units")
    units = tuple(_expect_str(u, f"{pointer}/units/{i}") for i, u in enumerate(units_doc))

    arrows_doc = _expect_list(_get(doc, "arrows", pointer), f"{pointer}/arrows")
    arrows = []
    for i, a in enumerate(arrows_doc):
        ap = f"{pointer}/arrows/{i}"
        a = _expect_object(a, ap)
        arrows.append(
            (
                _expect_str(_get(a, "id", ap), f"{ap}/id"),
                _expect_str(_get(a, "source", ap), f"{ap}/source"),
                _expect_str(_get(a, "target", ap), f"{ap}/target"),
            )
        )

    compose_doc = _expect_list(_get(doc, "compose", pointer), f"{pointer}/compose")
    compose = {}
    for i, entry in enumerate(compose_doc):
        ep = f"{pointer}/compose/{i}"
        entry = _expect_list(entry, ep)
        if len(entry) != 3:
            raise SchemaError(ep, "composition entries are triples [g, d, g.d]")
        g, d, gd = (_expect_str(x, f"{ep}/{j}") for j, x in enumerate(entry))
        compose[(g, d)] = gd

    inverse_doc = _expect_object(_get(doc, "inverse", pointer), f"{pointer}/inverse")
    inverse = {
        k: _expect_str(v, f"{pointer}/inverse/{k}") for k, v in inverse_doc.items()
    }
    return FiniteGroupoid(units, tuple(arrows), compose, inverse)


def _parse_bratteli(doc: dict, pointer: str) -> BratteliModel:
    sizes_doc = _expect_list(_get(doc, "level_sizes", pointer), f"{pointer}/level_sizes")
    sizes = tuple(_expect_int(s, f"{pointer}/level_sizes/{i}") for i, s in enumerate(sizes_doc))
    inc_doc = _expect_list(_get(doc, "incidences", pointer), f"{pointer}/incidences")
    incidences = tuple(_parse_matrix(m, f"{pointer}/incidences/{i}") for i, m in enumerate(inc_doc))
    tail = _parse_matrix(_get(doc, "tail", pointer), f"{pointer}/tail")
    return BratteliModel(sizes, incidences, tail)


def parse_model(doc, pointer: str = "") -> GroupoidModel:
    """Turn a decoded JSON document into a model, or raise SchemaError."""
    doc = _expect_object(doc, pointer or "/")
    kind = _expect_str(_get(doc, "model", pointer), f"{pointer}/model")
    if kind == "finite":
        return _parse_finite(doc, pointer)
    if kind == "sft":
        return SftModel(_parse_matrix(_get(doc, "matrix", pointer), f"{pointer}/matrix"))
    if kind == "af":
        return _parse_bratteli(doc, pointer)
    if kind == "cantor_z":
        diagram = _parse_bratteli(
            _expect_object(_get(doc, "diagram", pointer), f"{pointer}/diagram"),
            f"{pointer}/diagram",
        )
        depth = doc.get("telescope_depth", 3)
        depth = _expect_int(depth, f"{pointer}/telescope_depth")
        return CantorZModel(diagram, telescope_depth=depth)
    if kind == "product":
        factors = _expect_list(_get(doc, "factors", pointer), f"{pointer}/factors")
        if len(factors) != 2:
            raise SchemaError(f"{pointer}/factors", f"expected exactly 2 factors, got {len(factors)}")
        return ProductModel(
            parse_model(factors[0], f"{pointer}/factors/0"),
            parse_model(factors[1], f"{pointer}/factors/1"),
        )
    raise SchemaError(
        f"{pointer}/model",
        f"unknown model kind {kind!r}; expected finite, sft, af, cantor_z, or product",
    )


def parse_model_file(path: str | Path) -> GroupoidModel:
    return parse_model(load_json(Path(path).read_text()))


def parse_span(doc, pointer: str = "") -> FiniteSpan:
    """Span documents: three element arrays plus two leg objects.

    Elements are strings; the leg objects map middle elements to boundary
    elements.
    """
    doc = _expect_object(doc, pointer or "/")
    sets = {}
    for name in ("left", "mid", "right"):
        arr = _expect_list(_get(doc, name, pointer), f"{pointer}/{name}")
        sets[name] = tuple(_expect_str(x, f"{pointer}/{name}/{i}") for i, x in enumerate(arr))
    legs = {}
    for name in ("left_leg", "right_leg"):
        leg_doc = _expect_object(_get(doc, name, pointer), f"{pointer}/{name}")
        legs[name] = {k: _expect_str(v, f"{pointer}/{name}/{k}") for k, v in leg_doc.items()}
    try:
        return FiniteSpan(sets["left"], sets["mid"], sets["right"], legs["left_leg"], legs["right_leg"])
    except ValueError as e:
        raise SchemaError(pointer or "/", f"not a valid span: {e}") from None


def parse_span_document(doc) -> tuple[str, list[FiniteSpan]]:
    """A span-check input: either {"span": S} or {"compose": [S1, S2]}."""
    doc = _expect_object(doc, "/")
    if "span" in doc:
        return "span", [parse_span(doc["span"], "/span")]
    if "compose" in doc:
        arr = _expect_list(doc["compose"], "/compose")
        if len(arr) != 2:
            raise SchemaError("/compose", f"expected exactly 2 spans, got {len(arr)}")
        return "compose", [parse_span(arr[0], "/compose/0"), parse_span(arr[1], "/compose/1")]
    raise SchemaError("/", 'expected a "span" or "compose" field')
