"""Parsing of JSON model and span documents.

The document schema mirrors the model classes in ``models``.  Every model
document has a ``model`` tag naming the class; matrices are row-major arrays
of arrays of integers.  Parse failures carry location information: malformed JSON reports
line and column, schema violations report a JSON pointer to the offending
value.  Products nest at most ``MAX_PRODUCT_DEPTH`` deep, an integer
literal has at most ``MAX_INT_DIGITS`` digits, and no object repeats a key.

Each model checks its axioms when it is built, so a document that parses is
a valid model, and a malformed one raises ModelInvalid before any engine
runs.  The violations of a model nested in a product are led by the model's
JSON pointer ("/factors/1: row 0 of the transition matrix is zero"); those
of a top-level model carry no prefix.
"""

from __future__ import annotations

import json
import re
from itertools import chain

from .errors import ModelInvalid, ParseError, SchemaError
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

# Deepest product nesting a model document may have.  The Kunneth assembly of
# a chain of n products keeps about 2n degrees, each a quadratic sum, so the
# cost grows like n cubed; 32 levels take well under a second.
MAX_PRODUCT_DEPTH = 32

# Longest integer literal a document may hold.  Before Python 3.12 reading
# and printing an integer is quadratic in its digit count: a 400,000-digit
# entry took 4.25 s through the CLI on Python 3.11, one at this cap takes a
# few milliseconds.
MAX_INT_DIGITS = 20_000

# A digit run past the cap, found by one scan of the text.  Only a document
# with such a run is decoded again with a check on each integer literal: the
# run may lie in a string or a fraction.
_LONG_DIGIT_RUN = re.compile(r"(?<![0-9])[0-9]{%d}" % (MAX_INT_DIGITS + 1))

# The kinds of the models that are not products, one parser branch each, in
# the order the unknown-kind error lists them.  Each matches the ``kind`` of
# one record in ``ktheory.RECORDS``.
LEAF_KINDS = ("finite", "sft", "af", "cantor_z")

__all__ = [
    "LEAF_KINDS",
    "MAX_INT_DIGITS",
    "MAX_PRODUCT_DEPTH",
    "load_json",
    "parse_model",
    "parse_span",
    "parse_span_document",
]


def _capped_int(literal: str) -> int:
    digits = len(literal) - literal.startswith("-")
    if digits > MAX_INT_DIGITS:
        raise ParseError(
            f"an integer literal has {digits:,} digits, more than the limit of {MAX_INT_DIGITS:,}"
        )
    return int(literal)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    # JSON leaves repeated keys to the reader; taking the last one would run
    # a document on an entry its author may not have meant.
    doc = dict(pairs)
    if len(doc) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ParseError(f"an object repeats the key {json.dumps(key)}")
            seen.add(key)
    return doc


def load_json(text: str):
    parse_int = _capped_int if _LONG_DIGIT_RUN.search(text) else None
    try:
        return json.loads(text, parse_int=parse_int, object_pairs_hook=_unique_keys)
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
    width = None
    for i, row in enumerate(rows):
        row = _expect_list(row, f"{pointer}/{i}")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise SchemaError(f"{pointer}/{i}", f"row length {len(row)} differs from {width}")
        # One pass over the row's types; entry pointers are built only to
        # locate the first entry that is not an integer (bool included).
        if not set(map(type, row)) <= {int}:
            for j, x in enumerate(row):
                _expect_int(x, f"{pointer}/{i}/{j}")
    return IntMatrix.from_rows(rows, cols=width or 0)


def _parse_finite(doc: dict, pointer: str) -> FiniteGroupoid:
    # Each table's shapes and types are checked in one pass over the whole
    # table, as in ``_parse_matrix``.  Only a table that fails it, or a
    # composition table that lists a pair twice, is read again element by
    # element to locate the first element at fault.
    units_doc = _expect_list(_get(doc, "units", pointer), f"{pointer}/units")
    if not set(map(type, units_doc)) <= {str}:
        for i, u in enumerate(units_doc):
            _expect_str(u, f"{pointer}/units/{i}")
    units = tuple(units_doc)

    arrows_doc = _expect_list(_get(doc, "arrows", pointer), f"{pointer}/arrows")
    arrows = None
    if set(map(type, arrows_doc)) <= {dict}:
        arrows = [(a.get("id"), a.get("source"), a.get("target")) for a in arrows_doc]
        if not set(map(type, chain.from_iterable(arrows))) <= {str}:
            arrows = None
    if arrows is None:
        arrows = [_parse_arrow(a, f"{pointer}/arrows/{i}") for i, a in enumerate(arrows_doc)]

    compose_doc = _expect_list(_get(doc, "compose", pointer), f"{pointer}/compose")
    compose = {}
    if (
        set(map(type, compose_doc)) <= {list}
        and set(map(len, compose_doc)) <= {3}
        and set(map(type, chain.from_iterable(compose_doc))) <= {str}
    ):
        compose = {(g, d): gd for g, d, gd in compose_doc}
    if len(compose) != len(compose_doc):
        compose = {}
        for i, entry in enumerate(compose_doc):
            g, d, gd = _parse_compose_entry(entry, f"{pointer}/compose/{i}")
            if (g, d) in compose:
                raise SchemaError(f"{pointer}/compose/{i}", f"composable pair ({g!r}, {d!r}) is listed twice")
            compose[(g, d)] = gd

    inverse = _expect_object(_get(doc, "inverse", pointer), f"{pointer}/inverse")
    if not set(map(type, inverse.values())) <= {str}:
        for k, v in inverse.items():
            _expect_str(v, f"{pointer}/inverse/{k}")
    return FiniteGroupoid(units, arrows, compose, inverse)


def _parse_arrow(a, ap: str) -> tuple[str, str, str]:
    a = _expect_object(a, ap)
    return (
        _expect_str(_get(a, "id", ap), f"{ap}/id"),
        _expect_str(_get(a, "source", ap), f"{ap}/source"),
        _expect_str(_get(a, "target", ap), f"{ap}/target"),
    )


def _parse_compose_entry(entry, ep: str) -> tuple[str, str, str]:
    entry = _expect_list(entry, ep)
    if len(entry) != 3:
        raise SchemaError(ep, "composition entries are triples [g, d, g.d]")
    g, d, gd = (_expect_str(x, f"{ep}/{j}") for j, x in enumerate(entry))
    return g, d, gd


def _parse_bratteli(doc: dict, pointer: str) -> BratteliModel:
    sizes_doc = _expect_list(_get(doc, "level_sizes", pointer), f"{pointer}/level_sizes")
    sizes = tuple([_expect_int(s, f"{pointer}/level_sizes/{i}") for i, s in enumerate(sizes_doc)])
    inc_doc = _expect_list(_get(doc, "incidences", pointer), f"{pointer}/incidences")
    incidences = tuple([_parse_matrix(m, f"{pointer}/incidences/{i}") for i, m in enumerate(inc_doc)])
    tail = _parse_matrix(_get(doc, "tail", pointer), f"{pointer}/tail")
    return BratteliModel(sizes, incidences, tail)


def parse_model(doc, pointer: str = "") -> GroupoidModel:
    """Turn a decoded JSON document into a model, or raise SchemaError or
    ModelInvalid.

    Keys the schema does not name are ignored, among them the
    ``telescope_depth`` of older cantor_z documents: simplicity is decided
    from the tail alone.
    """
    return _parse_model(doc, pointer, 0)


def _parse_model(doc, pointer: str, depth: int) -> GroupoidModel:
    """``depth`` counts the products enclosing ``doc``."""
    doc = _expect_object(doc, pointer or "/")
    kind = _expect_str(_get(doc, "model", pointer), f"{pointer}/model")
    if kind == "product":
        if depth == MAX_PRODUCT_DEPTH:
            raise SchemaError(pointer, f"products nested more than {MAX_PRODUCT_DEPTH} deep")
        factors = _expect_list(_get(doc, "factors", pointer), f"{pointer}/factors")
        if len(factors) != 2:
            raise SchemaError(f"{pointer}/factors", f"expected exactly 2 factors, got {len(factors)}")
        return ProductModel(
            _parse_model(factors[0], f"{pointer}/factors/0", depth + 1),
            _parse_model(factors[1], f"{pointer}/factors/1", depth + 1),
        )
    try:
        return _parse_leaf(kind, doc, pointer)
    except ModelInvalid as e:
        if not pointer:
            raise
        # The pointer leads the message once, as in a SchemaError.
        first, *rest = e.violations
        raise ModelInvalid([f"{pointer}: {first}", *rest]) from None


def _parse_leaf(kind: str, doc: dict, pointer: str) -> GroupoidModel:
    if kind == "finite":
        return _parse_finite(doc, pointer)
    if kind == "sft":
        return SftModel(_parse_matrix(_get(doc, "matrix", pointer), f"{pointer}/matrix"))
    if kind == "af":
        return _parse_bratteli(doc, pointer)
    if kind == "cantor_z":
        return CantorZModel(_parse_bratteli(
            _expect_object(_get(doc, "diagram", pointer), f"{pointer}/diagram"),
            f"{pointer}/diagram",
        ))
    raise SchemaError(
        f"{pointer}/model",
        f"unknown model kind {kind!r}; expected {', '.join(LEAF_KINDS)}, or product",
    )


def parse_span(doc, pointer: str = "") -> FiniteSpan:
    """Span documents: three element arrays plus two leg objects.

    Elements are strings; the leg objects map middle elements to boundary
    elements.
    """
    doc = _expect_object(doc, pointer or "/")
    sets = {}
    for name in ("left", "mid", "right"):
        arr = _expect_list(_get(doc, name, pointer), f"{pointer}/{name}")
        sets[name] = tuple([_expect_str(x, f"{pointer}/{name}/{i}") for i, x in enumerate(arr)])
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
