"""Spans of finite sets, transfer matrices, and face maps as spans."""

from __future__ import annotations

import random

import pytest

from amplehk.errors import ShapeMismatch
from amplehk.exact_linalg import IntMatrix
from amplehk.spans import FiniteSpan, compose_spans, transfer_matrix
from oracles import (
    zeros,
    boundary_from_face_spans,
    boundary_matrix,
    cyclic_group_groupoid,
    disjoint_union_spans,
    face_span,
    identity,
    identity_span,
    pair_groupoid,
    spans_isomorphic,
    trivial_groupoid,
)


def M(rows):
    return IntMatrix.from_rows(rows)


def random_span(rng: random.Random, left: tuple, right: tuple, max_mid: int = 4) -> FiniteSpan:
    mid = tuple(("m", rng.randrange(10**6), k) for k in range(rng.randint(0, max_mid)))
    left_leg = {z: rng.choice(left) for z in mid}
    right_leg = {z: rng.choice(right) for z in mid}
    return FiniteSpan(left, mid, right, left_leg, right_leg)


def labels(prefix: str, n: int) -> tuple:
    return tuple((prefix, i) for i in range(n))


class TestValidation:
    def test_duplicates_rejected(self):
        with pytest.raises(ShapeMismatch):
            FiniteSpan(("a", "a"), (), ("b",), {}, {})

    def test_legs_must_be_total(self):
        with pytest.raises(ShapeMismatch):
            FiniteSpan(("a",), ("z",), ("b",), {}, {"z": "b"})

    def test_legs_must_land_inside(self):
        with pytest.raises(ShapeMismatch):
            FiniteSpan(("a",), ("z",), ("b",), {"z": "ghost"}, {"z": "b"})


class TestTransfer:
    def test_identity_span(self):
        assert transfer_matrix(identity_span(("x", "y", "z"))) == identity(3)

    def test_fiber_counting(self):
        span = FiniteSpan(
            ("x", "y"),
            ("p", "q", "r"),
            ("u", "v"),
            {"p": "x", "q": "x", "r": "y"},
            {"p": "u", "q": "v", "r": "v"},
        )
        # Row per right element, column per left element.
        assert transfer_matrix(span) == M([[1, 0], [1, 1]])

    def test_empty_mid(self):
        span = FiniteSpan(("x",), (), ("u",), {}, {})
        assert transfer_matrix(span) == zeros(1, 1)


class TestComposition:
    def test_boundary_must_match(self):
        a = FiniteSpan(("x",), (), ("u",), {}, {})
        b = FiniteSpan(("w",), (), ("y",), {}, {})
        with pytest.raises(ShapeMismatch):
            compose_spans(b, a)

    def test_two_sheets_squared(self):
        double = FiniteSpan(("x",), ("s1", "s2"), ("x",), {"s1": "x", "s2": "x"}, {"s1": "x", "s2": "x"})
        square = compose_spans(double, double)
        assert len(square.mid) == 4
        assert transfer_matrix(square) == M([[4]])

    def test_empty_mid_annihilates(self):
        empty = FiniteSpan(("x",), (), ("x",), {}, {})
        double = FiniteSpan(("x",), ("s1", "s2"), ("x",), {"s1": "x", "s2": "x"}, {"s1": "x", "s2": "x"})
        assert len(compose_spans(empty, double).mid) == 0

    def test_unit_laws(self):
        rng = random.Random(53)
        for _ in range(30):
            span = random_span(rng, labels("a", 3), labels("b", 2))
            assert spans_isomorphic(compose_spans(span, identity_span(span.left)), span)
            assert spans_isomorphic(compose_spans(identity_span(span.right), span), span)

    def test_transfer_is_functorial(self):
        rng = random.Random(59)
        for _ in range(150):
            a_set = labels("a", rng.randint(1, 3))
            b_set = labels("b", rng.randint(1, 3))
            c_set = labels("c", rng.randint(1, 3))
            first = random_span(rng, a_set, b_set)
            second = random_span(rng, b_set, c_set)
            composite = compose_spans(second, first)
            assert transfer_matrix(composite) == transfer_matrix(second) @ transfer_matrix(first)

    def test_associativity_up_to_isomorphism(self):
        rng = random.Random(61)
        for _ in range(30):
            a_set, b_set = labels("a", 2), labels("b", 2)
            c_set, d_set = labels("c", 2), labels("d", 2)
            f = random_span(rng, a_set, b_set, max_mid=2)
            g = random_span(rng, b_set, c_set, max_mid=2)
            h = random_span(rng, c_set, d_set, max_mid=2)
            left = compose_spans(h, compose_spans(g, f))
            right = compose_spans(compose_spans(h, g), f)
            assert spans_isomorphic(left, right)


class TestDisjointUnion:
    def test_block_diagonal_transfer(self):
        a = FiniteSpan(("x",), ("p",), ("u",), {"p": "x"}, {"p": "u"})
        b = FiniteSpan(("y", "z"), ("q",), ("v",), {"q": "z"}, {"q": "v"})
        union = disjoint_union_spans(a, b)
        assert transfer_matrix(union) == M([[1, 0, 0], [0, 0, 1]])

    def test_additivity_under_random_unions(self):
        rng = random.Random(67)
        for _ in range(50):
            a = random_span(rng, labels("a", 2), labels("b", 2))
            b = random_span(rng, labels("c", 2), labels("d", 3))
            ta, tb = transfer_matrix(a), transfer_matrix(b)
            tu = transfer_matrix(disjoint_union_spans(a, b))
            for i in range(ta.rows):
                for j in range(ta.cols):
                    assert tu.entry(i, j) == ta.entry(i, j)
            for i in range(tb.rows):
                for j in range(tb.cols):
                    assert tu.entry(ta.rows + i, ta.cols + j) == tb.entry(i, j)
            for i in range(ta.rows):
                for j in range(tb.cols):
                    assert tu.entry(i, ta.cols + j) == 0


class TestIsomorphism:
    def test_relabelled_middles_agree(self):
        a = FiniteSpan(("x",), ("p", "q"), ("u",), {"p": "x", "q": "x"}, {"p": "u", "q": "u"})
        b = FiniteSpan(("x",), ("r", "s"), ("u",), {"r": "x", "s": "x"}, {"r": "u", "s": "u"})
        assert spans_isomorphic(a, b)

    def test_fiber_counts_must_agree(self):
        a = FiniteSpan(("x", "y"), ("p",), ("u",), {"p": "x"}, {"p": "u"})
        b = FiniteSpan(("x", "y"), ("p",), ("u",), {"p": "y"}, {"p": "u"})
        assert not spans_isomorphic(a, b)

    def test_boundaries_must_agree(self):
        a = FiniteSpan(("x",), (), ("u",), {}, {})
        b = FiniteSpan(("y",), (), ("u",), {}, {})
        assert not spans_isomorphic(a, b)

    def test_large_middles_compare_by_counts(self):
        mid_a = tuple(("p", i) for i in range(12))
        mid_b = tuple(("q", i) for i in range(12))
        a = FiniteSpan(("x",), mid_a, ("u",), {z: "x" for z in mid_a}, {z: "u" for z in mid_a})
        b = FiniteSpan(("x",), mid_b, ("u",), {z: "x" for z in mid_b}, {z: "u" for z in mid_b})
        assert spans_isomorphic(a, b)


class TestFaceSpans:
    def test_degree_and_index_guards(self):
        g = trivial_groupoid(1)
        with pytest.raises(ValueError):
            face_span(g, 0, 0)
        with pytest.raises(IndexError):
            face_span(g, 1, 2)
        with pytest.raises(IndexError):
            face_span(g, 2, -1)

    def test_transfer_is_a_function_matrix(self):
        g = pair_groupoid(2)
        for n in (1, 2):
            for i in range(n + 1):
                t = transfer_matrix(face_span(g, n, i))
                for j in range(t.cols):
                    assert sum(t.entry(r, j) for r in range(t.rows)) == 1

    def test_boundary_recovered_from_spans(self, deep_corpus):
        for g in deep_corpus:
            for n in (1, 2, 3):
                assert boundary_from_face_spans(g, n) == boundary_matrix(g, n)

    def test_boundary_recovered_on_wider_models(self, wide_corpus):
        # The wide corpus has nerves too large to rebuild per face at degree
        # 3; two degrees already exercise every face role there.
        for g in wide_corpus:
            for n in (1, 2):
                assert boundary_from_face_spans(g, n) == boundary_matrix(g, n)

    def test_signed_sum_example(self):
        g = cyclic_group_groupoid(2)
        assert boundary_from_face_spans(g, 1) == zeros(1, 2)
