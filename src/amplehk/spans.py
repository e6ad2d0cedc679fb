"""Spans of finite sets and their transfer matrices.

A span is a diagram  left <- mid -> right  of finite sets with total leg
maps.  Spans compose by pullback over the shared boundary, and each span has
a transfer matrix counting middle elements fiberwise: entry (y, x) is the
number of mid elements sitting over x on the left and y on the right.
Transfer turns pullback composition into matrix multiplication, which is what
lets boundary maps of nerves be encoded span by span and recovered as signed
sums of face transfers.
"""

from __future__ import annotations

from collections import Counter
from typing import Hashable, Mapping, Sequence

from ._record import Record, setfield
from .errors import ShapeMismatch
from .exact_linalg import IntMatrix
from .models import FiniteGroupoid, nerve_levels

__all__ = [
    "FiniteSpan",
    "boundary_from_face_spans",
    "compose_spans",
    "disjoint_union_spans",
    "face_span",
    "identity_span",
    "spans_isomorphic",
    "transfer_matrix",
]


class FiniteSpan(Record):
    """left <- mid -> right with total leg functions.

    Elements are arbitrary hashable labels; the element lists fix the basis
    order used by ``transfer_matrix``.
    """

    __slots__ = ("left", "mid", "right", "left_leg", "right_leg")

    def __init__(
        self,
        left: tuple[Hashable, ...],
        mid: tuple[Hashable, ...],
        right: tuple[Hashable, ...],
        left_leg: Mapping[Hashable, Hashable],
        right_leg: Mapping[Hashable, Hashable],
    ) -> None:
        for part, name in ((left, "left"), (mid, "mid"), (right, "right")):
            if len(set(part)) != len(part):
                raise ShapeMismatch(f"duplicate elements in {name} set")
        left_set, right_set = set(left), set(right)
        for z in mid:
            if z not in left_leg:
                raise ShapeMismatch(f"left leg undefined on {z!r}")
            if z not in right_leg:
                raise ShapeMismatch(f"right leg undefined on {z!r}")
            if left_leg[z] not in left_set:
                raise ShapeMismatch(f"left leg of {z!r} leaves the left set")
            if right_leg[z] not in right_set:
                raise ShapeMismatch(f"right leg of {z!r} leaves the right set")
        setfield(self, "left", left)
        setfield(self, "mid", mid)
        setfield(self, "right", right)
        setfield(self, "left_leg", left_leg)
        setfield(self, "right_leg", right_leg)


def identity_span(elements: Sequence[Hashable]) -> FiniteSpan:
    """The unit for composition: both legs the identity."""
    elems = tuple(elements)
    ident = {x: x for x in elems}
    return FiniteSpan(elems, elems, elems, ident, ident)


def compose_spans(second: FiniteSpan, first: FiniteSpan) -> FiniteSpan:
    """Pullback composite ``second`` after ``first``.

    The right set of ``first`` must equal the left set of ``second``.  The
    middle is the fiber product: pairs agreeing over the shared boundary.
    """
    if first.right != second.left:
        raise ShapeMismatch("spans do not share a boundary: right of first != left of second")
    mid = tuple(
        (z1, z2)
        for z1 in first.mid
        for z2 in second.mid
        if first.right_leg[z1] == second.left_leg[z2]
    )
    left_leg = {pair: first.left_leg[pair[0]] for pair in mid}
    right_leg = {pair: second.right_leg[pair[1]] for pair in mid}
    return FiniteSpan(first.left, mid, second.right, left_leg, right_leg)


def transfer_matrix(span: FiniteSpan) -> IntMatrix:
    """Count middle elements fiberwise: rows on the right, columns on the left.

    The matrix represents pushing a function forward by summation over the
    fibers of the right leg after pulling back along the left leg, so
    composition of spans multiplies transfer matrices.
    """
    left_index = {x: j for j, x in enumerate(span.left)}
    right_index = {y: i for i, y in enumerate(span.right)}
    rows, cols = len(span.right), len(span.left)
    flat = [0] * (rows * cols)
    for z in span.mid:
        i = right_index[span.right_leg[z]]
        j = left_index[span.left_leg[z]]
        flat[i * cols + j] += 1
    return IntMatrix(rows, cols, tuple(flat))


def disjoint_union_spans(a: FiniteSpan, b: FiniteSpan) -> FiniteSpan:
    """Side-by-side union; transfer matrices become block diagonal."""

    def tag(k: int, xs: tuple) -> tuple:
        return tuple((k, x) for x in xs)

    left = tag(0, a.left) + tag(1, b.left)
    mid = tag(0, a.mid) + tag(1, b.mid)
    right = tag(0, a.right) + tag(1, b.right)
    left_leg = {(0, z): (0, a.left_leg[z]) for z in a.mid}
    left_leg.update({(1, z): (1, b.left_leg[z]) for z in b.mid})
    right_leg = {(0, z): (0, a.right_leg[z]) for z in a.mid}
    right_leg.update({(1, z): (1, b.right_leg[z]) for z in b.mid})
    return FiniteSpan(left, mid, right, left_leg, right_leg)


def spans_isomorphic(a: FiniteSpan, b: FiniteSpan) -> bool:
    """Equality up to a bijection of the middles fixing both boundary sets.

    The boundary sets must match on the nose.  Any leg-preserving bijection
    permutes middle elements within their (left, right) fibers, so the spans
    are isomorphic exactly when the fiber counts agree.
    """
    if set(a.left) != set(b.left) or set(a.right) != set(b.right):
        return False

    def fiber_counts(span: FiniteSpan) -> Counter:
        return Counter((span.left_leg[z], span.right_leg[z]) for z in span.mid)

    return fiber_counts(a) == fiber_counts(b)


# ---------------------------------------------------------------------------
# face maps as spans


def face_span(g: FiniteGroupoid, n: int, i: int) -> FiniteSpan:
    """The i-th face map of the nerve at degree n, encoded as a span.

    The left set is the n-cells with the identity leg, the right set the
    (n-1)-cells, and the right leg the face map itself; its transfer is then
    exactly the 0/1 matrix of the face pushforward.  Cells are labelled by
    their position in the deterministic nerve enumeration.
    """
    if n < 1:
        raise ValueError("face maps start at degree 1")
    if not 0 <= i <= n:
        raise IndexError(f"face index {i} out of range for degree {n}")
    levels = nerve_levels(g, n)
    top = levels[n]
    below = levels[n - 1]
    left = tuple(("cell", n, t) for t in range(top.size()))
    right = tuple(("cell", n - 1, c) for c in range(below.size()))
    face = top.faces[i]
    left_leg = {("cell", n, t): ("cell", n, t) for t in range(top.size())}
    right_leg = {("cell", n, t): ("cell", n - 1, face[t]) for t in range(top.size())}
    return FiniteSpan(left, left, right, left_leg, right_leg)


def boundary_from_face_spans(g: FiniteGroupoid, n: int) -> IntMatrix:
    """Signed sum of the face-span transfers at degree n, the alternating sum
    that equals the nerve's boundary matrix."""
    total: IntMatrix | None = None
    for i in range(n + 1):
        t = transfer_matrix(face_span(g, n, i))
        signed = t if i % 2 == 0 else -t
        total = signed if total is None else total + signed
    assert total is not None
    return total
