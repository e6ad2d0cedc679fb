"""Spans of finite sets and their transfer matrices.

A span is a diagram  left <- mid -> right  of finite sets with total leg
maps.  Spans compose by pullback over the shared boundary, and each span has
a transfer matrix counting middle elements fiberwise: entry (y, x) is the
number of mid elements sitting over x on the left and y on the right.
Transfer turns pullback composition into matrix multiplication.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping

from ._record import Record, setfield
from .errors import ShapeMismatch
from .exact_linalg import IntMatrix

__all__ = ["FiniteSpan", "compose_spans", "transfer_matrix"]


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


def compose_spans(second: FiniteSpan, first: FiniteSpan) -> FiniteSpan:
    """Pullback composite ``second`` after ``first``.

    The right set of ``first`` must equal the left set of ``second``.  The
    middle is the fiber product: pairs agreeing over the shared boundary.
    """
    if first.right != second.left:
        raise ShapeMismatch("spans do not share a boundary: right of first != left of second")
    mid = tuple([
        (z1, z2)
        for z1 in first.mid
        for z2 in second.mid
        if first.right_leg[z1] == second.left_leg[z2]
    ])
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
