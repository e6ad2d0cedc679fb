"""Colimits of inductive systems of free abelian groups.

A system here is a finite run of free abelian groups and connecting integer
matrices, followed by a periodic tail: one square matrix applied forever
(a Bratteli diagram, whose colimit is its dimension group).  Such colimits
need not be finitely generated, so they are never materialized.  Instead we
report their rank, the rational dimension of the colimit.  A colimit of free
abelian groups is torsion-free (an element of finite order already dies at a
finite stage), so rationally the rank describes it completely.

Dropping finitely many initial stages does not change a colimit, so its
rational dimension is the eventual rank of the tail matrix M, and the
functions here take the tail alone.  The ranks of M, M^2, M^3, ... never
increase, and the first repeat fixes them for good: rank M^k = rank M^(k+1)
means ker M^k = ker M^(k+1), and then ker M^(k+j) = ker M^k for every j.  So
the powers are formed one multiplication by M at a time and eliminated until
the rank repeats.  A nonsingular tail stops after one elimination; a nilpotent
block of index s adds one elimination per step, up to s.  So only low powers
are eliminated, while M^n of an n x n tail can carry entries of a hundred bits.
"""

from __future__ import annotations

from ._record import Record
from .errors import CommutationFailure, ShapeMismatch
from .exact_linalg import IntMatrix, kernel_basis, matrix_rank

__all__ = [
    "ColimitInvariants",
    "colimit_invariants",
    "map_on_colimit_rank",
]


class ColimitInvariants(Record):
    """A group known only by its rank: a colimit that need not be finitely
    generated, or a Kunneth product with such a factor."""

    __slots__ = ("rank",)

    def __str__(self) -> str:
        return f"colimit(rank {self.rank})"


def _stable_power(tail: IntMatrix) -> tuple[IntMatrix, int]:
    """(M^k, rank M^k) for the first k >= 1 with rank M^k = rank M^(k+1).

    From that k on the rank and the kernel of the powers stay fixed, so M^k
    has the eventual rank and the eventual kernel.  Rank 0 or full rank is
    already fixed, so it needs no further power.  Raises ShapeMismatch for a
    tail that is not square.
    """
    if tail.rows != tail.cols:
        raise ShapeMismatch(f"tail is {tail.rows}x{tail.cols}, not square")
    power = tail
    rank = matrix_rank(power)
    while 0 < rank < tail.rows:
        following = power @ tail
        following_rank = matrix_rank(following)
        if following_rank == rank:
            break
        power, rank = following, following_rank
    return power, rank


def colimit_invariants(tail: IntMatrix) -> ColimitInvariants:
    """Rank of the colimit of a system whose tail is ``tail``.

    The rank is the eventual rank of the tail M: the rank of M^k at the first
    k where rank M^k = rank M^(k+1).  The ranks of the powers never
    increase, and once two consecutive ones agree the kernels agree too, so
    every later power keeps that rank.

    A 2 x 2 Jordan block at 0 next to a doubling: the ranks of M, M^2, M^3
    are 2, 1, 1, so the rank repeats at M^2 and the colimit has rank 1.

    >>> tail = IntMatrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 2]])
    >>> [matrix_rank(m) for m in (tail, tail @ tail, tail @ tail @ tail)]
    [2, 1, 1]
    >>> colimit_invariants(tail).rank
    1
    """
    _, rank = _stable_power(tail)
    return ColimitInvariants(rank=rank)


def map_on_colimit_rank(tail: IntMatrix, endo: IntMatrix) -> int:
    """Rank of the endomorphism ``endo`` induces on the colimit.

    ``endo`` acts on the tail stage and must commute with the tail, possibly
    only after composing with further tail applications (a stage shift).  The
    induced map lives on the quotient by the eventual kernel of the tail; its
    rank is rank([endo | K]) - rank(K) for K a basis of that kernel.  The
    power M^k at which the tail's rank repeats has that kernel, so it serves
    both the commutation check and K.
    """
    if (endo.rows, endo.cols) != (tail.rows, tail.cols):
        raise ShapeMismatch(
            f"endomorphism is {endo.rows}x{endo.cols}, expected {tail.rows}x{tail.cols}"
        )
    stable, _ = _stable_power(tail)
    # Allow the discrepancy to die under further tail applications.
    if stable @ tail @ endo != stable @ endo @ tail:
        raise CommutationFailure("endomorphism does not commute with the tail, even eventually")
    kernel = kernel_basis(stable)
    if kernel.cols == 0:
        return matrix_rank(endo)
    joined = IntMatrix.from_rows([endo.row(i) + kernel.row(i) for i in range(endo.rows)])
    return matrix_rank(joined) - kernel.cols
