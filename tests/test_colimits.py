"""Colimit invariants of inductive systems, from their stationary tails."""

from __future__ import annotations

import random

import pytest

import amplehk.colimits as colimits
from amplehk.colimits import ColimitInvariants, colimit_invariants, map_on_colimit_rank
from amplehk.errors import CommutationFailure, ModelInvalid, ShapeMismatch
from amplehk.exact_linalg import IntMatrix, kernel_basis, matrix_rank
from amplehk.ktheory import invariants
from amplehk.models import BratteliModel
from oracles import add, hstack, identity, power, scale, zeros


def M(rows):
    return IntMatrix.from_rows(rows)


class TestSystemValidation:
    # A system's finite run of connecting maps is checked where the system
    # is built, as a Bratteli diagram; the colimit then reads only the tail.
    def test_connecting_count_checked(self):
        with pytest.raises(ModelInvalid) as exc:
            BratteliModel((1, 1), (), M([[1]]))
        assert exc.value.violations == ["2 levels need 1 incidence matrices, got 0"]

    def test_connecting_shape_checked(self):
        with pytest.raises(ModelInvalid) as exc:
            BratteliModel((1, 2), (M([[1]]),), identity(2))
        assert exc.value.violations == ["incidence 0 is 1x1, expected 2x1"]

    def test_tail_shape_checked(self):
        for call in (colimit_invariants, lambda tail: map_on_colimit_rank(tail, tail)):
            with pytest.raises(ShapeMismatch, match="tail is 1x2, not square"):
                call(zeros(1, 2))


class TestColimitInvariants:
    def test_doubling_tail(self):
        inv = colimit_invariants(M([[2]]))
        assert inv == ColimitInvariants(rank=1)

    def test_invertible_tail(self):
        inv = colimit_invariants(M([[1, 1], [1, 0]]))
        assert inv.rank == 2

    def test_rank_drops_to_eventual_image(self):
        # [[1, 1], [0, 0]] has rank 1 already at the first power.
        inv = colimit_invariants(M([[1, 1], [0, 0]]))
        assert inv.rank == 1

    def test_nilpotent_tail_vanishes(self):
        inv = colimit_invariants(M([[0, 1], [0, 0]]))
        assert inv.rank == 0

    def test_rank_ignores_leading_stages(self):
        # Dropping finitely many stages never changes a colimit, so a
        # diagram's dimension group has the rank of its tail's colimit.
        tail = M([[2, 1], [0, 3]])
        diagram = BratteliModel((3, 2), (M([[1, 0, 2], [0, 1, 1]]),), tail)
        assert invariants(diagram).homology().by_degree[0] == colimit_invariants(tail)

    def test_eventual_rank_has_stabilized(self):
        rng = random.Random(31)
        for _ in range(60):
            n = rng.randint(1, 5)
            tail = M([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
            rank = colimit_invariants(tail).rank
            assert rank == matrix_rank(power(tail, n))
            assert rank == matrix_rank(power(tail, n + 1))
            assert rank == matrix_rank(power(tail, 2 * n + 1))


def block_tail(rng, p, s):
    """[[P, X], [0, N]] with P nonsingular and N strictly upper triangular
    (nilpotent of index at most s), conjugated by a random permutation."""
    n = p + s
    while True:
        core = M([[rng.randint(-3, 3) for _ in range(p)] for _ in range(p)])
        if matrix_rank(core) == p:
            break
    rows = [[0] * n for _ in range(n)]
    for i in range(p):
        rows[i][:p] = core.row(i)
        rows[i][p:] = [rng.randint(-2, 2) for _ in range(s)]
    for i in range(p, n):
        for j in range(i + 1, n):
            rows[i][j] = rng.randint(-2, 2)
    order = list(range(n))
    rng.shuffle(order)
    return M([[rows[order[i]][order[j]] for j in range(n)] for i in range(n)])


def jordan_block(n):
    return M([[int(j == i + 1) for j in range(n)] for i in range(n)])


def eliminations(monkeypatch):
    """Record the size of every matrix ``colimits`` eliminates."""
    seen = []
    real = colimits.matrix_rank

    def counted(mat):
        seen.append(mat.rows)
        return real(mat)

    monkeypatch.setattr(colimits, "matrix_rank", counted)
    return seen


class TestEventualRank:
    """The first repeated rank of M, M^2, ... against the rank of M^n."""

    def test_nilpotent_blocks_against_the_full_power(self):
        rng = random.Random(53)
        for n in range(1, 17):
            for _ in range(3):
                p = rng.randint(0, n)
                tail = block_tail(rng, p, n - p)
                rank = colimit_invariants(tail).rank
                assert rank == matrix_rank(power(tail, n)) == p

    def test_full_jordan_block_drops_at_every_power(self, monkeypatch):
        seen = eliminations(monkeypatch)
        for n in (1, 2, 5, 9):
            seen.clear()
            assert colimit_invariants(jordan_block(n)).rank == 0
            # ranks n-1, n-2, ..., 0: one elimination per power, none after 0
            assert len(seen) == n

    def test_empty_tail(self):
        inv = colimit_invariants(zeros(0, 0))
        assert inv.rank == 0

    def test_invertible_tail_needs_one_elimination(self, monkeypatch):
        seen = eliminations(monkeypatch)
        tail = M([[2, 1, 0], [1, 1, 1], [0, 1, 3]])
        assert colimit_invariants(tail).rank == 3
        assert seen == [3]

    def test_singular_tail_stops_at_the_first_repeat(self, monkeypatch):
        seen = eliminations(monkeypatch)
        tail = M([[1, 1], [1, 1]])  # rank 1 at every power
        assert colimit_invariants(tail).rank == 1
        assert seen == [2, 2]


class TestDirectSum:
    def test_rank_is_additive(self):
        rng = random.Random(37)
        for _ in range(40):
            x = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
            y = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
            block_diag = M([row + [0] * 3 for row in x] + [[0] * 2 + row for row in y])
            total = colimit_invariants(block_diag)
            a = colimit_invariants(M(x))
            b = colimit_invariants(M(y))
            assert total.rank == a.rank + b.rank


class TestMapOnColimit:
    def test_identity_has_full_colimit_rank(self):
        for rows in ([[2]], [[1, 1], [1, 0]], [[1, 1], [0, 0]], [[0, 1], [0, 0]]):
            tail = M(rows)
            rank = colimit_invariants(tail).rank
            assert map_on_colimit_rank(tail, identity(tail.rows)) == rank

    def test_tail_acts_invertibly_on_its_colimit(self):
        tail = M([[1, 1], [0, 0]])
        assert map_on_colimit_rank(tail, tail) == 1

    def test_zero_endomorphism(self):
        tail = M([[1, 1], [1, 0]])
        assert map_on_colimit_rank(tail, zeros(2, 2)) == 0

    def test_scaling_keeps_rank(self):
        tail = M([[2]])
        assert map_on_colimit_rank(tail, M([[3]])) == 1

    def test_commutation_is_required(self):
        tail = M([[1, 1], [0, 1]])
        with pytest.raises(CommutationFailure):
            map_on_colimit_rank(tail, M([[1, 0], [0, 2]]))

    def test_discrepancy_dying_in_the_tail_is_accepted(self):
        # The tail is nilpotent, so every endomorphism eventually commutes;
        # the induced map on the vanishing colimit has rank zero.
        tail = M([[0, 1], [0, 0]])
        assert map_on_colimit_rank(tail, M([[1, 0], [0, 2]])) == 0

    def test_shape_checked(self):
        tail = M([[2]])
        with pytest.raises(ShapeMismatch):
            map_on_colimit_rank(tail, identity(2))

    def test_nilpotent_blocks_against_the_full_power_kernel(self):
        # Oracle: rank([endo | K]) - rank(K) with K a kernel basis of M^n.
        rng = random.Random(59)
        for _ in range(40):
            n = rng.randint(1, 8)
            p = rng.randint(0, n)
            tail = block_tail(rng, p, n - p)
            kernel = kernel_basis(power(tail, n))
            a, b, c = (rng.randint(-2, 2) for _ in range(3))
            endo = add(add(scale(power(tail, 2), a), scale(tail, b)), scale(identity(n), c))
            expected = matrix_rank(hstack(endo, kernel)) - kernel.cols
            assert map_on_colimit_rank(tail, endo) == expected
            assert map_on_colimit_rank(tail, identity(n)) == p
            assert map_on_colimit_rank(tail, tail) == p

    def test_discrepancy_inside_a_nilpotent_block_is_accepted(self):
        # The first endomorphism fails to commute only on the nilpotent
        # block, where the tail's square kills the discrepancy; the second
        # mixes that block into the doubling, where nothing kills it.
        tail = M([[2, 0, 0], [0, 0, 1], [0, 0, 0]])
        assert map_on_colimit_rank(tail, M([[3, 0, 0], [0, 1, 0], [0, 0, 2]])) == 1
        with pytest.raises(CommutationFailure):
            map_on_colimit_rank(tail, M([[1, 1, 0], [0, 1, 0], [0, 0, 1]]))
