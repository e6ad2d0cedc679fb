"""Smith normal form, cokernels, kernels, and chain homology."""

from __future__ import annotations

import random

import pytest

from amplehk.errors import DimensionMismatch, NotAComplex, ShapeMismatch
from amplehk.exact_linalg import (
    FgAbelianGroup,
    IntMatrix,
    chain_homology,
    cokernel,
    determinant,
    invariant_factors,
    kernel_basis,
    kernel_rank,
    matrix_rank,
    smith_normal_form,
)
from amplehk.homology import boundary_matrix
from amplehk.models import cyclic_group_groupoid, transitive_groupoid

from conftest import assert_valid_snf, random_int_matrix


def M(rows):
    return IntMatrix.from_rows(rows)


class TestSmithNormalForm:
    def test_identity_is_fixed(self):
        assert smith_normal_form(IntMatrix.identity(3)).diagonal() == [1, 1, 1]

    def test_zero_matrix(self):
        assert smith_normal_form(IntMatrix.zeros(2, 3)).diagonal() == [0, 0]

    def test_worked_example(self):
        # Divisibility pins the diagonal: d1 = gcd of entries = 2 and
        # d1 * d2 = |det| = 8, so D = diag(2, 4).
        mat = M([[2, 4], [6, 8]])
        assert assert_valid_snf(mat) == [2, 4]

    def test_single_entry(self):
        assert smith_normal_form(M([[-6]])).diagonal() == [6]

    def test_non_square_shapes(self):
        assert assert_valid_snf(M([[1, 2, 3]])) == [1]
        assert assert_valid_snf(M([[2], [4], [6]])) == [2]

    def test_empty_shapes(self):
        assert smith_normal_form(IntMatrix.zeros(0, 3)).diagonal() == []
        assert smith_normal_form(IntMatrix.zeros(3, 0)).diagonal() == []
        res = smith_normal_form(IntMatrix.zeros(0, 0))
        assert res.U == IntMatrix.identity(0) and res.V == IntMatrix.identity(0)

    def test_divisibility_needs_fixup(self):
        # diag(2, 3) is not in Smith form; the algorithm must recombine.
        assert assert_valid_snf(M([[2, 0], [0, 3]])) == [1, 6]

    def test_random_matrices_against_oracle(self):
        rng = random.Random(7)
        for _ in range(300):
            assert_valid_snf(random_int_matrix(rng, 6, -9, 9))

    def test_determinism(self):
        mat = M([[3, 1, -4], [1, 5, 9], [-2, 6, 5]])
        first = smith_normal_form(mat)
        second = smith_normal_form(mat)
        assert first == second

    def test_cross_check_with_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form as sympy_snf

        rng = random.Random(11)
        for _ in range(40):
            mat = random_int_matrix(rng, 5, -6, 6)
            ours = [d for d in smith_normal_form(mat).diagonal() if d]
            sm = sympy_snf(sympy.Matrix(mat.to_rows()))
            theirs = [
                abs(sm[i, i]) for i in range(min(sm.rows, sm.cols)) if sm[i, i] != 0
            ]
            assert ours == theirs


def random_sparse_matrix(rng: random.Random, max_size: int, values) -> IntMatrix:
    rows = rng.randint(1, max_size)
    cols = rng.randint(1, max_size)
    density = rng.uniform(0.05, 0.5)
    return IntMatrix(
        rows, cols,
        tuple(rng.choice(values) if rng.random() < density else 0 for _ in range(rows * cols)),
    )


def assert_diagonal_readers_agree(mat: IntMatrix) -> list[int]:
    """The sparse diagonal behind rank, invariant factors and cokernel
    against the nonzero diagonal of the transform-carrying Smith form."""
    diag = [d for d in smith_normal_form(mat).diagonal() if d]
    assert invariant_factors(mat) == diag
    assert matrix_rank(mat) == len(diag)
    assert cokernel(mat) == FgAbelianGroup(mat.rows - len(diag), tuple(d for d in diag if d > 1))
    return diag


class TestSparseUnitPivots:
    def test_random_sparse_unit_matrices(self):
        rng = random.Random(31)
        for _ in range(200):
            assert_diagonal_readers_agree(random_sparse_matrix(rng, 14, (1, -1)))

    def test_no_unit_entry_leaves_all_residue(self):
        rng = random.Random(37)
        for _ in range(100):
            assert_diagonal_readers_agree(random_sparse_matrix(rng, 8, (2, -2, 3, -4, 6, 9)))

    def test_mixed_small_and_large_entries(self):
        rng = random.Random(41)
        big = (2**61 - 1, -(2**40) - 3, 3**30)
        for _ in range(100):
            assert_diagonal_readers_agree(random_sparse_matrix(rng, 10, (1, -1, 1, 2, -5) + big))

    @pytest.mark.parametrize("shape", [(0, 0), (0, 4), (4, 0), (3, 5), (5, 3)])
    def test_empty_and_zero_shapes(self, shape):
        mat = IntMatrix.zeros(*shape)
        assert assert_diagonal_readers_agree(mat) == []
        assert cokernel(mat) == FgAbelianGroup.free(shape[0])

    @pytest.mark.parametrize(
        "groupoid, degrees",
        [(cyclic_group_groupoid(4), (1, 2, 3)), (transitive_groupoid(2, 2), (1, 2, 3))],
        ids=["cyclic4", "transitive2x2"],
    )
    def test_bar_complex_boundaries(self, groupoid, degrees):
        for n in degrees:
            assert_diagonal_readers_agree(boundary_matrix(groupoid, n))

    def test_cross_check_with_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form as sympy_snf

        rng = random.Random(43)
        for _ in range(40):
            mat = random_sparse_matrix(rng, 7, (1, -1, 1, 2, -3, 4))
            if not any(mat.entries):
                continue
            sm = sympy_snf(sympy.Matrix(mat.to_rows()))
            theirs = [abs(sm[i, i]) for i in range(min(sm.rows, sm.cols)) if sm[i, i] != 0]
            assert invariant_factors(mat) == theirs

    def test_sparse_product_matches_dense_sum(self):
        rng = random.Random(47)
        for _ in range(50):
            a = random_sparse_matrix(rng, 6, (1, -1, 3))
            cols = rng.randint(1, 6)
            b = IntMatrix(a.cols, cols, tuple(rng.choice((0, 0, 1, -2)) for _ in range(a.cols * cols)))
            expected = [
                sum(a.entry(i, k) * b.entry(k, j) for k in range(a.cols))
                for i in range(a.rows) for j in range(b.cols)
            ]
            assert (a @ b).entries == tuple(expected)
        assert IntMatrix.zeros(2, 0) @ IntMatrix.zeros(0, 3) == IntMatrix.zeros(2, 3)


class TestRanksAndKernels:
    def test_rank_examples(self):
        assert matrix_rank(M([[1, 2], [2, 4]])) == 1
        assert matrix_rank(IntMatrix.identity(4)) == 4
        assert matrix_rank(IntMatrix.zeros(3, 3)) == 0

    def test_kernel_rank_is_cols_minus_rank(self):
        rng = random.Random(13)
        for _ in range(100):
            mat = random_int_matrix(rng, 5, -4, 4)
            assert kernel_rank(mat) == mat.cols - matrix_rank(mat)

    def test_kernel_basis_spans_kernel(self):
        rng = random.Random(17)
        for _ in range(100):
            mat = random_int_matrix(rng, 5, -4, 4)
            basis = kernel_basis(mat)
            assert basis.cols == kernel_rank(mat)
            assert (mat @ basis).is_zero()
            # A kernel basis of a saturated summand has full column rank.
            assert matrix_rank(basis) == basis.cols


class TestCokernel:
    def test_examples(self):
        assert cokernel(M([[2, 0], [0, 3]])) == FgAbelianGroup(0, (6,))
        assert cokernel(M([[2, 4], [6, 8]])) == FgAbelianGroup(0, (2, 4))
        assert cokernel(IntMatrix.zeros(2, 1)) == FgAbelianGroup.free(2)
        assert cokernel(IntMatrix.identity(3)).is_trivial

    def test_unimodular_has_trivial_cokernel(self):
        assert cokernel(M([[0, -1], [-1, 0]])).is_trivial

    def test_free_rank_identity(self):
        rng = random.Random(19)
        for _ in range(100):
            mat = random_int_matrix(rng, 5, -4, 4)
            assert cokernel(mat).rank == mat.rows - matrix_rank(mat)


class TestChainHomology:
    def test_torsion_spot(self):
        h = chain_homology(IntMatrix.zeros(1, 1), M([[2]]))
        assert h == FgAbelianGroup(0, (2,))

    def test_full_kernel_killed(self):
        h = chain_homology(IntMatrix.zeros(1, 2), IntMatrix.identity(2))
        assert h.is_trivial

    def test_free_survivor(self):
        # ker of [1, -1] is spanned by (1, 1); nothing maps in.
        h = chain_homology(M([[1, -1]]), IntMatrix.zeros(2, 0))
        assert h == FgAbelianGroup.free(1)

    def test_shape_error(self):
        with pytest.raises(DimensionMismatch):
            chain_homology(M([[1, 2]]), M([[1, 2]]))

    def test_not_a_complex(self):
        with pytest.raises(NotAComplex):
            chain_homology(M([[1, 0]]), IntMatrix.identity(2))

    def test_matches_quotient_of_counts(self):
        # Euler-type sanity on random complexes built as (B, kernel-valued C).
        rng = random.Random(23)
        for _ in range(50):
            b = random_int_matrix(rng, 4, -3, 3)
            basis = kernel_basis(b)
            if basis.cols == 0:
                continue
            # Map a free group onto part of the kernel via random combinations.
            combo = IntMatrix.from_rows(
                [[rng.randint(-2, 2) for _ in range(basis.cols)] for _ in range(basis.cols)]
            )
            c = basis @ combo
            h = chain_homology(b, c)
            assert h.rank == basis.cols - matrix_rank(combo)


class TestDeterminant:
    def test_examples(self):
        assert determinant(IntMatrix.identity(3)) == 1
        assert determinant(M([[2, 4], [6, 8]])) == -8
        assert determinant(M([[0, 1], [1, 0]])) == -1
        assert determinant(IntMatrix.zeros(0, 0)) == 1

    def test_product_of_invariant_factors_is_abs_det(self):
        rng = random.Random(29)
        for _ in range(60):
            n = rng.randint(1, 5)
            mat = IntMatrix.from_rows(
                [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            )
            prod = 1
            for d in invariant_factors(mat):
                prod *= d
            det = determinant(mat)
            if matrix_rank(mat) == n:
                assert prod == abs(det)
            else:
                assert det == 0

    def test_non_square_rejected(self):
        with pytest.raises(ShapeMismatch):
            determinant(IntMatrix.zeros(2, 3))


class TestFgAbelianGroup:
    def test_canonical_form_enforced(self):
        with pytest.raises(ValueError):
            FgAbelianGroup(0, (3, 2))
        with pytest.raises(ValueError):
            FgAbelianGroup(0, (1,))
        with pytest.raises(ValueError):
            FgAbelianGroup(-1)

    def test_direct_sum_recombines(self):
        a = FgAbelianGroup.cyclic(6)
        b = FgAbelianGroup.cyclic(4)
        assert a.direct_sum(b) == FgAbelianGroup(0, (2, 12))

    def test_tensor(self):
        a = FgAbelianGroup(1, (2,))
        b = FgAbelianGroup(1, (3,))
        # (Z + Z/2) (x) (Z + Z/3) = Z + Z/2 + Z/3 + 0 = Z + Z/6
        assert a.tensor(b) == FgAbelianGroup(1, (6,))
        assert FgAbelianGroup.cyclic(4).tensor(FgAbelianGroup.cyclic(6)) == FgAbelianGroup.cyclic(2)
        assert FgAbelianGroup.free(2).tensor(FgAbelianGroup.free(3)) == FgAbelianGroup.free(6)

    def test_tor(self):
        assert FgAbelianGroup.cyclic(4).tor(FgAbelianGroup.cyclic(6)) == FgAbelianGroup.cyclic(2)
        assert FgAbelianGroup.free(5).tor(FgAbelianGroup.cyclic(6)).is_trivial
        assert FgAbelianGroup.cyclic(2).tor(FgAbelianGroup.cyclic(3)).is_trivial

    def test_rendering(self):
        assert str(FgAbelianGroup.zero()) == "0"
        assert str(FgAbelianGroup.free(1)) == "Z"
        assert str(FgAbelianGroup(2, (2, 4))) == "Z^2 + Z/2 + Z/4"


class TestIntMatrix:
    def test_shape_checks(self):
        with pytest.raises(ShapeMismatch):
            IntMatrix.from_rows([[1, 2], [3]])
        with pytest.raises(ShapeMismatch):
            M([[1]]) @ M([[1, 2], [3, 4]])

    def test_power(self):
        fib = M([[1, 1], [1, 0]])
        assert fib.power(5) == M([[8, 5], [5, 3]])
        assert fib.power(0) == IntMatrix.identity(2)

    def test_non_integer_entries_rejected(self):
        for bad in (True, 1.0, "1", None):
            with pytest.raises(ShapeMismatch, match=f"non-integer entry {bad!r}$"):
                IntMatrix(1, 3, (0, bad, 2.5))

    def test_transpose_involution(self):
        mat = M([[1, 2, 3], [4, 5, 6]])
        assert mat.transpose().transpose() == mat
