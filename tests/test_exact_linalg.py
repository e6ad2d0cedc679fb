"""Smith normal form, cokernels, kernels, and chain homology."""

from __future__ import annotations

import random
import time

import pytest

import amplehk.exact_linalg as exact_linalg
from amplehk.errors import NotAComplex, ShapeMismatch
from amplehk.exact_linalg import (
    FgAbelianGroup,
    IntMatrix,
    determinant,
    invariant_factors,
    kernel_basis,
    matrix_rank,
    smith_normal_form,
    sparse_complex_homology,
)
from amplehk.exact_linalg import _canonical_torsion

from conftest import assert_valid_snf, random_int_matrix, record_calls
from oracles import (
    boundary_matrix,
    cokernel,
    columns,
    cyclic_group_groupoid,
    diagonal,
    identity,
    is_trivial,
    is_zero,
    power,
    transitive_groupoid,
    transpose,
    zeros,
)


def M(rows):
    return IntMatrix.from_rows(rows)


class TestSmithNormalForm:
    def test_identity_is_fixed(self):
        assert smith_normal_form(identity(3)).diagonal() == [1, 1, 1]

    def test_zero_matrix(self):
        assert smith_normal_form(zeros(2, 3)).diagonal() == [0, 0]

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
        assert smith_normal_form(zeros(0, 3)).diagonal() == []
        assert smith_normal_form(zeros(3, 0)).diagonal() == []
        res = smith_normal_form(zeros(0, 0))
        assert res.U == identity(0) and res.V == identity(0)

    def test_divisibility_needs_fixup(self):
        # diag(2, 3) is not in Smith form; the algorithm must recombine.
        assert assert_valid_snf(M([[2, 0], [0, 3]])) == [1, 6]

    def test_random_matrices_against_oracle(self):
        rng = random.Random(7)
        for _ in range(300):
            assert_valid_snf(random_int_matrix(rng, 6, -9, 9))

    def test_large_entries_without_units(self):
        # No +-1 entry, so the whole matrix goes through the dense reduction
        # and needs several passes at most t, as I - A^T of a shift does.
        rng = random.Random(53)
        values = (0, 0, 2, -3, 6, 10, 97, -1_000_003, 2**70 + 1)
        for _ in range(60):
            rows, cols = rng.randint(1, 7), rng.randint(1, 7)
            mat = IntMatrix(rows, cols, tuple(rng.choice(values) for _ in range(rows * cols)))
            diag = [d for d in assert_valid_snf(mat) if d]
            assert invariant_factors(mat) == diag

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
        mat = zeros(*shape)
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
        assert zeros(2, 0) @ zeros(0, 3) == zeros(2, 3)


def sft_relation_matrix(rng: random.Random, n: int) -> IntMatrix:
    """I - A^T for a seeded n x n shift matrix A with entries 0..3, the
    relation matrix whose cokernel is H_0 and K_0 of a Cuntz-Krieger
    groupoid."""
    a = [[rng.choice((0, 0, 1, 1, 2, 3)) for _ in range(n)] for _ in range(n)]
    return IntMatrix.from_rows([[int(i == j) - a[j][i] for j in range(n)] for i in range(n)])


def sympy_invariant_factors(sympy, mat: IntMatrix) -> list[int]:
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    sm = sympy_snf(sympy.Matrix(mat.to_rows()))
    return [abs(sm[i, i]) for i in range(min(sm.rows, sm.cols)) if sm[i, i] != 0]


class TestDenseReduction:
    """The dense kernel: a Euclid pair and one sweep per column and row."""

    def test_sft_relation_matrices_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(61)
        for n in (10, 14, 18, 22, 26, 30):
            mat = sft_relation_matrix(rng, n)
            theirs = sympy_invariant_factors(sympy, mat)
            assert invariant_factors(mat) == theirs
            # The whole matrix through the dense reduction, with transforms.
            assert [d for d in smith_normal_form(mat).diagonal() if d] == theirs

    def test_dense_matrices_without_units_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(67)
        values = (2, -2, 3, -4, 6, 9, -10, 15, 2**20 + 7, -(2**33))
        for _ in range(40):
            rows, cols = rng.randint(2, 8), rng.randint(2, 8)
            mat = IntMatrix(rows, cols, tuple(rng.choice(values) for _ in range(rows * cols)))
            assert invariant_factors(mat) == sympy_invariant_factors(sympy, mat)

    def test_forty_bit_entries_keep_transforms_valid(self):
        rng = random.Random(71)
        top = 2**40
        for _ in range(150):
            rows, cols = rng.randint(1, 7), rng.randint(1, 7)
            density = rng.uniform(0.3, 1.0)
            mat = IntMatrix(
                rows, cols,
                tuple(rng.randint(-top, top) if rng.random() < density else 0 for _ in range(rows * cols)),
            )
            diag = assert_valid_snf(mat)
            assert invariant_factors(mat) == [d for d in diag if d]

    def test_consecutive_fibonacci_numbers(self):
        # Euclid's worst case: every quotient is 1 under floor division.
        fib = [0, 1]
        while len(fib) < 302:
            fib.append(fib[-1] + fib[-2])
        mat = M([[fib[301], fib[300]], [fib[300], fib[299]]])
        start = time.perf_counter()
        assert invariant_factors(mat) == [1, 1]
        assert assert_valid_snf(mat) == [1, 1]
        assert time.perf_counter() - start < 1.0


class TestPivotOrderIsInvisible:
    """The sparse kernel picks its unit pivots by row and column lengths,
    but invariant factors are unique, so no output may depend on the
    order: not against the transform-carrying dense reduction, and not
    under row and column permutations or row sign flips."""

    @pytest.mark.parametrize("n, seed", [(40, 89), (50, 97), (60, 101)])
    def test_sft_relation_matrices_at_workload_size(self, n, seed):
        rng = random.Random(seed)
        mat = sft_relation_matrix(rng, n)
        factors = invariant_factors(mat)
        assert factors == [d for d in smith_normal_form(mat).diagonal() if d]
        rows = mat.to_rows()
        rng.shuffle(rows)
        assert invariant_factors(M(rows)) == factors
        perm = list(range(n))
        rng.shuffle(perm)
        assert invariant_factors(M([[row[j] for j in perm] for row in mat.to_rows()])) == factors
        signs = [rng.choice((1, -1)) for _ in range(n)]
        assert invariant_factors(M([[s * x for x in row] for s, row in zip(signs, mat.to_rows())])) == factors


class TestRanksAndKernels:
    def test_rank_examples(self):
        assert matrix_rank(M([[1, 2], [2, 4]])) == 1
        assert matrix_rank(identity(4)) == 4
        assert matrix_rank(zeros(3, 3)) == 0

    def test_kernel_rank_is_cols_minus_rank(self):
        rng = random.Random(13)
        for _ in range(100):
            mat = random_int_matrix(rng, 5, -4, 4)
            assert kernel_basis(mat).cols == mat.cols - matrix_rank(mat)

    def test_kernel_basis_spans_kernel(self):
        rng = random.Random(17)
        for _ in range(100):
            mat = random_int_matrix(rng, 5, -4, 4)
            basis = kernel_basis(mat)
            assert basis.cols == mat.cols - matrix_rank(mat)
            assert is_zero(mat @ basis)
            # A kernel basis of a saturated summand has full column rank.
            assert matrix_rank(basis) == basis.cols


class TestCokernel:
    def test_examples(self):
        assert cokernel(M([[2, 0], [0, 3]])) == FgAbelianGroup(0, (6,))
        assert cokernel(M([[2, 4], [6, 8]])) == FgAbelianGroup(0, (2, 4))
        assert cokernel(zeros(2, 1)) == FgAbelianGroup.free(2)
        assert is_trivial(cokernel(identity(3)))

    def test_unimodular_has_trivial_cokernel(self):
        assert is_trivial(cokernel(M([[0, -1], [-1, 0]])))

    def test_free_rank_identity(self):
        rng = random.Random(19)
        for _ in range(100):
            mat = random_int_matrix(rng, 5, -4, 4)
            assert cokernel(mat).rank == mat.rows - matrix_rank(mat)


def complex_homology(boundaries: list[IntMatrix]) -> list[FgAbelianGroup]:
    """``sparse_complex_homology`` of boundaries given as matrices."""
    return sparse_complex_homology(boundaries[0].rows, [columns(d) for d in boundaries])


def chain_homology(d_in: IntMatrix, d_out: IntMatrix) -> FgAbelianGroup:
    """Homology at the middle spot of d_in . d_out."""
    return complex_homology([d_in, d_out])[1]


class TestChainHomology:
    def test_torsion_spot(self):
        h = chain_homology(zeros(1, 1), M([[2]]))
        assert h == FgAbelianGroup(0, (2,))

    def test_full_kernel_killed(self):
        h = chain_homology(zeros(1, 2), identity(2))
        assert is_trivial(h)

    def test_free_survivor(self):
        # ker of [1, -1] is spanned by (1, 1); nothing maps in.
        h = chain_homology(M([[1, -1]]), zeros(2, 0))
        assert h == FgAbelianGroup.free(1)

    def test_not_a_complex(self):
        with pytest.raises(NotAComplex, match="composite of consecutive boundaries is nonzero"):
            chain_homology(M([[1, 0]]), identity(2))

    def test_every_degree_of_a_longer_complex(self):
        # The real projective plane: one cell in each of degrees 0, 1, 2, the
        # 2-cell attached by a degree-2 map; Z, Z/2, 0 in degrees 0, 1, 2.
        d1, d2, d3 = zeros(1, 1), M([[2]]), zeros(1, 0)
        assert complex_homology([d1, d2, d3]) == [
            FgAbelianGroup.free(1), FgAbelianGroup.cyclic(2), FgAbelianGroup.zero()
        ]
        assert complex_homology([d1]) == [FgAbelianGroup.free(1)]

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


def snf_cokernel(mat: IntMatrix) -> FgAbelianGroup:
    """Z^rows / im(mat), read off the diagonal of the dense, transform-carrying
    Smith form rather than the sparse kernel."""
    diag = [d for d in smith_normal_form(mat).diagonal() if d]
    return FgAbelianGroup(mat.rows - len(diag), tuple(d for d in diag if d > 1))


class TestSparseChainHomology:
    def test_agrees_with_the_dense_complex(self):
        rng = random.Random(59)
        for _ in range(50):
            b = random_int_matrix(rng, 4, -3, 3)
            basis = kernel_basis(b)
            k = rng.randint(0, 3)
            combo = IntMatrix(basis.cols, k, tuple(rng.randint(-2, 2) for _ in range(basis.cols * k)))
            c = basis @ combo
            assert sparse_complex_homology(b.rows, [columns(b), columns(c)]) == [
                snf_cokernel(b),
                FgAbelianGroup(b.cols - matrix_rank(b) - matrix_rank(c), snf_cokernel(c).torsion),
            ]

    def test_zero_boundary_is_not_eliminated(self, monkeypatch):
        eliminated = record_calls(monkeypatch, exact_linalg._smith_factors)
        assert sparse_complex_homology(3, [[{}, {}], [{0: 2}]]) == [
            FgAbelianGroup.free(3), FgAbelianGroup(1, (2,))
        ]
        assert len(eliminated) == 1

    def test_real_projective_plane(self):
        assert sparse_complex_homology(1, [[{}], [{0: 2}], []]) == [
            FgAbelianGroup.free(1), FgAbelianGroup.cyclic(2), FgAbelianGroup.zero()
        ]

    def test_not_a_complex(self):
        with pytest.raises(NotAComplex, match="composite of consecutive boundaries is nonzero"):
            sparse_complex_homology(1, [[{0: 1}, {}], [{0: 1}, {1: 1}]])

    def test_needs_a_boundary(self):
        with pytest.raises(ValueError):
            sparse_complex_homology(1, [])


class TestDeterminant:
    def test_examples(self):
        assert determinant(identity(3)) == 1
        assert determinant(M([[2, 4], [6, 8]])) == -8
        assert determinant(M([[0, 1], [1, 0]])) == -1
        assert determinant(zeros(0, 0)) == 1

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
            determinant(zeros(2, 3))


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
        assert FgAbelianGroup.sum([a, b]) == FgAbelianGroup(0, (2, 12))
        assert FgAbelianGroup.sum([a, FgAbelianGroup.free(2), b]) == FgAbelianGroup(2, (2, 12))
        assert FgAbelianGroup.sum([]) == FgAbelianGroup.zero()

    def test_canonical_torsion_matches_the_diagonal_cokernel(self):
        rng = random.Random(61)
        for _ in range(300):
            choices = (1, 2, 3, 4, 6, 8, 9, 12, 25, 27, 2**40, 3**25)
            orders = [rng.choice(choices) for _ in range(rng.randint(0, 7))]
            relevant = [o for o in orders if o > 1]
            assert _canonical_torsion(orders) == cokernel(diagonal(relevant)).torsion, orders

    def test_tensor(self):
        a = FgAbelianGroup(1, (2,))
        b = FgAbelianGroup(1, (3,))
        # (Z + Z/2) (x) (Z + Z/3) = Z + Z/2 + Z/3 + 0 = Z + Z/6
        assert a.tensor(b) == FgAbelianGroup(1, (6,))
        assert FgAbelianGroup.cyclic(4).tensor(FgAbelianGroup.cyclic(6)) == FgAbelianGroup.cyclic(2)
        assert FgAbelianGroup.free(2).tensor(FgAbelianGroup.free(3)) == FgAbelianGroup.free(6)

    def test_tor(self):
        assert FgAbelianGroup.cyclic(4).tor(FgAbelianGroup.cyclic(6)) == FgAbelianGroup.cyclic(2)
        assert is_trivial(FgAbelianGroup.free(5).tor(FgAbelianGroup.cyclic(6)))
        assert is_trivial(FgAbelianGroup.cyclic(2).tor(FgAbelianGroup.cyclic(3)))

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
        assert power(fib, 5) == M([[8, 5], [5, 3]])
        assert power(fib, 0) == identity(2)

    def test_non_integer_entries_rejected(self):
        for bad in (True, 1.0, "1", None):
            with pytest.raises(ShapeMismatch, match=f"non-integer entry {bad!r}$"):
                IntMatrix(1, 3, (0, bad, 2.5))

    @pytest.mark.parametrize("bad", (1.9, "3", True))
    def test_from_rows_rejects_non_integers(self, bad):
        with pytest.raises(ShapeMismatch, match=f"non-integer entry {bad!r}$"):
            IntMatrix.from_rows([[1, bad], [0, 2]])

    @pytest.mark.parametrize("bad", (2.0, "4", False))
    def test_diagonal_rejects_non_integers(self, bad):
        with pytest.raises(ShapeMismatch, match=f"non-integer entry {bad!r}$"):
            diagonal([3, bad])

    def test_transpose_involution(self):
        mat = M([[1, 2, 3], [4, 5, 6]])
        assert transpose(transpose(mat)) == mat
