"""Homology engines: bar complex, symbolic classes, and the product formula."""

from __future__ import annotations

import random

import pytest

from amplehk.colimits import ColimitInvariants
from amplehk.errors import (
    ModelInvalid,
    NotFinitelyGenerated,
    SimplicityNotCertified,
    SizeBoundExceeded,
    TruncationUnsound,
)
from amplehk.exact_linalg import FgAbelianGroup, IntMatrix
from amplehk.homology import (
    GradedGroup,
    boundary_matrix,
    boundary_matrix_from_levels,
    homology_af,
    homology_cantor_z,
    homology_finite,
    homology_of_model,
    homology_product,
    homology_sft,
)
from amplehk.models import (
    BratteliModel,
    CantorZModel,
    FiniteGroupoid,
    ProductModel,
    SftModel,
    cyclic_group_groupoid,
    disjoint_union_groupoids,
    nerve_levels,
    orbits,
    pair_groupoid,
    random_finite_groupoid,
    transitive_groupoid,
    trivial_groupoid,
)


def M(rows):
    return IntMatrix.from_rows(rows)


def Z(rank):
    return FgAbelianGroup.free(rank)


def groups(h: GradedGroup) -> list[str]:
    return [str(v) for v in h.by_degree]


class TestBoundaries:
    def test_squares_to_zero(self, deep_corpus):
        for g in deep_corpus:
            levels = nerve_levels(g, 4)
            for n in (1, 2, 3):
                first = boundary_matrix_from_levels(levels, n)
                second = boundary_matrix_from_levels(levels, n + 1)
                assert (first @ second).is_zero()

    def test_degree_one_is_target_minus_source(self):
        g = pair_groupoid(2)
        b = boundary_matrix(g, 1)
        # Columns follow arrow order u0<u0, u0<u1, u1<u0, u1<u1, where the
        # name reads target<source; each column is +1 at the source row and
        # -1 at the target row.
        assert b == M([[0, -1, 1, 0], [0, 1, -1, 0]])

    def test_degree_below_one_rejected(self):
        with pytest.raises(ValueError):
            boundary_matrix(trivial_groupoid(1), 0)


class TestFiniteHomology:
    def test_point(self):
        h = homology_finite(trivial_groupoid(1), 2)
        assert groups(h) == ["Z", "0", "0"]
        assert not h.vanishing_above

    def test_discrete_space(self):
        assert groups(homology_finite(trivial_groupoid(3), 1)) == ["Z^3", "0"]

    def test_pair_groupoid_is_a_point(self):
        assert groups(homology_finite(pair_groupoid(3), 2)) == ["Z", "0", "0"]

    def test_cyclic_two(self):
        h = homology_finite(cyclic_group_groupoid(2), 3)
        assert groups(h) == ["Z", "Z/2", "0", "Z/2"]

    def test_cyclic_three(self):
        h = homology_finite(cyclic_group_groupoid(3), 3)
        assert groups(h) == ["Z", "Z/3", "0", "Z/3"]

    def test_cyclic_seven(self):
        # 2,401 cells in the top nerve level; the top boundary is 343 x 2401.
        h = homology_finite(cyclic_group_groupoid(7), 3)
        assert groups(h) == ["Z", "Z/7", "0", "Z/7"]

    def test_disjoint_union_is_additive(self):
        a, b = pair_groupoid(2), cyclic_group_groupoid(2)
        union = homology_finite(disjoint_union_groupoids(a, b), 2)
        ha = homology_finite(a, 2)
        hb = homology_finite(b, 2)
        for n in range(3):
            assert union.by_degree[n] == ha.by_degree[n].direct_sum(hb.by_degree[n])

    def test_equivalent_models_agree(self):
        # A transitive groupoid with isotropy Z/2 carries the same homology
        # as Z/2 itself, model size notwithstanding.
        big = homology_finite(transitive_groupoid(2, 2), 3)
        small = homology_finite(cyclic_group_groupoid(2), 3)
        assert big.by_degree == small.by_degree

    def test_rank_in_degree_zero_counts_orbits(self):
        rng = random.Random(43)
        for _ in range(25):
            g = random_finite_groupoid(rng, max_arrows=20)
            h = homology_finite(g, 0, size_bound=50_000)
            assert h.rank(0) == len(orbits(g))
            assert h.by_degree[0] == Z(len(orbits(g)))

    def test_invalid_model_rejected(self):
        broken = FiniteGroupoid(units=("x",), arrows=(("g", "x", "x"),))
        with pytest.raises(ModelInvalid) as exc:
            homology_finite(broken, 1)
        assert exc.value.violations

    def test_size_bound(self):
        with pytest.raises(SizeBoundExceeded):
            homology_finite(pair_groupoid(4), 3, size_bound=500)


class TestSftHomology:
    def test_full_two_shift(self):
        h = homology_sft(SftModel(M([[1, 1], [1, 1]])))
        assert groups(h) == ["0", "0"]
        assert h.vanishing_above
        assert h.entry(17) == FgAbelianGroup.zero()

    def test_full_three_shift(self):
        assert groups(homology_sft(SftModel(M([[3]])))) == ["Z/2", "0"]

    def test_fixed_point(self):
        assert groups(homology_sft(SftModel(M([[1]])))) == ["Z", "Z"]

    def test_golden_mean_shift(self):
        assert groups(homology_sft(SftModel(M([[1, 1], [1, 0]])))) == ["0", "0"]

    def test_cycles_look_like_circles(self):
        for length in range(1, 6):
            perm = [[1 if j == (i + 1) % length else 0 for j in range(length)] for i in range(length)]
            h = homology_sft(SftModel(M(perm)))
            assert groups(h) == ["Z", "Z"]

    def test_invalid_matrix_rejected(self):
        with pytest.raises(ModelInvalid):
            homology_sft(SftModel(M([[0]])))


class TestAfHomology:
    def test_stationary_doubling(self):
        h = homology_af(BratteliModel((1,), (), M([[2]])))
        assert h.vanishing_above
        assert h.by_degree == (ColimitInvariants(rank=1, torsion_free=True, verified_stage=2),)
        assert h.entry(1) == FgAbelianGroup.zero()

    def test_stage_is_propagated(self):
        h = homology_af(BratteliModel((1,), (), M([[2]])), stage=9)
        assert h.by_degree[0].verified_stage == 9

    def test_not_finitely_generated_entries(self):
        h = homology_af(BratteliModel((1,), (), M([[2]])))
        assert not h.all_finitely_generated()


class TestCantorZHomology:
    def odometer(self) -> CantorZModel:
        return CantorZModel(BratteliModel((1,), (), M([[2]])), telescope_depth=3)

    def test_odometer(self):
        h = homology_cantor_z(self.odometer())
        assert h.vanishing_above
        assert h.rank(0) == 1
        assert h.by_degree[0].torsion_free
        assert h.by_degree[1] == Z(1)

    def test_simplicity_gate(self):
        single = CantorZModel(BratteliModel((1,), (), M([[1]])))
        with pytest.raises(SimplicityNotCertified):
            homology_cantor_z(single)
        never = CantorZModel(BratteliModel((2,), (), M([[1, 1], [0, 1]])))
        with pytest.raises(SimplicityNotCertified):
            homology_cantor_z(never)

    def test_depth_unlocks_certificate(self):
        fib_tail = CantorZModel(BratteliModel((2,), (), M([[1, 1], [1, 0]])), telescope_depth=1)
        with pytest.raises(SimplicityNotCertified):
            homology_cantor_z(fib_tail)
        deeper = CantorZModel(BratteliModel((2,), (), M([[1, 1], [1, 0]])), telescope_depth=2)
        assert homology_cantor_z(deeper).rank(0) == 2


class TestKunneth:
    def test_two_circles(self):
        circle = homology_sft(SftModel(M([[1]])))
        torus = homology_product(circle, circle)
        assert groups(torus) == ["Z", "Z^2", "Z", "0"]
        assert torus.vanishing_above

    def test_torsion_product(self):
        h = homology_of_model(
            ProductModel(cyclic_group_groupoid(2), cyclic_group_groupoid(2)), max_degree=2
        )
        assert groups(h) == ["Z", "Z/2 + Z/2", "Z/2"]

    def test_tor_term_appears_one_degree_up(self):
        a = GradedGroup((Z(1), FgAbelianGroup.cyclic(2)), vanishing_above=True)
        b = GradedGroup((FgAbelianGroup.cyclic(2),), vanishing_above=True)
        h = homology_product(a, b)
        # degree 2 = H1 (x) H0' tensor part is Z/2, plus Tor(H1, H0') = Z/2.
        assert h.by_degree[1] == FgAbelianGroup.cyclic(2)
        assert h.by_degree[2] == FgAbelianGroup(0, (2,))

    def test_truncated_factors_need_explicit_degree(self):
        trunc = homology_finite(cyclic_group_groupoid(2), 2)
        with pytest.raises(TruncationUnsound):
            homology_product(trunc, trunc)

    def test_colimit_entries_refuse_exact_mode(self):
        af = homology_af(BratteliModel((1,), (), M([[2]])))
        with pytest.raises(NotFinitelyGenerated):
            homology_product(af, af, max_degree=1)

    def test_rational_mode_convolves_ranks(self):
        af = homology_af(BratteliModel((1,), (), M([[3]])))
        h = homology_product(af, af, rational_only=True)
        assert [v.rank for v in h.by_degree] == [1, 0]
        assert all(isinstance(v, ColimitInvariants) for v in h.by_degree)
        assert all(v.torsion_free for v in h.by_degree)


class TestDispatch:
    def test_product_of_odometers_falls_back_to_ranks(self):
        odo = CantorZModel(BratteliModel((1,), (), M([[2]])))
        h = homology_of_model(ProductModel(odo, odo))
        assert h.vanishing_above
        assert [h.rank(n) for n in range(4)] == [1, 2, 1, 0]
        assert not h.all_finitely_generated()

    def test_exact_product_when_factors_allow(self):
        h = homology_of_model(ProductModel(SftModel(M([[1]])), SftModel(M([[1]]))))
        assert h.all_finitely_generated()
        assert groups(h) == ["Z", "Z^2", "Z", "0"]

    def test_finite_truncation_respected(self):
        h = homology_of_model(cyclic_group_groupoid(2), max_degree=1)
        assert groups(h) == ["Z", "Z/2"]
        with pytest.raises(TruncationUnsound):
            h.entry(2)

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            homology_of_model(object())
