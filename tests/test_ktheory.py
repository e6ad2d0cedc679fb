"""Operator K-theory of the model classes."""

from __future__ import annotations

import random

import pytest

from amplehk.colimits import ColimitInvariants
from amplehk.errors import ModelInvalid, NotFinitelyGenerated, NotPrincipal
from amplehk.exact_linalg import FgAbelianGroup, IntMatrix
from amplehk.homology import homology_sft
from amplehk.ktheory import (
    KPair,
    k_finite_principal,
    k_product,
    ktheory_of_model,
)
from amplehk.models import (
    BratteliModel,
    CantorZModel,
    ProductModel,
    SftModel,
    cyclic_group_groupoid,
    disjoint_union_groupoids,
    pair_groupoid,
    transitive_groupoid,
    trivial_groupoid,
)


def M(rows):
    return IntMatrix.from_rows(rows)


def Z(rank):
    return FgAbelianGroup.free(rank)


class TestFinitePrincipal:
    def test_orbit_count(self):
        assert k_finite_principal(pair_groupoid(3)) == KPair(Z(1), Z(0))
        assert k_finite_principal(trivial_groupoid(4)) == KPair(Z(4), Z(0))
        two = disjoint_union_groupoids(pair_groupoid(2), pair_groupoid(3))
        assert k_finite_principal(two) == KPair(Z(2), Z(0))

    def test_isotropy_blocks_the_formula(self):
        with pytest.raises(NotPrincipal) as exc:
            k_finite_principal(cyclic_group_groupoid(2))
        assert "'x'" in str(exc.value)
        with pytest.raises(NotPrincipal):
            k_finite_principal(transitive_groupoid(2, 3))

    def test_invalid_model_rejected(self):
        import dataclasses

        broken = dataclasses.replace(pair_groupoid(2), inverse={})
        with pytest.raises(ModelInvalid):
            k_finite_principal(broken)


class TestSft:
    def test_full_shifts(self):
        assert ktheory_of_model(SftModel(M([[1, 1], [1, 1]]))) == KPair(FgAbelianGroup.zero(), Z(0))
        assert ktheory_of_model(SftModel(M([[2]]))) == KPair(FgAbelianGroup.zero(), Z(0))
        assert ktheory_of_model(SftModel(M([[3]]))) == KPair(FgAbelianGroup.cyclic(2), Z(0))

    def test_fixed_point_is_a_circle(self):
        assert ktheory_of_model(SftModel(M([[1]]))) == KPair(Z(1), Z(1))

    def test_golden_mean(self):
        assert ktheory_of_model(SftModel(M([[1, 1], [1, 0]]))) == KPair(FgAbelianGroup.zero(), Z(0))

    def test_agrees_with_homology_in_both_degrees(self):
        rng = random.Random(47)
        for _ in range(40):
            n = rng.randint(1, 3)
            mat = M([[rng.randint(0, 3) for _ in range(n)] for _ in range(n)])
            model = SftModel(mat)
            try:
                h = homology_sft(model)
            except ModelInvalid:
                continue
            k = ktheory_of_model(model)
            assert k.k0 == h.by_degree[0]
            assert k.k1 == h.by_degree[1]


class TestAfAndCantor:
    def test_af_pair(self):
        k = ktheory_of_model(BratteliModel((1,), (), M([[2]])))
        assert k.k0 == ColimitInvariants(rank=1, torsion_free=True, verified_stage=2)
        assert k.k1 == FgAbelianGroup.zero()
        assert not k.all_finitely_generated()

    def test_cantor_z_pair(self):
        k = ktheory_of_model(CantorZModel(BratteliModel((1,), (), M([[2]]))))
        assert k.k0.rank == 1 and k.k0.torsion_free
        assert k.k1 == Z(1)

    def test_stage_propagates(self):
        k = ktheory_of_model(BratteliModel((1,), (), M([[2]])), stage=6)
        assert k.k0.verified_stage == 6


class TestProduct:
    def test_torus_from_two_circles(self):
        circle = KPair(Z(1), Z(1))
        assert k_product(circle, circle) == KPair(Z(2), Z(2))

    def test_torsion_lands_per_parity(self):
        a = KPair(FgAbelianGroup.cyclic(2), FgAbelianGroup.zero())
        k = k_product(a, a)
        # Even part: Z/2 (x) Z/2; odd part: Tor(Z/2, Z/2).
        assert k == KPair(FgAbelianGroup.cyclic(2), FgAbelianGroup.cyclic(2))

    def test_mixed_parities(self):
        a = KPair(Z(1), FgAbelianGroup.cyclic(2))
        b = KPair(FgAbelianGroup.cyclic(4), Z(1))
        k = k_product(a, b)
        # k0: Z (x) Z/4 + Z/2 (x) Z + Tor(Z, Z) + Tor(Z/2, Z/4).
        assert k.k0 == FgAbelianGroup(0, (2, 2, 4))
        # k1: Z (x) Z + Z/2 (x) Z/4 + Tor(Z, Z/4) + Tor(Z/2, Z).
        assert k.k1 == FgAbelianGroup(1, (2,))

    def test_colimit_factor_needs_rational_mode(self):
        af = ktheory_of_model(BratteliModel((1,), (), M([[2]])))
        with pytest.raises(NotFinitelyGenerated):
            k_product(af, af)
        rat = k_product(af, af, rational_only=True)
        assert (rat.k0.rank, rat.k1.rank) == (1, 0)
        assert rat.k0.torsion_free

    def test_rational_rank_arithmetic(self):
        a = KPair(Z(2), Z(3))
        b = KPair(Z(5), Z(7))
        rat = k_product(a, b, rational_only=True)
        assert (rat.k0.rank, rat.k1.rank) == (2 * 5 + 3 * 7, 2 * 7 + 3 * 5)


class TestDispatch:
    def test_recursion_with_fallback(self):
        odo = CantorZModel(BratteliModel((1,), (), M([[2]])))
        k = ktheory_of_model(ProductModel(odo, odo))
        assert (k.k0.rank, k.k1.rank) == (2, 2)
        assert not k.all_finitely_generated()

    def test_exact_product(self):
        k = ktheory_of_model(ProductModel(SftModel(M([[1]])), SftModel(M([[1]]))))
        assert k == KPair(Z(2), Z(2))

    def test_finite_dispatch(self):
        assert ktheory_of_model(pair_groupoid(2)) == KPair(Z(1), Z(0))

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            ktheory_of_model(42)
