"""Operator K-theory, the model-class records, and the one walk."""

from __future__ import annotations

import random
import typing

import pytest

from amplehk import replace
from amplehk.colimits import ColimitInvariants
from amplehk.errors import ModelInvalid, NotPrincipal, SchemaError
from amplehk.exact_linalg import FgAbelianGroup, IntMatrix
import amplehk.homology as homology
from amplehk.homology import GradedGroup
from amplehk.ktheory import (
    RECORDS,
    KPair,
    invariants,
    k_finite_principal,
    k_product,
    record_of,
)
from amplehk.modelio import LEAF_KINDS, parse_model
from amplehk.models import (
    BratteliModel,
    CantorZModel,
    GroupoidModel,
    ProductModel,
    SftModel,
)
from conftest import finite_document, record_calls
from oracles import (
    S3,
    cyclic_group_groupoid,
    disjoint_union_groupoids,
    pair_groupoid,
    permutation_group_groupoid,
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
        with pytest.raises(ModelInvalid):
            k_finite_principal(replace(pair_groupoid(2), inverse={}))


class TestSft:
    def test_full_shifts(self):
        zero = FgAbelianGroup.zero()
        assert invariants(SftModel(M([[1, 1], [1, 1]]))).ktheory() == KPair(zero, Z(0))
        assert invariants(SftModel(M([[2]]))).ktheory() == KPair(zero, Z(0))
        assert invariants(SftModel(M([[3]]))).ktheory() == KPair(FgAbelianGroup.cyclic(2), Z(0))

    def test_fixed_point_is_a_circle(self):
        assert invariants(SftModel(M([[1]]))).ktheory() == KPair(Z(1), Z(1))

    def test_golden_mean(self):
        k = invariants(SftModel(M([[1, 1], [1, 0]]))).ktheory()
        assert k == KPair(FgAbelianGroup.zero(), Z(0))

    def test_agrees_with_homology_in_both_degrees(self):
        rng = random.Random(47)
        for _ in range(40):
            n = rng.randint(1, 3)
            mat = M([[rng.randint(0, 3) for _ in range(n)] for _ in range(n)])
            try:
                model = SftModel(mat)
                h = invariants(model).homology()
            except ModelInvalid:
                continue
            k = invariants(model).ktheory()
            assert k.k0 == h.by_degree[0]
            assert k.k1 == h.by_degree[1]


class TestAfAndCantor:
    def test_af_pair(self):
        k = invariants(BratteliModel((1,), (), M([[2]]))).ktheory()
        assert k.k0 == ColimitInvariants(rank=1)
        assert k.k1 == FgAbelianGroup.zero()
        assert not k.all_finitely_generated()

    def test_cantor_z_pair(self):
        k = invariants(CantorZModel(BratteliModel((1,), (), M([[2]])))).ktheory()
        assert k.k0.rank == 1
        assert k.k1 == Z(1)


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

    def test_colimit_factor_gives_ranks_without_rational_mode(self):
        af = invariants(BratteliModel((1,), (), M([[2]]))).ktheory()
        circle = KPair(Z(1), Z(1))
        for left, right in ((af, af), (af, circle), (circle, af)):
            k = k_product(left, right)
            assert isinstance(k.k0, ColimitInvariants) and isinstance(k.k1, ColimitInvariants)
        assert k_product(af, af) == KPair(ColimitInvariants(rank=1), ColimitInvariants(rank=0))
        assert k_product(af, circle) == KPair(ColimitInvariants(rank=1), ColimitInvariants(rank=1))

    def test_rational_rank_arithmetic(self):
        a = KPair(Z(2), Z(3))
        b = KPair(Z(5), Z(7))
        k = k_product(a, b)
        assert (k.k0.rank, k.k1.rank) == (2 * 5 + 3 * 7, 2 * 7 + 3 * 5)

    def test_agrees_with_the_even_odd_formula(self):
        rng = random.Random(61)

        def group():
            """Free, torsion or mixed, and now and then colimit-valued."""
            if rng.random() < 0.15:
                return ColimitInvariants(rank=rng.randint(0, 3))
            cyclic = [FgAbelianGroup.cyclic(rng.choice((2, 3, 4, 6))) for _ in range(rng.randint(0, 2))]
            return FgAbelianGroup.sum([Z(rng.randint(0, 2))] + cyclic)

        for _ in range(400):
            left, right = KPair(group(), group()), KPair(group(), group())
            assert k_product(left, right) == even_odd_formula(left, right)


def even_odd_formula(left: KPair, right: KPair) -> KPair:
    """The two-periodic Kunneth formula with each parity's terms written out:
    even (x) even, odd (x) odd and Tor of opposite parities in K_0; mixed
    tensors and Tor of equal parities in K_1."""
    if not (left.all_finitely_generated() and right.all_finitely_generated()):
        a0, a1 = left.k0.rank, left.k1.rank
        b0, b1 = right.k0.rank, right.k1.rank
        return KPair(
            ColimitInvariants(rank=a0 * b0 + a1 * b1),
            ColimitInvariants(rank=a0 * b1 + a1 * b0),
        )
    a0, a1 = left.k0, left.k1
    b0, b1 = right.k0, right.k1
    k0 = FgAbelianGroup.sum([a0.tensor(b0), a1.tensor(b1), a0.tor(b1), a1.tor(b0)])
    k1 = FgAbelianGroup.sum([a0.tensor(b1), a1.tensor(b0), a0.tor(b0), a1.tor(b1)])
    return KPair(k0, k1)


class TestDispatch:
    def test_recursion_with_fallback(self):
        odo = CantorZModel(BratteliModel((1,), (), M([[2]])))
        k = invariants(ProductModel(odo, odo)).ktheory()
        assert (k.k0.rank, k.k1.rank) == (2, 2)
        assert not k.all_finitely_generated()

    def test_exact_product(self):
        k = invariants(ProductModel(SftModel(M([[1]])), SftModel(M([[1]])))).ktheory()
        assert k == KPair(Z(2), Z(2))

    def test_finite_dispatch(self):
        assert invariants(pair_groupoid(2)).ktheory() == KPair(Z(1), Z(0))

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            invariants(42).ktheory()


class TestOneWalk:
    MODELS = (
        SftModel(M([[3]])),
        SftModel(M([[1, 2], [2, 1]])),
        BratteliModel((1,), (), M([[2]])),
        CantorZModel(BratteliModel((1,), (), M([[2]]))),
        pair_groupoid(2),
        ProductModel(SftModel(M([[3]])), SftModel(M([[1, 2], [2, 1]]))),
        ProductModel(SftModel(M([[3]])), BratteliModel((1,), (), M([[2]]))),
        ProductModel(pair_groupoid(2), ProductModel(SftModel(M([[1]])), SftModel(M([[3]])))),
    )

    @pytest.mark.parametrize("k_first", (False, True))
    @pytest.mark.parametrize("model", MODELS)
    def test_agrees_with_the_separate_walks(self, model, k_first):
        # One walk asked for both sides, in either order, against two walks
        # asked for one side each.
        found = invariants(model, max_degree=2)
        if k_first:
            k, h = found.ktheory(), found.homology()
        else:
            h, k = found.homology(), found.ktheory()
        assert h == invariants(model, max_degree=2).homology()
        assert k == invariants(model, max_degree=2).ktheory()

    def test_without_k(self):
        model = ProductModel(cyclic_group_groupoid(2), SftModel(M([[3]])))
        found = invariants(model, max_degree=2)
        assert found.homology() == invariants(model, max_degree=2).homology()
        assert found.homology() is found.homology()
        # K is formed only when asked for; here it is refused.
        with pytest.raises(NotPrincipal):
            found.ktheory()

    def test_ktheory_of_a_finite_groupoid_builds_no_nerve(self, monkeypatch):
        built = record_calls(monkeypatch, homology._normalized_boundaries)
        model = ProductModel(pair_groupoid(3), SftModel(M([[1]])))
        assert invariants(model).ktheory() == KPair(Z(1), Z(1))
        assert built == []
        # Its homology takes the closed form of trivial isotropy; with S_3
        # isotropy in its place, the homology builds the bar complex once.
        invariants(model).homology()
        assert built == []
        invariants(ProductModel(permutation_group_groupoid(S3), SftModel(M([[1]])))).homology()
        assert len(built) == 1


class TestRecords:
    """One record per leaf model class, matching modelio's leaf kinds."""

    DOCUMENTS = {
        "finite": finite_document(pair_groupoid(2)),
        "sft": {"model": "sft", "matrix": [[3]]},
        "af": {"model": "af", "level_sizes": [1], "incidences": [], "tail": [[2]]},
        "cantor_z": {
            "model": "cantor_z",
            "diagram": {"level_sizes": [1], "incidences": [], "tail": [[2]]},
        },
    }

    def test_every_leaf_class_has_a_complete_record(self):
        leaves = {cls for cls in typing.get_args(GroupoidModel) if cls is not ProductModel}
        assert set(RECORDS) == leaves
        models = [parse_model(doc) for doc in self.DOCUMENTS.values()]
        assert {type(model) for model in models} == leaves
        for model in models:
            record = record_of(model)
            assert record.kind and record.baum_connes
            found = invariants(model, max_degree=1)
            assert found.summary.startswith(f"{record.kind}(")
            assert found.isotropy.name == "torsion_free_isotropy" and found.isotropy.holds
            assert found.baum_connes == record.baum_connes
            assert isinstance(found.homology(), GradedGroup)
            assert isinstance(found.ktheory(), KPair)

    def test_modelio_leaf_kinds_match_the_records_one_to_one(self):
        kinds = [record.kind for record in RECORDS.values()]
        assert len(set(kinds)) == len(kinds)
        assert sorted(LEAF_KINDS) == sorted(kinds) == sorted(self.DOCUMENTS)
        for kind in LEAF_KINDS:
            assert record_of(parse_model(self.DOCUMENTS[kind])).kind == kind
        with pytest.raises(SchemaError) as exc:
            parse_model({"model": "torus"})
        assert ", ".join(LEAF_KINDS) + ", or product" in str(exc.value)
