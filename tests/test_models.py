"""Model validation, the nerve, orbits, isotropy, and the builders."""

from __future__ import annotations

import dataclasses
import random

import pytest

from amplehk.errors import SizeBoundExceeded
from amplehk.exact_linalg import IntMatrix
from amplehk.models import (
    BratteliModel,
    CantorZModel,
    FiniteGroupoid,
    ProductModel,
    SftModel,
    cyclic_group_groupoid,
    dimension_system,
    disjoint_union_groupoids,
    identity_arrows,
    isotropy_report,
    model_summary,
    nerve,
    nerve_levels,
    orbits,
    pair_groupoid,
    random_finite_groupoid,
    shape_violations,
    simplicity_certificate,
    transitive_groupoid,
    trivial_groupoid,
    validate_model,
)


def M(rows):
    return IntMatrix.from_rows(rows)


class TestFiniteValidation:
    def test_corpus_is_clean(self, wide_corpus):
        for g in wide_corpus:
            assert validate_model(g) == []

    def test_duplicate_units(self):
        g = trivial_groupoid(1)
        broken = dataclasses.replace(g, units=("u0", "u0"))
        assert any("duplicate unit" in v for v in validate_model(broken))

    def test_duplicate_arrows(self):
        g = trivial_groupoid(1)
        broken = dataclasses.replace(g, arrows=g.arrows + g.arrows)
        assert any("duplicate arrow" in v for v in validate_model(broken))

    def test_unknown_endpoint(self):
        g = trivial_groupoid(1)
        broken = dataclasses.replace(g, arrows=(("id_u0", "u0", "ghost"),))
        assert any("unknown target" in v for v in validate_model(broken))

    def test_composition_of_non_composable_pair(self):
        g = trivial_groupoid(2)
        extra = dict(g.compose)
        extra[("id_u0", "id_u1")] = "id_u0"
        broken = dataclasses.replace(g, compose=extra)
        assert any("source/target do not match" in v for v in validate_model(broken))

    def test_missing_composition(self):
        g = cyclic_group_groupoid(2)
        pruned = {k: v for k, v in g.compose.items() if k != ("g1", "g1")}
        broken = dataclasses.replace(g, compose=pruned)
        assert any("required but missing" in v for v in validate_model(broken))

    def test_wrong_composite_endpoints(self):
        g = pair_groupoid(2)
        tampered = dict(g.compose)
        # u0<u1 . u1<u0 lands at (u0, u0); redirect it to a cross arrow.
        tampered[("u0<u1", "u1<u0")] = "u1<u0"
        broken = dataclasses.replace(g, compose=tampered)
        assert any("wrong endpoints" in v for v in validate_model(broken))

    def test_associativity_checked(self):
        g = cyclic_group_groupoid(3)
        tampered = dict(g.compose)
        tampered[("g2", "g2")] = "g2"
        broken = dataclasses.replace(g, compose=tampered)
        assert any("associativity fails" in v for v in validate_model(broken))

    def test_missing_identity(self):
        broken = FiniteGroupoid(
            units=("x",),
            arrows=(("e", "x", "x"), ("g", "x", "x")),
            compose={("e", "e"): "g", ("e", "g"): "g", ("g", "e"): "g", ("g", "g"): "g"},
            inverse={"e": "e", "g": "g"},
        )
        assert any("no identity arrow" in v for v in validate_model(broken))

    def test_missing_inverse_entry(self):
        g = cyclic_group_groupoid(2)
        broken = dataclasses.replace(g, inverse={"g0": "g0"})
        assert any("no inverse entry" in v for v in validate_model(broken))

    def test_inverse_with_wrong_endpoints(self):
        g = pair_groupoid(2)
        tampered = dict(g.inverse)
        tampered["u0<u1"] = "u0<u1"
        broken = dataclasses.replace(g, inverse=tampered)
        assert any("wrong endpoints" in v for v in validate_model(broken))

    def test_inverse_not_composing_to_identity(self):
        g = cyclic_group_groupoid(3)
        tampered = dict(g.inverse)
        tampered["g1"], tampered["g2"] = "g1", "g2"
        broken = dataclasses.replace(g, inverse=tampered)
        assert any("does not compose to the identities" in v for v in validate_model(broken))

    def test_identity_arrows_found(self):
        g = cyclic_group_groupoid(4)
        assert identity_arrows(g) == {"x": "g0"}
        h = pair_groupoid(2)
        assert identity_arrows(h) == {"u0": "u0<u0", "u1": "u1<u1"}


class TestSftValidation:
    def test_good(self):
        assert validate_model(SftModel(M([[1, 1], [1, 0]]))) == []

    def test_non_square(self):
        assert any("not square" in v for v in validate_model(SftModel(IntMatrix.zeros(1, 2))))

    def test_empty(self):
        assert any("empty" in v for v in validate_model(SftModel(IntMatrix.zeros(0, 0))))

    def test_negative_entry(self):
        assert any("negative" in v for v in validate_model(SftModel(M([[1, -1], [1, 1]]))))

    def test_zero_row_and_column(self):
        bad = validate_model(SftModel(M([[0, 0], [1, 0]])))
        assert any("row 0" in v for v in bad)
        assert any("column 1" in v for v in bad)


class TestBratteliValidation:
    def good(self) -> BratteliModel:
        return BratteliModel((1, 2), (M([[1], [1]]),), M([[1, 1], [1, 1]]))

    def test_good(self):
        assert validate_model(self.good()) == []

    def test_level_sizes_positive(self):
        b = dataclasses.replace(self.good(), level_sizes=(0, 2))
        assert any("positive" in v for v in validate_model(b))

    def test_incidence_count(self):
        b = dataclasses.replace(self.good(), incidences=())
        assert any("incidence" in v for v in validate_model(b))

    def test_incidence_shape(self):
        b = dataclasses.replace(self.good(), incidences=(M([[1, 1]]),))
        assert any("expected 2x1" in v for v in validate_model(b))

    def test_negative_entries(self):
        b = dataclasses.replace(self.good(), tail=M([[1, -1], [0, 1]]))
        assert any("negative" in v for v in validate_model(b))

    def test_tail_shape(self):
        b = dataclasses.replace(self.good(), tail=M([[1]]))
        assert any("tail is 1x1" in v for v in validate_model(b))


class TestSimplicity:
    def test_positive_tail(self):
        ok, why = simplicity_certificate(M([[2]]), 1)
        assert ok and "power 1" in why

    def test_single_point_path_space(self):
        ok, why = simplicity_certificate(M([[1]]), 3)
        assert not ok and "single point" in why

    def test_never_positive(self):
        ok, why = simplicity_certificate(M([[1, 1], [0, 1]]), 5)
        assert not ok and "no tail power up to 5" in why

    def test_positive_after_telescoping(self):
        ok, why = simplicity_certificate(M([[1, 1], [1, 0]]), 3)
        assert ok and "power 2" in why

    def test_depth_matters(self):
        ok, _ = simplicity_certificate(M([[1, 1], [1, 0]]), 1)
        assert not ok

    def test_wielandt_matrix_needs_the_full_bound(self):
        # The n x n Wielandt matrix first turns positive at power (n-1)^2 + 1.
        n = 5
        rows = [[int(j == i + 1) for j in range(n)] for i in range(n - 1)]
        rows.append([1, 1] + [0] * (n - 2))
        assert simplicity_certificate(M(rows), 100) == (True, "tail power 17 is entrywise positive")
        assert simplicity_certificate(M(rows), 16) == (
            False, "no tail power up to 16 is entrywise positive"
        )

    def test_periodic_tail_stops_at_any_depth(self):
        ok, why = simplicity_certificate(M([[0, 1], [1, 0]]), 10**12)
        assert not ok and why == f"no tail power up to {10**12} is entrywise positive"

    def test_shape_violations_leaves_certificate_aside(self):
        model = CantorZModel(
            BratteliModel((2,), (), M([[1, 1], [0, 1]])), telescope_depth=4
        )
        assert shape_violations(model) == []
        assert any("not a simple" in v for v in validate_model(model))


class TestProductValidation:
    def test_factor_prefixes(self):
        bad = ProductModel(SftModel(M([[0]])), SftModel(M([[1]])))
        msgs = validate_model(bad)
        assert msgs and all(v.startswith("left factor:") for v in msgs)

    def test_nested(self):
        inner = ProductModel(SftModel(M([[1]])), SftModel(M([[2]])))
        assert validate_model(ProductModel(inner, SftModel(M([[3]])))) == []


class TestNerve:
    def test_level_zero_lists_units(self):
        g = pair_groupoid(3)
        level = nerve(g, 0)
        assert level.cells == (0, 1, 2)
        assert level.faces == ()

    def test_degree_one_faces_are_endpoints(self):
        g = pair_groupoid(2)
        level = nerve(g, 1)
        for t, cell in enumerate(level.cells):
            (j,) = cell
            name, src, tgt = g.arrows[j]
            assert g.units[level.faces[0][t]] == src
            assert g.units[level.faces[1][t]] == tgt

    def test_cell_counts_for_groups(self):
        for m in (2, 3, 4):
            g = cyclic_group_groupoid(m)
            for n in (1, 2, 3):
                assert nerve(g, n).size() == m**n

    def test_cell_counts_for_pair_groupoids(self):
        for k in (2, 3):
            g = pair_groupoid(k)
            for n in (1, 2, 3):
                assert nerve(g, n).size() == k ** (n + 1)

    def test_cell_counts_for_transitive_blocks(self):
        g = transitive_groupoid(2, 2)
        # n^(l+1) * m^l cells at level l for n units and isotropy order m.
        assert [lvl.size() for lvl in nerve_levels(g, 3)] == [2, 8, 32, 128]

    def test_cells_are_lexicographically_sorted(self, wide_corpus):
        for g in wide_corpus:
            for level in nerve_levels(g, 3)[1:]:
                assert list(level.cells) == sorted(level.cells)

    def test_chains_are_composable(self, wide_corpus):
        for g in wide_corpus:
            names = g.arrow_names()
            for cell in nerve(g, 3).cells:
                for a, b in zip(cell, cell[1:]):
                    assert g.source_of(names[a]) == g.target_of(names[b])

    def test_simplicial_identities(self, wide_corpus):
        for g in wide_corpus:
            levels = nerve_levels(g, 3)
            for n in (2, 3):
                below, here = levels[n - 1], levels[n]
                for t in range(here.size()):
                    for j in range(1, n + 1):
                        for i in range(j):
                            left = below.faces[i][here.faces[j][t]]
                            right = below.faces[j - 1][here.faces[i][t]]
                            assert left == right

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            nerve(trivial_groupoid(1), -1)

    def test_size_bound_enforced(self):
        with pytest.raises(SizeBoundExceeded):
            nerve_levels(pair_groupoid(3), 4, size_bound=100)

    def test_size_bound_roomy_enough_is_silent(self):
        levels = nerve_levels(pair_groupoid(2), 3, size_bound=100)
        assert [lvl.size() for lvl in levels] == [2, 4, 8, 16]


class TestOrbitsAndIsotropy:
    def test_orbit_partitions(self):
        assert sorted(len(o) for o in orbits(trivial_groupoid(4))) == [1, 1, 1, 1]
        assert sorted(len(o) for o in orbits(pair_groupoid(3))) == [3]
        two = disjoint_union_groupoids(pair_groupoid(2), cyclic_group_groupoid(2))
        assert sorted(len(o) for o in orbits(two)) == [1, 2]

    def test_principal_finite_groupoid(self):
        rep = isotropy_report(pair_groupoid(3))
        assert rep.torsion_free and rep.mode == "computed"

    def test_finite_torsion_found(self):
        rep = isotropy_report(cyclic_group_groupoid(2))
        assert not rep.torsion_free and rep.mode == "computed"
        assert "'x'" in rep.justification

    def test_symbolic_classes_declare(self):
        for model in (
            SftModel(M([[2]])),
            BratteliModel((1,), (), M([[2]])),
            CantorZModel(BratteliModel((1,), (), M([[2]]))),
        ):
            rep = isotropy_report(model)
            assert rep.torsion_free and rep.mode == "declared"

    def test_product_combines_factors(self):
        rep = isotropy_report(ProductModel(pair_groupoid(2), cyclic_group_groupoid(2)))
        assert not rep.torsion_free and rep.mode == "computed"
        mixed = isotropy_report(ProductModel(SftModel(M([[2]])), pair_groupoid(2)))
        assert mixed.torsion_free and mixed.mode == "declared"


class TestBuilders:
    def test_builders_validate(self):
        for g in (
            trivial_groupoid(1),
            trivial_groupoid(5),
            pair_groupoid(4),
            cyclic_group_groupoid(6),
            transitive_groupoid(3, 4),
            disjoint_union_groupoids(pair_groupoid(2), transitive_groupoid(2, 3)),
        ):
            assert validate_model(g) == []

    def test_transitive_shape(self):
        g = transitive_groupoid(3, 2)
        assert len(g.units) == 3
        assert len(g.arrows) == 3 * 3 * 2

    def test_random_groupoids_are_valid(self):
        rng = random.Random(41)
        for _ in range(60):
            g = random_finite_groupoid(rng, max_arrows=30)
            assert len(g.arrows) <= 30
            assert validate_model(g) == []

    def test_dimension_system_mirrors_diagram(self):
        b = BratteliModel((1, 2), (M([[1], [2]]),), M([[1, 1], [1, 1]]))
        sys_ = dimension_system(b)
        assert sys_.stage_dims == (1, 2)
        assert sys_.connecting == (M([[1], [2]]),)
        assert sys_.tail == b.tail

    def test_summaries(self):
        assert model_summary(pair_groupoid(2)) == "finite(2 units, 4 arrows)"
        assert model_summary(SftModel(M([[1]]))) == "sft(1 vertices)"
        assert "product(" in model_summary(
            ProductModel(SftModel(M([[1]])), SftModel(M([[1]])))
        )
