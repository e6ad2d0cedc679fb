"""Model validation, the nerve, orbits, isotropy, and the builders."""

from __future__ import annotations

import random

import pytest

from amplehk import replace
from amplehk.errors import ModelInvalid, SimplicityNotCertified, SizeBoundExceeded
from amplehk.exact_linalg import IntMatrix
from amplehk.homology import homology_cantor_z
from amplehk.ktheory import invariants
from amplehk.modelio import parse_model
from amplehk.models import (
    BratteliModel,
    CantorZModel,
    FiniteGroupoid,
    ProductModel,
    SftModel,
    _units_with_isotropy,
    orbits,
    simplicity_certificate,
)

from conftest import random_finite_groupoid
from oracles import (
    zeros,
    D8,
    S3,
    Tables,
    cyclic_group_groupoid,
    disjoint_union_groupoids,
    identity_arrows,
    isotropy_tables_by_name,
    nerve_levels,
    orbits_by_union_find,
    pair_groupoid,
    permutation_group_groupoid,
    transitive_groupoid,
    trivial_groupoid,
    units_with_isotropy_by_name,
    validate_finite,
)


def M(rows):
    return IntMatrix.from_rows(rows)


def isotropy_report(model):
    return invariants(model).isotropy


def model_summary(model):
    return invariants(model).summary


def violations(build) -> list[str]:
    """The violations ``build()`` raises as ModelInvalid."""
    with pytest.raises(ModelInvalid) as exc:
        build()
    return exc.value.violations


class TestFiniteValidation:
    def test_corpus_is_clean(self, wide_corpus):
        for g in wide_corpus:
            assert replace(g) == g

    def test_duplicate_units(self):
        g = trivial_groupoid(1)
        bad = violations(lambda: replace(g, units=("u0", "u0")))
        assert any("duplicate unit" in v for v in bad)

    def test_duplicate_arrows(self):
        g = trivial_groupoid(1)
        bad = violations(lambda: replace(g, arrows=g.arrows + g.arrows))
        assert any("duplicate arrow" in v for v in bad)

    def test_unknown_endpoint(self):
        g = trivial_groupoid(1)
        bad = violations(lambda: replace(g, arrows=(("id_u0", "u0", "ghost"),)))
        assert any("unknown target" in v for v in bad)

    def test_composition_of_non_composable_pair(self):
        g = trivial_groupoid(2)
        extra = dict(g.compose)
        extra[("id_u0", "id_u1")] = "id_u0"
        bad = violations(lambda: replace(g, compose=extra))
        assert any("source/target do not match" in v for v in bad)

    def test_missing_composition(self):
        g = cyclic_group_groupoid(2)
        pruned = {k: v for k, v in g.compose if k != ("g1", "g1")}
        bad = violations(lambda: replace(g, compose=pruned))
        assert any("required but missing" in v for v in bad)

    def test_wrong_composite_endpoints(self):
        g = pair_groupoid(2)
        tampered = dict(g.compose)
        # u0<u1 . u1<u0 lands at (u0, u0); redirect it to a cross arrow.
        tampered[("u0<u1", "u1<u0")] = "u1<u0"
        bad = violations(lambda: replace(g, compose=tampered))
        assert any("wrong endpoints" in v for v in bad)

    def test_associativity_checked(self):
        g = cyclic_group_groupoid(3)
        tampered = dict(g.compose)
        tampered[("g2", "g2")] = "g2"
        bad = violations(lambda: replace(g, compose=tampered))
        assert any("associativity fails" in v for v in bad)

    def test_violations_are_listed_in_arrow_order(self):
        # Two units with isotropy Z/2; arrow names read target<element<source.
        g = transitive_groupoid(2, 2)
        dropped = {("u1<1<u0", "u0<0<u1"), ("u0<1<u0", "u0<1<u0")}
        missing = {k: v for k, v in g.compose if k not in dropped}
        tampered = {**dict(g.compose), ("u1<1<u1", "u1<1<u1"): "u1<1<u1"}
        pairs = [
            "composition ('u0<1<u0', 'u0<1<u0') required but missing",
            "composition ('u1<1<u0', 'u0<0<u1') required but missing",
        ]
        assert violations(lambda: replace(g, compose=missing)) == pairs
        assert violations(lambda: replace(g, compose=tampered)) == [
            f"associativity fails on {triple}"
            for triple in (
                ("u0<0<u1", "u1<1<u1", "u1<1<u1"),
                ("u0<1<u1", "u1<1<u1", "u1<1<u1"),
                ("u1<0<u0", "u0<1<u1", "u1<1<u1"),
                ("u1<1<u0", "u0<0<u1", "u1<1<u1"),
                ("u1<1<u1", "u1<0<u0", "u0<1<u1"),
                ("u1<1<u1", "u1<1<u0", "u0<0<u1"),
                ("u1<1<u1", "u1<1<u1", "u1<0<u0"),
                ("u1<1<u1", "u1<1<u1", "u1<1<u0"),
            )
        ]
        # A missing pair is reported alone: associativity needs a full table.
        both = {k: v for k, v in tampered.items() if k not in dropped}
        assert violations(lambda: replace(g, compose=both)) == pairs

    def test_missing_identity(self):
        bad = violations(
            lambda: FiniteGroupoid(
                units=("x",),
                arrows=(("e", "x", "x"), ("g", "x", "x")),
                compose={("e", "e"): "g", ("e", "g"): "g", ("g", "e"): "g", ("g", "g"): "g"},
                inverse={"e": "e", "g": "g"},
            )
        )
        assert any("no identity arrow" in v for v in bad)

    def test_missing_inverse_entry(self):
        g = cyclic_group_groupoid(2)
        bad = violations(lambda: replace(g, inverse={"g0": "g0"}))
        assert any("no inverse entry" in v for v in bad)

    def test_inverse_entry_for_unknown_arrow(self):
        g = cyclic_group_groupoid(2)
        bad = violations(lambda: replace(g, inverse={**dict(g.inverse), "zz": "g0"}))
        assert bad == ["inverse entry for unknown arrow 'zz'"]

    def test_inverse_with_wrong_endpoints(self):
        g = pair_groupoid(2)
        tampered = dict(g.inverse)
        tampered["u0<u1"] = "u0<u1"
        bad = violations(lambda: replace(g, inverse=tampered))
        assert any("wrong endpoints" in v for v in bad)

    def test_inverse_not_composing_to_identity(self):
        g = cyclic_group_groupoid(3)
        tampered = dict(g.inverse)
        tampered["g1"], tampered["g2"] = "g1", "g2"
        bad = violations(lambda: replace(g, inverse=tampered))
        assert any("does not compose to the identities" in v for v in bad)

    def test_identity_arrows_found(self):
        g = cyclic_group_groupoid(4)
        assert identity_arrows(g) == {"x": "g0"}
        h = pair_groupoid(2)
        assert identity_arrows(h) == {"u0": "u0<u0", "u1": "u1<u1"}


def _differential_corpus() -> list[FiniteGroupoid]:
    """Valid tables for the differential tests: groups, transitive and
    permutation-group groupoids, and disjoint unions."""
    return [
        cyclic_group_groupoid(1),
        cyclic_group_groupoid(2),
        cyclic_group_groupoid(5),
        pair_groupoid(3),
        transitive_groupoid(2, 2),
        transitive_groupoid(2, 3),
        permutation_group_groupoid(S3),
        permutation_group_groupoid(D8),
        permutation_group_groupoid(S3, n_units=2),
        disjoint_union_groupoids(cyclic_group_groupoid(3), pair_groupoid(2)),
        disjoint_union_groupoids(permutation_group_groupoid(S3), trivial_groupoid(2)),
        disjoint_union_groupoids(transitive_groupoid(2, 2), permutation_group_groupoid(D8)),
    ]


def _drop_compose_entry(rng, units, arrows, compose, inverse):
    del compose[rng.choice(list(compose))]


def _redirect_composite(rng, units, arrows, compose, inverse):
    compose[rng.choice(list(compose))] = rng.choice(arrows)[0]


def _add_non_composable_pair(rng, units, arrows, compose, inverse):
    pairs = [(g, d) for g, gs, _ in arrows for d, _, dt in arrows if gs != dt]
    if not pairs:
        return False
    compose[rng.choice(pairs)] = rng.choice(arrows)[0]


def _name_an_unknown_arrow(rng, units, arrows, compose, inverse):
    where = rng.randrange(5)
    if where < 3:
        key = rng.choice(list(compose))
        triple = [*key, compose.pop(key)]
        triple[where] = "ghost"
        compose[(triple[0], triple[1])] = triple[2]
    elif where == 3:
        inverse["ghost"] = rng.choice(arrows)[0]
    else:
        inverse[rng.choice(arrows)[0]] = "ghost"


def _break_an_inverse(rng, units, arrows, compose, inverse):
    name = rng.choice(arrows)[0]
    if rng.random() < 0.3:
        del inverse[name]
    else:
        inverse[name] = rng.choice(arrows)[0]


def _remove_an_identity(rng, units, arrows, compose, inverse):
    unit = rng.choice(units)
    identity = identity_arrows(Tables(units, arrows, compose, inverse))[unit]
    # Half the time the arrow stays and one of its composites on one side
    # is moved to another arrow with the same endpoints.
    side = rng.randrange(2)
    key = rng.choice([k for k in compose if k[side] == identity])
    ends = {name: (src, tgt) for name, src, tgt in arrows}
    others = [n for n, e in ends.items() if e == ends[compose[key]] and n != compose[key]]
    if others and rng.random() < 0.5:
        compose[key] = rng.choice(others)
        return
    arrows.remove(next(a for a in arrows if a[0] == identity))
    for key in [k for k in compose if identity in k]:
        del compose[key]
    del inverse[identity]


def _duplicate_a_name(rng, units, arrows, compose, inverse):
    if rng.random() < 0.5:
        units.insert(rng.randrange(len(units) + 1), rng.choice(units))
    elif len(arrows) > 1:
        j, k = rng.sample(range(len(arrows)), 2)
        arrows[j] = (arrows[k][0],) + arrows[j][1:]
    else:
        arrows.append(arrows[0])


def _give_an_unknown_endpoint(rng, units, arrows, compose, inverse):
    j = rng.randrange(len(arrows))
    end = rng.choice((1, 2))
    arrow = list(arrows[j])
    arrow[end] = "nowhere"
    arrows[j] = tuple(arrow)


MUTATIONS = [
    _drop_compose_entry,
    _redirect_composite,
    _add_non_composable_pair,
    _name_an_unknown_arrow,
    _break_an_inverse,
    _remove_an_identity,
    _duplicate_a_name,
    _give_an_unknown_endpoint,
]


def _shuffled(rng: random.Random, table: tuple) -> dict:
    items = list(table)
    rng.shuffle(items)
    return dict(items)


class TestValidatorAgainstTheNameKeyedOracle:
    """The number-keyed validator against the name-keyed one in ``oracles``:
    the same violations in the same order on broken tables, and the same
    orbits, identities, isotropy tables and torsion units on valid ones."""

    @pytest.mark.parametrize("mutate", MUTATIONS, ids=lambda m: m.__name__.strip("_"))
    def test_one_mutation_gives_the_oracles_violations(self, mutate):
        rng = random.Random(f"validator:{mutate.__name__}")
        broken = 0
        for g in _differential_corpus():
            for _ in range(6):
                units, arrows = list(g.units), list(g.arrows)
                compose, inverse = _shuffled(rng, g.compose), _shuffled(rng, g.inverse)
                if mutate(rng, units, arrows, compose, inverse) is False:
                    continue
                expected = validate_finite(Tables(tuple(units), tuple(arrows), compose, inverse))
                if not expected:
                    FiniteGroupoid(tuple(units), tuple(arrows), compose, inverse)
                    continue
                broken += 1
                with pytest.raises(ModelInvalid) as exc:
                    FiniteGroupoid(tuple(units), tuple(arrows), compose, inverse)
                assert exc.value.violations == expected, (g.units, mutate.__name__)
        assert broken >= 30

    def test_valid_tables_give_the_oracles_facts(self):
        rng = random.Random(67)
        corpus = _differential_corpus() + [random_finite_groupoid(rng) for _ in range(20)]
        for base in corpus:
            g = FiniteGroupoid(base.units, base.arrows, _shuffled(rng, base.compose), base.inverse)
            assert validate_finite(g) == []
            assert orbits(g) == orbits_by_union_find(g)
            assert g._isotropy == isotropy_tables_by_name(g)
            assert _units_with_isotropy(g) == units_with_isotropy_by_name(g)

    def test_derived_tables_stay_out_of_the_fields(self):
        g = transitive_groupoid(2, 2)
        assert g._fields == ("units", "arrows", "compose", "inverse")
        copy = replace(g, compose=_shuffled(random.Random(3), g.compose))
        assert copy == g and copy._isotropy == g._isotropy


class TestSftValidation:
    def test_good(self):
        assert SftModel(M([[1, 1], [1, 0]])).matrix == M([[1, 1], [1, 0]])

    def test_non_square(self):
        assert any("not square" in v for v in violations(lambda: SftModel(zeros(1, 2))))

    def test_empty(self):
        assert any("empty" in v for v in violations(lambda: SftModel(zeros(0, 0))))

    def test_negative_entry(self):
        assert any("negative" in v for v in violations(lambda: SftModel(M([[1, -1], [1, 1]]))))

    def test_zero_row_and_column(self):
        bad = violations(lambda: SftModel(M([[0, 0], [1, 0]])))
        assert any("row 0" in v for v in bad)
        assert any("column 1" in v for v in bad)

    def test_whole_message_list_in_order(self):
        bad = violations(lambda: SftModel(M([[0, -1, 0, 2], [0, 0, 0, 0], [0, 3, 0, 0], [0, 0, 0, 0]])))
        assert bad == [
            "transition matrix has a negative entry",
            "row 1 of the transition matrix is zero",
            "row 3 of the transition matrix is zero",
            "column 0 of the transition matrix is zero",
            "column 2 of the transition matrix is zero",
        ]


class TestBratteliValidation:
    def good(self) -> BratteliModel:
        return BratteliModel((1, 2), (M([[1], [1]]),), M([[1, 1], [1, 1]]))

    def test_good(self):
        assert self.good().level_sizes == (1, 2)

    def test_needs_a_level(self):
        bad = violations(lambda: BratteliModel((), (), zeros(0, 0)))
        assert bad == ["diagram needs at least one level"]

    def test_level_sizes_positive(self):
        bad = violations(lambda: replace(self.good(), level_sizes=(0, 2)))
        assert any("positive" in v for v in bad)

    def test_incidence_count(self):
        bad = violations(lambda: replace(self.good(), incidences=()))
        assert any("incidence" in v for v in bad)

    def test_incidence_shape(self):
        bad = violations(lambda: replace(self.good(), incidences=(M([[1, 1]]),)))
        assert any("expected 2x1" in v for v in bad)

    def test_negative_entries(self):
        bad = violations(lambda: replace(self.good(), tail=M([[1, -1], [0, 1]])))
        assert any("negative" in v for v in bad)

    def test_tail_shape(self):
        bad = violations(lambda: replace(self.good(), tail=M([[1]])))
        assert any("tail is 1x1" in v for v in bad)


def wielandt(n: int) -> IntMatrix:
    """The n x n Wielandt matrix, whose first positive power is (n-1)^2 + 1."""
    rows = [[int(j == i + 1) for j in range(n)] for i in range(n - 1)]
    rows.append([1, 1] + [0] * (n - 2))
    return M(rows)


def brute_force_primitive(rows: list[list[int]]) -> bool:
    """Some power up to Wielandt's bound (n-1)^2 + 1 is entrywise positive,
    found by multiplying one power at a time."""
    n = len(rows)
    step = [[x > 0 for x in row] for row in rows]
    power = step
    for _ in range((n - 1) ** 2 + 1):
        if all(all(row) for row in power):
            return True
        power = [[any(power[i][t] and step[t][j] for t in range(n)) for j in range(n)]
                 for i in range(n)]
    return False


class TestSimplicity:
    def test_positive_tail(self):
        ok, why = simplicity_certificate(M([[2]]))
        assert ok and "power 1" in why

    def test_single_point_path_space(self):
        ok, why = simplicity_certificate(M([[1]]))
        assert not ok and "single point" in why

    def test_never_positive(self):
        assert simplicity_certificate(M([[1, 1], [0, 1]])) == (
            False, "no power of the tail is entrywise positive"
        )

    def test_positive_after_telescoping(self):
        ok, why = simplicity_certificate(M([[1, 1], [1, 0]]))
        assert ok and "power 2" in why

    @pytest.mark.parametrize("n", range(2, 13))
    def test_wielandt_matrices_are_certified(self, n):
        # Their exponent meets the bound, so the squaring must reach it.
        ok, why = simplicity_certificate(wielandt(n))
        assert ok, why

    @pytest.mark.parametrize("n", range(2, 13))
    def test_cycles_are_refused(self, n):
        # The Wielandt matrix without its chord: irreducible, period n.
        cycle = [[int(j == (i + 1) % n) for j in range(n)] for i in range(n)]
        assert simplicity_certificate(M(cycle)) == (
            False, "no power of the tail is entrywise positive"
        )

    def test_wielandt_matrix_needs_the_full_bound(self):
        # 5 x 5: first positive at power 17, so 5 squarings reach power 32.
        assert simplicity_certificate(wielandt(5)) == (True, "tail power 32 is entrywise positive")

    def test_periodic_tail_is_refused(self):
        # Irreducible but of period 2: the powers alternate forever.
        ok, why = simplicity_certificate(M([[0, 1], [1, 0]]))
        assert not ok and why == "no power of the tail is entrywise positive"

    def test_agrees_with_a_power_search(self):
        rng = random.Random(14)
        for _ in range(3000):
            n = rng.randint(1, 6)
            density = rng.choice((0.2, 0.35, 0.5, 0.8))
            rows = [[rng.randint(1, 3) if rng.random() < density else 0 for _ in range(n)]
                    for _ in range(n)]
            ok, why = simplicity_certificate(M(rows))
            expected = brute_force_primitive(rows) and rows != [[1]]
            assert ok == expected, (rows, why)

    def test_engine_refuses_a_non_primitive_tail(self):
        model = CantorZModel(BratteliModel((2,), (), M([[1, 1], [0, 1]])))
        with pytest.raises(SimplicityNotCertified) as exc:
            homology_cantor_z(model)
        assert str(exc.value) == "no power of the tail is entrywise positive"


class TestProductValidation:
    def test_factor_prefixes(self):
        assert violations(lambda: ProductModel(SftModel(M([[0]])), SftModel(M([[1]]))))
        doc = {
            "model": "product",
            "factors": [{"model": "sft", "matrix": [[0]]}, {"model": "sft", "matrix": [[1]]}],
        }
        assert violations(lambda: parse_model(doc)) == [
            "/factors/0: row 0 of the transition matrix is zero",
            "column 0 of the transition matrix is zero",
        ]

    def test_nested(self):
        inner = ProductModel(SftModel(M([[1]])), SftModel(M([[2]])))
        assert ProductModel(inner, SftModel(M([[3]]))).left == inner


class TestNerve:
    def test_level_zero_lists_units(self):
        g = pair_groupoid(3)
        level = nerve_levels(g, 0)[0]
        assert level.cells == (0, 1, 2)
        assert level.faces == ()

    def test_degree_one_faces_are_endpoints(self):
        g = pair_groupoid(2)
        level = nerve_levels(g, 1)[1]
        for t, cell in enumerate(level.cells):
            (j,) = cell
            name, src, tgt = g.arrows[j]
            assert g.units[level.faces[0][t]] == src
            assert g.units[level.faces[1][t]] == tgt

    def test_cell_counts_for_groups(self):
        for m in (2, 3, 4):
            g = cyclic_group_groupoid(m)
            for n in (1, 2, 3):
                assert nerve_levels(g, n)[n].size() == m**n

    def test_cell_counts_for_pair_groupoids(self):
        for k in (2, 3):
            g = pair_groupoid(k)
            for n in (1, 2, 3):
                assert nerve_levels(g, n)[n].size() == k ** (n + 1)

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
            ends = [(src, tgt) for _, src, tgt in g.arrows]
            for cell in nerve_levels(g, 3)[3].cells:
                for a, b in zip(cell, cell[1:]):
                    assert ends[a][0] == ends[b][1]

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
            nerve_levels(trivial_groupoid(1), -1)

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
        assert rep.holds and rep.mode == "computed"

    def test_finite_torsion_found(self):
        rep = isotropy_report(cyclic_group_groupoid(2))
        assert not rep.holds and rep.mode == "computed"
        assert "'x'" in rep.justification

    def test_symbolic_classes_declare(self):
        for model in (
            SftModel(M([[2]])),
            BratteliModel((1,), (), M([[2]])),
            CantorZModel(BratteliModel((1,), (), M([[2]]))),
        ):
            rep = isotropy_report(model)
            assert rep.holds and rep.mode == "declared"

    def test_product_combines_factors(self):
        rep = isotropy_report(ProductModel(pair_groupoid(2), cyclic_group_groupoid(2)))
        assert not rep.holds and rep.mode == "computed"
        mixed = isotropy_report(ProductModel(SftModel(M([[2]])), pair_groupoid(2)))
        assert mixed.holds and mixed.mode == "declared"


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
            assert replace(g) == g

    def test_transitive_shape(self):
        g = transitive_groupoid(3, 2)
        assert len(g.units) == 3
        assert len(g.arrows) == 3 * 3 * 2

    def test_random_groupoids_are_valid(self):
        rng = random.Random(41)
        for _ in range(60):
            g = random_finite_groupoid(rng, max_arrows=30)
            assert len(g.arrows) <= 30
            assert replace(g) == g

    def test_summaries(self):
        assert model_summary(pair_groupoid(2)) == "finite(2 units, 4 arrows)"
        assert model_summary(SftModel(M([[1]]))) == "sft(1 vertices)"
        assert "product(" in model_summary(
            ProductModel(SftModel(M([[1]])), SftModel(M([[1]])))
        )
