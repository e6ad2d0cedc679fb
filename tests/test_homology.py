"""Homology engines: abelian closed form, bar complex, symbolic classes, and the product formula."""

from __future__ import annotations

import itertools
import json
import random
import time
from pathlib import Path

import pytest

import amplehk.exact_linalg as exact_linalg
import amplehk.homology as homology
from amplehk.colimits import ColimitInvariants
from amplehk.errors import (
    ModelInvalid,
    NotAComplex,
    SimplicityNotCertified,
    SizeBoundExceeded,
    TruncationUnsound,
)
from amplehk.exact_linalg import (
    FgAbelianGroup,
    IntMatrix,
    matrix_rank,
    sparse_complex_homology,
)
from amplehk.homology import (
    GradedGroup,
    homology_finite,
    homology_product,
)
from amplehk.ktheory import invariants
from amplehk.modelio import parse_model
from amplehk.models import (
    BratteliModel,
    CantorZModel,
    FiniteGroupoid,
    ProductModel,
    SftModel,
    orbits,
)

from conftest import random_finite_groupoid, record_calls
from oracles import (
    A4,
    D8,
    Q8,
    S3,
    NerveLevel,
    boundary_matrix,
    add,
    boundary_matrix_from_levels,
    cokernel,
    columns,
    cyclic_group_groupoid,
    disjoint_union_groupoids,
    identity,
    is_zero,
    nerve_levels,
    pair_groupoid,
    permutation_group_groupoid,
    scale,
    transitive_groupoid,
    transpose,
    trivial_groupoid,
)


def M(rows):
    return IntMatrix.from_rows(rows)


def Z(rank):
    return FgAbelianGroup.free(rank)


def groups(h: GradedGroup) -> list[str]:
    return [str(v) for v in h.by_degree]


def record_bar_complexes(monkeypatch) -> list[int]:
    """The order of every group whose bar complex ``homology_finite`` builds."""
    orders = []
    real = homology._normalized_boundaries

    def recorded(table, top):
        orders.append(len(table) + 1)
        return real(table, top)

    monkeypatch.setattr(homology, "_normalized_boundaries", recorded)
    return orders


class TestBoundaries:
    def test_squares_to_zero(self, deep_corpus):
        for g in deep_corpus:
            levels = nerve_levels(g, 4)
            for n in (1, 2, 3):
                first = boundary_matrix_from_levels(levels, n)
                second = boundary_matrix_from_levels(levels, n + 1)
                assert is_zero(first @ second)

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
            assert union.by_degree[n] == FgAbelianGroup.sum([ha.by_degree[n], hb.by_degree[n]])

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
        with pytest.raises(ModelInvalid) as exc:
            homology_finite(FiniteGroupoid(units=("x",), arrows=(("g", "x", "x"),)), 1)
        assert exc.value.violations

    def test_one_elimination_per_boundary(self, monkeypatch):
        calls = []
        real = exact_linalg._smith_factors

        def counted(rows, n):
            calls.append((n, tuple((i, tuple(r.items())) for i, r in rows.items())))
            return real(rows, n)

        monkeypatch.setattr(exact_linalg, "_smith_factors", counted)
        h = homology_finite(permutation_group_groupoid(S3), 3)
        assert groups(h) == ["Z", "Z/2", "0", "Z/6"]
        # d_1 is zero (both faces of a loop are its unit), so only d_2 .. d_4
        # reach the kernel.
        assert len(calls) == 3 and len(set(calls)) == 3

    def test_nonzero_composite_is_not_a_complex(self, monkeypatch):
        # An all-ones d_1 meets d_2 of S_3 in a nonzero composite: column
        # (a, b) of d_2 sums to 1 (faces b, a.b and a with signs +, -, +)
        # or, when a.b is the identity, to 2.
        real = homology._normalized_boundaries

        def broken(table, top):
            d = real(table, top)
            return [[{0: 1} for _ in d[0]]] + d[1:]

        monkeypatch.setattr(homology, "_normalized_boundaries", broken)
        with pytest.raises(NotAComplex, match="composite of consecutive boundaries is nonzero"):
            homology_finite(permutation_group_groupoid(S3), 1)

    def test_size_bound(self):
        # Z/5 is its own skeleton; its nerve level 4 has 625 cells.
        with pytest.raises(SizeBoundExceeded):
            homology_finite(cyclic_group_groupoid(5), 3, size_bound=500)


def full_nerve_homology(g: FiniteGroupoid, max_degree: int) -> tuple[FgAbelianGroup, ...]:
    """Oracle: homology of the whole nerve, every unit and every degenerate
    cell kept; H_n has rank cols d_n - rank d_n - rank d_(n+1) and the
    torsion of coker d_(n+1)."""
    levels = nerve_levels(g, max_degree + 1)
    d = [None] + [boundary_matrix_from_levels(levels, n) for n in range(1, max_degree + 2)]
    out = [cokernel(d[1])]
    for n in range(1, max_degree + 1):
        rank = d[n].cols - matrix_rank(d[n]) - matrix_rank(d[n + 1])
        out.append(FgAbelianGroup(rank, cokernel(d[n + 1]).torsion))
    return tuple(out)


def skeleton(g: FiniteGroupoid) -> FiniteGroupoid:
    """Oracle: the full subgroupoid on the first unit of each orbit."""
    reps = {min(orbit, key=g.units.index) for orbit in orbits(g)}
    arrows = tuple(a for a in g.arrows if a[1] in reps and a[2] in reps)
    kept = {a[0] for a in arrows}
    return FiniteGroupoid(
        tuple(u for u in g.units if u in reps),
        arrows,
        {pair: c for pair, c in g.compose if kept.issuperset(pair)},
        {a: b for a, b in g.inverse if a in kept},
    )


def vertex_group(g: FiniteGroupoid, u: str) -> FiniteGroupoid:
    """Oracle: the isotropy group of unit u as a one-unit groupoid."""
    loops = {a for a, src, tgt in g.arrows if src == tgt == u}
    return FiniteGroupoid(
        (u,),
        tuple(a for a in g.arrows if a[0] in loops),
        {pair: c for pair, c in g.compose if loops.issuperset(pair)},
        {a: b for a, b in g.inverse if a in loops},
    )


def normalized(levels: list[NerveLevel], g: FiniteGroupoid) -> list[NerveLevel]:
    """Oracle: the nerve levels without the cells that hold an identity
    arrow; a face landing on a dropped cell becomes -1."""
    names = [a[0] for a in g.arrows]
    compose = dict(g.compose)
    identities = {i for i, a in enumerate(names) if compose[(a, a)] == a}
    out = [levels[0]]
    index = list(range(levels[0].size()))
    for level in levels[1:]:
        keep = [t for t, cell in enumerate(level.cells) if identities.isdisjoint(cell)]
        faces = tuple(tuple(index[face[t]] for t in keep) for face in level.faces)
        index = [-1] * level.size()
        for new, t in enumerate(keep):
            index[t] = new
        out.append(NerveLevel(level.degree, tuple(level.cells[t] for t in keep), faces))
    return out


def densified(columns: list[dict[int, int]], rows: int) -> IntMatrix:
    flat = [0] * (rows * len(columns))
    for t, column in enumerate(columns):
        for r, x in column.items():
            flat[r * len(columns) + t] = x
    return IntMatrix(rows, len(columns), tuple(flat))


def sparse_corpus() -> list[FiniteGroupoid]:
    rng = random.Random(53)
    return [
        cyclic_group_groupoid(4),
        cyclic_group_groupoid(5),
        permutation_group_groupoid(S3),
        transitive_groupoid(2, 2),
    ] + [random_finite_groupoid(rng, max_arrows=12) for _ in range(25)]


class TestSparseBoundaries:
    """The sparse columns of each orbit's complex against the dense
    boundaries of the normalized nerve of its unit's isotropy group."""

    def test_match_the_dense_normalized_boundaries(self):
        top = 4
        for g in sparse_corpus():
            units = skeleton(g).units
            tables = g._isotropy
            assert len(tables) == len(units)
            for u, table in zip(units, tables):
                group = vertex_group(g, u)
                levels = normalized(nerve_levels(group, top), group)
                sparse = homology._normalized_boundaries(table, top)
                for n in range(1, top + 1):
                    dense = boundary_matrix_from_levels(levels, n)
                    assert densified(sparse[n - 1], dense.rows) == dense, (g.units, u, n)

    def test_size_bound_counts_the_skeleton_nerve(self):
        # The bound and its message are those of the skeleton's full nerve.
        for g in sparse_corpus():
            for bound in (0, 5, 30, 200):
                try:
                    nerve_levels(skeleton(g), 4, size_bound=bound)
                    expected = None
                except SizeBoundExceeded as e:
                    expected = str(e)
                try:
                    homology_finite(g, 3, size_bound=bound)
                    found = None
                except SizeBoundExceeded as e:
                    found = str(e)
                assert found == expected, (g.units, bound)


class TestReducedComplex:
    """``homology_finite`` works on the normalized bar complex of a skeleton;
    the full nerve is the oracle."""

    @pytest.mark.parametrize(
        "g",
        [
            cyclic_group_groupoid(4),
            cyclic_group_groupoid(5),
            transitive_groupoid(2, 2),
            transitive_groupoid(2, 3),
            disjoint_union_groupoids(transitive_groupoid(2, 2), cyclic_group_groupoid(3)),
            permutation_group_groupoid(S3),
        ],
        ids=["Z4", "Z5", "T2x2", "T2x3", "T2x2+Z3", "S3"],
    )
    def test_agrees_with_the_full_nerve(self, g):
        assert homology_finite(g, 3).by_degree == full_nerve_homology(g, 3)

    def test_agrees_with_the_full_nerve_on_a_random_corpus(self):
        rng = random.Random(43)
        for _ in range(25):
            g = random_finite_groupoid(rng, max_arrows=12)
            assert homology_finite(g, 3).by_degree == full_nerve_homology(g, 3), g.units

    def test_builds_the_nerve_of_one_unit_per_orbit(self, monkeypatch):
        orders = record_bar_complexes(monkeypatch)
        g = disjoint_union_groupoids(
            disjoint_union_groupoids(pair_groupoid(3), permutation_group_groupoid(S3, 3)),
            permutation_group_groupoid(D8, 2),
        )
        homology_finite(g, 2)
        # One complex per nonabelian orbit, on the isotropy group of one
        # unit: S_3 on three units, then D_8 on two.  The pair groupoid's
        # trivial group takes the closed form.
        assert orders == [6, 8]

    def test_degenerate_cells_are_dropped(self, monkeypatch):
        sizes = []
        real = homology._normalized_boundaries

        def recorded(table, top):
            d = real(table, top)
            sizes.extend(len(columns) for columns in d)
            return d

        monkeypatch.setattr(homology, "_normalized_boundaries", recorded)
        homology_finite(permutation_group_groupoid(S3), 3)
        # (k - 1)^n cells of a group of order k in degree n, against k^n in
        # the full nerve: 5^n for S_3.
        assert sizes == [5, 25, 125, 625]

    def test_transitive_four_units_z3_within_the_default_bound(self):
        start = time.perf_counter()
        h = homology_finite(transitive_groupoid(4, 3), 3)
        assert time.perf_counter() - start < 1.0
        assert groups(h) == ["Z", "Z/3", "0", "Z/3"]

    def test_principal_groupoid_cost_is_linear_in_the_degree(self):
        # Trivial isotropy leaves every level above 0 empty, so nothing
        # should be built per degree past the first empty level.
        g = disjoint_union_groupoids(pair_groupoid(2), trivial_groupoid(1))
        start = time.process_time()
        h = homology_finite(g, 10_000)
        assert time.process_time() - start < 1.0
        assert h.by_degree == (Z(2),) + (Z(0),) * 10_000


def abelian_table(orders: tuple[int, ...], rng: random.Random) -> tuple[tuple[int, ...], ...]:
    """The table of Z/d_1 x ... x Z/d_r without the identity, as
    ``FiniteGroupoid._isotropy`` keeps it, its elements numbered at random."""
    elements = list(itertools.product(*map(range, orders)))
    rest = elements[1:]
    rng.shuffle(rest)
    number = {x: i for i, x in enumerate(rest)}
    number[elements[0]] = -1
    return tuple(
        tuple(number[tuple((x + y) % d for x, y, d in zip(a, b, orders))] for b in rest)
        for a in rest
    )


V4 = ((1, 0, 3, 2), (2, 3, 0, 1))


class TestAbelianClosedForm:
    """Abelian isotropy takes H_*(Z/d) = Z, Z/d, 0, Z/d, ... and Kunneth;
    the normalized bar complex is the oracle."""

    # Orders 12 and 16 stop at degree 2: their d_4 takes seconds to eliminate.
    CASES = [
        ((2, 2), 3),
        ((2, 4), 3),
        ((3, 3), 3),
        ((2, 2, 2), 3),
        ((12,), 2),
        ((2, 6), 2),
        ((4, 4), 2),
    ]

    @pytest.mark.parametrize("orders, degree", CASES, ids=[str(c[0]) for c in CASES])
    def test_matches_the_bar_complex(self, orders, degree):
        rng = random.Random(sum(orders) * 31 + len(orders))
        for _ in range(2):
            table = abelian_table(orders, rng)
            closed = homology._abelian_homology(table, degree)
            bar = sparse_complex_homology(1, homology._normalized_boundaries(table, degree + 1))
            assert closed.by_degree == tuple(bar)
            assert not closed.vanishing_above

    @pytest.mark.parametrize(
        "orders, factors",
        [
            ((), []),
            ((7,), [7]),
            ((2, 6), [6, 2]),
            ((4, 4), [4, 4]),
            ((2, 3, 4, 2), [12, 2, 2]),
            ((8, 2, 9), [72, 2]),
        ],
    )
    def test_invariant_factors_from_element_orders(self, orders, factors):
        assert homology._cyclic_factors(abelian_table(orders, random.Random(5))) == factors

    def test_abelian_isotropy_builds_no_bar_complex(self, monkeypatch):
        built = record_bar_complexes(monkeypatch)
        # Z/16 to degree 3 took about 20 s on the bar complex.
        start = time.perf_counter()
        h = homology_finite(cyclic_group_groupoid(16), 3)
        assert time.perf_counter() - start < 1.0
        assert groups(h) == ["Z", "Z/16", "0", "Z/16"]
        v4 = permutation_group_groupoid(V4, 2)
        assert groups(homology_finite(v4, 3)) == ["Z", "Z/2 + Z/2", "Z/2", "Z/2 + Z/2 + Z/2"]
        assert built == []

    def test_abelian_and_nonabelian_orbits_sum(self, monkeypatch):
        v4 = permutation_group_groupoid(V4)
        s3 = permutation_group_groupoid(S3, 2)
        parts = zip(homology_finite(v4, 3).by_degree, homology_finite(s3, 3).by_degree)
        expected = tuple([FgAbelianGroup.sum(pair) for pair in parts])
        built = record_bar_complexes(monkeypatch)
        h = homology_finite(disjoint_union_groupoids(v4, s3), 3)
        assert h.by_degree == expected
        assert groups(h) == ["Z^2", "Z/2 + Z/2 + Z/2", "Z/2", "Z/2 + Z/2 + Z/2 + Z/6"]
        assert built == [6]


class TestNonabelianBarComplex:
    """Nonabelian isotropy goes through the normalized bar complex.  The
    values are the integral homology of the small nonabelian groups."""

    @pytest.mark.parametrize(
        "generators, expected",
        [
            (S3, ["Z", "Z/2", "0", "Z/6"]),
            (D8, ["Z", "Z/2 + Z/2", "Z/2", "Z/2 + Z/2 + Z/4"]),
            (Q8, ["Z", "Z/2 + Z/2", "0", "Z/8"]),
            # A_4's d_4 is 1,331 x 14,641; its elimination takes under 1 s.
            (A4, ["Z", "Z/3", "Z/2", "Z/6"]),
        ],
        ids=["S3", "D8", "Q8", "A4"],
    )
    def test_small_groups(self, monkeypatch, generators, expected):
        g = permutation_group_groupoid(generators)
        built = record_bar_complexes(monkeypatch)
        assert groups(homology_finite(g, len(expected) - 1)) == expected
        assert built == [len(g.arrows)]


MODELS_DIR = Path(__file__).resolve().parent.parent / "models"


class TestStationaryHomology:
    def test_sft_boundary_is_one_minus_the_transpose(self):
        # A is not symmetric, so a dropped transpose changes d_1.
        a = M([[1, 2, 0, 0], [1, 0, 3, 0], [2, 1, 1, 1], [0, 0, 1, 2]])
        rows, boundaries, tails = homology.sft_complex(SftModel(a))
        assert (rows, tails) == (4, {})
        assert boundaries == [columns(add(identity(4), scale(transpose(a), -1)))]

    def test_tailed_degree_is_the_colimit(self):
        tail = M([[0, 1, 0], [0, 0, 0], [0, 0, 2]])
        h = homology.stationary_homology(3, [[{}]], {0: tail})
        assert h.by_degree == (ColimitInvariants(rank=1), Z(1))
        assert h.vanishing_above

    def test_every_degree_up_to_the_top_chain_group(self):
        # The real projective plane, closed by the empty boundary above C_2.
        h = homology.stationary_homology(1, [[{}], [{0: 2}]], {})
        assert groups(h) == ["Z", "Z/2", "0"]
        assert h.entry(3) == FgAbelianGroup.zero()

    def test_shipped_tails_sit_on_degrees_with_zero_boundaries(self, monkeypatch):
        calls = record_calls(monkeypatch, homology.stationary_homology)
        for path in sorted(MODELS_DIR.glob("*.json")):
            doc = json.loads(path.read_text(encoding="utf-8"))
            if "model" in doc:
                invariants(parse_model(doc), max_degree=2).homology()
        assert any(tails for _, _, tails in calls)
        for rows, boundaries, tails in calls:
            ranks = [rows] + [len(d) for d in boundaries]
            for n, tail in tails.items():
                assert (tail.rows, tail.cols) == (ranks[n], ranks[n])
                # d_n out of C_n and d_(n+1) into it, where they exist.
                touching = boundaries[max(n - 1, 0) : n + 1]
                assert not any(column for d in touching for column in d), (n, boundaries)


class TestSftHomology:
    def test_full_two_shift(self):
        h = invariants(SftModel(M([[1, 1], [1, 1]]))).homology()
        assert groups(h) == ["0", "0"]
        assert h.vanishing_above
        assert h.entry(17) == FgAbelianGroup.zero()

    def test_full_three_shift(self):
        assert groups(invariants(SftModel(M([[3]]))).homology()) == ["Z/2", "0"]

    def test_fixed_point(self):
        assert groups(invariants(SftModel(M([[1]]))).homology()) == ["Z", "Z"]

    def test_golden_mean_shift(self):
        assert groups(invariants(SftModel(M([[1, 1], [1, 0]]))).homology()) == ["0", "0"]

    def test_cycles_look_like_circles(self):
        for length in range(1, 6):
            perm = [[1 if j == (i + 1) % length else 0 for j in range(length)] for i in range(length)]
            h = invariants(SftModel(M(perm))).homology()
            assert groups(h) == ["Z", "Z"]

    def test_invalid_matrix_rejected(self):
        with pytest.raises(ModelInvalid):
            invariants(SftModel(M([[0]]))).homology()


class TestAfHomology:
    def test_stationary_doubling(self):
        h = invariants(BratteliModel((1,), (), M([[2]]))).homology()
        assert h.vanishing_above
        assert h.by_degree == (ColimitInvariants(rank=1),)
        assert h.entry(1) == FgAbelianGroup.zero()

    def test_not_finitely_generated_entries(self):
        h = invariants(BratteliModel((1,), (), M([[2]]))).homology()
        assert not h.all_finitely_generated()


class TestCantorZHomology:
    def odometer(self) -> CantorZModel:
        return CantorZModel(BratteliModel((1,), (), M([[2]])))

    def test_odometer(self):
        h = invariants(self.odometer()).homology()
        assert h.vanishing_above
        assert h.rank(0) == 1
        assert h.by_degree[1] == Z(1)

    def test_simplicity_gate(self):
        single = CantorZModel(BratteliModel((1,), (), M([[1]])))
        with pytest.raises(SimplicityNotCertified):
            invariants(single).homology()
        never = CantorZModel(BratteliModel((2,), (), M([[1, 1], [0, 1]])))
        with pytest.raises(SimplicityNotCertified):
            invariants(never).homology()

    def test_primitive_tail_with_a_zero_entry_is_certified(self):
        fib_tail = CantorZModel(BratteliModel((2,), (), M([[1, 1], [1, 0]])))
        assert invariants(fib_tail).homology().rank(0) == 2


class TestKunneth:
    def test_two_circles(self):
        circle = invariants(SftModel(M([[1]]))).homology()
        torus = homology_product(circle, circle)
        assert groups(torus) == ["Z", "Z^2", "Z", "0"]
        assert torus.vanishing_above

    def test_exact_factors_give_the_exact_product_whatever_the_degree(self):
        circle = invariants(SftModel(M([[1]]))).homology()
        torus = homology_product(circle, circle, max_degree=1)
        assert torus == homology_product(circle, circle)
        assert torus.vanishing_above
        assert torus.entry(2) == Z(1)

    def test_torsion_product(self):
        h = invariants(
            ProductModel(cyclic_group_groupoid(2), cyclic_group_groupoid(2)), max_degree=2
        ).homology()
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

    def test_colimit_entries_give_ranks_without_rational_only(self):
        af = invariants(BratteliModel((1,), (), M([[2]]))).homology()
        circle = invariants(SftModel(M([[1]]))).homology()
        for left, right in ((af, af), (af, circle), (circle, af)):
            h = homology_product(left, right, max_degree=1)
            assert all(isinstance(v, ColimitInvariants) for v in h.by_degree)
        assert [v.rank for v in homology_product(af, circle).by_degree] == [1, 1, 0]

    def test_rational_mode_convolves_ranks(self):
        # Colimit-valued factors put the product on ranks alone: an exact
        # product, with no max_degree, whose entries are ranks.
        af = invariants(BratteliModel((1,), (), M([[3]]))).homology()
        h = homology_product(af, af)
        assert [v.rank for v in h.by_degree] == [1, 0]
        assert all(isinstance(v, ColimitInvariants) for v in h.by_degree)


class TestDispatch:
    def test_product_of_odometers_falls_back_to_ranks(self):
        odo = CantorZModel(BratteliModel((1,), (), M([[2]])))
        h = invariants(ProductModel(odo, odo)).homology()
        assert h.vanishing_above
        assert [h.rank(n) for n in range(4)] == [1, 2, 1, 0]
        assert not h.all_finitely_generated()

    def test_exact_product_when_factors_allow(self):
        h = invariants(ProductModel(SftModel(M([[1]])), SftModel(M([[1]])))).homology()
        assert h.all_finitely_generated()
        assert groups(h) == ["Z", "Z^2", "Z", "0"]

    def test_finite_truncation_respected(self):
        h = invariants(cyclic_group_groupoid(2), max_degree=1).homology()
        assert groups(h) == ["Z", "Z/2"]
        with pytest.raises(TruncationUnsound):
            h.entry(2)

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            invariants(object()).homology()
