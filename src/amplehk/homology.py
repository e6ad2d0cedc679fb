"""Homology of groupoid models.

Finite groupoids get the honest chain-level computation: enumerate the nerve,
form boundary matrices as alternating sums of face maps pushed forward by
counting preimages, and run Smith reduction degree by degree.  The symbolic
classes use their known closed forms: a two-term complex for shifts of finite
type, the dimension-group colimit for AF models, the colimit plus one copy of
Z for Cantor minimal Z-systems, and a Kunneth assembly for products.

Results are graded groups whose entries are either finitely generated groups
in canonical form or colimit invariants (rank plus torsion certificate) when
the group has no finite presentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .colimits import ColimitInvariants, colimit_invariants
from .errors import (
    ModelInvalid,
    NotFinitelyGenerated,
    SimplicityNotCertified,
    TruncationUnsound,
)
from .exact_linalg import FgAbelianGroup, IntMatrix, chain_homology, cokernel
from .models import (
    BratteliModel,
    CantorZModel,
    FiniteGroupoid,
    GroupoidModel,
    NerveLevel,
    ProductModel,
    SftModel,
    dimension_system,
    nerve_levels,
    simplicity_certificate,
    validate_model,
)

__all__ = [
    "DEFAULT_SIZE_BOUND",
    "GradedGroup",
    "GroupValue",
    "boundary_matrix",
    "boundary_matrix_from_levels",
    "group_rank",
    "homology_af",
    "homology_cantor_z",
    "homology_finite",
    "homology_of_model",
    "homology_product",
    "homology_sft",
]

GroupValue = Union[FgAbelianGroup, ColimitInvariants]

DEFAULT_SIZE_BOUND = 200_000


def group_rank(value: GroupValue) -> int:
    return value.rank


def _is_fg(value: GroupValue) -> bool:
    return isinstance(value, FgAbelianGroup)


def _is_torsion_free(value: GroupValue) -> bool:
    if isinstance(value, FgAbelianGroup):
        return value.is_torsion_free
    return value.torsion_free


@dataclass(frozen=True)
class GradedGroup:
    """Graded abelian group, one entry per degree starting at 0.

    ``vanishing_above`` asserts that every degree past the listed ones is
    zero; it is exact for the symbolic model classes and never claimed for
    finite-groupoid computations, which are truncations.
    """

    by_degree: tuple[GroupValue, ...]
    vanishing_above: bool

    @property
    def max_degree(self) -> int:
        return len(self.by_degree) - 1

    def entry(self, degree: int) -> GroupValue:
        if degree < len(self.by_degree):
            return self.by_degree[degree]
        if self.vanishing_above:
            return FgAbelianGroup.zero()
        raise TruncationUnsound(
            f"degree {degree} lies beyond the computed truncation {self.max_degree}"
        )

    def rank(self, degree: int) -> int:
        return group_rank(self.entry(degree))

    def all_finitely_generated(self) -> bool:
        return all(_is_fg(v) for v in self.by_degree)


# ---------------------------------------------------------------------------
# finite groupoids: bar complex


def boundary_matrix_from_levels(levels: list[NerveLevel], n: int) -> IntMatrix:
    """Boundary from degree n to n-1, as the signed sum of face transfers.

    The transfer of a face map sends an n-cell basis vector to the basis
    vector of its image cell, and the boundary adds these with alternating
    signs; the entry at (c, t) is the signed count of faces of t equal to c.
    """
    if n < 1:
        raise ValueError("boundary starts at degree 1")
    level = levels[n]
    below = levels[n - 1]
    rows, cols = below.size(), level.size()
    flat = [0] * (rows * cols)
    sign = 1
    for face in level.faces:
        for t, c in enumerate(face):
            flat[c * cols + t] += sign
        sign = -sign
    return IntMatrix(rows, cols, tuple(flat))


def boundary_matrix(g: FiniteGroupoid, n: int) -> IntMatrix:
    """Boundary matrix of the bar complex of ``g`` at degree n."""
    return boundary_matrix_from_levels(nerve_levels(g, n), n)


def homology_finite(
    g: FiniteGroupoid,
    max_degree: int,
    size_bound: int = DEFAULT_SIZE_BOUND,
) -> GradedGroup:
    """Bar-complex homology of a finite groupoid, degrees 0..max_degree.

    Needs nerve levels up to max_degree + 1; raises SizeBoundExceeded when a
    level outgrows ``size_bound``.  The result is a truncation: finite
    groupoids can have homology in arbitrarily high degrees.
    """
    violations = validate_model(g)
    if violations:
        raise ModelInvalid(violations)
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    levels = nerve_levels(g, max_degree + 1, size_bound=size_bound)
    boundaries = [boundary_matrix_from_levels(levels, n) for n in range(1, max_degree + 2)]
    entries: list[GroupValue] = [cokernel(boundaries[0])]
    for n in range(1, max_degree + 1):
        entries.append(chain_homology(boundaries[n - 1], boundaries[n]))
    return GradedGroup(tuple(entries), vanishing_above=False)


# ---------------------------------------------------------------------------
# symbolic classes


def _sft_complex_matrix(model: SftModel) -> IntMatrix:
    a = model.matrix
    return IntMatrix.identity(a.rows) - a.transpose()


def homology_sft(model: SftModel) -> GradedGroup:
    """Homology of the shift groupoid: the two-term complex of id minus the
    transposed transition matrix; everything above degree 1 vanishes.

    The matrix is square, so its kernel has the rank of its cokernel and one
    elimination gives both degrees.
    """
    violations = validate_model(model)
    if violations:
        raise ModelInvalid(violations)
    h0 = cokernel(_sft_complex_matrix(model))
    return GradedGroup((h0, FgAbelianGroup.free(h0.rank)), vanishing_above=True)


def homology_af(model: BratteliModel, stage: int | None = None) -> GradedGroup:
    """Homology of an AF groupoid: the dimension-group colimit in degree 0."""
    violations = validate_model(model)
    if violations:
        raise ModelInvalid(violations)
    h0 = colimit_invariants(dimension_system(model), stage=stage)
    return GradedGroup((h0,), vanishing_above=True)


def homology_cantor_z(model: CantorZModel, stage: int | None = None) -> GradedGroup:
    """Homology of a Cantor minimal Z-system presented by a Bratteli diagram.

    Degree 0 is the dimension-group colimit (the coinvariants of the action);
    degree 1 is a single copy of Z, the class of the invariant: minimality
    makes the only invariant functions the constants.
    """
    shape = validate_model(model.diagram)
    if shape:
        raise ModelInvalid(shape)
    ok, why = simplicity_certificate(model.diagram.tail, model.telescope_depth)
    if not ok:
        raise SimplicityNotCertified(why)
    h0 = colimit_invariants(dimension_system(model.diagram), stage=stage)
    return GradedGroup((h0, FgAbelianGroup.free(1)), vanishing_above=True)


# ---------------------------------------------------------------------------
# products


def _require_fg_entries(h: GradedGroup, side: str) -> None:
    for d, v in enumerate(h.by_degree):
        if not _is_fg(v):
            raise NotFinitelyGenerated(
                f"{side} factor has a colimit-valued group in degree {d}; "
                "only the rational (rank-level) product is available"
            )


def homology_product(
    left: GradedGroup,
    right: GradedGroup,
    max_degree: int | None = None,
    rational_only: bool = False,
) -> GradedGroup:
    """Kunneth assembly of a product from the factors' homology.

    Degree n collects tensor products of factor degrees summing to n plus the
    torsion products (Tor) of degrees summing to n - 1.  In rational-only mode
    torsion is dropped: ranks multiply and convolve, Tor contributes nothing,
    and entries come back as rank certificates rather than presented groups.
    """
    vanishing = left.vanishing_above and right.vanishing_above
    if max_degree is None:
        if not vanishing:
            raise TruncationUnsound(
                "a truncated factor needs an explicit max_degree for the product"
            )
        max_degree = left.max_degree + right.max_degree + 1

    if not rational_only:
        _require_fg_entries(left, "left")
        _require_fg_entries(right, "right")
        entries: list[GroupValue] = []
        for n in range(max_degree + 1):
            total = FgAbelianGroup.zero()
            for p in range(n + 1):
                total = total.direct_sum(left.entry(p).tensor(right.entry(n - p)))
            for p in range(n):
                total = total.direct_sum(left.entry(p).tor(right.entry(n - 1 - p)))
            entries.append(total)
        return GradedGroup(tuple(entries), vanishing_above=vanishing)

    torsion_free = all(_is_torsion_free(v) for v in left.by_degree) and all(
        _is_torsion_free(v) for v in right.by_degree
    )
    ranks: list[GroupValue] = []
    for n in range(max_degree + 1):
        r = sum(left.rank(p) * right.rank(n - p) for p in range(n + 1))
        ranks.append(ColimitInvariants(rank=r, torsion_free=torsion_free, verified_stage=0))
    return GradedGroup(tuple(ranks), vanishing_above=vanishing)


# ---------------------------------------------------------------------------
# dispatch


def homology_of_model(
    model: GroupoidModel,
    max_degree: int = 3,
    size_bound: int = DEFAULT_SIZE_BOUND,
    stage: int | None = None,
    rational_only: bool = False,
) -> GradedGroup:
    """Homology of any model, dispatching on its class.

    Products recurse into their factors; when a factor carries colimit-valued
    entries the assembly falls back to the rational-only Kunneth formula.
    """
    if isinstance(model, FiniteGroupoid):
        return homology_finite(model, max_degree, size_bound=size_bound)
    if isinstance(model, SftModel):
        return homology_sft(model)
    if isinstance(model, BratteliModel):
        return homology_af(model, stage=stage)
    if isinstance(model, CantorZModel):
        return homology_cantor_z(model, stage=stage)
    if isinstance(model, ProductModel):
        left = homology_of_model(
            model.left, max_degree=max_degree, size_bound=size_bound, stage=stage,
            rational_only=rational_only,
        )
        right = homology_of_model(
            model.right, max_degree=max_degree, size_bound=size_bound, stage=stage,
            rational_only=rational_only,
        )
        both_vanish = left.vanishing_above and right.vanishing_above
        degree = None if both_vanish else max_degree
        if rational_only:
            return homology_product(left, right, max_degree=degree, rational_only=True)
        try:
            return homology_product(left, right, max_degree=degree)
        except NotFinitelyGenerated:
            return homology_product(left, right, max_degree=degree, rational_only=True)
    raise TypeError(f"unknown model type {type(model).__name__}")
