"""Homology of groupoid models.

Finite groupoids get a chain-level computation on a smaller complex with the
same homology.  Groupoid homology is invariant under equivalence (Matui,
"Homology and topological full groups of etale groupoids on totally
disconnected spaces", Proc. LMS 2012; Crainic and Moerdijk, "A homology
theory for etale groupoids", Crelle 2000), so the groupoid is first cut down
to its skeleton, one unit per orbit, whose homology is the direct sum of the
isotropy groups' homology.  Its nerve is then normalized: cells containing an
identity arrow span an acyclic subcomplex and are dropped.  Boundary matrices
are alternating sums of the remaining face maps, and
``exact_linalg.complex_homology`` reads every degree off one cokernel per
boundary.  ``boundary_matrix`` still gives the boundaries of the full nerve,
which the tests use as the oracle.  The symbolic classes use their known
closed forms: a two-term complex for shifts of finite type, the
dimension-group colimit for AF models, the colimit plus one copy of Z for
Cantor minimal Z-systems.  Products use the Kunneth formula
(``homology_product``), on presented groups when both factors have them and
on ranks otherwise; it is exact when both factors are, and truncated at the
asked-for degree otherwise.

This module holds the closed forms only.  Which one a model gets is part of
its class's record in ``ktheory``, whose walk (``ktheory.invariants``, or
the wrapper ``ktheory.homology_of_model``) assembles products with
``homology_product``; ``ktheory.k_product`` applies the same formula to the
two-term groups (K_0, K_1).

Every model checked its axioms when it was built, so the engines take their
input as valid.  The one hypothesis checked here is the simplicity
certificate of a Cantor minimal Z-system, which a well-formed diagram can
fail (SimplicityNotCertified).

Results are graded groups whose entries are either finitely generated groups
in canonical form or, when the group has no finite presentation or torsion
was dropped in rational-only mode, values known only by their rank.
"""

from __future__ import annotations

from typing import Union

from ._record import Record, setfield
from .colimits import ColimitInvariants, colimit_invariants
from .errors import SimplicityNotCertified, TruncationUnsound
from .exact_linalg import FgAbelianGroup, IntMatrix, cokernel, complex_homology
from .models import (
    BratteliModel,
    CantorZModel,
    FiniteGroupoid,
    NerveLevel,
    SftModel,
    dimension_system,
    nerve_levels,
    orbits,
    simplicity_certificate,
)

__all__ = [
    "DEFAULT_SIZE_BOUND",
    "GradedGroup",
    "GroupValue",
    "boundary_matrix",
    "boundary_matrix_from_levels",
    "homology_af",
    "homology_cantor_z",
    "homology_finite",
    "homology_product",
    "homology_sft",
]

GroupValue = Union[FgAbelianGroup, ColimitInvariants]

DEFAULT_SIZE_BOUND = 200_000


class GradedGroup(Record):
    """Graded abelian group, one entry per degree starting at 0.

    ``vanishing_above`` asserts that every degree past the listed ones is
    zero; it is exact for the symbolic model classes and never claimed for
    finite-groupoid computations, which are truncations.
    """

    __slots__ = ("by_degree", "vanishing_above")

    def __init__(self, by_degree: tuple[GroupValue, ...], vanishing_above: bool) -> None:
        setfield(self, "by_degree", by_degree)
        setfield(self, "vanishing_above", vanishing_above)

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
        return self.entry(degree).rank

    def all_finitely_generated(self) -> bool:
        return all(isinstance(v, FgAbelianGroup) for v in self.by_degree)


# ---------------------------------------------------------------------------
# finite groupoids: bar complex


def boundary_matrix_from_levels(levels: list[NerveLevel], n: int) -> IntMatrix:
    """Boundary from degree n to n-1, as the signed sum of face transfers.

    The transfer of a face map sends an n-cell basis vector to the basis
    vector of its image cell, and the boundary adds these with alternating
    signs; the entry at (c, t) is the signed count of faces of t equal to c.
    A face index of -1 marks a face that is zero in the complex (a dropped
    degenerate cell) and contributes nothing.
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
            if c >= 0:
                flat[c * cols + t] += sign
        sign = -sign
    return IntMatrix(rows, cols, tuple(flat))


def boundary_matrix(g: FiniteGroupoid, n: int) -> IntMatrix:
    """Boundary matrix of the bar complex of ``g`` at degree n."""
    return boundary_matrix_from_levels(nerve_levels(g, n), n)


def _skeleton(g: FiniteGroupoid) -> FiniteGroupoid:
    """The full subgroupoid on the first unit of each orbit, in ``g.units``
    order: one isotropy group per orbit, equivalent to ``g``."""
    position = {u: i for i, u in enumerate(g.units)}
    reps = {min(orbit, key=position.__getitem__) for orbit in orbits(g)}
    arrows = tuple(a for a in g.arrows if a[1] in reps and a[2] in reps)
    kept = {a[0] for a in arrows}
    return FiniteGroupoid(
        tuple(u for u in g.units if u in reps),
        arrows,
        {pair: c for pair, c in g.compose.items() if pair[0] in kept and pair[1] in kept},
        {a: b for a, b in g.inverse.items() if a in kept},
    )


def _normalized(levels: list[NerveLevel], g: FiniteGroupoid) -> list[NerveLevel]:
    """The levels without the cells that contain an identity arrow.

    Faces are re-indexed into the kept cells of the level below; a face that
    lands on a dropped cell becomes -1.  In a groupoid the identities are
    exactly the arrows e with e.e = e.
    """
    names = g.arrow_names()
    identities = {i for i, a in enumerate(names) if g.compose.get((a, a)) == a}
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


def homology_finite(
    g: FiniteGroupoid,
    max_degree: int,
    size_bound: int = DEFAULT_SIZE_BOUND,
) -> GradedGroup:
    """Bar-complex homology of a finite groupoid, degrees 0..max_degree.

    The complex is the normalized bar complex of the skeleton: one unit per
    orbit (the first in ``g.units`` order), and no nerve cell containing an
    identity arrow.  Both steps keep the homology: it is invariant under
    groupoid equivalence (Matui, Proc. LMS 2012; Crainic and Moerdijk, Crelle
    2000), and the degenerate cells span an acyclic subcomplex.  The
    skeleton's nerve levels up to max_degree + 1 are built; raises
    SizeBoundExceeded when one of them outgrows ``size_bound``.  The result
    is a truncation: finite groupoids can have homology in arbitrarily high
    degrees.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    skeleton = _skeleton(g)
    levels = _normalized(nerve_levels(skeleton, max_degree + 1, size_bound=size_bound), skeleton)
    boundaries = [boundary_matrix_from_levels(levels, n) for n in range(1, max_degree + 2)]
    return GradedGroup(tuple(complex_homology(boundaries)), vanishing_above=False)


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
    h0 = cokernel(_sft_complex_matrix(model))
    return GradedGroup((h0, FgAbelianGroup.free(h0.rank)), vanishing_above=True)


def homology_af(model: BratteliModel) -> GradedGroup:
    """Homology of an AF groupoid: the dimension-group colimit in degree 0."""
    h0 = colimit_invariants(dimension_system(model))
    return GradedGroup((h0,), vanishing_above=True)


def homology_cantor_z(model: CantorZModel) -> GradedGroup:
    """Homology of a Cantor minimal Z-system presented by a Bratteli diagram.

    Degree 0 is the dimension-group colimit (the coinvariants of the action);
    degree 1 is a single copy of Z, the class of the invariant: minimality
    makes the only invariant functions the constants.  Raises
    SimplicityNotCertified when the diagram is not simple (its tail is not
    primitive) or its path space is a single point.
    """
    ok, why = simplicity_certificate(model.diagram.tail)
    if not ok:
        raise SimplicityNotCertified(why)
    h0 = colimit_invariants(dimension_system(model.diagram))
    return GradedGroup((h0, FgAbelianGroup.free(1)), vanishing_above=True)


# ---------------------------------------------------------------------------
# products


def homology_product(
    left: GradedGroup,
    right: GradedGroup,
    max_degree: int | None = None,
    rational_only: bool = False,
) -> GradedGroup:
    """Kunneth assembly of a product from the factors' homology.

    Degree n collects tensor products of factor degrees summing to n plus the
    torsion products (Tor) of degrees summing to n - 1.  The product is exact
    when both factors vanish above their listed degrees, whatever
    ``max_degree`` says; otherwise it is truncated at ``max_degree``, which
    must then be given.  In rational-only mode, or when a factor has a
    colimit-valued entry (no finite presentation to tensor), torsion is
    dropped: ranks multiply and convolve, Tor contributes nothing, and
    entries come back as ranks rather than presented groups.
    """
    vanishing = left.vanishing_above and right.vanishing_above
    if vanishing:
        max_degree = left.max_degree + right.max_degree + 1
    elif max_degree is None:
        raise TruncationUnsound("a truncated factor needs an explicit max_degree for the product")

    if not rational_only and left.all_finitely_generated() and right.all_finitely_generated():
        entries: list[GroupValue] = []
        for n in range(max_degree + 1):
            total = FgAbelianGroup.zero()
            for p in range(n + 1):
                total = total.direct_sum(left.entry(p).tensor(right.entry(n - p)))
            for p in range(n):
                total = total.direct_sum(left.entry(p).tor(right.entry(n - 1 - p)))
            entries.append(total)
        return GradedGroup(tuple(entries), vanishing_above=vanishing)

    ranks = tuple(
        ColimitInvariants(rank=sum(left.rank(p) * right.rank(n - p) for p in range(n + 1)))
        for n in range(max_degree + 1)
    )
    return GradedGroup(ranks, vanishing_above=vanishing)
