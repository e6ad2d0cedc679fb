"""Model-class records, operator K-theory, and the one walk over a model tree.

Each leaf model class has one record (``ModelClass``, in ``RECORDS``): its
document kind and summary, whether its stabilizers are torsion-free and on
what authority, why it satisfies Baum-Connes, its homology closed form and
its K-theory.  K is read off H by default, as the even and odd sums of an
exact grading that stops at degree 1: the Cuntz-Krieger groups of a shift
of finite type, the dimension group of an AF algebra, the dimension group
plus a copy of Z for a Cantor minimal Z-system.  Finite groupoids override
it: a principal one has one matrix algebra per orbit, so K needs no nerve.
Adding a model class means adding one record here and one parser branch in
``modelio``.

``periodicize`` folds a graded group into its even and odd direct sums.  It
reads K off H, and it gives the two-periodic Kunneth formula for K: the fold
of ``homology_product`` applied to the two-term groups (K_0, K_1).

``invariants`` is the one walk over a model tree.  It finds each node's
summary, isotropy and Baum-Connes justification at once, and its H and K
when asked; each leaf's closed form runs at most once per walk, whichever
side asks first.
"""

from __future__ import annotations

from collections.abc import Callable

from ._record import Record
from .colimits import ColimitInvariants
from .errors import NotPrincipal
from .exact_linalg import FgAbelianGroup
from .homology import (
    DEFAULT_SIZE_BOUND,
    GradedGroup,
    GroupValue,
    homology_af,
    homology_cantor_z,
    homology_finite,
    homology_product,
    homology_sft,
)
from .models import (
    BratteliModel,
    CantorZModel,
    FiniteGroupoid,
    GroupoidModel,
    ProductModel,
    SftModel,
    _units_with_isotropy,
    orbits,
)

__all__ = [
    "Invariants",
    "KPair",
    "ModelClass",
    "Precondition",
    "RECORDS",
    "invariants",
    "k_finite_principal",
    "k_product",
    "periodicize",
    "record_of",
]


class Precondition(Record):
    """One hypothesis of the comparison theorem, with its status and source.

    ``mode`` is "computed" when the fact was checked on the model (finite
    tables) and "declared" when the class carries it by citation.
    """

    __slots__ = ("name", "holds", "mode", "justification")


class KPair(Record):
    """K_0 and K_1 of a model's reduced groupoid C*-algebra."""

    __slots__ = ("k0", "k1")

    def all_finitely_generated(self) -> bool:
        return isinstance(self.k0, FgAbelianGroup) and isinstance(self.k1, FgAbelianGroup)


def k_finite_principal(g: FiniteGroupoid) -> KPair:
    """K-theory of a principal finite groupoid.

    Such a groupoid is a disjoint union of pair groupoids, its algebra a
    direct sum of one matrix algebra per orbit, so K_0 is free on the orbits
    and K_1 vanishes.  Nontrivial isotropy anywhere raises NotPrincipal.
    """
    offenders = _units_with_isotropy(g)
    if offenders:
        listing = ", ".join(repr(u) for u in offenders)
        raise NotPrincipal(f"nontrivial stabilizers at units {listing}")
    return KPair(FgAbelianGroup.free(len(orbits(g))), FgAbelianGroup.zero())


def periodicize(h: GradedGroup) -> KPair:
    """Direct sums of the even and of the odd listed degrees of ``h``.

    A parity with a colimit-valued entry keeps only its total rank.  For a
    truncation the sums stop at its top degree; ``hk_check`` reports that
    degree with the verdict.
    """

    def fold(values: tuple[GroupValue, ...]) -> GroupValue:
        if all(isinstance(v, FgAbelianGroup) for v in values):
            return FgAbelianGroup.sum(values)
        return ColimitInvariants(rank=sum(v.rank for v in values))

    return KPair(fold(h.by_degree[0::2]), fold(h.by_degree[1::2]))


def k_product(left: KPair, right: KPair) -> KPair:
    """Two-periodic Kunneth formula for the K-theory of a tensor product.

    It is the parity fold of the Kunneth formula for homology applied to
    the exact two-term groups (K_0, K_1): Tor shifts the parity by one.
    A factor with colimit-valued K-theory keeps just the ranks.
    """
    return periodicize(
        homology_product(
            GradedGroup((left.k0, left.k1), vanishing_above=True),
            GradedGroup((right.k0, right.k1), vanishing_above=True),
        )
    )


# ---------------------------------------------------------------------------
# one record per leaf model class


class ModelClass(Record):
    """Everything class-specific about one leaf model class.

    ``kind`` is the class's ``model`` tag in documents, and a model's summary
    is ``kind(describe(model))``.  ``homology(model, max_degree, size_bound)``
    is the closed form; a finite groupoid's is truncated at ``max_degree``,
    its abelian isotropy groups taking the cyclic closed form and Kunneth,
    the others the normalized bar complex.  ``ktheory`` forms K from the
    model alone; when it is None, K is read off H by ``periodicize``.
    """

    __slots__ = ("kind", "describe", "isotropy", "baum_connes", "homology", "ktheory")


def _torsion_free(holds: bool, mode: str, justification: str) -> Precondition:
    return Precondition("torsion_free_isotropy", holds, mode, justification)


def _declared(justification: str) -> Callable[[object], Precondition]:
    fact = _torsion_free(True, "declared", justification)
    return lambda model: fact


def _finite_isotropy(g: FiniteGroupoid) -> Precondition:
    torsion_units = _units_with_isotropy(g)
    if torsion_units:
        listing = ", ".join(repr(u) for u in torsion_units)
        return _torsion_free(
            False,
            "computed",
            f"nontrivial finite stabilizers at units {listing}; a finite group "
            "with more than one element has torsion",
        )
    return _torsion_free(
        True, "computed", "every stabilizer is trivial (the groupoid is principal)"
    )


RECORDS: dict[type, ModelClass] = {
    FiniteGroupoid: ModelClass(
        kind="finite",
        describe=lambda g: f"{len(g.units)} units, {len(g.arrows)} arrows",
        isotropy=_finite_isotropy,
        baum_connes=(
            "finite groupoids are amenable, and amenable groupoids satisfy the "
            "Baum-Connes conjecture (Tu)"
        ),
        homology=homology_finite,
        ktheory=k_finite_principal,
    ),
    SftModel: ModelClass(
        kind="sft",
        describe=lambda m: f"{m.matrix.rows} vertices",
        isotropy=_declared(
            "isotropy of a one-sided shift-of-finite-type groupoid is trivial or "
            "infinite cyclic (eventually periodic points), hence torsion-free"
        ),
        baum_connes=(
            "shift-of-finite-type groupoids are amenable, hence satisfy Baum-Connes "
            "(Tu); Matui established the integral comparison for this class"
        ),
        homology=lambda m, max_degree, size_bound: homology_sft(m),
        ktheory=None,
    ),
    BratteliModel: ModelClass(
        kind="af",
        describe=lambda b: f"{len(b.level_sizes)} levels, tail {b.tail.rows}",
        isotropy=_declared("AF groupoids are principal: all stabilizers are trivial"),
        baum_connes=(
            "AF groupoids are amenable, hence satisfy Baum-Connes (Tu); Matui "
            "established the integral comparison for this class"
        ),
        homology=lambda b, max_degree, size_bound: homology_af(b),
        ktheory=None,
    ),
    CantorZModel: ModelClass(
        kind="cantor_z",
        describe=lambda c: f"tail {c.diagram.tail.rows}",
        isotropy=_declared(
            "stabilizers of a Cantor minimal Z-system embed in Z, hence are torsion-free"
        ),
        baum_connes=(
            "transformation groupoids of Cantor minimal Z-systems are amenable, hence "
            "satisfy Baum-Connes (Tu); Matui established the integral comparison for "
            "this class"
        ),
        homology=lambda c, max_degree, size_bound: homology_cantor_z(c),
        ktheory=None,
    ),
}


def record_of(model: GroupoidModel) -> ModelClass:
    """The record of a leaf model's class; TypeError for anything else."""
    try:
        return RECORDS[type(model)]
    except KeyError:
        raise TypeError(f"unknown model type {type(model).__name__}") from None


# ---------------------------------------------------------------------------
# the walk


class Invariants(Record):
    """What one walk found about a model.

    ``homology()`` and ``ktheory()`` compute their side on first call and
    return the same value after.
    """

    __slots__ = ("summary", "isotropy", "baum_connes", "homology", "ktheory")


def invariants(
    model: GroupoidModel,
    max_degree: int = 3,
    size_bound: int = DEFAULT_SIZE_BOUND,
) -> Invariants:
    """Summary, preconditions, and H and K on demand, of any model in one walk.

    A leaf's closed form runs at most once, when its H is asked for or its K
    is read off H; a finite groupoid's K-theory builds no nerve.  Products
    assemble their factors with ``homology_product`` and ``k_product``.
    """
    if isinstance(model, ProductModel):
        left = invariants(model.left, max_degree, size_bound)
        right = invariants(model.right, max_degree, size_bound)
        li, ri = left.isotropy, right.isotropy
        return Invariants(
            summary=f"product({left.summary}, {right.summary})",
            isotropy=_torsion_free(
                li.holds and ri.holds,
                "computed" if li.mode == ri.mode == "computed" else "declared",
                "stabilizers of a product are products of factor stabilizers; "
                f"left: {li.justification}; right: {ri.justification}",
            ),
            baum_connes=(
                "products of amenable groupoids are amenable, hence satisfy "
                "Baum-Connes (Tu)"
            ),
            homology=_once(lambda: homology_product(left.homology(), right.homology(), max_degree)),
            ktheory=_once(lambda: k_product(left.ktheory(), right.ktheory())),
        )
    record = record_of(model)
    homology = _once(lambda: record.homology(model, max_degree, size_bound))
    return Invariants(
        summary=f"{record.kind}({record.describe(model)})",
        isotropy=record.isotropy(model),
        baum_connes=record.baum_connes,
        homology=homology,
        ktheory=_once(
            lambda: record.ktheory(model) if record.ktheory else periodicize(homology())
        ),
    )


def _once(compute: Callable[[], object]) -> Callable[[], object]:
    """A function returning ``compute()``, computed on its first call only."""
    found: list = []

    def value() -> object:
        if not found:
            found.append(compute())
        return found[0]

    return value
