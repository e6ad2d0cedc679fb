"""Operator K-theory of the model classes.

For the symbolic classes K_0 and K_1 are the groupoid homology in degrees 0
and 1, read off the one closed form in ``homology``: Cuntz-Krieger groups for
shifts of finite type, the dimension group for AF algebras, the dimension
group plus a copy of Z for crossed products of Cantor minimal Z-systems.
Principal finite groupoids get the K-theory of a direct sum of matrix
algebras, one per orbit.  ``k_of_leaf`` is the one place where a leaf's
K-theory is formed.  Products use the two-periodic Kunneth formula, where the
Tor terms shift parity by one, on presented groups when both factors have
them and on ranks otherwise.

``homology_and_ktheory`` walks a model tree once and returns both sides of
the rank comparison, so each leaf's closed form is evaluated once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .colimits import ColimitInvariants
from .errors import NotPrincipal
from .exact_linalg import FgAbelianGroup
from .homology import (
    DEFAULT_SIZE_BOUND,
    GradedGroup,
    GroupValue,
    homology_of_factors,
    homology_of_leaf,
)
from .models import (
    FiniteGroupoid,
    GroupoidModel,
    ProductModel,
    _units_with_isotropy,
    orbits,
)

__all__ = [
    "KPair",
    "homology_and_ktheory",
    "k_finite_principal",
    "k_of_leaf",
    "k_product",
    "ktheory_of_model",
]


@dataclass(frozen=True)
class KPair:
    """K_0 and K_1 of a model's reduced groupoid C*-algebra."""

    k0: GroupValue
    k1: GroupValue

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


def k_product(left: KPair, right: KPair, rational_only: bool = False) -> KPair:
    """Two-periodic Kunneth formula for the K-theory of a tensor product.

    Even part: even (x) even, odd (x) odd, and Tor of opposite parities.
    Odd part: mixed tensors and Tor of equal parities; Tor always shifts the
    parity by one.  Rational-only mode, or a factor with colimit-valued
    K-theory (no finite presentation to tensor), keeps just the ranks.
    """
    if rational_only or not (left.all_finitely_generated() and right.all_finitely_generated()):
        a0, a1 = left.k0.rank, left.k1.rank
        b0, b1 = right.k0.rank, right.k1.rank
        return KPair(
            ColimitInvariants(rank=a0 * b0 + a1 * b1),
            ColimitInvariants(rank=a0 * b1 + a1 * b0),
        )
    a0, a1 = left.k0, left.k1
    b0, b1 = right.k0, right.k1
    k0 = a0.tensor(b0).direct_sum(a1.tensor(b1)).direct_sum(a0.tor(b1)).direct_sum(a1.tor(b0))
    k1 = a0.tensor(b1).direct_sum(a1.tensor(b0)).direct_sum(a0.tor(b0)).direct_sum(a1.tor(b1))
    return KPair(k0, k1)


def k_of_leaf(model: GroupoidModel, h: GradedGroup | None = None) -> KPair:
    """K-theory of a model that is not a product.

    A finite groupoid takes it from its orbits (``k_finite_principal``).  The
    symbolic classes read K_i off their homology in degree i: ``h`` when the
    caller has already computed it, otherwise the class's closed form.
    """
    if isinstance(model, FiniteGroupoid):
        return k_finite_principal(model)
    if h is None:
        h = homology_of_leaf(model)
    return KPair(h.entry(0), h.entry(1))


def ktheory_of_model(
    model: GroupoidModel,
    rational_only: bool = False,
) -> KPair:
    """K-theory of any model, dispatching on its class.

    Leaves go through ``k_of_leaf``; products recurse into their factors
    and assemble them with ``k_product``.
    """
    if isinstance(model, ProductModel):
        left = ktheory_of_model(model.left, rational_only=rational_only)
        right = ktheory_of_model(model.right, rational_only=rational_only)
        return k_product(left, right, rational_only=rational_only)
    return k_of_leaf(model)


def homology_and_ktheory(
    model: GroupoidModel,
    max_degree: int = 3,
    size_bound: int = DEFAULT_SIZE_BOUND,
    rational_only: bool = False,
    with_k: bool = True,
) -> tuple[GradedGroup, KPair | None]:
    """Homology of any model and, when ``with_k``, its K-theory, in one walk.

    Each leaf's homology is computed once and its K-theory read off it by
    ``k_of_leaf``; products assemble the factors with ``homology_of_factors``
    and ``k_product``.  Without ``with_k`` the K-theory is None.
    """
    if isinstance(model, ProductModel):
        left_h, left_k = homology_and_ktheory(
            model.left, max_degree, size_bound, rational_only, with_k
        )
        right_h, right_k = homology_and_ktheory(
            model.right, max_degree, size_bound, rational_only, with_k
        )
        h = homology_of_factors(left_h, right_h, max_degree, rational_only=rational_only)
        if not with_k:
            return h, None
        return h, k_product(left_k, right_k, rational_only=rational_only)
    h = homology_of_leaf(model, max_degree=max_degree, size_bound=size_bound)
    return h, k_of_leaf(model, h) if with_k else None
