"""Operator K-theory of the model classes.

For the symbolic classes K_0 and K_1 are the groupoid homology in degrees 0
and 1, read off the one closed form in ``homology``: Cuntz-Krieger groups for
shifts of finite type, the dimension group for AF algebras, the dimension
group plus a copy of Z for crossed products of Cantor minimal Z-systems.
Principal finite groupoids get the K-theory of a direct sum of matrix
algebras, one per orbit.  Products use the two-periodic Kunneth formula,
where the Tor terms shift parity by one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .colimits import ColimitInvariants
from .errors import ModelInvalid, NotFinitelyGenerated, NotPrincipal
from .exact_linalg import FgAbelianGroup
from .homology import GroupValue, group_rank, homology_of_model
from .models import (
    BratteliModel,
    CantorZModel,
    FiniteGroupoid,
    GroupoidModel,
    ProductModel,
    SftModel,
    identity_arrows,
    orbits,
    validate_model,
)

__all__ = [
    "KPair",
    "k_finite_principal",
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
    violations = validate_model(g)
    if violations:
        raise ModelInvalid(violations)
    idents = set(identity_arrows(g).values())
    offenders = sorted({src for name, src, tgt in g.arrows if src == tgt and name not in idents})
    if offenders:
        listing = ", ".join(repr(u) for u in offenders)
        raise NotPrincipal(f"nontrivial stabilizers at units {listing}")
    return KPair(FgAbelianGroup.free(len(orbits(g))), FgAbelianGroup.zero())


def k_product(left: KPair, right: KPair, rational_only: bool = False) -> KPair:
    """Two-periodic Kunneth formula for the K-theory of a tensor product.

    Even part: even (x) even, odd (x) odd, and Tor of opposite parities.
    Odd part: mixed tensors and Tor of equal parities; Tor always shifts the
    parity by one.  Rational-only mode keeps just the ranks.
    """
    if rational_only:
        r0 = group_rank(left.k0) * group_rank(right.k0) + group_rank(left.k1) * group_rank(right.k1)
        r1 = group_rank(left.k0) * group_rank(right.k1) + group_rank(left.k1) * group_rank(right.k0)
        torsion_free = all(
            v.is_torsion_free if isinstance(v, FgAbelianGroup) else v.torsion_free
            for v in (left.k0, left.k1, right.k0, right.k1)
        )
        return KPair(
            ColimitInvariants(rank=r0, torsion_free=torsion_free, verified_stage=0),
            ColimitInvariants(rank=r1, torsion_free=torsion_free, verified_stage=0),
        )
    for side, pair in (("left", left), ("right", right)):
        if not pair.all_finitely_generated():
            raise NotFinitelyGenerated(
                f"{side} factor has colimit-valued K-theory; "
                "only the rational (rank-level) product is available"
            )
    a0, a1 = left.k0, left.k1
    b0, b1 = right.k0, right.k1
    k0 = a0.tensor(b0).direct_sum(a1.tensor(b1)).direct_sum(a0.tor(b1)).direct_sum(a1.tor(b0))
    k1 = a0.tensor(b1).direct_sum(a1.tensor(b0)).direct_sum(a0.tor(b0)).direct_sum(a1.tor(b1))
    return KPair(k0, k1)


def ktheory_of_model(
    model: GroupoidModel,
    stage: int | None = None,
    rational_only: bool = False,
) -> KPair:
    """K-theory of any model, dispatching on its class.

    Shifts of finite type, AF and Cantor minimal Z-models take K_i from
    their homology in degree i.  Products recurse; a factor with
    colimit-valued K-theory drops the assembly to the rational-only formula.
    """
    if isinstance(model, FiniteGroupoid):
        return k_finite_principal(model)
    if isinstance(model, (SftModel, BratteliModel, CantorZModel)):
        h = homology_of_model(model, stage=stage)
        return KPair(h.entry(0), h.entry(1))
    if isinstance(model, ProductModel):
        left = ktheory_of_model(model.left, stage=stage, rational_only=rational_only)
        right = ktheory_of_model(model.right, stage=stage, rational_only=rational_only)
        if rational_only:
            return k_product(left, right, rational_only=True)
        try:
            return k_product(left, right)
        except NotFinitelyGenerated:
            return k_product(left, right, rational_only=True)
    raise TypeError(f"unknown model type {type(model).__name__}")
