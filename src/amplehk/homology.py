"""Homology of groupoid models.

Finite groupoids are computed one isotropy group at a time.  Groupoid
homology is invariant under equivalence (Matui, "Homology and topological
full groups of etale groupoids on totally disconnected spaces", Proc. LMS
2012; Crainic and Moerdijk, "A homology theory for etale groupoids", Crelle
2000), so the groupoid is first cut down to its skeleton, one unit per
orbit, whose homology is the direct sum of the isotropy groups' homology.
An abelian isotropy group, the trivial group included, takes a closed form:
its invariant factors are read off the element orders of its
multiplication table, H_*(Z/d) is Z, Z/d, 0, Z/d, ..., and the factors are
assembled by the Kunneth formula (Brown, *Cohomology of Groups*, GTM 87).
A nonabelian group's bar complex is normalized: cells containing an
identity arrow span an acyclic subcomplex and are never built.  The
remaining cells are enumerated straight from the group's multiplication
table, each boundary comes out as sparse columns (the alternating sums of
the face maps), and ``exact_linalg.sparse_complex_homology`` checks d.d = 0
on them and reads every degree off one sparse elimination per boundary,
without a dense matrix.

The symbolic classes share one engine, ``stationary_homology``, over the
complex each class builds (``sft_complex``, ``af_complex``,
``cantor_z_complex``): a finite complex of free modules, with a stationary
tail on each degree taken in the colimit, as a Bratteli diagram's degree 0
is.  Products use the Kunneth formula (``homology_product``), on presented
groups when both factors have them and on ranks otherwise; it is exact when
both factors are, and truncated at the asked-for degree otherwise.

Which engine a model gets is part of its class's record in ``ktheory``,
whose walk (``ktheory.invariants``) assembles products with
``homology_product``; ``ktheory.k_product`` applies the same formula to the
two-term groups (K_0, K_1).

Every model checked its axioms when it was built, so the engines take their
input as valid.  The one hypothesis checked here is the simplicity
certificate of a Cantor minimal Z-system, which a well-formed diagram can
fail (SimplicityNotCertified).

Results are graded groups whose entries are either finitely generated groups
in canonical form or, when the group has no finite presentation, values
known only by their rank.
"""

from __future__ import annotations

from itertools import compress

from ._record import Record
# colimit_invariants is called through its module: bench/layertrace.py wraps
# the name ``homology.colimit_invariants`` with a probe that reads ``.tail``
# off the first argument, and that argument is the tail matrix.
from . import colimits
from .colimits import ColimitInvariants
from .errors import SimplicityNotCertified, SizeBoundExceeded, TruncationUnsound
from .exact_linalg import FgAbelianGroup, IntMatrix, sparse_complex_homology
from .models import (
    BratteliModel,
    CantorZModel,
    FiniteGroupoid,
    SftModel,
    simplicity_certificate,
)

__all__ = [
    "DEFAULT_SIZE_BOUND",
    "GradedGroup",
    "GroupValue",
    "af_complex",
    "cantor_z_complex",
    "homology_finite",
    "homology_product",
    "sft_complex",
    "stationary_homology",
]

GroupValue = FgAbelianGroup | ColimitInvariants

DEFAULT_SIZE_BOUND = 200_000


class GradedGroup(Record):
    """Graded abelian group, one entry per degree starting at 0.

    ``vanishing_above`` asserts that every degree past the listed ones is
    zero; it is exact for the symbolic model classes and never claimed for
    finite-groupoid computations, which are truncations.
    """

    __slots__ = ("by_degree", "vanishing_above")

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
# finite groupoids: abelian closed form and bar complex


def _normalized_boundaries(
    table: tuple[tuple[int, ...], ...], top: int
) -> list[list[dict[int, int]]]:
    """Boundaries d_1 .. d_top of the normalized bar complex of one group,
    as sparse columns {row: coefficient}.

    ``table`` is the group's multiplication table without the identity, as
    ``FiniteGroupoid._isotropy`` keeps it, on k = len(table) elements.  The
    n-cells are the tuples (a_1, ..., a_n) of non-identity elements, the one
    0-cell is the empty tuple, and cell (a_1, ..., a_n) has index sum
    a_i k^(n-i): the order of the full nerve, with the cells that hold an
    identity left out.  Face 0 drops a_1, face n drops a_n, and inner face
    i replaces a_i, a_(i+1) by their product, a face that is zero in the
    complex when the product is the identity.  A column is the alternating
    sum of its cell's faces.  The trivial group has no cells above degree 0,
    so its boundaries are all empty and cost nothing per degree.

    The cells of degree n are the (c, j) for c of degree n - 1.  Face i < n - 1
    of (c, j) is (face i of c, j), face n - 1 is (c without its last element
    a, a.j) and face n is c, so each level's faces come from the level
    below's and no cell is spelled out.
    """
    k = len(table)
    # Both faces of a loop are its unit, so d_1 is zero.
    boundaries: list[list[dict[int, int]]] = [[{} for _ in range(k)]]
    faces: list[list[int]] = [[0, 0]] * k
    for n in range(2, top + 1):
        if not faces:
            boundaries.extend([] for _ in range(n, top + 1))
            break
        signs = [(-1) ** i for i in range(n + 1)]
        columns: list[dict[int, int]] = []
        above: list[list[int]] = []
        for c, below in enumerate(faces):
            # A zero face has a negative index, and f * k + j stays negative.
            shifted = [f * k for f in below[:-1]]
            head = c - c % k
            for j, product in enumerate(table[c % k]):
                cell = [f + j for f in shifted]
                cell += (head + product if product >= 0 else -1, c)
                column: dict[int, int] = {}
                for f, sign in zip(cell, signs):
                    if f >= 0:
                        column[f] = column.get(f, 0) + sign
                if 0 in column.values():
                    column = {f: x for f, x in column.items() if x}
                columns.append(column)
                above.append(cell)
        boundaries.append(columns)
        faces = above
    return boundaries


def _cyclic_factors(table: tuple[tuple[int, ...], ...]) -> list[int]:
    """Invariant factors of an abelian group given by its table without the
    identity, as ``FiniteGroupoid._isotropy`` keeps it; largest first, each
    dividing the one before, no 1s.

    Only element orders are needed.  For each prime p dividing the group's
    order, the elements x with x^(p^i) = 1 number p^(s_i), where s_i sums
    min(e, i) over the group's cyclic factors Z/p^e; so s_i - s_(i-1)
    counts the factors with e >= i, and each of those puts one more p into
    one of the largest invariant factors.
    """
    orders = [1]
    for a in range(len(table)):
        x, n = a, 1
        while x >= 0:
            x, n = table[x][a], n + 1
        orders.append(n)
    factors: list[int] = []
    rest, p = len(orders), 2
    while rest > 1:
        if rest % p:
            p += 1
            continue
        part = 1
        while rest % p == 0:
            rest, part = rest // p, part * p
        below, q = 1, p
        while below < part:
            killed = sum(1 for o in orders if q % o == 0)
            ratio, count = killed // below, 0
            while ratio > 1:
                ratio, count = ratio // p, count + 1
            factors.extend([1] * (count - len(factors)))
            for j in range(count):
                factors[j] *= p
            below, q = killed, q * p
    return factors


def _abelian_homology(table: tuple[tuple[int, ...], ...], max_degree: int) -> GradedGroup:
    """Homology of a finite abelian group, degrees 0..max_degree, by closed
    form: H_*(Z/d) is Z, Z/d, 0, Z/d, 0, ... and the group is the product of
    its cyclic factors, assembled by Kunneth (Brown, *Cohomology of Groups*,
    GTM 87).  The trivial group gives Z in degree 0 and nothing above."""
    zero, z = FgAbelianGroup.zero(), FgAbelianGroup.free(1)
    factors = [
        GradedGroup(
            (z,) + tuple([z_d if n % 2 else zero for n in range(1, max_degree + 1)]),
            vanishing_above=False,
        )
        for z_d in map(FgAbelianGroup.cyclic, _cyclic_factors(table))
    ] or [GradedGroup((z,) + (zero,) * max_degree, vanishing_above=False)]
    h = factors[0]
    for factor in factors[1:]:
        h = homology_product(h, factor, max_degree)
    return h


def homology_finite(
    g: FiniteGroupoid,
    max_degree: int,
    size_bound: int = DEFAULT_SIZE_BOUND,
) -> GradedGroup:
    """Homology of a finite groupoid, degrees 0..max_degree.

    Groupoid homology is invariant under equivalence (Matui, Proc. LMS 2012;
    Crainic and Moerdijk, Crelle 2000), so it is that of the skeleton: one
    unit per orbit (the first in ``g.units`` order), and the direct sum over
    orbits of the homology of the unit's isotropy group.  An abelian
    isotropy group (its table is symmetric), the trivial group included,
    takes the closed form of ``_abelian_homology``.  Any other goes through
    its normalized bar complex: no nerve cell containing an identity arrow
    (the degenerate cells span an acyclic subcomplex), built and eliminated
    on its own.

    Level n >= 2 of the skeleton's full nerve has sum |G_u|^n cells over
    the isotropy groups G_u; raises SizeBoundExceeded, before computing
    anything, when one of the levels up to max_degree + 1 outgrows
    ``size_bound``, whichever route each group then takes.  The result is a
    truncation: finite groupoids can have homology in arbitrarily high
    degrees.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    top = max_degree + 1
    tables = g._isotropy
    for n in range(2, top + 1):
        if sum((len(table) + 1) ** n for table in tables) > size_bound:
            raise SizeBoundExceeded(f"nerve level {n} exceeds size bound {size_bound}")
    parts = []
    for table in tables:
        if list(zip(*table)) == list(table):
            parts.append(_abelian_homology(table, max_degree).by_degree)
        else:
            parts.append(sparse_complex_homology(1, _normalized_boundaries(table, top)))
    total = [FgAbelianGroup.sum([h[n] for h in parts]) for n in range(top)]
    return GradedGroup(tuple(total), vanishing_above=False)


# ---------------------------------------------------------------------------
# symbolic classes


def stationary_homology(
    rows: int,
    boundaries: list[list[dict[int, int]]],
    tails: dict[int, IntMatrix],
) -> GradedGroup:
    """Homology of a finite complex of free modules C_0 <- ... <- C_k, some
    degrees taken in the colimit along a stationary tail; zero above k.

    ``rows`` is the rank of C_0 and ``boundaries`` lists d_1 .. d_k as
    ``sparse_complex_homology`` takes them.  ``tails`` maps a degree whose
    chain group is its own homology (both boundaries there are zero) to a
    square matrix on it, and that degree's group is the colimit along it.
    Each symbolic class's builder below returns these three arguments.

    >>> [str(h) for h in stationary_homology(1, [[{0: 2}]], {}).by_degree]
    ['Z/2', '0']
    """
    groups: list[GroupValue] = sparse_complex_homology(rows, [*boundaries, []])
    for degree, tail in tails.items():
        groups[degree] = colimits.colimit_invariants(tail)
    return GradedGroup(tuple(groups), vanishing_above=True)


def sft_complex(model: SftModel) -> tuple:
    """The shift groupoid's complex Z^n <- Z^n by d_1 = I - A^T (Matui,
    Proc. LMS 2012), with no tail.  Column j of d_1 is e_j minus row j of A."""
    a = model.matrix
    n = a.rows
    d1 = []
    for j in range(n):
        row = a.row(j)
        column = {i: -row[i] for i in compress(range(n), row) if i != j}
        if row[j] != 1:
            column[j] = 1 - row[j]
        d1.append(column)
    return n, [d1], {}


def af_complex(model: BratteliModel) -> tuple:
    """An AF groupoid's complex: Z^n with no boundary, n the size of the
    tail, which acts on degree 0; the colimit is the dimension group."""
    return model.tail.rows, [], {0: model.tail}


def cantor_z_complex(model: CantorZModel) -> tuple:
    """A Cantor minimal Z-system's complex: the AF complex of its diagram,
    whose degree-0 colimit is the coinvariants of the action, and one zero
    column for d_1, the degree-1 Z of the invariant class: minimality makes
    the only invariant functions the constants.

    Raises SimplicityNotCertified when the diagram is not simple (its tail
    is not primitive) or its path space is a single point.
    """
    tail = model.diagram.tail
    ok, why = simplicity_certificate(tail)
    if not ok:
        raise SimplicityNotCertified(why)
    return tail.rows, [[{}]], {0: tail}


# ---------------------------------------------------------------------------
# products


def homology_product(
    left: GradedGroup,
    right: GradedGroup,
    max_degree: int | None = None,
) -> GradedGroup:
    """Kunneth assembly of a product from the factors' homology.

    Degree n collects tensor products of factor degrees summing to n plus the
    torsion products (Tor) of degrees summing to n - 1.  The product is exact
    when both factors vanish above their listed degrees, whatever
    ``max_degree`` says; otherwise it is truncated at ``max_degree``, which
    must then be given.  When a factor has a colimit-valued entry (no finite
    presentation to tensor), torsion is dropped: ranks multiply and
    convolve, Tor contributes nothing, and entries come back as ranks rather
    than presented groups.
    """
    vanishing = left.vanishing_above and right.vanishing_above
    if vanishing:
        max_degree = left.max_degree + right.max_degree + 1
    elif max_degree is None:
        raise TruncationUnsound("a truncated factor needs an explicit max_degree for the product")

    if left.all_finitely_generated() and right.all_finitely_generated():
        entries: list[GroupValue] = []
        for n in range(max_degree + 1):
            parts = [left.entry(p).tensor(right.entry(n - p)) for p in range(n + 1)]
            parts += [left.entry(p).tor(right.entry(n - 1 - p)) for p in range(n)]
            entries.append(FgAbelianGroup.sum(parts))
        return GradedGroup(tuple(entries), vanishing_above=vanishing)

    ranks = tuple([
        ColimitInvariants(rank=sum(left.rank(p) * right.rank(n - p) for p in range(n + 1)))
        for n in range(max_degree + 1)
    ])
    return GradedGroup(ranks, vanishing_above=vanishing)
