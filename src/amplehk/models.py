"""Groupoid models: finite groupoids given by tables, and symbolic classes.

A finite groupoid is stored combinatorially: units, arrows, composition and
inverse tables.  The symbolic classes describe ample groupoids too large to
enumerate: one-sided shifts of finite type, AF groupoids presented by
Bratteli data, and Cantor minimal Z-systems presented the same way.
Products pair any two models.

This module holds the data and its axioms only.  What the engines know
about each class (summary, isotropy, Baum-Connes, homology, K-theory) is
the class's record in ``ktheory.RECORDS``, which imports ``homology`` and
so cannot live here.

Composition is written like function composition: ``g . d`` is defined
exactly when ``source(g) == target(d)``, and then runs d first.
"""

from __future__ import annotations

from typing import Mapping, Union

from ._record import Record, setfield
from .errors import ModelInvalid
from .exact_linalg import IntMatrix

__all__ = [
    "BratteliModel",
    "CantorZModel",
    "FiniteGroupoid",
    "GroupoidModel",
    "ProductModel",
    "SftModel",
    "identity_arrows",
    "orbits",
    "simplicity_certificate",
]


class FiniteGroupoid(Record):
    """A groupoid on finitely many arrows, given by explicit tables.

    ``arrows`` maps arrow name to its (source, target) pair of units.  The
    ``compose`` table is keyed by (g, d) and holds the composite g.d; it must
    be defined exactly for the pairs with source(g) == target(d).  Unit
    (identity) arrows are part of ``arrows`` and are recognized by their
    behaviour, not by naming convention.

    Building a groupoid checks the axioms and raises ModelInvalid, whose
    ``violations`` list every violation found, so broken tables can be
    diagnosed in one pass; a groupoid that exists is a valid one.

    >>> FiniteGroupoid(("x",), (("e", "x", "x"),), compose={}, inverse={"e": "e"})
    Traceback (most recent call last):
        ...
    amplehk.errors.ModelInvalid: composition ('e', 'e') required but missing
    """

    __slots__ = ("units", "arrows", "compose", "inverse")

    def __init__(
        self,
        units: tuple[str, ...],
        arrows: tuple[tuple[str, str, str], ...],  # (name, source, target)
        compose: Mapping[tuple[str, str], str] | None = None,
        inverse: Mapping[str, str] | None = None,
    ) -> None:
        setfield(self, "units", units)
        setfield(self, "arrows", arrows)
        setfield(self, "compose", {} if compose is None else compose)
        setfield(self, "inverse", {} if inverse is None else inverse)
        _reject(_validate_finite(self))

    def arrow_names(self) -> list[str]:
        return [a[0] for a in self.arrows]


class SftModel(Record):
    """One-sided shift of finite type with the given nonnegative square matrix."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: IntMatrix) -> None:
        setfield(self, "matrix", matrix)
        _reject(_validate_sft(self))


class BratteliModel(Record):
    """AF groupoid presented by a Bratteli diagram with a periodic tail.

    ``incidences[i]`` has ``level_sizes[i+1]`` rows and ``level_sizes[i]``
    columns; ``tail`` is square of the final level size and repeats forever.
    """

    __slots__ = ("level_sizes", "incidences", "tail")

    def __init__(
        self, level_sizes: tuple[int, ...], incidences: tuple[IntMatrix, ...], tail: IntMatrix
    ) -> None:
        setfield(self, "level_sizes", level_sizes)
        setfield(self, "incidences", incidences)
        setfield(self, "tail", tail)
        _reject(_validate_bratteli(self))


class CantorZModel(Record):
    """Minimal Z-action on a Cantor set, presented by a Bratteli diagram.

    The action is minimal, with genuinely infinite path space, exactly when
    the diagram's stationary tail is primitive and the path space branches;
    ``simplicity_certificate`` decides both from the tail.  A diagram that
    fails is well formed, and the homology engine refuses it as a failed
    hypothesis (SimplicityNotCertified).
    """

    __slots__ = ("diagram",)

    def __init__(self, diagram: BratteliModel) -> None:
        setfield(self, "diagram", diagram)


class ProductModel(Record):
    """Product of two groupoid models; factors may themselves be products."""

    __slots__ = ("left", "right")

    def __init__(self, left: GroupoidModel, right: GroupoidModel) -> None:
        setfield(self, "left", left)
        setfield(self, "right", right)


GroupoidModel = Union[FiniteGroupoid, SftModel, BratteliModel, CantorZModel, ProductModel]


# ---------------------------------------------------------------------------
# validation
#
# Each model class runs its checker from ``__init__``, so a model that
# exists satisfies its axioms and no engine checks again.  A checker returns
# every violation it finds, in a fixed order; ``_reject`` raises them as one
# ModelInvalid.  A product has no axioms of its own: its factors were checked
# when they were built.


def _reject(violations: list[str]) -> None:
    if violations:
        raise ModelInvalid(violations)


def _validate_finite(g: FiniteGroupoid) -> list[str]:
    bad: list[str] = []
    if len(set(g.units)) != len(g.units):
        bad.append("duplicate unit names")
    names = g.arrow_names()
    if len(set(names)) != len(names):
        bad.append("duplicate arrow names")
        return bad
    unit_set = set(g.units)
    arrow_map = {name: (src, tgt) for name, src, tgt in g.arrows}
    for name, src, tgt in g.arrows:
        if src not in unit_set:
            bad.append(f"arrow {name!r} has unknown source {src!r}")
        if tgt not in unit_set:
            bad.append(f"arrow {name!r} has unknown target {tgt!r}")
    if bad:
        return bad

    for (gname, dname), result in g.compose.items():
        if gname not in arrow_map or dname not in arrow_map or result not in arrow_map:
            bad.append(f"composition entry ({gname!r}, {dname!r}) -> {result!r} names unknown arrows")
            continue
        if arrow_map[gname][0] != arrow_map[dname][1]:
            bad.append(f"composition ({gname!r}, {dname!r}) defined but source/target do not match")
        else:
            src = arrow_map[dname][0]
            tgt = arrow_map[gname][1]
            if arrow_map[result] != (src, tgt):
                bad.append(f"composite {result!r} of ({gname!r}, {dname!r}) has wrong endpoints")
    # The arrows d with target u, in arrow order: the d composable with an
    # arrow g of source u, as g.d.
    into: dict[str, list[str]] = {u: [] for u in unit_set}
    for name, _, tgt in g.arrows:
        into[tgt].append(name)
    for gname, src, _ in g.arrows:
        for dname in into[src]:
            if (gname, dname) not in g.compose:
                bad.append(f"composition ({gname!r}, {dname!r}) required but missing")
    if bad:
        return bad

    # Now the table holds exactly the composable pairs.
    comp = g.compose
    for a, src, _ in g.arrows:
        for b in into[src]:
            ab = comp[(a, b)]
            for c in into[arrow_map[b][0]]:
                if comp[(ab, c)] != comp[(a, comp[(b, c)])]:
                    bad.append(f"associativity fails on ({a!r}, {b!r}, {c!r})")

    idents = identity_arrows(g)
    for u in g.units:
        if u not in idents:
            bad.append(f"no identity arrow at unit {u!r}")
    if bad:
        return bad

    bad.extend(f"inverse entry for unknown arrow {k!r}" for k in g.inverse if k not in arrow_map)
    for name, src, tgt in g.arrows:
        if name not in g.inverse:
            bad.append(f"arrow {name!r} has no inverse entry")
            continue
        inv = g.inverse[name]
        if inv not in arrow_map:
            bad.append(f"inverse of {name!r} names unknown arrow {inv!r}")
            continue
        if arrow_map[inv] != (tgt, src):
            bad.append(f"inverse of {name!r} has wrong endpoints")
            continue
        if comp.get((name, inv)) != idents[tgt] or comp.get((inv, name)) != idents[src]:
            bad.append(f"inverse of {name!r} does not compose to the identities")
    return bad


def identity_arrows(g: FiniteGroupoid) -> dict[str, str]:
    """Map each unit to its two-sided identity arrow, where one exists."""
    arrow_map = {name: (src, tgt) for name, src, tgt in g.arrows}
    out: dict[str, str] = {}
    for u in g.units:
        for cand, (src, tgt) in arrow_map.items():
            if src != u or tgt != u:
                continue
            left_ok = all(
                g.compose.get((cand, other)) == other
                for other, (_, otgt) in arrow_map.items()
                if otgt == u
            )
            right_ok = all(
                g.compose.get((other, cand)) == other
                for other, (osrc, _) in arrow_map.items()
                if osrc == u
            )
            if left_ok and right_ok:
                out[u] = cand
                break
    return out


def _validate_sft(m: SftModel) -> list[str]:
    bad: list[str] = []
    a = m.matrix
    if a.rows != a.cols:
        return [f"transition matrix is {a.rows}x{a.cols}, not square"]
    if a.rows == 0:
        return ["transition matrix is empty"]
    if any(x < 0 for x in a.entries):
        bad.append("transition matrix has a negative entry")
    for i in range(a.rows):
        if all(a.entry(i, j) == 0 for j in range(a.cols)):
            bad.append(f"row {i} of the transition matrix is zero")
    for j in range(a.cols):
        if all(a.entry(i, j) == 0 for i in range(a.rows)):
            bad.append(f"column {j} of the transition matrix is zero")
    return bad


def _validate_bratteli(b: BratteliModel) -> list[str]:
    bad: list[str] = []
    if not b.level_sizes:
        return ["diagram needs at least one level"]
    if any(s <= 0 for s in b.level_sizes):
        bad.append("level sizes must be positive")
    if len(b.incidences) != len(b.level_sizes) - 1:
        bad.append(
            f"{len(b.level_sizes)} levels need {len(b.level_sizes) - 1} incidence "
            f"matrices, got {len(b.incidences)}"
        )
        return bad
    for i, mat in enumerate(b.incidences):
        if (mat.rows, mat.cols) != (b.level_sizes[i + 1], b.level_sizes[i]):
            bad.append(
                f"incidence {i} is {mat.rows}x{mat.cols}, expected "
                f"{b.level_sizes[i + 1]}x{b.level_sizes[i]}"
            )
        if any(x < 0 for x in mat.entries):
            bad.append(f"incidence {i} has a negative entry")
    last = b.level_sizes[-1]
    if (b.tail.rows, b.tail.cols) != (last, last):
        bad.append(f"tail is {b.tail.rows}x{b.tail.cols}, expected {last}x{last}")
    elif any(x < 0 for x in b.tail.entries):
        bad.append("tail has a negative entry")
    return bad


def simplicity_certificate(tail: IntMatrix) -> tuple[bool, str]:
    """Decide whether a stationary diagram is simple with Cantor path space.

    The diagram is simple exactly when its tail is primitive: some power is
    entrywise positive.  The tail is nonnegative, so only the 0/1 pattern of
    each power matters.  An n x n pattern with a positive power has one by
    (n-1)^2 + 1 (Wielandt), and every later power is positive too, so
    squaring the pattern until the exponent passes that bound decides it.
    A genuinely Cantor path space also needs branching: a 1x1 tail of [1]
    describes a single path, not a Cantor set.
    """
    if tail.rows != tail.cols or tail.rows == 0:
        return False, "tail is not a nonempty square matrix"
    n = tail.rows
    # Row i of a pattern is a bit mask of the columns j with a positive entry.
    power = [sum(1 << j for j in range(n) if tail.entry(i, j) > 0) for i in range(n)]
    full = (1 << n) - 1
    squarings = 0
    while any(r != full for r in power):
        if squarings == ((n - 1) ** 2).bit_length():
            return False, "no power of the tail is entrywise positive"
        power = [_next_pattern_row(r, power) for r in power]
        squarings += 1
    if n == 1 and tail.entry(0, 0) == 1:
        return False, "path space is a single point, not a Cantor set"
    return True, f"tail power {2 ** squarings} is entrywise positive"


def _next_pattern_row(row: int, step: list[int]) -> int:
    """Row of (pattern x ``step``): the union of the rows of ``step`` that ``row`` reaches."""
    out = 0
    for j, s in enumerate(step):
        if row >> j & 1:
            out |= s
    return out


# ---------------------------------------------------------------------------
# orbits and isotropy


def orbits(g: FiniteGroupoid) -> list[set[str]]:
    """Unit orbits: connected components under the arrows."""
    parent = {u: u for u in g.units}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for _, src, tgt in g.arrows:
        ra, rb = find(src), find(tgt)
        if ra != rb:
            parent[ra] = rb
    groups: dict[str, set[str]] = {}
    for u in g.units:
        groups.setdefault(find(u), set()).add(u)
    return list(groups.values())


def _units_with_isotropy(g: FiniteGroupoid) -> list[str]:
    """The units with a non-identity loop, sorted.

    ``g`` satisfies the axioms, so a loop a is an identity exactly when
    a.a = a.
    """
    return sorted(
        {src for name, src, tgt in g.arrows if src == tgt and g.compose[(name, name)] != name}
    )
