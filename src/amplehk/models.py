"""Groupoid models: finite groupoids given by tables, and symbolic classes.

A finite groupoid is stored combinatorially (units, arrows, composition and
inverse tables) so that its nerve can be enumerated level by level.  The
symbolic classes describe ample groupoids too large to enumerate: one-sided
shifts of finite type, AF groupoids presented by Bratteli data, and Cantor
minimal Z-systems presented the same way.  Products pair any two models.

Composition is written like function composition: ``g . d`` is defined
exactly when ``source(g) == target(d)``, and then runs d first.  A tuple
(g1, ..., gn) is composable when ``source(g_i) == target(g_{i+1})``; these
tuples are the n-cells of the nerve.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Mapping, Union

from .colimits import InductiveSystem
from .exact_linalg import IntMatrix

__all__ = [
    "BratteliModel",
    "CantorZModel",
    "FiniteGroupoid",
    "GroupoidModel",
    "IsotropyReport",
    "NerveLevel",
    "ProductModel",
    "SftModel",
    "cyclic_group_groupoid",
    "dimension_system",
    "disjoint_union_groupoids",
    "identity_arrows",
    "isotropy_report",
    "model_summary",
    "nerve",
    "orbits",
    "pair_groupoid",
    "random_finite_groupoid",
    "shape_violations",
    "simplicity_certificate",
    "transitive_groupoid",
    "trivial_groupoid",
    "validate_model",
]


@dataclass(frozen=True)
class FiniteGroupoid:
    """A groupoid on finitely many arrows, given by explicit tables.

    ``arrows`` maps arrow name to its (source, target) pair of units.  The
    ``compose`` table is keyed by (g, d) and holds the composite g.d; it must
    be defined exactly for the pairs with source(g) == target(d).  Unit
    (identity) arrows are part of ``arrows`` and are recognized by their
    behaviour, not by naming convention.

    Constructors do not validate the axioms; ``validate_model`` reports every
    violation so that broken tables can be diagnosed rather than rejected
    wholesale.
    """

    units: tuple[str, ...]
    arrows: tuple[tuple[str, str, str], ...]  # (name, source, target)
    compose: Mapping[tuple[str, str], str] = field(default_factory=dict)
    inverse: Mapping[str, str] = field(default_factory=dict)

    def arrow_names(self) -> list[str]:
        return [a[0] for a in self.arrows]

    def source_of(self, name: str) -> str:
        return self._arrow_map()[name][0]

    def target_of(self, name: str) -> str:
        return self._arrow_map()[name][1]

    def _arrow_map(self) -> dict[str, tuple[str, str]]:
        return {name: (src, tgt) for name, src, tgt in self.arrows}


@dataclass(frozen=True)
class SftModel:
    """One-sided shift of finite type with the given nonnegative square matrix."""

    matrix: IntMatrix


@dataclass(frozen=True)
class BratteliModel:
    """AF groupoid presented by a Bratteli diagram with a periodic tail.

    ``incidences[i]`` has ``level_sizes[i+1]`` rows and ``level_sizes[i]``
    columns; ``tail`` is square of the final level size and repeats forever.
    """

    level_sizes: tuple[int, ...]
    incidences: tuple[IntMatrix, ...]
    tail: IntMatrix


@dataclass(frozen=True)
class CantorZModel:
    """Minimal Z-action on a Cantor set, presented by a Bratteli diagram.

    Simplicity (minimality of the action, with genuinely infinite path space)
    is certified by telescoping: some power of the tail up to
    ``telescope_depth`` must have all entries positive, and the path space
    must branch.
    """

    diagram: BratteliModel
    telescope_depth: int = 3


@dataclass(frozen=True)
class ProductModel:
    """Product of two groupoid models; factors may themselves be products."""

    left: "GroupoidModel"
    right: "GroupoidModel"


GroupoidModel = Union[FiniteGroupoid, SftModel, BratteliModel, CantorZModel, ProductModel]


# ---------------------------------------------------------------------------
# validation


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
    for gname, (gsrc, _) in arrow_map.items():
        for dname, (_, dtgt) in arrow_map.items():
            if gsrc == dtgt and (gname, dname) not in g.compose:
                bad.append(f"composition ({gname!r}, {dname!r}) required but missing")
    if bad:
        return bad

    comp = dict(g.compose)
    for a in names:
        for b in names:
            if (a, b) not in comp:
                continue
            for c in names:
                if (b, c) not in comp:
                    continue
                if comp[(comp[(a, b)], c)] != comp[(a, comp[(b, c)])]:
                    bad.append(f"associativity fails on ({a!r}, {b!r}, {c!r})")

    idents = identity_arrows(g)
    for u in g.units:
        if u not in idents:
            bad.append(f"no identity arrow at unit {u!r}")
    if bad:
        return bad

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


def simplicity_certificate(tail: IntMatrix, depth: int) -> tuple[bool, str]:
    """Try to certify a stationary diagram as simple with Cantor path space.

    Telescoping k levels multiplies k copies of the tail; if some power up to
    ``depth`` is entrywise positive the telescoped diagram has full
    connections, which forces simplicity.  A genuinely Cantor path space also
    needs branching: a 1x1 tail of [1] describes a single path, not a Cantor
    set.

    The tail is nonnegative, so only the 0/1 pattern of each power matters.
    An n x n pattern with a positive power has one by (n-1)^2 + 1 (Wielandt),
    so the search stops there even when ``depth`` is larger.
    """
    if tail.rows != tail.cols or tail.rows == 0:
        return False, "tail is not a nonempty square matrix"
    n = tail.rows
    # Row i of a pattern is a bit mask of the columns j with a positive entry.
    step = [sum(1 << j for j in range(n) if tail.entry(i, j) > 0) for i in range(n)]
    full = (1 << n) - 1
    power = step
    positive_at = None
    for k in range(1, min(max(depth, 1), (n - 1) ** 2 + 1) + 1):
        if all(r == full for r in power):
            positive_at = k
            break
        power = [_next_pattern_row(r, step) for r in power]
    if positive_at is None:
        return False, f"no tail power up to {depth} is entrywise positive"
    if tail.rows == 1 and tail.entry(0, 0) == 1:
        return False, "path space is a single point, not a Cantor set"
    return True, f"tail power {positive_at} is entrywise positive"


def _next_pattern_row(row: int, step: list[int]) -> int:
    """Row of (pattern x tail pattern): the union of the tail rows ``row`` reaches."""
    out = 0
    for j, s in enumerate(step):
        if row >> j & 1:
            out |= s
    return out


def dimension_system(b: BratteliModel) -> InductiveSystem:
    """The inductive system of the diagram's dimension group."""
    return InductiveSystem(b.level_sizes, b.incidences, b.tail)


def _validate_cantor_z(c: CantorZModel) -> list[str]:
    bad = _validate_bratteli(c.diagram)
    if bad:
        return bad
    if c.telescope_depth < 1:
        return ["telescope depth must be at least 1"]
    ok, why = simplicity_certificate(c.diagram.tail, c.telescope_depth)
    if not ok:
        bad.append(f"not a simple Cantor diagram: {why}")
    return bad


def shape_violations(model: GroupoidModel) -> list[str]:
    """Structural violations only, leaving certificates (simplicity) aside.

    ``validate_model`` reports everything; this variant lets callers separate
    malformed input from a well-formed diagram that merely fails a
    certificate, which deserves a precondition error rather than a parse one.
    """
    if isinstance(model, CantorZModel):
        bad = _validate_bratteli(model.diagram)
        if not bad and model.telescope_depth < 1:
            bad = ["telescope depth must be at least 1"]
        return bad
    if isinstance(model, ProductModel):
        out = [f"left factor: {v}" for v in shape_violations(model.left)]
        out += [f"right factor: {v}" for v in shape_violations(model.right)]
        return out
    return validate_model(model)


def validate_model(model: GroupoidModel) -> list[str]:
    """All detected violations, empty when the model is valid."""
    if isinstance(model, FiniteGroupoid):
        return _validate_finite(model)
    if isinstance(model, SftModel):
        return _validate_sft(model)
    if isinstance(model, BratteliModel):
        return _validate_bratteli(model)
    if isinstance(model, CantorZModel):
        return _validate_cantor_z(model)
    if isinstance(model, ProductModel):
        out = [f"left factor: {v}" for v in validate_model(model.left)]
        out += [f"right factor: {v}" for v in validate_model(model.right)]
        return out
    return [f"unknown model type {type(model).__name__}"]


# ---------------------------------------------------------------------------
# nerve


@dataclass(frozen=True)
class NerveLevel:
    """One level of the nerve with its face maps down one level.

    ``cells`` lists the composable tuples of arrow indices (level 0 lists the
    unit indices, as bare ints).  ``faces[i][t]`` is the index in the level
    below of the i-th face of cell t.
    """

    degree: int
    cells: tuple
    faces: tuple[tuple[int, ...], ...]

    def size(self) -> int:
        return len(self.cells)


def nerve(g: FiniteGroupoid, n: int) -> NerveLevel:
    """The n-cells of the nerve of ``g``, with face maps for n >= 1.

    Cells are enumerated in lexicographic order of arrow indices, so the
    result is deterministic given the input tables.

    Faces follow the bar convention: at degree 1 the 0th face is the source
    and the 1st the target; at higher degrees the outer faces drop the first
    or last arrow and inner face i composes the i-th arrow with the next.
    """
    if n < 0:
        raise ValueError("nerve degree must be nonnegative")
    levels = nerve_levels(g, n)
    return levels[n]


def nerve_levels(g: FiniteGroupoid, top: int, size_bound: int | None = None) -> list[NerveLevel]:
    """Nerve levels 0..top, built incrementally.

    When ``size_bound`` is given, a level growing past it aborts the build;
    the caller turns that into a SizeBoundExceeded with context.
    """
    from .errors import SizeBoundExceeded

    unit_index = {u: i for i, u in enumerate(g.units)}
    arrow_map = {name: (src, tgt) for name, src, tgt in g.arrows}
    names = g.arrow_names()
    name_index = {name: i for i, name in enumerate(names)}
    src_idx = [unit_index[arrow_map[name][0]] for name in names]
    tgt_idx = [unit_index[arrow_map[name][1]] for name in names]
    comp_idx: dict[tuple[int, int], int] = {}
    for (a, b), c in g.compose.items():
        comp_idx[(name_index[a], name_index[b])] = name_index[c]

    levels = [NerveLevel(0, tuple(range(len(g.units))), ())]
    if top == 0:
        return levels

    one_cells = tuple((i,) for i in range(len(names)))
    faces1 = (tuple(src_idx), tuple(tgt_idx))
    levels.append(NerveLevel(1, one_cells, faces1))

    # Arrows extending a tuple on the right: target must equal the source of
    # the current last arrow.
    extenders: dict[int, list[int]] = {u: [] for u in range(len(g.units))}
    for j, t in enumerate(tgt_idx):
        extenders[t].append(j)

    for degree in range(2, top + 1):
        prev = levels[degree - 1]
        cells: list[tuple[int, ...]] = []
        for tup in prev.cells:
            tail_source = src_idx[tup[-1]]
            for j in extenders[tail_source]:
                cells.append(tup + (j,))
                if size_bound is not None and len(cells) > size_bound:
                    raise SizeBoundExceeded(
                        f"nerve level {degree} exceeds size bound {size_bound}"
                    )
        prev_index = {tup: i for i, tup in enumerate(prev.cells)}
        faces: list[tuple[int, ...]] = []
        faces.append(tuple(prev_index[tup[1:]] for tup in cells))
        for i in range(1, degree):
            col = []
            for tup in cells:
                merged = tup[: i - 1] + (comp_idx[(tup[i - 1], tup[i])],) + tup[i + 1 :]
                col.append(prev_index[merged])
            faces.append(tuple(col))
        faces.append(tuple(prev_index[tup[:-1]] for tup in cells))
        levels.append(NerveLevel(degree, tuple(cells), tuple(faces)))
    return levels


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


@dataclass(frozen=True)
class IsotropyReport:
    """Whether all isotropy groups are torsion-free, and on what authority.

    ``mode`` is "computed" when stabilizers were enumerated (finite models)
    and "declared" when the class carries the fact by citation.
    """

    torsion_free: bool
    mode: str
    justification: str


def isotropy_report(model: GroupoidModel) -> IsotropyReport:
    if isinstance(model, FiniteGroupoid):
        idents = set(identity_arrows(model).values())
        torsion_units = sorted(
            {src for name, src, tgt in model.arrows if src == tgt and name not in idents}
        )
        if torsion_units:
            listing = ", ".join(repr(u) for u in torsion_units)
            return IsotropyReport(
                torsion_free=False,
                mode="computed",
                justification=(
                    f"nontrivial finite stabilizers at units {listing}; a finite group "
                    "with more than one element has torsion"
                ),
            )
        return IsotropyReport(
            torsion_free=True,
            mode="computed",
            justification="every stabilizer is trivial (the groupoid is principal)",
        )
    if isinstance(model, SftModel):
        return IsotropyReport(
            torsion_free=True,
            mode="declared",
            justification=(
                "isotropy of a one-sided shift-of-finite-type groupoid is trivial or "
                "infinite cyclic (eventually periodic points), hence torsion-free"
            ),
        )
    if isinstance(model, BratteliModel):
        return IsotropyReport(
            torsion_free=True,
            mode="declared",
            justification="AF groupoids are principal: all stabilizers are trivial",
        )
    if isinstance(model, CantorZModel):
        return IsotropyReport(
            torsion_free=True,
            mode="declared",
            justification=(
                "stabilizers of a Cantor minimal Z-system embed in Z, hence are torsion-free"
            ),
        )
    if isinstance(model, ProductModel):
        left = isotropy_report(model.left)
        right = isotropy_report(model.right)
        mode = "computed" if left.mode == right.mode == "computed" else "declared"
        return IsotropyReport(
            torsion_free=left.torsion_free and right.torsion_free,
            mode=mode,
            justification=(
                "stabilizers of a product are products of factor stabilizers; "
                f"left: {left.justification}; right: {right.justification}"
            ),
        )
    raise TypeError(f"unknown model type {type(model).__name__}")


def model_summary(model: GroupoidModel) -> str:
    if isinstance(model, FiniteGroupoid):
        return f"finite({len(model.units)} units, {len(model.arrows)} arrows)"
    if isinstance(model, SftModel):
        return f"sft({model.matrix.rows} vertices)"
    if isinstance(model, BratteliModel):
        return f"af({len(model.level_sizes)} levels, tail {model.tail.rows})"
    if isinstance(model, CantorZModel):
        return f"cantor_z(tail {model.diagram.tail.rows})"
    if isinstance(model, ProductModel):
        return f"product({model_summary(model.left)}, {model_summary(model.right)})"
    return type(model).__name__


# ---------------------------------------------------------------------------
# builders


def trivial_groupoid(n_units: int, prefix: str = "u") -> FiniteGroupoid:
    """Only identity arrows: the space {1..n} with no gluing."""
    units = tuple(f"{prefix}{i}" for i in range(n_units))
    arrows = tuple((f"id_{u}", u, u) for u in units)
    compose = {(f"id_{u}", f"id_{u}"): f"id_{u}" for u in units}
    inverse = {f"id_{u}": f"id_{u}" for u in units}
    return FiniteGroupoid(units, arrows, compose, inverse)


def transitive_groupoid(n_units: int, group_order: int, prefix: str = "u") -> FiniteGroupoid:
    """Transitive groupoid on n units with cyclic isotropy Z/group_order.

    Arrows are triples (target unit, source unit, group element); there are
    n^2 * group_order of them.  With group_order 1 this is the pair groupoid.
    """
    if n_units < 1 or group_order < 1:
        raise ValueError("need at least one unit and a positive group order")
    units = tuple(f"{prefix}{i}" for i in range(n_units))

    def name(i: int, j: int, k: int) -> str:
        return f"{prefix}{i}<{k}<{prefix}{j}" if group_order > 1 else f"{prefix}{i}<{prefix}{j}"

    arrows = tuple(
        (name(i, j, k), units[j], units[i])
        for i in range(n_units)
        for j in range(n_units)
        for k in range(group_order)
    )
    compose = {}
    for i in range(n_units):
        for j in range(n_units):
            for k in range(group_order):
                for l in range(n_units):
                    for k2 in range(group_order):
                        compose[(name(i, j, k), name(j, l, k2))] = name(i, l, (k + k2) % group_order)
    inverse = {
        name(i, j, k): name(j, i, (-k) % group_order)
        for i in range(n_units)
        for j in range(n_units)
        for k in range(group_order)
    }
    return FiniteGroupoid(units, arrows, compose, inverse)


def pair_groupoid(n_units: int, prefix: str = "u") -> FiniteGroupoid:
    """The pair groupoid: one arrow between every ordered pair of units."""
    return transitive_groupoid(n_units, 1, prefix=prefix)


def cyclic_group_groupoid(order: int, unit: str = "x") -> FiniteGroupoid:
    """The group Z/order viewed as a one-unit groupoid."""
    if order < 1:
        raise ValueError("group order must be positive")
    units = (unit,)
    arrows = tuple((f"g{k}", unit, unit) for k in range(order))
    compose = {(f"g{a}", f"g{b}"): f"g{(a + b) % order}" for a in range(order) for b in range(order)}
    inverse = {f"g{k}": f"g{(-k) % order}" for k in range(order)}
    return FiniteGroupoid(units, arrows, compose, inverse)


def disjoint_union_groupoids(a: FiniteGroupoid, b: FiniteGroupoid) -> FiniteGroupoid:
    """Disjoint union, with name prefixes keeping the two parts apart."""

    def tag(prefix: str, s: str) -> str:
        return f"{prefix}.{s}"

    units = tuple(tag("L", u) for u in a.units) + tuple(tag("R", u) for u in b.units)
    arrows = tuple((tag("L", n), tag("L", s), tag("L", t)) for n, s, t in a.arrows) + tuple(
        (tag("R", n), tag("R", s), tag("R", t)) for n, s, t in b.arrows
    )
    compose = {(tag("L", x), tag("L", y)): tag("L", z) for (x, y), z in a.compose.items()}
    compose.update({(tag("R", x), tag("R", y)): tag("R", z) for (x, y), z in b.compose.items()})
    inverse = {tag("L", x): tag("L", y) for x, y in a.inverse.items()}
    inverse.update({tag("R", x): tag("R", y) for x, y in b.inverse.items()})
    return FiniteGroupoid(units, arrows, compose, inverse)


def random_finite_groupoid(rng: random.Random, max_arrows: int = 30) -> FiniteGroupoid:
    """A random disjoint union of transitive blocks, at most ``max_arrows`` arrows.

    Every finite groupoid is a disjoint union of transitive ones, and for
    homological purposes cyclic isotropy already exercises the torsion cases,
    so blocks are (pair groupoid on m units) x (Z/k).
    """
    result: FiniteGroupoid | None = None
    arrows_used = 0
    blocks = rng.randint(1, 3)
    for b in range(blocks):
        m = rng.randint(1, 3)
        k = rng.choice([1, 1, 2, 3])
        cost = m * m * k
        if arrows_used + cost > max_arrows:
            continue
        arrows_used += cost
        block = transitive_groupoid(m, k, prefix=f"b{b}u")
        result = block if result is None else disjoint_union_groupoids(result, block)
    if result is None:
        result = trivial_groupoid(1)
    return result
