"""Reference code the tests compare against, kept out of the package.

The builders make the small finite groupoids the tests use.  The
name-keyed validator reads the groupoid axioms straight off the tables,
looking every name up; it and the name-keyed readers of identities, orbits,
isotropy tables and torsion units are the reference for
``models._validate_finite``, which works on arrow numbers, and for the facts
it records.  The nerve oracle enumerates the full nerve of a finite groupoid
and its dense boundaries, the definition that ``homology.homology_finite``'s
normalized bar complex of the skeleton must agree with.  The span helpers
encode the nerve's face maps as spans, whose signed transfers rebuild the
same boundaries.  The matrix and group helpers (``zeros``, ``diagonal``,
``identity``, ``transpose``, ``add``, ``scale``, ``power``, ``hstack``,
``is_zero``, ``is_trivial``) build test inputs and read results.  No command
reaches any of this (``test_reachability``).
"""

from __future__ import annotations

from collections import Counter
from typing import Hashable, Sequence

from amplehk._record import Record
from amplehk.errors import ShapeMismatch, SizeBoundExceeded
from amplehk.exact_linalg import FgAbelianGroup, IntMatrix
from amplehk.models import FiniteGroupoid
from amplehk.spans import FiniteSpan, transfer_matrix


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


# Generators of small permutation groups, each a tuple of images of 0..n-1.
S3 = ((1, 0, 2), (1, 2, 0))
D8 = ((1, 2, 3, 0), (0, 3, 2, 1))
Q8 = ((1, 2, 3, 0, 5, 6, 7, 4), (4, 7, 6, 5, 2, 1, 0, 3))
A4 = ((1, 2, 0, 3), (0, 2, 3, 1))


def permutation_group_groupoid(
    generators: Sequence[Sequence[int]], n_units: int = 1, prefix: str = "x"
) -> FiniteGroupoid:
    """Transitive groupoid on ``n_units`` units whose isotropy is the group
    that ``generators``, permutations of 0..m-1 with m at most 10, generate.

    Arrow (i, j, p) goes from unit j to unit i, and (i, j, p).(j, l, q) is
    (i, l, p.q), where p.q applies q first.  It is named ``x0<p120<x1`` for
    the permutation k -> (1, 2, 0)[k]; the elements come in lexicographic
    order, so the generators of S_n give ``itertools.permutations`` order.
    """
    gens = [tuple(p) for p in generators]
    group = {tuple(range(len(gens[0])))}
    frontier = list(group)
    while frontier:
        frontier = [tuple(g[k] for k in s) for g in frontier for s in gens]
        frontier = [g for g in dict.fromkeys(frontier) if g not in group]
        group.update(frontier)
    perms = sorted(group)
    units = tuple(f"{prefix}{i}" for i in range(n_units))

    def name(i: int, j: int, p: tuple[int, ...]) -> str:
        return f"{units[i]}<p{''.join(map(str, p))}<{units[j]}"

    arrows = tuple(
        (name(i, j, p), units[j], units[i])
        for i in range(n_units)
        for j in range(n_units)
        for p in perms
    )
    compose = {
        (name(i, j, p), name(j, l, q)): name(i, l, tuple(p[k] for k in q))
        for i in range(n_units)
        for j in range(n_units)
        for l in range(n_units)
        for p in perms
        for q in perms
    }
    inverse = {
        name(i, j, p): name(j, i, tuple(sorted(range(len(p)), key=p.__getitem__)))
        for i in range(n_units)
        for j in range(n_units)
        for p in perms
    }
    return FiniteGroupoid(units, arrows, compose, inverse)


def disjoint_union_groupoids(a: FiniteGroupoid, b: FiniteGroupoid) -> FiniteGroupoid:
    """Disjoint union, with name prefixes keeping the two parts apart."""

    def tag(prefix: str, s: str) -> str:
        return f"{prefix}.{s}"

    units = tuple(tag("L", u) for u in a.units) + tuple(tag("R", u) for u in b.units)
    arrows = tuple((tag("L", n), tag("L", s), tag("L", t)) for n, s, t in a.arrows) + tuple(
        (tag("R", n), tag("R", s), tag("R", t)) for n, s, t in b.arrows
    )
    compose = {(tag("L", x), tag("L", y)): tag("L", z) for (x, y), z in a.compose}
    compose.update({(tag("R", x), tag("R", y)): tag("R", z) for (x, y), z in b.compose})
    inverse = {tag("L", x): tag("L", y) for x, y in a.inverse}
    inverse.update({tag("R", x): tag("R", y) for x, y in b.inverse})
    return FiniteGroupoid(units, arrows, compose, inverse)


# ---------------------------------------------------------------------------
# name-keyed validation


class Tables:
    """Finite-groupoid tables that nothing checks, with ``FiniteGroupoid``'s
    field names, for the validator below to run on broken input.  The
    validator reads ``compose`` and ``inverse`` through ``dict``, so they
    may be mappings or, as a ``FiniteGroupoid`` stores them, pairs."""

    def __init__(self, units, arrows, compose, inverse) -> None:
        self.units = units
        self.arrows = arrows
        self.compose = compose
        self.inverse = inverse


def validate_finite(g) -> list[str]:
    """Every violation of the groupoid axioms by the tables of ``g``, in the
    order ``FiniteGroupoid`` reports them."""
    compose, inverse = dict(g.compose), dict(g.inverse)
    bad: list[str] = []
    if len(set(g.units)) != len(g.units):
        bad.append("duplicate unit names")
    names = [a[0] for a in g.arrows]
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

    for (gname, dname), result in compose.items():
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
            if (gname, dname) not in compose:
                bad.append(f"composition ({gname!r}, {dname!r}) required but missing")
    if bad:
        return bad

    # Now the table holds exactly the composable pairs.
    comp = compose
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

    bad.extend(f"inverse entry for unknown arrow {k!r}" for k in inverse if k not in arrow_map)
    for name, src, tgt in g.arrows:
        if name not in inverse:
            bad.append(f"arrow {name!r} has no inverse entry")
            continue
        inv = inverse[name]
        if inv not in arrow_map:
            bad.append(f"inverse of {name!r} names unknown arrow {inv!r}")
            continue
        if arrow_map[inv] != (tgt, src):
            bad.append(f"inverse of {name!r} has wrong endpoints")
            continue
        if comp.get((name, inv)) != idents[tgt] or comp.get((inv, name)) != idents[src]:
            bad.append(f"inverse of {name!r} does not compose to the identities")
    return bad


def identity_arrows(g) -> dict[str, str]:
    """Map each unit to its two-sided identity arrow, where one exists."""
    arrow_map = {name: (src, tgt) for name, src, tgt in g.arrows}
    compose = dict(g.compose)
    out: dict[str, str] = {}
    for u in g.units:
        for cand, (src, tgt) in arrow_map.items():
            if src != u or tgt != u:
                continue
            left_ok = all(
                compose.get((cand, other)) == other
                for other, (_, otgt) in arrow_map.items()
                if otgt == u
            )
            right_ok = all(
                compose.get((other, cand)) == other
                for other, (osrc, _) in arrow_map.items()
                if osrc == u
            )
            if left_ok and right_ok:
                out[u] = cand
                break
    return out


def orbits_by_union_find(g) -> list[set[str]]:
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


def isotropy_tables_by_name(g: FiniteGroupoid) -> list[list[list[int]]]:
    """``FiniteGroupoid._isotropy`` read off the name-keyed tables: for the
    first unit of each orbit, the multiplication table of its non-identity
    loops, numbered in arrow order, with -1 for the identity."""
    position = {u: i for i, u in enumerate(g.units)}
    reps = {min(orbit, key=position.__getitem__) for orbit in orbits_by_union_find(g)}
    units = tuple(u for u in g.units if u in reps)
    compose = dict(g.compose)
    loops: dict[str, list[str]] = {u: [] for u in units}
    for name, src, tgt in g.arrows:
        if src == tgt and src in loops and compose[(name, name)] != name:
            loops[src].append(name)
    tables = []
    for u in units:
        number = {a: i for i, a in enumerate(loops[u])}
        tables.append([[number.get(compose[(a, b)], -1) for b in loops[u]] for a in loops[u]])
    return tables


def units_with_isotropy_by_name(g: FiniteGroupoid) -> list[str]:
    """The units with a non-identity loop a (one with a.a != a), sorted."""
    compose = dict(g.compose)
    return sorted({src for name, src, tgt in g.arrows if src == tgt and compose[(name, name)] != name})


# ---------------------------------------------------------------------------
# nerve


class NerveLevel(Record):
    """One level of the nerve with its face maps down one level.

    ``cells`` lists the composable tuples of arrow indices (level 0 lists the
    unit indices, as bare ints).  ``faces[i][t]`` is the index in the level
    below of the i-th face of cell t.
    """

    __slots__ = ("degree", "cells", "faces")

    def size(self) -> int:
        return len(self.cells)


def nerve_levels(g: FiniteGroupoid, top: int, size_bound: int | None = None) -> list[NerveLevel]:
    """Nerve levels 0..top of ``g``, built incrementally, with face maps.

    Cells are enumerated in lexicographic order of arrow indices, so the
    result is deterministic given the input tables.  Faces follow the bar
    convention: at degree 1 the 0th face is the source and the 1st the
    target; at higher degrees the outer faces drop the first or last arrow
    and inner face i composes the i-th arrow with the next.

    When ``size_bound`` is given, a level growing past it raises
    SizeBoundExceeded.
    """
    if top < 0:
        raise ValueError("nerve degree must be nonnegative")
    unit_index = {u: i for i, u in enumerate(g.units)}
    arrow_map = {name: (src, tgt) for name, src, tgt in g.arrows}
    names = [a[0] for a in g.arrows]
    name_index = {name: i for i, name in enumerate(names)}
    src_idx = [unit_index[arrow_map[name][0]] for name in names]
    tgt_idx = [unit_index[arrow_map[name][1]] for name in names]
    comp_idx: dict[tuple[int, int], int] = {}
    for (a, b), c in g.compose:
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

# ---------------------------------------------------------------------------
# spans and matrices


def zeros(rows: int, cols: int) -> IntMatrix:
    """The zero matrix of the given shape."""
    return IntMatrix(rows, cols, (0,) * (rows * cols))


def diagonal(diag: Sequence[int]) -> IntMatrix:
    """The square matrix with ``diag`` on its diagonal."""
    n = len(diag)
    return IntMatrix(n, n, [diag[i] if i == j else 0 for i in range(n) for j in range(n)])


def identity(n: int) -> IntMatrix:
    """The n x n identity matrix."""
    return diagonal([1] * n)


def transpose(m: IntMatrix) -> IntMatrix:
    """The transpose of ``m``."""
    return IntMatrix(m.cols, m.rows, [x for j in range(m.cols) for x in m.entries[j :: m.cols]])


def add(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The sum ``a + b`` of two matrices of one shape."""
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ShapeMismatch("shape mismatch in addition")
    return IntMatrix(a.rows, a.cols, [x + y for x, y in zip(a.entries, b.entries)])


def is_zero(m: IntMatrix) -> bool:
    """Whether every entry of ``m`` is 0."""
    return not any(m.entries)


def hstack(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """``a`` and ``b`` side by side, ``[a | b]``."""
    if a.rows != b.rows:
        raise ShapeMismatch("hstack needs equal row counts")
    return IntMatrix.from_rows([a.row(i) + b.row(i) for i in range(a.rows)], cols=a.cols + b.cols)


def scale(m: IntMatrix, c: int) -> IntMatrix:
    """The matrix ``c * m``."""
    return IntMatrix(m.rows, m.cols, tuple(c * x for x in m.entries))


def power(m: IntMatrix, k: int) -> IntMatrix:
    """``m`` to the ``k``-th power, by repeated squaring."""
    if m.rows != m.cols:
        raise ShapeMismatch("power of a non-square matrix")
    if k < 0:
        raise ValueError("negative matrix power")
    result = identity(m.rows)
    base = m
    while k:
        if k & 1:
            result = result @ base
        base = base @ base if k > 1 else base
        k >>= 1
    return result


def is_trivial(group: FgAbelianGroup) -> bool:
    """Whether ``group`` is the zero group."""
    return group.rank == 0 and not group.torsion



def identity_span(elements: Sequence[Hashable]) -> FiniteSpan:
    """The unit for composition: both legs the identity."""
    elems = tuple(elements)
    ident = {x: x for x in elems}
    return FiniteSpan(elems, elems, elems, ident, ident)


def disjoint_union_spans(a: FiniteSpan, b: FiniteSpan) -> FiniteSpan:
    """Side-by-side union; transfer matrices become block diagonal."""

    def tag(k: int, xs: tuple) -> tuple:
        return tuple((k, x) for x in xs)

    left = tag(0, a.left) + tag(1, b.left)
    mid = tag(0, a.mid) + tag(1, b.mid)
    right = tag(0, a.right) + tag(1, b.right)
    left_leg = {(0, z): (0, a.left_leg[z]) for z in a.mid}
    left_leg.update({(1, z): (1, b.left_leg[z]) for z in b.mid})
    right_leg = {(0, z): (0, a.right_leg[z]) for z in a.mid}
    right_leg.update({(1, z): (1, b.right_leg[z]) for z in b.mid})
    return FiniteSpan(left, mid, right, left_leg, right_leg)


def spans_isomorphic(a: FiniteSpan, b: FiniteSpan) -> bool:
    """Equality up to a bijection of the middles fixing both boundary sets.

    The boundary sets must match on the nose.  Any leg-preserving bijection
    permutes middle elements within their (left, right) fibers, so the spans
    are isomorphic exactly when the fiber counts agree.
    """
    if set(a.left) != set(b.left) or set(a.right) != set(b.right):
        return False

    def fiber_counts(span: FiniteSpan) -> Counter:
        return Counter((span.left_leg[z], span.right_leg[z]) for z in span.mid)

    return fiber_counts(a) == fiber_counts(b)


def face_span(g: FiniteGroupoid, n: int, i: int) -> FiniteSpan:
    """The i-th face map of the nerve at degree n, encoded as a span.

    The left set is the n-cells with the identity leg, the right set the
    (n-1)-cells, and the right leg the face map itself; its transfer is then
    exactly the 0/1 matrix of the face pushforward.  Cells are labelled by
    their position in the deterministic nerve enumeration.
    """
    if n < 1:
        raise ValueError("face maps start at degree 1")
    if not 0 <= i <= n:
        raise IndexError(f"face index {i} out of range for degree {n}")
    levels = nerve_levels(g, n)
    top = levels[n]
    below = levels[n - 1]
    left = tuple(("cell", n, t) for t in range(top.size()))
    right = tuple(("cell", n - 1, c) for c in range(below.size()))
    face = top.faces[i]
    left_leg = {("cell", n, t): ("cell", n, t) for t in range(top.size())}
    right_leg = {("cell", n, t): ("cell", n - 1, face[t]) for t in range(top.size())}
    return FiniteSpan(left, left, right, left_leg, right_leg)


def boundary_from_face_spans(g: FiniteGroupoid, n: int) -> IntMatrix:
    """Signed sum of the face-span transfers at degree n, the alternating sum
    that equals the nerve's boundary matrix."""
    total: IntMatrix | None = None
    for i in range(n + 1):
        t = transfer_matrix(face_span(g, n, i))
        signed = t if i % 2 == 0 else scale(t, -1)
        total = signed if total is None else add(total, signed)
    assert total is not None
    return total
