"""Groupoid models: finite groupoids given by tables, and symbolic classes.

A finite groupoid is given combinatorially: units, arrows, composition and
inverse tables, keyed by name.  Building one numbers its units and arrows
once and checks every axiom on a number-keyed composition table.  It stores
its tables as tuples in a canonical order, and derives only what the
engines read: the orbits, and each orbit's isotropy group as a numbered
multiplication table, so no other module decodes the composition table's
layout.  The symbolic classes describe ample groupoids too large to
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

from itertools import chain
from collections.abc import Mapping

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
    "orbits",
    "simplicity_certificate",
]


class FiniteGroupoid(Record):
    """A groupoid on finitely many arrows, given by explicit tables.

    ``arrows`` lists (name, source, target) triples of an arrow and its
    units.  The ``compose`` table is keyed by (g, d) and holds the composite
    g.d; it must be defined exactly for the pairs with source(g) == target(d).
    ``inverse`` maps each arrow to its inverse.  Each table is given as a
    mapping or as its (key, value) pairs, which may list a key only once.
    Unit (identity) arrows are part of ``arrows`` and are recognized by
    their behaviour, not by naming convention.

    Building a groupoid numbers units and arrows in table order and checks
    the axioms once, on those numbers.  It raises ModelInvalid, whose
    ``violations`` list every violation found, so broken tables can be
    diagnosed in one pass; a groupoid that exists is a valid one.  A valid
    one owns its tables: ``units`` and ``arrows`` are tuples, ``compose``
    holds the ((g, d), g.d) pairs ordered by g and then d in arrow order,
    and ``inverse`` the (a, inverse of a) pairs in arrow order.  So it
    hashes, ``dict(g.compose)`` gives the table back, and equality does not
    depend on the order the tables were given in.  It keeps, besides its
    four fields, what the engines read:

    - ``_orbits``, each orbit's units in table order, the orbits in the
      order of their first units.
    - ``_isotropy[i]``, the multiplication table of orbit i's isotropy
      group at its first unit, without the identity: the non-identity
      loops there are numbered 0, 1, ... in arrow order, and
      ``table[a][b]`` is the number of a.b, or -1 when a.b is the identity.

    Both are tuples, and derived from the fields, so equality, repr and
    ``replace`` ignore them.

    >>> FiniteGroupoid(("x",), [["e", "x", "x"]], {("e", "e"): "e"}, {"e": "e"})
    FiniteGroupoid(units=('x',), arrows=(('e', 'x', 'x'),), compose=((('e', 'e'), 'e'),), inverse=(('e', 'e'),))
    >>> FiniteGroupoid(("x",), (("e", "x", "x"),), compose={}, inverse={"e": "e"})
    Traceback (most recent call last):
        ...
    amplehk.errors.ModelInvalid: composition ('e', 'e') required but missing
    """

    __slots__ = ("units", "arrows", "compose", "inverse", "_orbits", "_isotropy")

    def __init__(
        self,
        units: tuple[str, ...],
        arrows: tuple[tuple[str, str, str], ...],  # (name, source, target)
        compose: Mapping[tuple[str, str], str] | tuple = (),
        inverse: Mapping[str, str] | tuple = (),
    ) -> None:
        setfield(self, "units", tuple(units))
        setfield(self, "arrows", tuple([tuple(a) for a in arrows]))
        compose, repeated = _as_dict(compose, "composable pair {!r} is listed twice")
        inverse, more = _as_dict(inverse, "inverse of {!r} is listed twice")
        _reject(repeated + more)
        _reject(_validate_finite(self, compose, inverse))


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
        setfield(self, "level_sizes", tuple(level_sizes))
        setfield(self, "incidences", tuple(incidences))
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


class ProductModel(Record):
    """Product of two groupoid models; factors may themselves be products."""

    __slots__ = ("left", "right")


GroupoidModel = FiniteGroupoid | SftModel | BratteliModel | CantorZModel | ProductModel


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


def _as_dict(table: Mapping | tuple, message: str) -> tuple[dict, list[str]]:
    """``table``, a mapping or its (key, value) pairs, as a dict, and the
    violation ``message.format(key)`` for each key listed more than once."""
    if isinstance(table, Mapping):
        return dict(table), []
    pairs = list(table)
    counts: dict = {}
    for key, _ in pairs:
        counts[key] = counts.get(key, 0) + 1
    return dict(pairs), [message.format(key) for key, n in counts.items() if n > 1]


def _validate_finite(g: FiniteGroupoid, compose: dict, inverse: dict) -> list[str]:
    """The violations of the groupoid axioms by ``g``'s units and arrows with
    the ``compose`` and ``inverse`` tables; when there are none, ``g``'s
    canonical tables and derived tables are stored (see ``FiniteGroupoid``).

    Names are resolved to numbers once; every later check reads the
    number-keyed table.  A stage that finds violations ends the check when
    the stages after it need what it checks: associativity needs a complete
    table, and the inverse checks need every identity.
    """
    bad: list[str] = []
    unit_number = {u: i for i, u in enumerate(g.units)}
    if len(unit_number) != len(g.units):
        bad.append("duplicate unit names")
    names = [a[0] for a in g.arrows]
    number = {name: a for a, name in enumerate(names)}
    if len(number) != len(names):
        bad.append("duplicate arrow names")
        return bad
    source: list[int] = []
    target: list[int] = []
    for name, src, tgt in g.arrows:
        s = unit_number.get(src, -1)
        t = unit_number.get(tgt, -1)
        if s < 0:
            bad.append(f"arrow {name!r} has unknown source {src!r}")
        if t < 0:
            bad.append(f"arrow {name!r} has unknown target {tgt!r}")
        source.append(s)
        target.append(t)
    if bad:
        return bad

    # into[u]: the arrows d with target u, in arrow order, which are the d
    # composable with an arrow of source u, as g.d; slot[d] is d's place there.
    into: list[list[int]] = [[] for _ in g.units]
    slot: list[int] = []
    for d, t in enumerate(target):
        slot.append(len(into[t]))
        into[t].append(d)
    # A slot left None is a missing pair; -1 marks a listed composite that
    # names an unknown arrow.  ``entries`` keeps each accepted table entry
    # in the same place: read row by row, it is the canonical table.
    composite: list[list] = [[None] * len(into[s]) for s in source]
    entries: list[list] = [[None] * len(into[s]) for s in source]
    find = number.get
    for entry in compose.items():
        (gname, dname), result = entry
        a, d, r = find(gname), find(dname), find(result)
        if a is None or d is None or r is None:
            bad.append(f"composition entry ({gname!r}, {dname!r}) -> {result!r} names unknown arrows")
            if a is not None and d is not None and source[a] == target[d]:
                composite[a][slot[d]] = -1
        elif source[a] != target[d]:
            bad.append(f"composition ({gname!r}, {dname!r}) defined but source/target do not match")
        else:
            if source[r] != source[d] or target[r] != target[a]:
                bad.append(f"composite {result!r} of ({gname!r}, {dname!r}) has wrong endpoints")
            composite[a][slot[d]] = r
            entries[a][slot[d]] = entry
    for a, row in enumerate(composite):
        if None in row:
            bad.extend(
                f"composition ({names[a]!r}, {names[d]!r}) required but missing"
                for d, r in zip(into[source[a]], row)
                if r is None
            )
    if bad:
        return bad

    # The table is complete and every composite has the right endpoints.
    # (a.b).c == a.(b.c) for every b into a's source and c into b's: the
    # row of a.b against the row of a read at slot[b.c].  For each a both
    # sides are laid out flat over all its b; a row that differs is walked
    # again to name the failing triples.
    places = [[slot[x] for x in row] for row in composite]
    flat_places = [list(chain.from_iterable(map(places.__getitem__, ds))) for ds in into]
    for a, s in enumerate(source):
        row = composite[a]
        if list(chain.from_iterable(map(composite.__getitem__, row))) != list(
            map(row.__getitem__, flat_places[s])
        ):
            for b, ab in zip(into[s], row):
                bad.extend(
                    f"associativity fails on ({names[a]!r}, {names[b]!r}, {names[c]!r})"
                    for c, abc, bc in zip(into[source[b]], composite[ab], places[b])
                    if abc != row[bc]
                )

    # The identity at u is the first loop e with e.d == d for every d into
    # u and x.e == x for every x out of u.
    loops: list[list[int]] = [[] for _ in g.units]
    out_of: list[list[int]] = [[] for _ in g.units]
    for a, (s, t) in enumerate(zip(source, target)):
        out_of[s].append(a)
        if s == t:
            loops[s].append(a)
    identity: list[int] = []
    for u, name in enumerate(g.units):
        for e in loops[u]:
            if composite[e] == into[u] and [composite[x][slot[e]] for x in out_of[u]] == out_of[u]:
                identity.append(e)
                break
        else:
            identity.append(-1)
            bad.append(f"no identity arrow at unit {name!r}")
    if bad:
        return bad

    bad.extend(f"inverse entry for unknown arrow {k!r}" for k in inverse if k not in number)
    for a, name in enumerate(names):
        if name not in inverse:
            bad.append(f"arrow {name!r} has no inverse entry")
            continue
        i = number.get(inverse[name])
        if i is None:
            bad.append(f"inverse of {name!r} names unknown arrow {inverse[name]!r}")
            continue
        s, t = source[a], target[a]
        if source[i] != t or target[i] != s:
            bad.append(f"inverse of {name!r} has wrong endpoints")
            continue
        if composite[a][slot[i]] != identity[t] or composite[i][slot[a]] != identity[s]:
            bad.append(f"inverse of {name!r} does not compose to the identities")
    if bad:
        return bad

    # In a groupoid the units with an arrow into u are exactly u's orbit.
    # The first unit not yet placed starts an orbit, and its non-identity
    # loops, numbered in arrow order, give the orbit's isotropy table.
    unit_orbits: list[tuple[int, ...]] = []
    isotropy: list[tuple[tuple[int, ...], ...]] = []
    placed = [False] * len(g.units)
    for u in range(len(g.units)):
        if not placed[u]:
            orbit = sorted({source[d] for d in into[u]})
            for v in orbit:
                placed[v] = True
            unit_orbits.append(tuple(orbit))
            at = [e for e in loops[u] if e != identity[u]]
            index = {a: i for i, a in enumerate(at)}
            columns = [slot[b] for b in at]
            isotropy.append(tuple([tuple([index.get(composite[a][c], -1) for c in columns]) for a in at]))
    setfield(g, "compose", tuple([entry for row in entries for entry in row]))
    setfield(g, "inverse", tuple([(name, inverse[name]) for name in names]))
    setfield(g, "_orbits", tuple(unit_orbits))
    setfield(g, "_isotropy", tuple(isotropy))
    return bad


def _validate_sft(m: SftModel) -> list[str]:
    bad: list[str] = []
    a = m.matrix
    if a.rows != a.cols:
        return [f"transition matrix is {a.rows}x{a.cols}, not square"]
    if a.rows == 0:
        return ["transition matrix is empty"]
    if any(x < 0 for x in a.entries):
        bad.append("transition matrix has a negative entry")
    rows = [a.row(i) for i in range(a.rows)]
    bad.extend(f"row {i} of the transition matrix is zero" for i, row in enumerate(rows) if not any(row))
    bad.extend(
        f"column {j} of the transition matrix is zero" for j, col in enumerate(zip(*rows)) if not any(col)
    )
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
    """Unit orbits: connected components under the arrows, in the order of
    their first units."""
    units = g.units
    return [{units[u] for u in orbit} for orbit in g._orbits]


def _units_with_isotropy(g: FiniteGroupoid) -> list[str]:
    """The units with a non-identity loop, sorted: those of the orbits with
    a nontrivial isotropy group, since an orbit's isotropy groups are
    conjugate."""
    units = g.units
    return sorted([units[u] for orbit, table in zip(g._orbits, g._isotropy) if table for u in orbit])
