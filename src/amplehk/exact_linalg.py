"""Exact integer linear algebra: Smith normal form and homology of complexes.

All arithmetic is over the rational integers with Python's arbitrary-precision
``int``.  No floats enter at any point, so every rank, invariant factor, and
quotient computed here is exact.  Matrices are immutable; the functions below
are pure and deterministic, so results can be compared byte-for-byte across
runs.

One Smith reduction drives everything else.  Ranks, invariant factors and
cokernels read only the diagonal it leaves, so they never build transforms;
``sparse_complex_homology`` reads a whole chain complex off one elimination
per boundary, and ``complex_homology`` hands it dense boundaries as sparse
columns.  ``smith_normal_form`` and ``kernel_basis`` are the only callers
that also carry the unimodular transforms U and V along.

The diagonal readers share one kernel, ``_smith_factors``, which takes a
matrix as sparse rows and first eliminates its unit pivots: each +-1 entry
clears its column by row operations and contributes an invariant factor 1.
Each pivot is chosen when it is needed, a unit of the shortest row that has
one, in its shortest column; invariant factors are unique, so the order
shows only in time and fill.  Bar-complex boundaries have a few +-1 entries
per column, so this leaves a small residue without units, and only that
residue goes to the dense reduction (Dumas, Saunders and Villard, "On
efficient sparse integer matrix Smith normal form computations", 2001).
An ``IntMatrix`` reaches the kernel through ``invariant_factors``, which
reads off its nonzeros and returns the nonzero invariant factors;
``sparse_complex_homology`` takes boundaries as sparse columns and hands
them over with no dense matrix at all.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from itertools import compress

from ._record import Record, setfield
from .errors import DimensionMismatch, NotAComplex, ShapeMismatch

__all__ = [
    "FgAbelianGroup",
    "IntMatrix",
    "SnfResult",
    "cokernel",
    "complex_homology",
    "determinant",
    "invariant_factors",
    "kernel_basis",
    "matrix_rank",
    "smith_normal_form",
    "sparse_complex_homology",
]


class IntMatrix(Record):
    """Immutable integer matrix stored row-major as a flat tuple.

    >>> m = IntMatrix.from_rows([[1, 2], [3, 4]])
    >>> m.entry(1, 0)
    3
    >>> m @ IntMatrix.from_rows([[0, 1], [1, 0]]) == IntMatrix.from_rows([[2, 1], [4, 3]])
    True
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Iterable[int]) -> None:
        entries = tuple(entries)
        if rows < 0 or cols < 0:
            raise ShapeMismatch(f"negative shape {rows}x{cols}")
        if len(entries) != rows * cols:
            raise ShapeMismatch(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        if not set(map(type, entries)) <= {int}:
            bad = next(x for x in entries if type(x) is not int)
            raise ShapeMismatch(f"non-integer entry {bad!r}")
        setfield(self, "rows", rows)
        setfield(self, "cols", cols)
        setfield(self, "entries", entries)

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        """Matrix with the given rows; entries must be ``int``s, as in the
        constructor, which rejects anything else (bool, float, str)."""
        rows = [list(r) for r in rows]
        if rows:
            width = len(rows[0])
        elif cols is not None:
            width = cols
        else:
            width = 0
        for r in rows:
            if len(r) != width:
                raise ShapeMismatch("ragged rows")
        return IntMatrix(len(rows), width, tuple([x for row in rows for x in row]))

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ShapeMismatch(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        n = other.cols
        b = other.entries
        # Only the nonzeros of each right-hand row, as (j, y) pairs.
        b_rows = []
        for k in range(other.rows):
            row = b[k * n : (k + 1) * n]
            b_rows.append([(j, row[j]) for j in compress(range(n), row)])
        out = [0] * (self.rows * n)
        for i in range(self.rows):
            ai = self.row(i)
            base = i * n
            for k in compress(range(self.cols), ai):
                x = ai[k]
                for j, y in b_rows[k]:
                    out[base + j] += x * y
        return IntMatrix(self.rows, n, tuple(out))

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows)) + "]"


class SnfResult(Record):
    """Smith decomposition U @ M @ V == D.

    ``U`` and ``V`` are unimodular, ``D`` is diagonal with nonnegative entries
    satisfying the divisibility chain d1 | d2 | ... .
    """

    __slots__ = ("U", "D", "V")

    def diagonal(self) -> list[int]:
        n = min(self.D.rows, self.D.cols)
        return [self.D.entry(i, i) for i in range(n)]

    def rank(self) -> int:
        return sum(1 for d in self.diagonal() if d != 0)


def _euclid(x: int, y: int) -> tuple[int, int, int, int]:
    """Euclid's algorithm on x != 0 and y, with remainders nearest to zero,
    as a unimodular (a, b, c, d): a*x + b*y = +-gcd(x, y) and c*x + d*y = 0.

    b == 0 exactly when x divides y, and then (a, b, c, d) = (1, 0, -y/x, 1).
    """
    a, b, c, d = 1, 0, 0, 1
    while True:
        # Halves round up, so |remainder| <= |divisor| / 2.
        q = (2 * y + x) // (2 * x)
        if q:
            y -= q * x
            c -= q * a
            d -= q * b
        if not y:
            return a, b, c, d
        q = (2 * x + y) // (2 * y)
        x -= q * y
        a -= q * c
        b -= q * d
        if not x:
            return c, d, a, b


def _clear_column(a: list[list[int]], t: int, m: int) -> None:
    """Row operations that zero column t of ``a`` below row t, up to row m.

    Euclid runs on (t, t) and the least other nonzero entry of the column,
    and its 2 x 2 transform combines their two rows at once, leaving the
    gcd at (t, t); one sweep then reduces every other row of the column by
    it.  A sweep that leaves remainders (at most half the pivot) starts
    another round with the least of them.
    """
    r = None
    low = 0
    for i in range(t + 1, m):
        x = a[i][t]
        if x and (r is None or abs(x) < low):
            r, low = i, abs(x)
    while r is not None:
        p, s = a[t], a[r]
        pp, ps, sp, ss = _euclid(p[t], s[t])
        if ps:
            a[r] = [sp * x + ss * y for x, y in zip(p, s)]
            a[t] = p = [pp * x + ps * y for x, y in zip(p, s)]
        else:
            a[r] = [y + sp * x for x, y in zip(p, s)]
        d = p[t]
        r = None
        for i in range(t + 1, m):
            x = a[i][t]
            if x:
                q = (2 * x + d) // (2 * d)
                if q:
                    row = a[i] = [u - q * v for u, v in zip(a[i], p)]
                    x = row[t]
                if x and (r is None or abs(x) < low):
                    r, low = i, abs(x)


def _clear_row(a: list[list[int]], t: int, n: int) -> bool:
    """Column operations that zero row t of ``a`` right of column t, up to
    column n: ``_clear_column`` with rows and columns exchanged.

    The operations act on every row of ``a``.  Returns whether column t
    changed, which happens only when the pivot shrinks; it may then have
    entries below the pivot again.
    """
    pivot_row = a[t]
    refilled = False
    r = None
    low = 0
    for j in range(t + 1, n):
        x = pivot_row[j]
        if x and (r is None or abs(x) < low):
            r, low = j, abs(x)
    while r is not None:
        pp, ps, sp, ss = _euclid(pivot_row[t], pivot_row[r])
        if ps:
            refilled = True
            for row in a:
                x, y = row[t], row[r]
                if x or y:
                    row[t], row[r] = pp * x + ps * y, sp * x + ss * y
        else:
            for row in a:
                if row[t]:
                    row[r] += sp * row[t]
        d = pivot_row[t]
        # Only rows with an entry in column t change under the sweep.
        touched = [row for row in a if row[t]]
        r = None
        for j in range(t + 1, n):
            x = pivot_row[j]
            if x:
                q = (2 * x + d) // (2 * d)
                if q:
                    for row in touched:
                        row[j] -= q * row[t]
                    x = pivot_row[j]
                if x and (r is None or abs(x) < low):
                    r, low = j, abs(x)
    return refilled


def _reduce(a: list[list[int]], m: int, n: int) -> None:
    """Bring the leading m x n block of ``a`` to Smith form, in place.

    Row operations act on whole rows of ``a`` and column operations on whole
    columns, so rows past m and columns past n, when present, record the
    column and row operations.

    Each t takes as its pivot the nonzero entry of least absolute value in
    the trailing block, lowest (row, col) first; this keeps intermediate
    entries small and makes the reduction deterministic.  Column t is then
    cleared with one Euclid pair and one sweep: Euclid runs on the pivot and
    the least other entry of the column, and its 2 x 2 unimodular transform
    combines their two rows into the gcd row and a row with a zero there;
    one sweep then reduces every other row by its nearest quotient, leaving
    remainders of at most half the pivot, which start another round.  Row t
    is cleared the same way with column operations.  Clearing row t changes
    column t only when the pivot strictly shrinks, so the two clears
    alternate finitely often.  Last, the pivot must divide the trailing
    block: a row that it does not divide is added to row t, and clearing
    row t again shrinks the pivot.  A pivot of 1 divides everything and
    needs no scan.
    """
    bound = min(m, n)
    for t in range(bound):
        best: tuple[int, int] | None = None
        low = 0
        for i in range(t, m):
            row = a[i]
            for j in range(t, n):
                x = row[j]
                if x and (best is None or abs(x) < low):
                    best, low = (i, j), abs(x)
        if best is None:
            return
        bi, bj = best
        if bi != t:
            a[t], a[bi] = a[bi], a[t]
        if bj != t:
            for row in a:
                row[t], row[bj] = row[bj], row[t]
        while True:
            _clear_column(a, t, m)
            if _clear_row(a, t, n):
                continue
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
            d = a[t][t]
            if d != 1 and t + 1 < bound:
                culprit = next(
                    (i for i in range(t + 1, m) if any(x % d for x in a[i][t + 1 : n])), None
                )
                if culprit is not None:
                    a[t] = [x + y for x, y in zip(a[t], a[culprit])]
                    continue
            break


def _smith_factors(rows: dict[int, dict[int, int]], n: int) -> list[int]:
    """Nonzero Smith invariant factors, in divisibility order, of the matrix
    with n columns whose row i has the nonzero entries ``rows[i]``
    ({column: value}); ``rows`` is consumed.

    A unit pivot contributes an invariant factor 1, and clearing its column
    with row operations leaves the Smith form of the rest.  So the +-1
    entries are eliminated first, on the sparse rows.  Each pivot is chosen
    when it is needed, with no keys kept between pivots: the shortest row
    holding a unit, lowest row first, and in it the unit whose column is
    shortest, lowest column first.  Only the residue left when no unit
    remains is densified and handed to ``_reduce``.
    """
    cols: list[set[int]] = [set() for _ in range(n)]
    for i, ri in rows.items():
        for j in ri:
            cols[j].add(i)

    units = 0
    while True:
        p = None
        short = n + 1
        for i, ri in rows.items():
            if len(ri) < short:
                values = ri.values()
                if 1 in values or -1 in values:
                    p, short = i, len(ri)
                    if short == 1:
                        break
        if p is None:
            break
        units += 1
        prow = rows.pop(p)
        q = min((len(cols[j]), j) for j, x in prow.items() if x == 1 or x == -1)[1]
        u = prow[q]
        for j in prow:
            cols[j].discard(p)
        for i in list(cols[q]):
            ri = rows[i]
            f = ri[q] * u
            for j, y in prow.items():
                v = ri.get(j, 0) - f * y
                if v:
                    if j not in ri:
                        cols[j].add(i)
                    ri[j] = v
                else:
                    del ri[j]
                    cols[j].discard(i)

    live = [ri for ri in rows.values() if ri]
    used = sorted({j for ri in live for j in ri})
    a = [[ri.get(j, 0) for j in used] for ri in live]
    _reduce(a, len(a), len(used))
    return [1] * units + [a[t][t] for t in range(min(len(a), len(used))) if a[t][t]]


def invariant_factors(mat: IntMatrix) -> list[int]:
    """Nonzero diagonal entries of the Smith form, in divisibility order,
    without the transforms: the nonzeros of ``mat.entries`` go to
    ``_smith_factors`` as sparse rows."""
    n = mat.cols
    rows: dict[int, dict[int, int]] = {}
    for i in range(mat.rows):
        row = mat.row(i)
        rows[i] = {j: row[j] for j in compress(range(n), row)}
    return _smith_factors(rows, n)


def smith_normal_form(mat: IntMatrix) -> SnfResult:
    """Diagonalize ``mat`` over the integers.

    The reduction runs on [[M, I], [I, 0]]: row operations carry U along in
    the right block and column operations carry V along in the bottom block.

    >>> res = smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]]))
    >>> res.diagonal()
    [2, 4]
    >>> res.U @ IntMatrix.from_rows([[2, 4], [6, 8]]) @ res.V == res.D
    True
    """
    m, n = mat.rows, mat.cols
    a = [row + [int(i == k) for k in range(m)] for i, row in enumerate(mat.to_rows())]
    a += [[int(i == j) for j in range(n)] + [0] * m for i in range(n)]
    _reduce(a, m, n)
    return SnfResult(
        U=IntMatrix.from_rows([row[n:] for row in a[:m]], cols=m),
        D=IntMatrix.from_rows([row[:n] for row in a[:m]], cols=n),
        V=IntMatrix.from_rows([row[:n] for row in a[m:]], cols=n),
    )


def matrix_rank(mat: IntMatrix) -> int:
    return len(invariant_factors(mat))


def kernel_basis(mat: IntMatrix) -> IntMatrix:
    """Columns form a basis of ker(mat) as a direct summand of Z^cols."""
    res = smith_normal_form(mat)
    r = res.rank()
    rows = [[res.V.entry(i, j) for j in range(r, mat.cols)] for i in range(mat.cols)]
    return IntMatrix.from_rows(rows, cols=mat.cols - r)


def determinant(mat: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if mat.rows != mat.cols:
        raise ShapeMismatch("determinant of a non-square matrix")
    n = mat.rows
    if n == 0:
        return 1
    a = mat.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot_row is None:
                return 0
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _canonical_torsion(orders: Iterable[int]) -> tuple[int, ...]:
    """Invariant factors of the direct sum of cyclic groups Z/o for o in orders.

    Z/a + Z/b is Z/gcd(a, b) + Z/lcm(a, b), so replacing each pair (a_i, a_j),
    i < j, by (gcd, lcm) in turn leaves a_i dividing every later entry, and
    the whole list a divisibility chain with its 1s in front; no integer
    factorization is needed.
    """
    a = [o for o in orders if o > 1]
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            g = math.gcd(a[i], a[j])
            a[i], a[j] = g, a[i] // g * a[j]
    return tuple([o for o in a if o > 1])


class FgAbelianGroup(Record):
    """Finitely generated abelian group in canonical form.

    ``rank`` counts the free summands; ``torsion`` lists invariant factors,
    each at least 2, each dividing the next.  Equality of instances is
    isomorphism of the groups they denote.

    >>> FgAbelianGroup.sum([FgAbelianGroup.cyclic(6), FgAbelianGroup.cyclic(4)]).torsion
    (2, 12)
    """

    __slots__ = ("rank", "torsion")

    def __init__(self, rank: int, torsion: Iterable[int] = ()) -> None:
        torsion = tuple(torsion)
        if rank < 0:
            raise ValueError(f"negative rank {rank}")
        previous = None
        for t in torsion:
            if type(t) is not int or t < 2:
                raise ValueError(f"invariant factor {t!r} must be an integer >= 2")
            if previous is not None and t % previous:
                raise ValueError(f"invariant factors {previous}, {t} break the divisibility chain")
            previous = t
        setfield(self, "rank", rank)
        setfield(self, "torsion", torsion)

    @staticmethod
    def zero() -> "FgAbelianGroup":
        return FgAbelianGroup(0, ())

    @staticmethod
    def free(rank: int) -> "FgAbelianGroup":
        return FgAbelianGroup(rank, ())

    @staticmethod
    def cyclic(order: int) -> "FgAbelianGroup":
        if order < 2:
            raise ValueError("cyclic torsion group needs order >= 2")
        return FgAbelianGroup(0, (order,))

    @staticmethod
    def sum(groups: Sequence["FgAbelianGroup"]) -> "FgAbelianGroup":
        """Direct sum of ``groups``, the zero group when there are none: the
        ranks add, and all their torsion orders recombine at once."""
        rank = 0
        orders: list[int] = []
        for group in groups:
            rank += group.rank
            orders += group.torsion
        return FgAbelianGroup(rank, _canonical_torsion(orders))

    def tensor(self, other: "FgAbelianGroup") -> "FgAbelianGroup":
        """Tensor product over Z, in canonical form.

        Free parts multiply; Z/a (x) Z/b is Z/gcd(a, b); Z/a (x) Z^r is
        (Z/a)^r.
        """
        orders: list[int] = []
        orders.extend(d for d in self.torsion for _ in range(other.rank))
        orders.extend(e for e in other.torsion for _ in range(self.rank))
        orders.extend(math.gcd(d, e) for d in self.torsion for e in other.torsion)
        return FgAbelianGroup(self.rank * other.rank, _canonical_torsion(orders))

    def tor(self, other: "FgAbelianGroup") -> "FgAbelianGroup":
        """Tor_1 over Z: free parts drop out, Tor(Z/a, Z/b) is Z/gcd(a, b)."""
        orders = [math.gcd(d, e) for d in self.torsion for e in other.torsion]
        return FgAbelianGroup(0, _canonical_torsion(orders))

    def __str__(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


def cokernel(mat: IntMatrix) -> FgAbelianGroup:
    """The quotient Z^rows / im(mat), in canonical form.

    >>> str(cokernel(IntMatrix.from_rows([[2, 4], [6, 8]])))
    'Z/2 + Z/4'
    """
    factors = invariant_factors(mat)
    return FgAbelianGroup(mat.rows - len(factors), tuple([d for d in factors if d > 1]))


def complex_homology(boundaries: Sequence[IntMatrix]) -> list[FgAbelianGroup]:
    """Homology H_0 .. H_(k-1) of the chain complex with boundaries d_1 .. d_k.

    ``boundaries[n - 1]`` is d_n, mapping degree n down to degree n - 1;
    consecutive boundaries must chain and compose to zero.  The image of d_n
    is free, so ker d_n is a direct summand: H_n has the torsion of
    coker d_(n+1) and rank rank coker d_(n+1) - rank d_n, where rank d_n is
    rows - rank coker d_n.  So each boundary is eliminated once, as sparse
    columns by ``sparse_complex_homology``.

    >>> d1, d2 = IntMatrix.from_rows([[0]]), IntMatrix.from_rows([[2]])
    >>> [str(h) for h in complex_homology([d1, d2])]
    ['Z', 'Z/2']
    """
    if not boundaries:
        raise ValueError("a chain complex needs at least one boundary")
    for d_in, d_out in zip(boundaries, boundaries[1:]):
        if d_in.cols != d_out.rows:
            raise DimensionMismatch(
                f"boundary shapes {d_in.rows}x{d_in.cols} and "
                f"{d_out.rows}x{d_out.cols} do not chain"
            )
    columns = [
        [{i: x for i, x in enumerate(d.entries[t :: d.cols]) if x} for t in range(d.cols)]
        for d in boundaries
    ]
    return sparse_complex_homology(boundaries[0].rows, columns)


def sparse_complex_homology(
    rows: int, boundaries: Sequence[Sequence[dict[int, int]]]
) -> list[FgAbelianGroup]:
    """``complex_homology`` of boundaries given as sparse columns.

    ``boundaries[n - 1]`` lists the columns of d_n, column t as
    {row: coefficient} with no zero coefficient; d_1 has ``rows`` rows and
    d_(n+1) one row per column of d_n.  The composites are checked on the
    columns, and each boundary reaches ``_smith_factors`` as sparse rows,
    without a dense intermediate.

    >>> [str(h) for h in sparse_complex_homology(1, [[{}], [{0: 2}]])]
    ['Z', 'Z/2']
    """
    if not boundaries:
        raise ValueError("a chain complex needs at least one boundary")
    for d_in, d_out in zip(boundaries, boundaries[1:]):
        for column in d_out:
            image: dict[int, int] = {}
            for s, c in column.items():
                for r, x in d_in[s].items():
                    image[r] = image.get(r, 0) + c * x
            if any(image.values()):
                raise NotAComplex("composite of consecutive boundaries is nonzero")
    heights = [rows] + [len(d) for d in boundaries[:-1]]
    cokernels = []
    for d, m in zip(boundaries, heights):
        sparse: dict[int, dict[int, int]] = {i: {} for i in range(m)}
        for t, column in enumerate(d):
            for r, x in column.items():
                sparse[r][t] = x
        factors = _smith_factors(sparse, len(d))
        cokernels.append(FgAbelianGroup(m - len(factors), tuple([f for f in factors if f > 1])))
    return _homology(cokernels, heights)


def _homology(cokernels: list[FgAbelianGroup], heights: list[int]) -> list[FgAbelianGroup]:
    """H_0 .. H_(k-1) from coker d_1 .. coker d_k and the row counts of
    d_1 .. d_k, as ``complex_homology`` explains."""
    out = [cokernels[0]]
    for m, below, above in zip(heights, cokernels, cokernels[1:]):
        out.append(FgAbelianGroup(above.rank - (m - below.rank), above.torsion))
    return out
