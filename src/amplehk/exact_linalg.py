"""Exact integer linear algebra: Smith normal form and homology of complexes.

All arithmetic is over the rational integers with Python's arbitrary-precision
``int``.  No floats enter at any point, so every rank, invariant factor, and
quotient computed here is exact.  Matrices are immutable; the functions below
are pure and deterministic, so results can be compared byte-for-byte across
runs.

One Smith reduction drives everything else.  Ranks, invariant factors,
cokernels and ``chain_homology`` read only the diagonal it leaves, so they
never build transforms; ``smith_normal_form`` and ``kernel_basis`` are the
only callers that also carry the unimodular transforms U and V along.

The diagonal readers first eliminate unit pivots on a sparse copy: each +-1
entry, taken in Markowitz order, clears its column by row operations and
contributes an invariant factor 1.  Bar-complex boundaries have a few +-1
entries per column, so this leaves a small residue without units, and only
that residue goes to the dense reduction (Dumas, Saunders and Villard, "On
efficient sparse integer matrix Smith normal form computations", 2001).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Sequence

from .errors import DimensionMismatch, NotAComplex, ShapeMismatch

__all__ = [
    "FgAbelianGroup",
    "IntMatrix",
    "SnfResult",
    "chain_homology",
    "cokernel",
    "determinant",
    "invariant_factors",
    "kernel_basis",
    "kernel_rank",
    "matrix_rank",
    "smith_normal_form",
]


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix stored row-major as a flat tuple.

    >>> m = IntMatrix.from_rows([[1, 2], [3, 4]])
    >>> m.entry(1, 0)
    3
    >>> (m @ IntMatrix.identity(2)) == m
    True
    """

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ShapeMismatch(f"negative shape {self.rows}x{self.cols}")
        if len(self.entries) != self.rows * self.cols:
            raise ShapeMismatch(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} entries, "
                f"got {len(self.entries)}"
            )
        if not set(map(type, self.entries)) <= {int}:
            bad = next(x for x in self.entries if type(x) is not int)
            raise ShapeMismatch(f"non-integer entry {bad!r}")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
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
        flat = tuple(int(x) for row in rows for x in row)
        return IntMatrix(len(rows), width, flat)

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, (0,) * (rows * cols))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        flat = [0] * (n * n)
        for i in range(n):
            flat[i * n + i] = 1
        return IntMatrix(n, n, tuple(flat))

    @staticmethod
    def diagonal(diag: Iterable[int], rows: int | None = None, cols: int | None = None) -> "IntMatrix":
        d = list(diag)
        r = len(d) if rows is None else rows
        c = len(d) if cols is None else cols
        flat = [0] * (r * c)
        for i, x in enumerate(d):
            flat[i * c + i] = int(x)
        return IntMatrix(r, c, tuple(flat))

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        flat = tuple(self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows))
        return IntMatrix(self.cols, self.rows, flat)

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

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("shape mismatch in addition")
        return IntMatrix(self.rows, self.cols, tuple(x + y for x, y in zip(self.entries, other.entries)))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("shape mismatch in subtraction")
        return IntMatrix(self.rows, self.cols, tuple(x - y for x, y in zip(self.entries, other.entries)))

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(-x for x in self.entries))

    def scale(self, c: int) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(c * x for x in self.entries))

    def power(self, k: int) -> "IntMatrix":
        if self.rows != self.cols:
            raise ShapeMismatch("power of a non-square matrix")
        if k < 0:
            raise ValueError("negative matrix power")
        result = IntMatrix.identity(self.rows)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base if k > 1 else base
            k >>= 1
        return result

    def is_zero(self) -> bool:
        return not any(self.entries)

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ShapeMismatch("hstack needs equal row counts")
        rows = [list(self.row(i)) + list(other.row(i)) for i in range(self.rows)]
        return IntMatrix.from_rows(rows, cols=self.cols + other.cols)

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows)) + "]"


@dataclass(frozen=True)
class SnfResult:
    """Smith decomposition U @ M @ V == D.

    ``U`` and ``V`` are unimodular, ``D`` is diagonal with nonnegative entries
    satisfying the divisibility chain d1 | d2 | ... .
    """

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    def diagonal(self) -> list[int]:
        n = min(self.D.rows, self.D.cols)
        return [self.D.entry(i, i) for i in range(n)]

    def rank(self) -> int:
        return sum(1 for d in self.diagonal() if d != 0)


def _reduce(a: list[list[int]], m: int, n: int) -> None:
    """Bring the leading m x n block of ``a`` to Smith form, in place.

    Row operations act on whole rows of ``a`` and column operations on whole
    columns, so rows past m and columns past n, when present, record the
    column and row operations.  Pivots are chosen by minimal absolute value
    with the lowest (row, col) index breaking ties; this keeps intermediate
    entries small and makes the reduction deterministic.
    """
    t = 0
    bound = min(m, n)
    while t < bound:
        # Locate the minimal-absolute-value nonzero entry of the trailing block.
        best: tuple[int, int] | None = None
        best_abs = 0
        for i in range(t, m):
            for j in range(t, n):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < best_abs):
                    best = (i, j)
                    best_abs = abs(x)
        if best is None:
            break
        bi, bj = best
        if bi != t:
            a[t], a[bi] = a[bi], a[t]
        if bj != t:
            for row in a:
                row[t], row[bj] = row[bj], row[t]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        d = a[t][t]

        dirty = False
        for i in range(t + 1, m):
            if a[i][t]:
                q = -(a[i][t] // d)
                a[i] = [x + q * y for x, y in zip(a[i], a[t])]
                if a[i][t]:
                    dirty = True
        for j in range(t + 1, n):
            if a[t][j]:
                q = -(a[t][j] // d)
                for row in a:
                    row[j] += q * row[t]
                if a[t][j]:
                    dirty = True
        if dirty:
            continue

        # Row and column are clear; enforce that d divides the trailing block.
        culprit = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % d:
                    culprit = i
                    break
            if culprit is not None:
                break
        if culprit is not None:
            a[t] = [x + y for x, y in zip(a[t], a[culprit])]
            continue
        t += 1


def _cheapest_unit(row: dict[int, int], cols: list[set[int]]) -> tuple[int, int] | None:
    """(entries in column j, j) for the +-1 entry of ``row`` whose column is
    shortest, lowest j first; None when the row has no unit."""
    return min(((len(cols[j]), j) for j, x in row.items() if x == 1 or x == -1), default=None)


def _smith_diagonal(mat: IntMatrix) -> list[int]:
    """Diagonal of the Smith form of ``mat``, without the transforms.

    A unit pivot contributes an invariant factor 1, and clearing its column
    with row operations leaves the Smith form of the rest.  So the +-1
    entries are eliminated first, on sparse rows, always at the lowest
    Markowitz cost (row entries - 1) * (column entries - 1), then lowest
    row, then lowest column.  Only the residue left when no unit remains is
    densified and handed to ``_reduce``.
    """
    m, n = mat.rows, mat.cols
    rows: dict[int, dict[int, int]] = {i: {} for i in range(m)}
    cols: list[set[int]] = [set() for _ in range(n)]
    entries = mat.entries
    for k in compress(range(m * n), entries):
        i, j = divmod(k, n)
        rows[i][j] = entries[k]
        cols[j].add(i)

    # best[i] is the key (column entries, column) of row i's cheapest unit,
    # or a lower bound on it when i is in ``loose``; keys only change in the
    # columns of a pivot row, so a loose row is searched again only when its
    # bound could win the next pivot.
    best = {i: _cheapest_unit(ri, cols) for i, ri in rows.items()}
    loose: set[int] = set()
    units = 0
    while True:
        pick = None
        for i, b in best.items():
            if b is None:
                continue
            cost = (len(rows[i]) - 1) * (b[0] - 1)
            if pick is not None and cost >= pick[0]:
                continue
            if i in loose:
                loose.discard(i)
                b = best[i] = _cheapest_unit(rows[i], cols)
                if b is None:
                    continue
                cost = (len(rows[i]) - 1) * (b[0] - 1)
                if pick is not None and cost >= pick[0]:
                    continue
            pick = (cost, i, b[1])
            if not cost:
                break
        if pick is None:
            break
        _, p, q = pick
        units += 1
        prow = rows.pop(p)
        del best[p]
        loose.discard(p)
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
            b = best[i]
            if b is not None and b[1] in prow:
                loose.add(i)
        for j in prow:
            key = (len(cols[j]), j)
            for i in cols[j]:
                b = best[i]
                if (b is None or key < b) and rows[i][j] in (1, -1):
                    best[i] = key
                    loose.discard(i)
                elif b is not None and b[1] == j and key != b:
                    loose.add(i)

    live = [ri for ri in rows.values() if ri]
    used = sorted({j for ri in live for j in ri})
    a = [[ri.get(j, 0) for j in used] for ri in live]
    _reduce(a, len(a), len(used))
    diag = [1] * units + [a[t][t] for t in range(min(len(a), len(used))) if a[t][t]]
    return diag + [0] * (min(m, n) - len(diag))


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


def invariant_factors(mat: IntMatrix) -> list[int]:
    """Nonzero diagonal entries of the Smith form, in divisibility order."""
    return [d for d in _smith_diagonal(mat) if d != 0]


def matrix_rank(mat: IntMatrix) -> int:
    return sum(1 for d in _smith_diagonal(mat) if d != 0)


def kernel_rank(mat: IntMatrix) -> int:
    """Rank of the kernel lattice, i.e. cols minus rank."""
    return mat.cols - matrix_rank(mat)


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

    Computed as the cokernel of the diagonal matrix of the orders, which
    recombines arbitrary cyclic orders into a divisibility chain without any
    integer factorization.
    """
    relevant = [o for o in orders if o > 1]
    return cokernel(IntMatrix.diagonal(relevant)).torsion if relevant else ()


@dataclass(frozen=True)
class FgAbelianGroup:
    """Finitely generated abelian group in canonical form.

    ``rank`` counts the free summands; ``torsion`` lists invariant factors,
    each at least 2, each dividing the next.  Equality of instances is
    isomorphism of the groups they denote.

    >>> FgAbelianGroup.cyclic(6).direct_sum(FgAbelianGroup.cyclic(4)).torsion
    (2, 12)
    """

    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError(f"negative rank {self.rank}")
        previous = None
        for t in self.torsion:
            if type(t) is not int or t < 2:
                raise ValueError(f"invariant factor {t!r} must be an integer >= 2")
            if previous is not None and t % previous:
                raise ValueError(f"invariant factors {previous}, {t} break the divisibility chain")
            previous = t

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

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    @property
    def is_torsion_free(self) -> bool:
        return not self.torsion

    def direct_sum(self, other: "FgAbelianGroup") -> "FgAbelianGroup":
        return FgAbelianGroup(self.rank + other.rank, _canonical_torsion(self.torsion + other.torsion))

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
    diag = _smith_diagonal(mat)
    r = sum(1 for d in diag if d != 0)
    return FgAbelianGroup(mat.rows - r, tuple(d for d in diag if d > 1))


def chain_homology(boundary_in: IntMatrix, boundary_out: IntMatrix) -> FgAbelianGroup:
    """Homology ker(boundary_in) / im(boundary_out) at the middle spot.

    ``boundary_in`` maps the chain group in question down one degree and
    ``boundary_out`` maps into it from one degree up.  Their composite must be
    zero.

    The image of ``boundary_in`` is free, so its kernel is a direct summand
    and the homology has the torsion of coker(boundary_out); its rank is
    cols - rank(boundary_in) - rank(boundary_out).

    >>> z = IntMatrix.zeros(1, 1)
    >>> str(chain_homology(z, IntMatrix.from_rows([[2]])))
    'Z/2'
    """
    if boundary_in.cols != boundary_out.rows:
        raise DimensionMismatch(
            f"boundary shapes {boundary_in.rows}x{boundary_in.cols} and "
            f"{boundary_out.rows}x{boundary_out.cols} do not chain"
        )
    if not (boundary_in @ boundary_out).is_zero():
        raise NotAComplex("composite of consecutive boundaries is nonzero")
    quotient = cokernel(boundary_out)
    return FgAbelianGroup(quotient.rank - matrix_rank(boundary_in), quotient.torsion)
