"""Correctness gate: expected mathematical content of each benchmark item.

Expectations come from closed forms computed here, independently of the
package, and are compared with the program's output after parsing it, never
byte for byte, so renamed keys or reworded notes are not failures:

- finite groupoids: H_0 = Z^orbits and, for n >= 1, H_n is the sum over
  orbits of H_n(Z/k) (Z/k in odd degrees, 0 in even ones); a principal
  groupoid has K_0 = Z^orbits, K_1 = 0;
- shifts of finite type: H_0 = coker(I - A^T), H_1 = ker; when I - A^T is
  nonsingular the invariant factors multiply to |det| (fraction-free
  determinant) and, when the adjugate entries are coprime, H_0 is cyclic;
- AF and cantor_z: the eventual rank of the tail over Q (Fraction
  elimination of successive powers until the rank repeats);
- products: Kunneth from the factors' closed forms, rank-only as soon as a
  factor is colimit-valued, as the program documents;
- every torsion-free model ends with verdict ``match`` (exit 0), torsion
  isotropy with ``precondition_failed`` (exit 2).
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction

DEFAULT_MAX_DEGREE = 3
DEFAULT_WORDS = 6


class NoClosedForm(ValueError):
    """The oracle has no closed form for this input; a benchmark defect."""


@dataclass(frozen=True)
class Grp:
    """Expected group: ``torsion`` exact when known, else ``order`` when the
    product of the invariant factors is known; ``fg`` False for colimits."""

    rank: int
    torsion: tuple[int, ...] | None = ()
    order: int | None = None
    fg: bool = True


ZERO = Grp(0)


def _canonical(orders) -> tuple[int, ...]:
    """Invariant factors of a sum of cyclic groups, by gcd/lcm sweeps (no
    factoring, so orders of any size work)."""
    xs = [o for o in orders if o > 1]
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            g = math.gcd(xs[i], xs[j])
            xs[i], xs[j] = g, xs[i] * xs[j] // g
    return tuple(x for x in xs if x > 1)


def _sum(groups) -> Grp:
    groups = list(groups)
    if any(g.torsion is None for g in groups):
        return Grp(sum(g.rank for g in groups), None, None, all(g.fg for g in groups))
    return Grp(sum(g.rank for g in groups), _canonical(t for g in groups for t in g.torsion))


def _tensor(a: Grp, b: Grp) -> Grp:
    if a.torsion is None or b.torsion is None:
        return Grp(a.rank * b.rank, None)
    orders = [t for t in a.torsion for _ in range(b.rank)]
    orders += [t for t in b.torsion for _ in range(a.rank)]
    orders += [math.gcd(s, t) for s in a.torsion for t in b.torsion]
    return Grp(a.rank * b.rank, _canonical(orders))


def _tor(a: Grp, b: Grp) -> Grp:
    if a.torsion is None or b.torsion is None:
        return Grp(0, None)
    return Grp(0, _canonical(math.gcd(s, t) for s in a.torsion for t in b.torsion))


def _cyclic(k: int) -> Grp:
    return Grp(0, (k,) if k > 1 else ())


# ---------------------------------------------------------------------------
# exact rational and integer elimination, independent of the package


def _matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def rank_q(rows: list[list[int]]) -> int:
    """Rank over Q by Fraction Gaussian elimination."""
    a = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(a[0]) if a else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(a)) if a[r][c] != 0), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        p = a[rank]
        for r in range(rank + 1, len(a)):
            if a[r][c] != 0:
                f = a[r][c] / p[c]
                a[r] = [x - f * y for x, y in zip(a[r], p)]
        rank += 1
    return rank


def det_bareiss(rows: list[list[int]]) -> int:
    """Determinant by fraction-free (Bareiss) elimination with row pivoting."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def adjugate_gcd(rows: list[list[int]], det: int) -> int:
    """gcd of the (n-1)-minors, i.e. of the entries of det * inverse."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[pivot] = a[pivot], a[c]
        p = a[c][c]
        a[c] = [x / p for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    g = 0
    for row in a:
        for x in row[n:]:
            g = math.gcd(g, int(x * det))
    return g


def eventual_rank(tail: list[list[int]]) -> int:
    """rank(T^k) decreases until it repeats once; that value is eventual."""
    power = tail
    rank = rank_q(power)
    while True:
        power = _matmul(power, tail)
        nxt = rank_q(power)
        if nxt == rank:
            return rank
        rank = nxt


# ---------------------------------------------------------------------------
# closed forms per model class


@dataclass(frozen=True)
class Closed:
    """Homology (truncated or exact), K-theory or the exit K-theory ends with,
    and whether the isotropy is torsion-free."""

    homology: tuple[Grp, ...]
    vanishing: bool
    k: tuple[Grp, Grp] | None
    torsion_free: bool


def _finite(doc: dict, max_degree: int) -> Closed:
    units = doc["units"]
    parent = {u: u for u in units}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    loops: dict[str, list[str]] = {u: [] for u in units}
    for a in doc["arrows"]:
        parent[find(a["source"])] = find(a["target"])
        if a["source"] == a["target"]:
            loops[a["source"]].append(a["id"])
    compose = {(g, d): gd for g, d, gd in doc["compose"]}
    orders = []
    seen = set()
    for u in units:
        root = find(u)
        if root in seen:
            continue
        seen.add(root)
        group = loops[u]
        ident = next(e for e in group if all(compose[(e, x)] == x for x in group))
        k = len(group)

        def order(x):
            n, y = 1, x
            while y != ident:
                y, n = compose[(y, x)], n + 1
            return n

        if not any(order(x) == k for x in group):
            raise NoClosedForm(f"isotropy of order {k} at {u!r} is not cyclic")
        orders.append(k)
    h = [Grp(len(orders))]
    for n in range(1, max_degree + 1):
        h.append(_sum(_cyclic(k) for k in orders) if n % 2 else ZERO)
    principal = all(k == 1 for k in orders)
    k_pair = (Grp(len(orders)), ZERO) if principal else None
    return Closed(tuple(h), False, k_pair, principal)


def _sft(doc: dict) -> Closed:
    a = doc["matrix"]
    n = len(a)
    m = [[int(i == j) - a[j][i] for j in range(n)] for i in range(n)]
    det = det_bareiss(m)
    if det == 0:
        nullity = n - rank_q(m)
        h0 = Grp(nullity, () if nullity == n else None)
        h1 = Grp(nullity)
    else:
        d = abs(det)
        cyclic = d == 1 or (n <= 24 and adjugate_gcd(m, det) == 1)
        h0 = Grp(0, ((d,) if d > 1 else ()) if cyclic else None, d)
        h1 = ZERO
    return Closed((h0, h1), True, (h0, h1), True)


def _colimit_rank(diagram: dict) -> Grp:
    return Grp(eventual_rank(diagram["tail"]), None, None, fg=False)


def _product(left: Closed, right: Closed, max_degree: int) -> Closed:
    vanishing = left.vanishing and right.vanishing
    top = len(left.homology) + len(right.homology) - 1 if vanishing else max_degree
    lh, rh = left.homology, right.homology

    def at(h, d):
        return h[d] if d < len(h) else ZERO

    exact = all(g.fg for g in lh + rh)
    h = []
    for n in range(top + 1):
        if exact:
            parts = [_tensor(at(lh, p), at(rh, n - p)) for p in range(n + 1)]
            parts += [_tor(at(lh, p), at(rh, n - 1 - p)) for p in range(n)]
            h.append(_sum(parts))
        else:
            h.append(Grp(sum(at(lh, p).rank * at(rh, n - p).rank for p in range(n + 1)), None, None, False))
    k = None
    if left.k is not None and right.k is not None:
        (a0, a1), (b0, b1) = left.k, right.k
        if all(g.fg for g in (a0, a1, b0, b1)):
            k = (
                _sum([_tensor(a0, b0), _tensor(a1, b1), _tor(a0, b1), _tor(a1, b0)]),
                _sum([_tensor(a0, b1), _tensor(a1, b0), _tor(a0, b0), _tor(a1, b1)]),
            )
        else:
            k = (
                Grp(a0.rank * b0.rank + a1.rank * b1.rank, None, None, False),
                Grp(a0.rank * b1.rank + a1.rank * b0.rank, None, None, False),
            )
    return Closed(tuple(h), vanishing, k, left.torsion_free and right.torsion_free)


def closed_form(doc: dict, max_degree: int) -> Closed:
    kind = doc["model"]
    if kind == "finite":
        return _finite(doc, max_degree)
    if kind == "sft":
        return _sft(doc)
    if kind == "af":
        r = _colimit_rank(doc)
        return Closed((r,), True, (r, ZERO), True)
    if kind == "cantor_z":
        r = _colimit_rank(doc["diagram"])
        return Closed((r, Grp(1)), True, (r, Grp(1)), True)
    if kind == "product":
        left, right = (closed_form(f, max_degree) for f in doc["factors"])
        return _product(left, right, max_degree)
    raise NoClosedForm(f"model kind {kind!r}")


def graded_dims(r0: int, r1: int, words: int) -> list[list[int]]:
    """Sym(Q^r0) (x) Ext(Q^r1) by word length, split by exterior parity,
    as a product of generating series."""
    sym = [1] + [math.comb(r0 + s - 1, s) if r0 else 0 for s in range(1, words + 1)]
    out = []
    for n in range(words + 1):
        even = sum(sym[n - m] * math.comb(r1, m) for m in range(0, n + 1, 2))
        odd = sum(sym[n - m] * math.comb(r1, m) for m in range(1, n + 1, 2))
        out.append([even, odd])
    return out


def _transfer(span: dict) -> list[list[int]]:
    left = {x: j for j, x in enumerate(span["left"])}
    right = {y: i for i, y in enumerate(span["right"])}
    t = [[0] * len(left) for _ in right]
    for z in span["mid"]:
        t[right[span["right_leg"][z]]][left[span["left_leg"][z]]] += 1
    return t


# ---------------------------------------------------------------------------
# expectations and checks


def _flag(argv: list[str], name: str, default):
    return type(default)(argv[argv.index(name) + 1]) if name in argv else default


def expect(argv: list[str], doc_text: str | None, override: dict | None) -> dict:
    """What a correct program prints and returns for ``argv`` on this document."""
    if override is not None:
        return override
    command, fmt = argv[0], _flag(argv, "--format", "text")
    doc = json.loads(doc_text)
    if command == "span-check":
        spans = [doc["span"]] if "span" in doc else doc["compose"]
        return {"exit": 0, "format": fmt, "transfers": [_transfer(s) for s in spans]}
    closed = closed_form(doc, _flag(argv, "--max-degree", DEFAULT_MAX_DEGREE))
    spec = {"exit": 0, "format": fmt, "command": command, "homology": closed.homology}
    if command == "ktheory":
        if closed.k is None:
            return {"exit": 2}
        return {"exit": 0, "format": fmt, "command": command, "k": closed.k}
    if command in ("hk-check", "smale-check", "fullgroup-dims"):
        if not closed.torsion_free:
            if command == "fullgroup-dims":
                return {"exit": 2}
            spec.update(exit=2, verdict="precondition_failed", k=None)
        else:
            spec.update(verdict="match", k=closed.k)
        if command == "fullgroup-dims":
            r0, r1 = closed.k[0].rank, closed.k[1].rank
            return {"exit": 0, "format": fmt, "command": command, "ranks": [r0, r1],
                    "dims": graded_dims(r0, r1, _flag(argv, "--words", DEFAULT_WORDS))}
    return spec


_GROUP = re.compile(r"^(?:(Z)(?:\^(\d+))?)?((?:(?: \+ )?Z/\d+)*)$")
_COLIMIT = re.compile(r"^colimit\(rank (\d+)")


def _group_from_text(text: str) -> tuple[int, tuple[int, ...] | None]:
    """Parse '0', 'Z^2 + Z/3' or 'colimit(rank 2, ...)'; torsion None for colimits."""
    text = text.strip()
    m = _COLIMIT.match(text)
    if m:
        return int(m.group(1)), None
    if text == "0":
        return 0, ()
    m = _GROUP.match(text)
    if not m:
        raise ValueError(f"unparsable group {text!r}")
    rank = 0 if m.group(1) is None else int(m.group(2) or 1)
    return rank, tuple(int(t) for t in re.findall(r"Z/(\d+)", m.group(3)))


def _group_from_json(doc: dict) -> tuple[int, tuple[int, ...] | None]:
    return doc["rank"], (tuple(doc["torsion"]) if "torsion" in doc else None)


def _check_group(where: str, want: Grp, got: tuple[int, tuple[int, ...] | None]) -> str | None:
    rank, torsion = got
    if rank != want.rank:
        return f"{where}: rank {rank}, expected {want.rank}"
    if want.fg != (torsion is not None):
        return f"{where}: finitely generated {torsion is not None}, expected {want.fg}"
    if torsion is None:
        return None
    if any(t < 2 for t in torsion) or any(b % a for a, b in zip(torsion, torsion[1:])):
        return f"{where}: {torsion} is not an invariant-factor chain"
    if want.torsion is not None and torsion != want.torsion:
        return f"{where}: torsion {torsion}, expected {want.torsion}"
    if want.order is not None and math.prod(torsion) != want.order:
        return f"{where}: invariant factors multiply to {math.prod(torsion)}, expected {want.order}"
    return None


def _parse(spec: dict, stdout: str) -> dict:
    """Pull homology, K-theory, verdict, ranks and dims out of either format."""
    out: dict = {}
    if spec["format"] == "json":
        doc = json.loads(stdout)
        h = doc.get("homology")
        if h is not None:
            out["homology"] = [_group_from_json(g) for g in h["by_degree"]]
        k = doc.get("ktheory", False)
        if k is not False:
            out["k"] = None if k is None else [_group_from_json(k["k0"]), _group_from_json(k["k1"])]
        if "verdict" in doc:
            out["verdict"] = doc["verdict"]
        if "dims_by_word_length" in doc:
            out["ranks"] = [doc["k0_rank"], doc["k1_rank"]]
            out["dims"] = doc["dims_by_word_length"]
        if "transfer" in doc:
            out["transfers"] = [doc["transfer"]]
        elif "transfer_first" in doc:
            out["transfers"] = [doc["transfer_first"], doc["transfer_second"]]
            out["functorial"] = doc["functorial"]
        return out
    homology, k, dims = {}, {}, []
    for line in stdout.splitlines():
        if m := re.match(r"^\s*H(?:\^s)?_(\d+) = (.*)$", line):
            homology[int(m.group(1))] = _group_from_text(m.group(2))
        elif m := re.match(r"^\s*K_([01]) = (.*)$", line):
            k[int(m.group(1))] = _group_from_text(m.group(2))
        elif m := re.match(r"^verdict: (\S+)$", line):
            out["verdict"] = m.group(1)
        elif m := re.match(r"^K ranks: even (\d+), odd (\d+)$", line):
            out["ranks"] = [int(m.group(1)), int(m.group(2))]
        elif m := re.match(r"^word length \d+: even (\d+), odd (\d+)$", line):
            dims.append([int(m.group(1)), int(m.group(2))])
        elif m := re.match(r"^transfer(?:\((first|second)\))? = \[(.*)\]$", line):
            rows = [[int(x) for x in r.split()] for r in m.group(2).split("; ")] if m.group(2) else []
            out.setdefault("transfers", []).append(rows)
        elif m := re.match(r"^functorial: (true|false)$", line):
            out["functorial"] = m.group(1) == "true"
    if homology:
        out["homology"] = [homology[d] for d in sorted(homology)]
    if k:
        out["k"] = [k[0], k[1]]
    elif spec.get("command") in ("hk-check", "smale-check"):
        out["k"] = None
    if dims:
        out["dims"] = dims
    return out


def check(spec: dict, code, stdout: str, stderr: str, error: str | None) -> str | None:
    """None when the outcome is right, else a one-line reason."""
    if error is not None:
        return f"exception escaped cli.main: {error}"
    if code != spec["exit"]:
        return f"exit {code}, expected {spec['exit']}"
    if "format" not in spec:
        # Error exits: a message on stderr and nothing half-written on stdout.
        if code != 0 and not stderr.startswith(("error:", "precondition failure:")):
            return f"exit {code} without an error message"
        return None
    try:
        got = _parse(spec, stdout)
    except (ValueError, KeyError, TypeError) as e:
        return f"unparsable output: {e!r}"
    if "homology" in spec:
        want = spec["homology"]
        have = got.get("homology", [])
        if len(have) != len(want):
            return f"{len(have)} homology degrees, expected {len(want)}"
        for d, (w, g) in enumerate(zip(want, have)):
            if reason := _check_group(f"H_{d}", w, g):
                return reason
    if "k" in spec:
        if spec["k"] is None:
            if got.get("k") is not None:
                return "K-theory reported despite a failed precondition"
        else:
            if not got.get("k"):
                return "K-theory missing"
            for i, (w, g) in enumerate(zip(spec["k"], got["k"])):
                if reason := _check_group(f"K_{i}", w, g):
                    return reason
    if "verdict" in spec and got.get("verdict") != spec["verdict"]:
        return f"verdict {got.get('verdict')}, expected {spec['verdict']}"
    for key in ("ranks", "dims", "transfers"):
        if key in spec and got.get(key) != spec[key]:
            return f"{key} {got.get(key)}, expected {spec[key]}"
    if "transfers" in spec and len(spec["transfers"]) == 2 and got.get("functorial") is not True:
        return "span composite reported non-functorial"
    return None
