"""Rank comparison between periodicized homology and K-theory.

The rational comparison theorem says: for an ample groupoid with torsion-free
isotropy whose class satisfies the rational Baum-Connes property, the rank of
K_0 equals the total rank of the even homology and the rank of K_1 the total
rank of the odd homology.  ``hk_check`` runs that comparison on a model and
returns a full report; ``smale_check`` is the same arithmetic dressed in
Smale-space terminology.  A report renders as text, each group as its
``str``, or as canonical JSON: ``_canonical_json`` writes any record as the
object of its fields, so the report's field names, and those of the records
it holds, are the JSON keys.

Preconditions are handled honestly: for finite groupoids torsion-freeness of
the isotropy is computed exactly, for the symbolic classes it is declared
with a citation, and a failing precondition produces a report with verdict
``precondition_failed`` rather than a rank verdict either way.  Each class's
isotropy and Baum-Connes justification come from its record in
``ktheory.RECORDS``.  Both sides come from one walk, and the homology is
folded into its even and odd direct sums by ``ktheory.periodicize``, the
same fold that reads K off H and forms the K-theory of products.  A
truncated grading is summed over its listed degrees, and the report names
the truncation degree.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _quote

from ._record import Record, replace
from .homology import DEFAULT_SIZE_BOUND
from .ktheory import Precondition, invariants, periodicize
from .models import GroupoidModel, SftModel

__all__ = [
    "HKReport",
    "VERDICT_MATCH",
    "VERDICT_MISMATCH",
    "VERDICT_PRECONDITION_FAILED",
    "free_graded_commutative_dims",
    "hk_check",
    "report_to_json_text",
    "report_to_text",
    "smale_check",
]

VERDICT_MATCH = "match"
VERDICT_MISMATCH = "mismatch"
VERDICT_PRECONDITION_FAILED = "precondition_failed"


class HKReport(Record):
    """Everything ``hk_check`` established about one model."""

    __slots__ = (
        "model",
        "dialect",
        "max_degree",
        "preconditions",
        "homology",
        "ktheory",
        "even_rank",
        "odd_rank",
        "rational_match",
        "integral_match",
        "truncation_degree",
        "verdict",
        "notes",
    )


def hk_check(
    model: GroupoidModel,
    max_degree: int = 3,
    size_bound: int = DEFAULT_SIZE_BOUND,
) -> HKReport:
    """Run the rank comparison on a model and report the verdict.

    Homology is always computed, even when a precondition fails, so the
    report stays informative; the rank verdict itself is refused in that
    case, and K-theory is not computed.  Both sides come from one walk over
    the model (``ktheory.invariants``), which finds the isotropy first and
    computes each leaf's homology at most once, for H and K alike.  The
    integral comparison is attempted only when every group in sight is
    finitely generated and the grading is exact, and an integral discrepancy
    is reported as a note, never as a failure of the rational statement.
    """
    found = invariants(model, max_degree, size_bound)
    iso = found.isotropy
    homology = found.homology()
    ktheory = found.ktheory() if iso.holds else None
    truncation_degree = None if homology.vanishing_above else homology.max_degree
    notes: list[str] = []
    even = odd = rational_match = integral_match = None

    if not iso.holds:
        notes.append(
            "precondition failed: the comparison theorem requires the stabilizer to be "
            "a torsion-free group for all units, but " + iso.justification
        )
        verdict = VERDICT_PRECONDITION_FAILED
    else:
        assert ktheory is not None
        if truncation_degree is not None:
            notes.append(
                "bar complex truncated: rational comparison verified up to degree "
                f"{truncation_degree}"
            )
        periodic = periodicize(homology)
        even, odd = periodic.k0.rank, periodic.k1.rank
        rational_match = ktheory.k0.rank == even and ktheory.k1.rank == odd
        verdict = VERDICT_MATCH if rational_match else VERDICT_MISMATCH
        if (
            homology.vanishing_above
            and homology.all_finitely_generated()
            and ktheory.all_finitely_generated()
        ):
            integral_match = periodic == ktheory
            if not integral_match:
                notes.append(
                    "integral comparison fails for this model; this does not contradict "
                    "the rational statement"
                )
        else:
            integral_match = "not_applicable"
            notes.append(
                "integral comparison not applicable: a group involved is colimit-valued "
                "or the grading is truncated"
            )

    return HKReport(
        model=found.summary,
        dialect="groupoid",
        max_degree=max_degree,
        preconditions=(
            iso,
            Precondition("rational_baum_connes", True, "declared", found.baum_connes),
        ),
        homology=homology,
        ktheory=ktheory,
        even_rank=even,
        odd_rank=odd,
        rational_match=rational_match,
        integral_match=integral_match,
        truncation_degree=truncation_degree,
        verdict=verdict,
        notes=tuple(notes),
    )


def smale_check(model: SftModel, max_degree: int = 3) -> HKReport:
    """Rank comparison for a Smale space with totally disconnected stable sets.

    Such a space is presented, up to the relevant equivalences, by a shift of
    finite type; its stable (Putnam) homology is the homology of the unstable
    groupoid and the comparison runs against the K-theory of the unstable
    algebra.  The arithmetic is exactly ``hk_check`` on the shift model.
    """
    report = hk_check(model, max_degree=max_degree)
    notes = report.notes + (
        "Smale reading: H^s_n is the homology of the unstable groupoid and the ranks "
        "are compared against K_*(unstable algebra)",
    )
    return replace(report, model=f"smale({report.model})", dialect="smale", notes=notes)


# ---------------------------------------------------------------------------
# graded dimensions of the enveloping full group's rational homology


def _sym_dim(space_dim: int, weight: int) -> int:
    if weight == 0:
        return 1
    if space_dim == 0:
        return 0
    return math.comb(space_dim + weight - 1, weight)


def free_graded_commutative_dims(
    even_dim: int, odd_dim: int, max_word_length: int
) -> list[tuple[int, int]]:
    """Graded dimensions of the free graded-commutative algebra on a Z/2-graded
    space, listed by word length.

    Even generators generate a symmetric algebra, odd generators an exterior
    one (signs make odd squares vanish).  A word's parity is the number of odd
    letters mod 2.  Entry n of the result is (even-part dim, odd-part dim) of
    the word-length-n piece.

    >>> free_graded_commutative_dims(1, 0, 3)
    [(1, 0), (1, 0), (1, 0), (1, 0)]
    >>> free_graded_commutative_dims(0, 1, 2)
    [(1, 0), (0, 1), (0, 0)]
    """
    if even_dim < 0 or odd_dim < 0 or max_word_length < 0:
        raise ValueError("dimensions and word length must be nonnegative")
    out: list[tuple[int, int]] = []
    for n in range(max_word_length + 1):
        even_total = 0
        odd_total = 0
        # Exterior powers vanish past odd_dim.
        for ext_weight in range(min(n, odd_dim) + 1):
            count = _sym_dim(even_dim, n - ext_weight) * math.comb(odd_dim, ext_weight)
            if count == 0:
                continue
            if ext_weight % 2 == 0:
                even_total += count
            else:
                odd_total += count
        out.append((even_total, odd_total))
    return out


# ---------------------------------------------------------------------------
# serialization


def report_to_text(report: HKReport) -> str:
    smale = report.dialect == "smale"
    h_label = "H^s" if smale else "H"
    k_label = "K (unstable algebra)" if smale else "K"
    lines = [f"model: {report.model}", f"verdict: {report.verdict}"]
    lines.append("preconditions:")
    for p in report.preconditions:
        status = "holds" if p.holds else "FAILS"
        lines.append(f"  {p.name}: {status} ({p.mode}) - {p.justification}")
    lines.append(f"homology ({h_label}):")
    for d, v in enumerate(report.homology.by_degree):
        lines.append(f"  {h_label}_{d} = {v}")
    if report.homology.vanishing_above:
        lines.append(f"  zero above degree {report.homology.max_degree}")
    else:
        lines.append(f"  truncated at degree {report.homology.max_degree}")
    if report.ktheory is not None:
        lines.append(f"ktheory ({k_label}):")
        lines.append(f"  K_0 = {report.ktheory.k0}")
        lines.append(f"  K_1 = {report.ktheory.k1}")
    if report.even_rank is not None:
        lines.append(f"periodicized homology ranks: even {report.even_rank}, odd {report.odd_rank}")
    if report.rational_match is not None:
        lines.append(f"rational_match: {str(report.rational_match).lower()}")
    if report.integral_match is not None:
        lines.append(f"integral_match: {str(report.integral_match).lower()}")
    for note in report.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


def _canonical_json(doc: object) -> str:
    r"""Canonical JSON rendering: sorted keys, fixed layout, trailing newline.
    Every JSON document the package writes goes through it.

    The bytes are those of ``json.dumps(doc, indent=2, sort_keys=True)``,
    which with ``indent`` set runs CPython's pure-Python encoder; this writer
    emits the same text for the types the package writes (``str`` keys,
    ``str``, ``int``, ``bool``, ``None``, ``dict``, ``list`` and ``tuple``)
    and raises ``TypeError`` on anything else.  A ``Record`` (a report, a
    graded group, a group) is written as the object of its fields, keyed by
    field name.

    >>> print(_canonical_json({"b": [1, True, None], "a": {}, "c": "é"}), end="")
    {
      "a": {},
      "b": [
        1,
        true,
        null
      ],
      "c": "\u00e9"
    }
    """
    out: list[str] = []
    _write(doc, out.append, "\n")
    out.append("\n")
    return "".join(out)


def _write(value: object, put, newline: str) -> None:
    """Append ``value``'s JSON text to ``put``; ``newline`` is the line break
    and indent of the line ``value`` starts on.  A key that is not a ``str``
    makes ``_quote`` raise ``TypeError``."""
    kind = type(value)
    if kind is str:
        put(_quote(value))
    elif kind is int:
        put(int.__repr__(value))
    elif kind is list or kind is tuple:
        if not value:
            put("[]")
            return
        inner = newline + "  "
        opener = "[" + inner
        for item in value:
            put(opener)
            _write(item, put, inner)
            opener = "," + inner
        put(newline + "]")
    elif value is None:
        put("null")
    elif value is True:
        put("true")
    elif value is False:
        put("false")
    else:
        # An object: a dict, or a record as the object of its fields.
        if kind is dict:
            keys, member = sorted(value), value.__getitem__
        elif isinstance(value, Record):
            keys, member = sorted(value._fields), value.__getattribute__
        else:
            raise TypeError(f"cannot write {kind.__name__} as canonical JSON")
        if not keys:
            put("{}")
            return
        inner = newline + "  "
        opener = "{" + inner
        for key in keys:
            put(opener)
            put(_quote(key))
            put(": ")
            _write(member(key), put, inner)
            opener = "," + inner
        put(newline + "}")


def report_to_json_text(report: HKReport) -> str:
    return _canonical_json(report)
