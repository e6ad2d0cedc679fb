"""Per-layer spans taken from outside the package.

The package's modules import each other's functions by name, so a call from
``homology`` to ``chain_homology`` looks the name up in ``amplehk.homology``.
Wrapping the function at that name, and at every other name a caller uses,
puts a span around each call into a layer without touching the package.

A span's self time is its duration minus its child spans.  Work the wrappers
do for counting (matrix sizes, nonzeros, bit lengths) runs on a paused clock,
so it lands in no span; the traced/untraced wall ratio still shows it.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "modelio", "hkcheck", "homology", "ktheory", "colimits", "models", "exact_linalg", "spans")

# Counts that must repeat exactly between two traced passes over one seed.
REPEATED_COUNTS = (
    "models.nerve_cells",
    "exact_linalg.elim_calls",
    "exact_linalg.elim_entries",
    "exact_linalg.max_coeff_bits",
    "exact_linalg.repeat_calls_ratio",
    "colimits.power_bits",
)

ELIM = "exact_linalg.elim_s"

# Total time of the outermost span carrying each key, per pass.
TIMED = (
    ELIM, "exact_linalg.chain_homology_s", "exact_linalg.cokernel_s", "exact_linalg.rank_s",
    "models.nerve_s", "models.validate_s", "models.isotropy_s", "models.simplicity_s",
    "homology.boundary_s", "homology.kunneth_s", "colimits.colimit_s", "ktheory.k_s",
    "modelio.parse_s", "hkcheck.render_s", "spans.transfer_s",
)
COUNTED = (
    "exact_linalg.elim_calls", "exact_linalg.elim_entries", "exact_linalg.elim_nnz",
    "models.nerve_cells", "homology.boundary_entries", "homology.boundary_nnz",
    "colimits.calls", "modelio.doc_bytes", "hkcheck.verdicts",
)
MAXED = (
    "exact_linalg.max_dim", "exact_linalg.max_coeff_bits", "exact_linalg.max_factor_bits",
    "colimits.tail_dim", "colimits.power_bits",
)


def unit(key: str) -> str:
    for suffix, u in (("_s", "s"), ("_ratio", "ratio"), ("_bytes", "B"), ("_bits", "bits")):
        if key.endswith(suffix):
            return u
    return "count"


def _bits(entries) -> int:
    return max((abs(x).bit_length() for x in entries), default=0)


def _nnz(entries) -> int:
    return len(entries) - entries.count(0)


class Tracer:
    """Spans and counts for one traced pass; ``install`` patches, ``remove`` restores."""

    def __init__(self, record_spans: bool = False):
        self.paused = 0.0
        self.stack: list[list] = []
        self.depth: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.maxes: dict[str, int] = defaultdict(int)
        self.seen: set = set()
        self.record_spans = record_spans
        self.spans: list[tuple] = []
        self.doc = 0
        self._patches: list[tuple] = []

    def now(self) -> float:
        return perf_counter() - self.paused

    # -- span bookkeeping ---------------------------------------------------

    def _enter(self, layer: str, keys: tuple[str, ...], name: str) -> None:
        for k in keys:
            self.depth[k] += 1
        parent = self.stack[-1][4] if self.stack else None
        self.stack.append([layer, keys, self.now(), 0.0, len(self.spans), parent, name])
        if self.record_spans:
            self.spans.append(None)

    def _exit(self) -> None:
        layer, keys, start, child, span_id, parent, name = self.stack.pop()
        end = self.now()
        dur = end - start
        self.self_s[layer] += dur - child
        if self.stack:
            self.stack[-1][3] += dur
        for k in keys:
            self.depth[k] -= 1
            if self.depth[k] == 0:
                self.total_s[k] += dur
        if self.record_spans:
            self.spans[span_id] = (self.doc, span_id, parent, layer, name, start, end)

    def _paused(self, hook, *args) -> None:
        t = perf_counter()
        hook(self, *args)
        self.paused += perf_counter() - t

    # -- patching -------------------------------------------------------------

    def wrap(self, module: str, attr: str, layer: str, keys: tuple[str, ...] = (), before=None, after=None) -> None:
        """Wrap ``amplehk.<module>.<attr>`` in a ``layer`` span whose duration
        also adds to each metric in ``keys`` (outermost occurrence only).
        A name the module no longer has is skipped, so refactors that drop a
        boundary leave its metrics at zero instead of breaking the run."""
        mod = importlib.import_module(f"amplehk.{module}")
        fn = getattr(mod, attr, None)
        if fn is None:
            return
        tracer = self
        name = f"{module}.{attr}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                tracer._paused(before, *args)
            tracer._enter(layer, keys, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if after is not None:
                tracer._paused(after, result)
            return result

        setattr(mod, attr, wrapper)
        self._patches.append((mod, attr, fn))

    def remove(self) -> None:
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()

    def install(self) -> None:
        """Wrap every layer boundary at the names the callers look up."""
        w = self.wrap
        w("cli", "main", "cli", before=_new_document)
        for attr in ("load_json", "parse_model", "parse_span_document"):
            w("cli", attr, "modelio", ("modelio.parse_s",), before=_doc_bytes if attr == "load_json" else None)
        for attr in ("hk_check", "smale_check"):
            w("cli", attr, "hkcheck", after=_verdict)
        for attr in ("report_to_json_text", "report_to_text", "group_to_json", "group_to_text", "_graded_to_json"):
            w("cli", attr, "hkcheck", ("hkcheck.render_s",))
        w("cli", "free_graded_commutative_dims", "hkcheck")
        for mod in ("cli", "hkcheck"):
            w(mod, "model_summary", "models")
            w(mod, "homology_of_model", "homology")
            w(mod, "ktheory_of_model", "ktheory", ("ktheory.k_s",))
        w("homology", "homology_of_model", "homology")
        w("ktheory", "ktheory_of_model", "ktheory", ("ktheory.k_s",))
        w("hkcheck", "shape_violations", "models", ("models.validate_s",))
        w("hkcheck", "isotropy_report", "models", ("models.isotropy_s",))
        for mod in ("homology", "ktheory"):
            w(mod, "validate_model", "models", ("models.validate_s",))
            w(mod, "simplicity_certificate", "models", ("models.simplicity_s",))
            w(mod, "colimit_invariants", "colimits", ("colimits.colimit_s",), before=_colimit)
            w(mod, "cokernel", "exact_linalg", (ELIM, "exact_linalg.cokernel_s"), before=_elim, after=_factors)
            w(mod, "kernel_rank", "exact_linalg", (ELIM, "exact_linalg.rank_s"), before=_elim)
        for attr in ("identity_arrows", "orbits"):
            w("ktheory", attr, "models", ("models.isotropy_s",))
        w("homology", "nerve_levels", "models", ("models.nerve_s",), after=_nerve)
        w("homology", "boundary_matrix_from_levels", "homology", ("homology.boundary_s",), after=_boundary)
        w("homology", "homology_product", "homology", ("homology.kunneth_s",))
        w("homology", "chain_homology", "exact_linalg", (ELIM, "exact_linalg.chain_homology_s"),
          before=_elim, after=_factors)
        w("colimits", "matrix_rank", "exact_linalg", (ELIM, "exact_linalg.rank_s"), before=_power)
        w("colimits", "kernel_basis", "exact_linalg", (ELIM,), before=_elim)
        # Calls inside exact_linalg and from FgAbelianGroup's methods.
        for attr in ("smith_normal_form", "cokernel", "matrix_rank"):
            w("exact_linalg", attr, "exact_linalg", (ELIM,), before=_elim, after=_factors)
        for attr in ("compose_spans", "transfer_matrix"):
            w("cli", attr, "spans", ("spans.transfer_s",))

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-pass per-layer metrics; times in seconds."""
        t, c, m = self.total_s, self.counts, self.maxes
        calls = c["exact_linalg.elim_calls"]
        out = {k: t[k] for k in TIMED}
        out.update({k: c[k] for k in COUNTED})
        out.update({k: m[k] for k in MAXED})
        out["exact_linalg.repeat_calls_ratio"] = c["exact_linalg.repeat_calls"] / calls if calls else 0.0
        for layer in ("homology", "ktheory", "cli", "hkcheck"):
            out[f"{layer}.self_s"] = self.self_s[layer]
        return out

    def self_times(self) -> dict[str, float]:
        return {layer: self.self_s[layer] for layer in LAYERS}


# -- hooks: counting done on the paused clock ---------------------------------


def _new_document(tr: Tracer, argv=None) -> None:
    tr.doc += 1
    tr.seen.clear()


def _doc_bytes(tr: Tracer, text) -> None:
    tr.counts["modelio.doc_bytes"] += len(text.encode())


def _verdict(tr: Tracer, report) -> None:
    tr.counts["hkcheck.verdicts"] += 1


def _elim(tr: Tracer, mat, *others) -> None:
    """Count an entry call into exact_linalg by its eliminated input matrix."""
    if tr.depth[ELIM]:
        return
    c, m = tr.counts, tr.maxes
    c["exact_linalg.elim_calls"] += 1
    for x in (mat,) + others:
        if hasattr(x, "entries"):
            c["exact_linalg.elim_entries"] += x.rows * x.cols
            c["exact_linalg.elim_nnz"] += _nnz(x.entries)
            m["exact_linalg.max_dim"] = max(m["exact_linalg.max_dim"], x.rows, x.cols)
            m["exact_linalg.max_coeff_bits"] = max(m["exact_linalg.max_coeff_bits"], _bits(x.entries))
    key = (mat.rows, mat.cols, mat.entries)
    if key in tr.seen:
        c["exact_linalg.repeat_calls"] += 1
    tr.seen.add(key)


def _factors(tr: Tracer, result) -> None:
    if tr.depth[ELIM]:
        return
    if hasattr(result, "torsion"):
        factors = result.torsion
    elif hasattr(result, "diagonal"):
        factors = result.diagonal()
    else:
        return
    m = tr.maxes
    m["exact_linalg.max_factor_bits"] = max(m["exact_linalg.max_factor_bits"], _bits(factors))


def _power(tr: Tracer, mat) -> None:
    tr.maxes["colimits.power_bits"] = max(tr.maxes["colimits.power_bits"], _bits(mat.entries))
    _elim(tr, mat)


def _colimit(tr: Tracer, system, *rest) -> None:
    tr.counts["colimits.calls"] += 1
    tr.maxes["colimits.tail_dim"] = max(tr.maxes["colimits.tail_dim"], system.tail.rows)


def _nerve(tr: Tracer, levels) -> None:
    tr.counts["models.nerve_cells"] += sum(level.size() for level in levels)


def _boundary(tr: Tracer, mat) -> None:
    tr.counts["homology.boundary_entries"] += mat.rows * mat.cols
    tr.counts["homology.boundary_nnz"] += _nnz(mat.entries)
