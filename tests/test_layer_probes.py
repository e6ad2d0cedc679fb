"""The benchmark's per-layer probes against the names the package has.

``bench/layertrace.py`` wraps package functions at the names their callers
look up, and skips a name the package no longer has, so that a refactor
does not break a benchmark run.  The price is that a renamed or removed
function silently zeroes the per-layer metric its probe fed.  This test
pins which probes resolve, so such drift fails here instead.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parent.parent / "bench" / "layertrace.py"

# The probes that wrap a live name.  The other ``install`` calls name
# functions the package no longer has and patch nothing.
LIVE = {
    "cli.main",
    "cli.load_json",
    "cli.parse_model",
    "cli.parse_span_document",
    "cli.hk_check",
    "cli.smale_check",
    "cli.report_to_json_text",
    "cli.report_to_text",
    "cli.free_graded_commutative_dims",
    "cli.compose_spans",
    "cli.transfer_matrix",
    "homology.simplicity_certificate",
    "homology.homology_product",
    "ktheory.orbits",
    "colimits.matrix_rank",
    "colimits.kernel_basis",
    "exact_linalg.smith_normal_form",
    "exact_linalg.matrix_rank",
}


def _probes() -> list[tuple[str, str, bool]]:
    """Every probe ``Tracer.install`` asks for, as (module, name, resolves),
    recorded without patching anything."""
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    probes = []

    class Recorder(layertrace.Tracer):
        def wrap(self, module, attr, layer, keys=(), before=None, after=None):
            mod = importlib.import_module(f"amplehk.{module}")
            probes.append((module, attr, hasattr(mod, attr)))

    Recorder().install()
    return probes


def test_the_live_probes_are_the_pinned_ones():
    probes = _probes()
    assert len(probes) == 45
    live = {f"{module}.{attr}" for module, attr, resolves in probes if resolves}
    died, revived = sorted(LIVE - live), sorted(live - LIVE)
    assert live == LIVE, (
        f"probes that no longer resolve: {died}; probes that resolve again: {revived}. "
        "A dead probe leaves its per-layer metrics at 0, and a revived one runs its "
        "hook on whatever the name now takes. Record the drift in CHANGES.md and "
        "update LIVE."
    )
