"""Closed-loop runner for one workload, run in a process of its own.

Usage: python3 bench/worker.py PLAN.json

The plan lists argument vectors for ``amplehk.cli.main``.  Passes over the
list run back to back, one call at a time in this process, until the plan's
seconds have passed (and at least ``min_calls`` calls were made).  Every
call's wall time and every distinct outcome are written to the plan's
``out`` file; the parent process checks the outcomes.  With ``trace`` set,
passes alternate untraced and traced, and the traced ones also report
per-layer metrics.
"""

from __future__ import annotations

import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

# Stop starting passes after this long, whatever the plan asks, so the run
# ends well inside the three-minute limit even on a slow program.
HARD_STOP_S = 140.0


def _call(cli, argv: list[str]) -> tuple[float, tuple]:
    out, err = io.StringIO(), io.StringIO()
    real = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    error = None
    t0 = perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as e:
        code = e.code
    except Exception as e:  # an escaped exception is a failed check, not a crash
        code, error = None, f"{type(e).__name__}: {str(e)[:200]}"
    finally:
        elapsed = perf_counter() - t0
        sys.stdout, sys.stderr = real
    return elapsed, (code, out.getvalue(), err.getvalue(), error)


def _run_pass(cli, items, times: list[float], outcomes: list[dict]) -> float:
    start = perf_counter()
    for i, argv in enumerate(items):
        elapsed, outcome = _call(cli, argv)
        times.append(elapsed)
        outcomes[i][outcome] = outcomes[i].get(outcome, 0) + 1
    return perf_counter() - start


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    src = Path(plan["src"]).resolve()
    sys.path.insert(0, str(src))
    from amplehk import cli

    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"amplehk was imported from {cli.__file__}, not from {src}")

    items = plan["items"]
    times: list[float] = []
    outcomes: list[dict] = [{} for _ in items]
    walls = {"untraced": [], "traced": []}
    layers: list[dict] = []
    self_times: list[dict] = []
    spans: list = []
    tracer_cls = None
    if plan["trace"]:
        from layertrace import Tracer as tracer_cls

    began = perf_counter()
    n = 0
    while True:
        traced = tracer_cls is not None and n % 2 == 1
        if traced:
            tracer = tracer_cls(record_spans=not spans)
            tracer.install()
            try:
                walls["traced"].append(_run_pass(cli, items, times, outcomes))
            finally:
                tracer.remove()
            layers.append(tracer.metrics())
            self_times.append(tracer.self_times())
            spans = spans or tracer.spans
        else:
            walls["untraced"].append(_run_pass(cli, items, times, outcomes))
        n += 1
        elapsed = perf_counter() - began
        enough = elapsed >= plan["seconds"] and len(times) >= plan["min_calls"]
        if tracer_cls is not None:
            enough = enough and len(layers) >= 2
        if enough or elapsed >= HARD_STOP_S:
            break

    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    probes = [_call(cli, argv)[1] for argv in plan["probes"]]
    result = {
        "times": times,
        "walls": walls,
        "outcomes": [[list(k) + [v] for k, v in o.items()] for o in outcomes],
        "probes": [list(p) for p in probes],
        "maxrss_kb": maxrss_kb,
        "layers": layers,
        "self_times": self_times,
    }
    Path(plan["out"]).write_text(json.dumps(result))
    if spans:
        with open(plan["spans"], "w") as f:
            for span in spans:
                f.write(json.dumps(span) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
