"""Benchmark for amplehk: one workload, one seed, one measured run.

Usage (from the repository root):

    python3 bench/run.py --workload bar_complex --seed 1 --seconds 35 --trace 0

It generates the workload's documents from the seed, times a fresh
interpreter importing ``amplehk.cli`` (``setup_s``), runs the documents
through ``amplehk.cli.main`` in a closed loop in a worker process, checks
every outcome against closed forms (``oracle.py``) and prints each metric by
name, unit and sample count.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``).

See bench/README.md for why each workload exists and what each metric
should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import gen
import oracle
from layertrace import LAYERS, REPEATED_COUNTS, unit

SETUP_SAMPLES = 9
MIN_CALLS = 100  # doc_s_p90 needs at least ten samples beyond it
RUN_LIMIT_S = 175.0


def _provenance(root: Path, seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
        "commit": _commit(root),
    }


def _commit(root: Path) -> str:
    """HEAD of the checkout's own .git, read without leaving the checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _setup_seconds(src: Path) -> list[float]:
    """Wall time of fresh interpreters that import amplehk.cli; the first,
    which may write bytecode caches, is not kept."""
    code = f"import sys; sys.path.insert(0, {str(src)!r}); import amplehk.cli"
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-I", "-c", code], check=True)
        if i:
            samples.append(perf_counter() - t0)
    return samples


def _quantile(xs: list[float], q: int) -> float:
    """The q-th percentile (inclusive method)."""
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def _prepare(items: list[dict], work: Path) -> tuple[list[list[str]], list[dict]]:
    work.mkdir(parents=True, exist_ok=True)
    argvs, specs = [], []
    for i, item in enumerate(items):
        path = work / f"{i:03d}.json"
        if item["doc"] is None:
            path = work / "absent" / f"{i:03d}.json"
        else:
            path.write_text(item["doc"])
        argvs.append([str(path) if a == gen.DOC else a for a in item["argv"]])
        specs.append(oracle.expect(item["argv"], item["doc"], item["expect"]))
    return argvs, specs


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    started = perf_counter()
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "amplehk" / "cli.py").is_file():
        sys.stderr.write(f"error: no amplehk sources under {src}\n")
        return 2

    work = root / "bench" / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        items = gen.generate(args.workload, args.seed, root / "models")
        argvs, specs = _prepare(items, work)
        probe_items = gen.known_faulty(random.Random(f"known_faulty:{args.seed}")) \
            if args.workload == "cli_small_docs" else []
        probe_argvs, probe_specs = _prepare(probe_items, work / "probes") if probe_items else ([], [])
        setup = [] if args.trace else _setup_seconds(src)

        plan = {
            "src": str(src),
            "items": argvs,
            "probes": probe_argvs,
            "seconds": args.seconds,
            "min_calls": MIN_CALLS,
            "trace": bool(args.trace),
            "out": str(work / "result.json"),
            "spans": str(work / "spans.jsonl"),
        }
        (work / "plan.json").write_text(json.dumps(plan))
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve().parent / "worker.py"), str(work / "plan.json")],
            check=True,
            timeout=RUN_LIMIT_S - (perf_counter() - started),
        )
        result = json.loads((work / "result.json").read_text())
        if args.trace:
            spans_out = root / "bench" / ".work" / f"{args.workload}-{args.seed}-spans.jsonl"
            shutil.copyfile(work / "spans.jsonl", spans_out)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # -- correctness gate ------------------------------------------------------
    attempted = len(result["times"])
    failed = 0
    reasons: list[str] = []
    for item, spec, outcomes in zip(items, specs, result["outcomes"]):
        for code, out, err, error, count in outcomes:
            reason = oracle.check(spec, code, out, err, error)
            if reason:
                failed += count
                reasons.append(f"{item['cls']}: {reason}")
    still_faulty = [
        item["cls"] for item, spec, (code, out, err, error) in zip(probe_items, probe_specs, result["probes"])
        if oracle.check(spec, code, out, err, error)
    ]

    prov = _provenance(root, args.seed)
    lines = [f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}"]
    samples: dict[str, int] = {}
    correct = failed == 0
    if args.trace:
        layers = result["layers"]
        for key in REPEATED_COUNTS:
            values = {layer[key] for layer in layers}
            if len(values) != 1:
                correct = False
                reasons.append(f"count {key} differs between traced passes: {sorted(values)}")
        metrics = {}
        for key in layers[0]:
            value = statistics.median(layer[key] for layer in layers)
            metrics[key] = {"value": value, "unit": unit(key)}
            samples[key] = len(layers)
        walls = result["walls"]
        metrics["trace.overhead_ratio"] = {
            "value": statistics.median(walls["traced"]) / statistics.median(walls["untraced"]),
            "unit": "ratio",
        }
        samples["trace.overhead_ratio"] = len(walls["traced"]) + len(walls["untraced"])
        self_s = {layer: statistics.median(s[layer] for s in result["self_times"]) for layer in LAYERS}
        total = sum(self_s.values()) or 1.0
        shares = ", ".join(f"{layer} {100 * v / total:.1f}%" for layer, v in
                           sorted(self_s.items(), key=lambda kv: -kv[1]))
        lines.append(f"  self-time shares per pass: {shares}")
    else:
        times = result["times"]
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "docs_per_s": {"value": attempted / sum(times), "unit": "1/s"},
            "doc_s_p50": {"value": statistics.median(times), "unit": "s"},
            "doc_s_p90": {"value": _quantile(times, 90), "unit": "s"},
            "peak_rss_mb": {"value": result["maxrss_kb"] / 1024, "unit": "MB"},
        }
        samples = {"setup_s": len(setup), "docs_per_s": attempted, "doc_s_p50": attempted,
                   "doc_s_p90": attempted, "peak_rss_mb": 1}
    for key, m in metrics.items():
        lines.append(f"  {key:34s} {m['value']:>14.6g} {m['unit']:6s} n={samples[key]}")
    lines.append(f"  {'error_rate':34s} {failed / attempted:>14.6g} {'ratio':6s} "
                 f"n={attempted} ({failed} failed)")
    if probe_items:
        lines.append(f"  known faulty inputs (ROADMAP E), outside the measured loop: "
                     f"{len(still_faulty)} of {len(probe_items)} still fail"
                     + (f" ({', '.join(still_faulty)})" if still_faulty else ""))
    for reason in reasons[:20]:
        lines.append(f"  FAIL {reason}")
    print("\n".join(lines))
    report = {"provenance": prov, "samples": samples, "pass_s": result["walls"],
              "error_rate": failed / attempted, "known_faulty": still_faulty}
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
