"""Tests of the benchmark itself: seed discipline, the correctness gate,
repeatable trace counts, and failure outside a full checkout.

Run from the repository root: python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import layertrace  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_byte_identical_documents(workload):
    assert gen.generate(workload, 7, ROOT / "models") == gen.generate(workload, 7, ROOT / "models")


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_other_seed_gives_other_documents_in_the_same_size_classes(workload):
    a = gen.generate(workload, 7, ROOT / "models")
    b = gen.generate(workload, 8, ROOT / "models")
    assert sorted(item["cls"] for item in a) == sorted(item["cls"] for item in b)
    # Shipped models and fixed malformed inputs are the same for every seed.
    seeded = lambda items: {i["doc"] for i in items if i["doc"] and not i["cls"].startswith(("models/", "malformed"))}
    assert seeded(a) and seeded(a).isdisjoint(seeded(b))


def test_every_shipped_model_has_a_closed_form():
    for item in gen.generate("cli_small_docs", 1, ROOT / "models"):
        oracle.expect(item["argv"], item["doc"], item["expect"])


def test_closed_forms_of_small_cases():
    z2 = json.loads((ROOT / "models" / "z2group.json").read_text())
    closed = oracle.closed_form(z2, 3)
    assert [(g.rank, g.torsion) for g in closed.homology] == [(1, ()), (0, (2,)), (0, ()), (0, (2,))]
    assert closed.k is None and not closed.torsion_free
    o3 = oracle.closed_form({"model": "sft", "matrix": [[3]]}, 3)
    assert o3.homology[0].torsion == (2,) and o3.homology[1] == oracle.ZERO
    assert oracle._canonical([6, 4]) == (2, 12)
    assert oracle.graded_dims(1, 1, 2) == [[1, 0], [1, 1], [1, 1]]


def test_gate_rejects_wrong_content_and_escaped_exceptions():
    spec = oracle.expect(["homology", gen.DOC, "--format", "json"], json.dumps({"model": "sft", "matrix": [[3]]}), None)
    good = {"homology": {"by_degree": [{"rank": 0, "torsion": [2]}, {"rank": 0, "torsion": []}]}}
    assert oracle.check(spec, 0, json.dumps(good), "", None) is None
    wrong = {"homology": {"by_degree": [{"rank": 0, "torsion": [3]}, {"rank": 0, "torsion": []}]}}
    assert "torsion" in oracle.check(spec, 0, json.dumps(wrong), "", None)
    assert "exit" in oracle.check(spec, 1, json.dumps(good), "", None)
    assert "exception" in oracle.check(spec, None, "", "", "ValueError: boom")


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_traced_run_reports_every_per_layer_metric_with_repeated_counts(capsys):
    assert run.main(["--workload", "cli_small_docs", "--seed", "3", "--seconds", "1", "--trace", "1"]) == 0
    result = _last_json(capsys)
    assert result["correct"] and result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert set(layertrace.REPEATED_COUNTS) <= set(result["metrics"])


def test_untraced_run_reports_every_end_to_end_metric(capsys):
    assert run.main(["--workload", "cli_small_docs", "--seed", "3", "--seconds", "1", "--trace", "0"]) == 0
    result = _last_json(capsys)
    assert result["correct"] and result["attempted"] >= run.MIN_CALLS
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "bar_complex", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
