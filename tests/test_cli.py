"""End-to-end CLI behaviour: output, formats, and exit codes."""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import amplehk.cli as cli
from amplehk.exact_linalg import IntMatrix
from amplehk.hkcheck import VERDICT_MISMATCH, hk_check, report_from_json
from amplehk.models import SftModel

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def model_path(name: str) -> str:
    return str(MODELS_DIR / name)


def write_doc(tmp_path: Path, doc: dict) -> str:
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestHomologyCommand:
    def test_text_output(self, capsys):
        code, out, err = run(capsys, "homology", model_path("o3.json"))
        assert code == 0 and err == ""
        assert "H_0 = Z/2" in out
        assert "H_1 = 0" in out
        assert "zero above degree 1" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "homology", model_path("o3.json"), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["homology"]["by_degree"][0] == {"rank": 0, "torsion": [2]}
        assert doc["homology"]["vanishing_above"] is True

    def test_truncation_is_labelled(self, capsys):
        code, out, _ = run(capsys, "homology", model_path("pair2.json"), "--max-degree", "1")
        assert code == 0
        assert "truncated at degree 1" in out
        assert out.count("H_") == 2

    def test_size_bound_exits_three(self, capsys):
        code, _, err = run(
            capsys, "homology", model_path("pair2.json"), "--max-degree", "3", "--size-bound", "10"
        )
        assert code == 3
        assert "error:" in err


class TestKtheoryCommand:
    def test_af_text(self, capsys):
        code, out, _ = run(capsys, "ktheory", model_path("cantor_af.json"))
        assert code == 0
        assert "K_0 = colimit(rank" in out
        assert "K_1 = 0" in out

    def test_sft_json(self, capsys):
        code, out, _ = run(capsys, "ktheory", model_path("o2.json"), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["ktheory"]["k0"] == {"rank": 0, "torsion": []}


class TestHkCheckCommand:
    def test_match_exits_zero(self, capsys):
        code, out, _ = run(capsys, "hk-check", model_path("o2.json"))
        assert code == 0
        assert "verdict: match" in out
        assert "integral_match: true" in out

    def test_precondition_failure_exits_two(self, capsys):
        code, out, _ = run(capsys, "hk-check", model_path("z2group.json"))
        assert code == 2
        assert "verdict: precondition_failed" in out
        assert "a torsion-free group for all units" in out
        assert "H_1 = Z/2" in out

    def test_odometer_matches(self, capsys):
        code, out, _ = run(capsys, "hk-check", model_path("dyadic_odometer.json"))
        assert code == 0
        assert "rational_match: true" in out
        assert "integral_match: not_applicable" in out

    def test_json_round_trips_to_the_library_report(self, capsys):
        code, out, _ = run(capsys, "hk-check", model_path("o2.json"), "--format", "json")
        assert code == 0
        direct = hk_check(SftModel(IntMatrix.from_rows([[1, 1], [1, 1]])), max_degree=3, stage=3)
        assert report_from_json(json.loads(out)) == direct

    def test_output_bytes_are_deterministic(self, capsys):
        _, first, _ = run(capsys, "hk-check", model_path("fibonacci.json"), "--format", "json")
        _, second, _ = run(capsys, "hk-check", model_path("fibonacci.json"), "--format", "json")
        assert first == second
        _, text1, _ = run(capsys, "hk-check", model_path("fibonacci.json"))
        _, text2, _ = run(capsys, "hk-check", model_path("fibonacci.json"))
        assert text1 == text2

    def test_mismatch_verdict_exits_one(self, capsys, monkeypatch):
        real = hk_check(SftModel(IntMatrix.from_rows([[2]])))
        doctored = dataclasses.replace(real, verdict=VERDICT_MISMATCH, rational_match=False)
        monkeypatch.setattr(cli, "hk_check", lambda model, **kw: doctored)
        code, out, _ = run(capsys, "hk-check", model_path("o2.json"))
        assert code == 1
        assert "verdict: mismatch" in out

    def test_rational_only_flag(self, capsys):
        code, out, _ = run(capsys, "hk-check", model_path("o3.json"), "--rational-only")
        assert code == 0
        assert "verdict: match" in out


class TestInputProblems:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "hk-check", "no_such_file.json")
        assert code == 3
        assert "error:" in err

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"model": ')
        code, _, err = run(capsys, "hk-check", str(path))
        assert code == 3
        assert "line 1" in err

    def test_schema_violation_reports_pointer(self, capsys, tmp_path):
        path = write_doc(tmp_path, {"model": "sft", "matrix": [[1, "x"]]})
        code, _, err = run(capsys, "hk-check", path)
        assert code == 3
        assert "/matrix/0/1" in err

    def test_invalid_model_lists_violations(self, capsys, tmp_path):
        path = write_doc(tmp_path, {"model": "sft", "matrix": [[0, 0], [1, 0]]})
        code, _, err = run(capsys, "hk-check", path)
        assert code == 3
        assert "row 0" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("homology", "pair2.json", "--max-degree", "-1"),
            ("homology", "o3.json", "--max-degree", "-1"),
            ("hk-check", "pair2.json", "--max-degree", "-2"),
            ("fullgroup-dims", "o2.json", "--words", "-1"),
        ],
    )
    def test_negative_count_flag_exits_three(self, capsys, argv):
        command, name, *flags = argv
        code, out, err = run(capsys, command, model_path(name), *flags)
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_nesting_too_deep_to_decode_exits_three(self, capsys, tmp_path):
        leaf = json.dumps({"model": "sft", "matrix": [[1]]})
        text = '{"model": "product", "factors": [' + leaf + ", "
        path = tmp_path / "deep.json"
        path.write_text(text * 600 + leaf + "]}" * 600)
        code, out, err = run(capsys, "hk-check", str(path))
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and "nested too deeply" in err


class TestPreconditionExits:
    def test_uncertified_cantor_model(self, capsys, tmp_path):
        doc = {"model": "cantor_z", "diagram": {"level_sizes": [1], "incidences": [], "tail": [[1]]}}
        code, _, err = run(capsys, "hk-check", write_doc(tmp_path, doc))
        assert code == 2
        assert "precondition failure:" in err

    def test_telescope_depth_override(self, capsys, tmp_path):
        doc = {
            "model": "cantor_z",
            "diagram": {"level_sizes": [2], "incidences": [], "tail": [[1, 1], [1, 0]]},
            "telescope_depth": 1,
        }
        path = write_doc(tmp_path, doc)
        code, _, err = run(capsys, "hk-check", path)
        assert code == 2
        code, out, _ = run(capsys, "hk-check", path, "--telescope-depth", "2")
        assert code == 0
        assert "verdict: match" in out

    def test_huge_telescope_depth_on_non_primitive_tail(self, capsys, tmp_path):
        # No power of [[1, 1], [0, 1]] is positive; the search must stop long
        # before the declared depth.
        doc = {
            "model": "cantor_z",
            "diagram": {"level_sizes": [2], "incidences": [], "tail": [[1, 1], [0, 1]]},
            "telescope_depth": 100000000,
        }
        started = time.perf_counter()
        code, _, err = run(capsys, "hk-check", write_doc(tmp_path, doc))
        assert time.perf_counter() - started < 1.0
        assert code == 2
        assert err == (
            "precondition failure: no tail power up to 100000000 is entrywise positive\n"
        )

    def test_principal_ktheory_refuses_isotropy(self, capsys):
        code, _, err = run(capsys, "ktheory", model_path("z2group.json"))
        assert code == 2
        assert "precondition failure:" in err


class TestSmaleCommand:
    def test_fibonacci_presentation(self, capsys):
        code, out, _ = run(capsys, "smale-check", model_path("fibonacci.json"))
        assert code == 0
        assert "smale(sft(2 vertices))" in out
        assert "H^s_0" in out

    def test_fixed_point_ranks_agree(self, capsys):
        code, out, _ = run(capsys, "smale-check", model_path("fixed_point.json"))
        assert code == 0
        assert "periodicized homology ranks: even 1, odd 1" in out

    def test_needs_an_sft_document(self, capsys):
        code, _, err = run(capsys, "smale-check", model_path("cantor_af.json"))
        assert code == 3
        assert "sft" in err


class TestSpanCheckCommand:
    def test_compose_document(self, capsys):
        code, out, _ = run(capsys, "span-check", model_path("span_pair.json"))
        assert code == 0
        assert "functorial: true" in out

    def test_compose_document_json(self, capsys):
        code, out, _ = run(capsys, "span-check", model_path("span_pair.json"), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["functorial"] is True
        assert doc["transfer_composite"] == doc["product"]

    def test_single_span_document(self, capsys, tmp_path):
        doc = {
            "span": {
                "left": ["x1", "x2"],
                "mid": ["m1", "m2", "m3"],
                "right": ["y"],
                "left_leg": {"m1": "x1", "m2": "x1", "m3": "x2"},
                "right_leg": {"m1": "y", "m2": "y", "m3": "y"},
            }
        }
        code, out, _ = run(capsys, "span-check", write_doc(tmp_path, doc), "--format", "json")
        assert code == 0
        assert json.loads(out)["transfer"] == [[2, 1]]

    def test_mismatched_boundaries_exit_three(self, capsys, tmp_path):
        span_a = {
            "left": ["x"], "mid": [], "right": ["y"], "left_leg": {}, "right_leg": {},
        }
        span_b = {
            "left": ["z"], "mid": [], "right": ["w"], "left_leg": {}, "right_leg": {},
        }
        code, _, err = run(capsys, "span-check", write_doc(tmp_path, {"compose": [span_a, span_b]}))
        assert code == 3
        assert "error:" in err


class TestFullgroupDimsCommand:
    def test_acyclic_from_vanishing_k(self, capsys):
        code, out, _ = run(capsys, "fullgroup-dims", model_path("o2.json"), "--words", "3")
        assert code == 0
        assert "K ranks: even 0, odd 0" in out
        assert "word length 0: even 1, odd 0" in out
        assert "word length 3: even 0, odd 0" in out
        assert "trivial above word length 0" in out

    def test_json_dims(self, capsys):
        code, out, _ = run(
            capsys, "fullgroup-dims", model_path("fixed_point.json"), "--words", "2", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["k0_rank"] == 1 and doc["k1_rank"] == 1
        assert doc["dims_by_word_length"] == [[1, 0], [1, 1], [1, 1]]
        assert doc["trivial_above_word_zero"] is False

    def test_precondition_failure(self, capsys):
        code, _, err = run(capsys, "fullgroup-dims", model_path("z2group.json"))
        assert code == 2
        assert "error:" in err


class TestEntryPoint:
    def test_entry_raises_system_exit(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.argv", ["amplehk", "homology", model_path("o3.json")])
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == 0

    def test_module_invocation(self):
        # python -m must behave like the console script, not import silently
        proc = subprocess.run(
            [sys.executable, "-m", "amplehk.cli", "ktheory", model_path("o3.json")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "K_0 = Z/2" in proc.stdout
