"""End-to-end CLI behaviour: output, formats, and exit codes."""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
import time
from errno import EISDIR, ENOENT
from pathlib import Path

import pytest

import amplehk.cli as cli
import amplehk.models as models
from amplehk import replace
from amplehk.exact_linalg import IntMatrix
from amplehk.hkcheck import VERDICT_MISMATCH, hk_check, report_to_json_text
from amplehk.modelio import MAX_INT_DIGITS, MAX_PRODUCT_DEPTH
from amplehk.models import SftModel
from conftest import finite_document
from oracles import D8, cyclic_group_groupoid, permutation_group_groupoid
from test_cli_help import ARGV_CASES

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"
GOLDEN_OUTPUTS = Path(__file__).resolve().parent / "golden" / "cli_outputs.json"

ALL_COMMANDS = ("homology", "ktheory", "hk-check", "smale-check", "span-check", "fullgroup-dims")

# The options each subcommand declares: the ones its handler reads.
OPTIONS = {
    "homology": ("--format", "--max-degree", "--size-bound"),
    "ktheory": ("--format",),
    "hk-check": ("--format", "--max-degree", "--size-bound"),
    "smale-check": ("--format", "--max-degree"),
    "span-check": ("--format",),
    "fullgroup-dims": ("--format", "--max-degree", "--size-bound", "--words"),
}

# 10^4999 + 3 as an SFT: H_0 = K_0 = Z/(10^4999 + 2), past the 4,300-digit
# default limit of int/str conversion both ways.
LONG_ENTRY_DOCUMENT = '{"model": "sft", "matrix": [[1' + "0" * 4998 + '3]]}'
LONG_ENTRY_H0 = "Z/1" + "0" * 4998 + "2"


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

    def test_size_bound_exits_three(self, capsys, tmp_path):
        # Z/5 is its own skeleton; its nerve level 2 has 25 cells.
        path = write_doc(tmp_path, finite_document(cyclic_group_groupoid(5)))
        code, _, err = run(capsys, "homology", path, "--max-degree", "3", "--size-bound", "10")
        assert code == 3
        assert "error:" in err

    def test_size_bound_counts_the_skeleton(self, capsys):
        # The pair groupoid's skeleton is one unit with its identity: one
        # cell per nerve level, far below the bound.
        code, bounded, err = run(
            capsys, "homology", model_path("pair2.json"), "--max-degree", "3", "--size-bound", "10"
        )
        assert code == 0 and err == ""
        _, unbounded, _ = run(capsys, "homology", model_path("pair2.json"), "--max-degree", "3")
        assert bounded == unbounded
        assert "H_0 = Z\nH_1 = 0\nH_2 = 0\nH_3 = 0\n" in bounded


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
        direct = hk_check(SftModel(IntMatrix.from_rows([[1, 1], [1, 1]])), max_degree=3)
        assert out == report_to_json_text(direct)

    def test_output_bytes_are_deterministic(self, capsys):
        _, first, _ = run(capsys, "hk-check", model_path("fibonacci.json"), "--format", "json")
        _, second, _ = run(capsys, "hk-check", model_path("fibonacci.json"), "--format", "json")
        assert first == second
        _, text1, _ = run(capsys, "hk-check", model_path("fibonacci.json"))
        _, text2, _ = run(capsys, "hk-check", model_path("fibonacci.json"))
        assert text1 == text2

    def test_mismatch_verdict_exits_one(self, capsys, monkeypatch):
        real = hk_check(SftModel(IntMatrix.from_rows([[2]])))
        doctored = replace(real, verdict=VERDICT_MISMATCH, rational_match=False)
        monkeypatch.setattr(cli, "hk_check", lambda model, **kw: doctored)
        code, out, _ = run(capsys, "hk-check", model_path("o2.json"))
        assert code == 1
        assert "verdict: mismatch" in out

    def test_rational_only_flag(self, capsys):
        # Removed: the exact groups already carry the ranks it compared.
        code, out, err = run(capsys, "hk-check", model_path("o3.json"), "--rational-only")
        assert (code, out) == (3, "")
        assert err == "error: unrecognized arguments: --rational-only\n"


class TestInputProblems:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "hk-check", "no_such_file.json")
        assert code == 3
        assert "error:" in err

    def test_unreadable_path_is_named(self, capsys, tmp_path):
        missing = str(tmp_path / "no_such_file.json")
        for path, errno in ((missing, ENOENT), (str(tmp_path), EISDIR)):
            code, out, err = run(capsys, "homology", path)
            assert (code, out) == (3, "")
            assert err == f"error: [Errno {errno}] {os.strerror(errno)}: {path!r}\n"

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

    def test_composable_pair_listed_twice_exits_three(self, capsys, tmp_path):
        doc = json.loads(Path(model_path("z2group.json")).read_text())
        doc["compose"].insert(0, ["e", "e", "bogus"])
        code, out, err = run(capsys, "hk-check", write_doc(tmp_path, doc))
        assert (code, out) == (3, "")
        assert err == "error: /compose/1: composable pair ('e', 'e') is listed twice\n"

    def test_repeated_inverse_key_exits_three(self, capsys, tmp_path):
        # The last "g" is the right inverse; the first must not be dropped.
        doc = json.loads(Path(model_path("z2group.json")).read_text())
        doc["inverse"] = "INVERSE"
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc).replace('"INVERSE"', '{"g": "bogus", "e": "e", "g": "g"}'))
        code, out, err = run(capsys, "homology", str(path))
        assert (code, out) == (3, "")
        assert err == 'error: an object repeats the key "g"\n'

    def test_repeated_matrix_key_exits_three(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"model": "sft", "matrix": [[0]], "matrix": [[2]]}')
        code, out, err = run(capsys, "ktheory", str(path))
        assert (code, out) == (3, "")
        assert err == 'error: an object repeats the key "matrix"\n'

    def test_inverse_entry_for_unknown_arrow_exits_three(self, capsys, tmp_path):
        doc = json.loads(Path(model_path("z2group.json")).read_text())
        doc["inverse"]["zz"] = "e"
        code, out, err = run(capsys, "hk-check", write_doc(tmp_path, doc))
        assert (code, out) == (3, "")
        assert "inverse entry for unknown arrow 'zz'" in err

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

    @staticmethod
    def product_chain(depth: int) -> dict:
        doc = {"model": "sft", "matrix": [[2]]}
        for _ in range(depth):
            doc = {"model": "product", "factors": [doc, {"model": "sft", "matrix": [[2]]}]}
        return doc

    def test_product_nested_past_the_cap_exits_three_at_once(self, capsys, tmp_path):
        path = write_doc(tmp_path, self.product_chain(MAX_PRODUCT_DEPTH + 1))
        start = time.perf_counter()
        code, out, err = run(capsys, "hk-check", path)
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        pointer = "/factors/0" * MAX_PRODUCT_DEPTH
        assert err == (
            f"error: {pointer}: products nested more than {MAX_PRODUCT_DEPTH} deep\n"
        )

    def test_product_nested_to_the_cap_is_accepted(self, capsys, tmp_path):
        path = write_doc(tmp_path, self.product_chain(MAX_PRODUCT_DEPTH))
        code, out, _ = run(capsys, "homology", path)
        assert code == 0
        assert "H_0 = 0" in out


class TestUsageErrors:
    """A command line argparse rejects exits 3 with one error line, not 2,
    which means a failed precondition."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("homology", "o3.json", "--bogus"), "unrecognized arguments: --bogus"),
            (("hk-check", "dyadic_odometer.json", "--stage", "3"), "unrecognized arguments: --stage 3"),
            (("homology", "o3.json", "--max-degree", "x"), "argument --max-degree: invalid int value: 'x'"),
            (("ktheory",), "the following arguments are required: path"),
            ((), "the following arguments are required: command"),
        ],
    )
    def test_usage_error_exits_three(self, capsys, argv, message):
        args = [model_path(a) if a.endswith(".json") else a for a in argv]
        code, out, err = run(capsys, *args)
        assert code == 3
        assert out == ""
        assert err == f"error: {message}\n"

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["homology", "--help"])
        assert exc.value.code == 0
        assert "--max-degree" in capsys.readouterr().out


class TestPreconditionExits:
    def test_uncertified_cantor_model(self, capsys, tmp_path):
        doc = {"model": "cantor_z", "diagram": {"level_sizes": [1], "incidences": [], "tail": [[1]]}}
        code, _, err = run(capsys, "hk-check", write_doc(tmp_path, doc))
        assert code == 2
        assert "precondition failure:" in err

    @pytest.mark.parametrize("command", ("homology", "ktheory", "hk-check", "fullgroup-dims"))
    def test_primitive_tail_is_certified_whatever_depth_the_document_gives(
        self, capsys, tmp_path, command
    ):
        # The Fibonacci tail first turns positive at power 2; the document's
        # depth of 1 is ignored, at the top level and in a factor of a factor.
        cantor = {
            "model": "cantor_z",
            "diagram": {"level_sizes": [2], "incidences": [], "tail": [[1, 1], [1, 0]]},
            "telescope_depth": 1,
        }
        nested = {
            "model": "product",
            "factors": [
                {"model": "sft", "matrix": [[2]]},
                {"model": "product", "factors": [{"model": "sft", "matrix": [[1]]}, cantor]},
            ],
        }
        for doc in (cantor, nested):
            code, out, err = run(capsys, command, write_doc(tmp_path, doc))
            assert code == 0 and err == ""
            assert "cantor_z(tail 2)" in out

    def test_large_non_primitive_tail_is_refused_quickly(self, capsys, tmp_path):
        n = 200
        doc = {
            "model": "cantor_z",
            "diagram": {"level_sizes": [n], "incidences": [],
                        "tail": [[int(i == j) for j in range(n)] for i in range(n)]},
            "telescope_depth": 100000000,
        }
        path = write_doc(tmp_path, doc)
        started = time.perf_counter()
        code, out, err = run(capsys, "hk-check", path)
        assert time.perf_counter() - started < 1.0
        assert (code, out) == (2, "")
        assert err == "precondition failure: no power of the tail is entrywise positive\n"

    def test_large_wielandt_tail_is_certified_quickly(self, capsys, tmp_path):
        # First positive at power 59^2 + 1 = 3482.
        n = 60
        tail = [[int(j == i + 1) for j in range(n)] for i in range(n - 1)]
        tail.append([1, 1] + [0] * (n - 2))
        doc = {"model": "cantor_z", "diagram": {"level_sizes": [n], "incidences": [], "tail": tail}}
        path = write_doc(tmp_path, doc)
        started = time.perf_counter()
        code, out, err = run(capsys, "hk-check", path)
        assert time.perf_counter() - started < 1.0
        assert code == 0 and err == ""
        assert "verdict: match" in out

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

    def test_repeated_leg_key_exits_three(self, capsys, tmp_path):
        path = tmp_path / "span.json"
        path.write_text(
            '{"span": {"left": ["x1", "x2"], "mid": ["m1"], "right": ["y"], '
            '"left_leg": {"m1": "x1", "m1": "x2"}, "right_leg": {"m1": "y"}}}'
        )
        code, out, err = run(capsys, "span-check", str(path))
        assert (code, out) == (3, "")
        assert err == 'error: an object repeats the key "m1"\n'

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

    def test_zero_words_claims_nothing_for_nonzero_ranks(self, capsys):
        path = model_path("cantor_af.json")
        code, out, _ = run(capsys, "fullgroup-dims", path, "--words", "0")
        assert code == 0
        assert out.endswith("word length 0: even 1, odd 0\n")
        assert "acyclic" not in out
        code, out, _ = run(capsys, "fullgroup-dims", path, "--words", "0", "--format", "json")
        assert code == 0
        assert json.loads(out)["trivial_above_word_zero"] is False

    def test_zero_words_still_finds_vanishing_k_acyclic(self, capsys):
        code, out, _ = run(capsys, "fullgroup-dims", model_path("o2.json"), "--words", "0")
        assert code == 0
        assert out.endswith("trivial above word length 0: the full group is rationally acyclic\n")
        code, out, _ = run(
            capsys, "fullgroup-dims", model_path("o2.json"), "--words", "0", "--format", "json"
        )
        assert json.loads(out)["trivial_above_word_zero"] is True

    def test_precondition_failure(self, capsys):
        code, _, err = run(capsys, "fullgroup-dims", model_path("z2group.json"))
        assert code == 2
        assert err.startswith("precondition failure: ") and "error:" not in err

    def test_word_length_above_the_maximum_exits_three_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "fullgroup-dims", model_path("o2.json"), "--words", "100000000")
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert err == f"error: --words must be at most {cli.MAX_WORDS}\n"

    def test_word_length_at_the_maximum_is_accepted(self, capsys):
        code, out, _ = run(
            capsys, "fullgroup-dims", model_path("fixed_point.json"), "--words", str(cli.MAX_WORDS)
        )
        assert code == 0
        assert f"word length {cli.MAX_WORDS}: even 1, odd 1" in out

    @pytest.mark.parametrize("command", ALL_COMMANDS)
    def test_degree_above_the_maximum_exits_three_at_once(self, capsys, command):
        start = time.perf_counter()
        code, out, err = run(capsys, command, model_path("pair2.json"), "--max-degree", "100000000")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        if "--max-degree" in OPTIONS[command]:
            assert err == f"error: --max-degree must be at most {cli.MAX_DEGREE}\n"
        else:
            assert err == "error: unrecognized arguments: --max-degree 100000000\n"

    def test_degree_at_the_maximum_is_accepted(self, capsys):
        code, out, _ = run(
            capsys, "homology", model_path("pair2.json"), "--max-degree", str(cli.MAX_DEGREE)
        )
        assert code == 0
        assert f"H_{cli.MAX_DEGREE} = 0\ntruncated at degree {cli.MAX_DEGREE}\n" in out

    @pytest.mark.parametrize("name", ["pair2.json", "fibonacci.json"])
    @pytest.mark.parametrize("command", ALL_COMMANDS)
    def test_negative_size_bound_exits_three(self, capsys, command, name):
        # Rejected before the document is read, whether or not it has a
        # finite part whose nerve the bound would limit.
        code, out, err = run(capsys, command, model_path(name), "--size-bound", "-1")
        assert (code, out) == (3, "")
        if "--size-bound" in OPTIONS[command]:
            assert err == "error: --size-bound must be nonnegative\n"
        else:
            assert err == "error: unrecognized arguments: --size-bound -1\n"

    @pytest.mark.parametrize("command", ALL_COMMANDS)
    def test_removed_telescope_depth_flag_exits_three(self, capsys, command):
        code, out, err = run(capsys, command, model_path("dyadic_odometer.json"),
                             "--telescope-depth", "2")
        assert (code, out) == (3, "")
        assert err == "error: unrecognized arguments: --telescope-depth 2\n"

    def test_zero_size_bound_is_a_bound(self, capsys):
        code, out, _ = run(capsys, "homology", model_path("fibonacci.json"), "--size-bound", "0")
        assert code == 0
        assert "H_0 = " in out


class TestOptionSets:
    """A subcommand declares exactly the options its handler reads: each one
    can change the result, and every other option is refused."""

    # (subcommand, option): a document with more arguments, and the option's
    # arguments, which change the (exit code, stdout) of that command line.
    WITNESSES = {
        ("homology", "--format"): (["o3.json"], ["--format", "json"]),
        ("homology", "--max-degree"): (["pair2.json"], ["--max-degree", "1"]),
        ("homology", "--size-bound"): (["z2group.json"], ["--size-bound", "1"]),
        ("ktheory", "--format"): (["o2.json"], ["--format", "json"]),
        ("hk-check", "--format"): (["o2.json"], ["--format", "json"]),
        ("hk-check", "--max-degree"): (["pair2.json"], ["--max-degree", "1"]),
        ("hk-check", "--size-bound"): (["z2group.json"], ["--size-bound", "1"]),
        ("smale-check", "--format"): (["fibonacci.json"], ["--format", "json"]),
        # The JSON report echoes the degree.
        ("smale-check", "--max-degree"): (["fibonacci.json", "--format", "json"],
                                          ["--max-degree", "1"]),
        ("span-check", "--format"): (["span_pair.json"], ["--format", "json"]),
        ("fullgroup-dims", "--format"): (["o2.json"], ["--format", "json"]),
        # Degree 3 needs nerve level 4 of Z/2, 16 cells; degree 2 only 8.
        ("fullgroup-dims", "--max-degree"): (["z2group.json", "--size-bound", "8"],
                                             ["--max-degree", "2"]),
        ("fullgroup-dims", "--size-bound"): (["z2group.json"], ["--size-bound", "1"]),
        ("fullgroup-dims", "--words"): (["o2.json"], ["--words", "2"]),
    }

    REMOVED = [
        (command, option)
        for command in ALL_COMMANDS
        for option in ("--max-degree", "--size-bound", "--rational-only")
        if option not in OPTIONS[command]
    ]

    def test_each_declared_option_has_a_witness(self):
        _, subcommands = cli._build_parser()
        declared = {
            (command, flag)
            for command, parser in subcommands.items()
            for action in parser._actions
            for flag in action.option_strings
            if flag not in ("-h", "--help")
        }
        assert declared == {(c, o) for c, options in OPTIONS.items() for o in options}
        assert declared == set(self.WITNESSES)

    @pytest.mark.parametrize("command, option", sorted(WITNESSES))
    def test_declared_option_changes_the_result(self, capsys, command, option):
        (name, *rest), extra = self.WITNESSES[command, option]
        code, out, err = run(capsys, command, model_path(name), *rest)
        changed_code, changed_out, changed_err = run(
            capsys, command, model_path(name), *rest, *extra
        )
        assert (code, out) != (changed_code, changed_out)
        assert "unrecognized" not in err + changed_err

    @pytest.mark.parametrize("command, option", REMOVED)
    def test_undeclared_option_exits_three(self, capsys, command, option):
        flags = [option] if option == "--rational-only" else [option, "2"]
        code, out, err = run(capsys, command, model_path("o2.json"), *flags)
        assert (code, out) == (3, "")
        assert err == f"error: unrecognized arguments: {' '.join(flags)}\n"


class TestOneExitPerDocument:
    """Models check their axioms when the document is read, so a malformed
    document exits 3 under every subcommand, before any computation."""

    COMMANDS = ("homology", "ktheory", "hk-check", "fullgroup-dims")

    @staticmethod
    def cases(tmp_path: Path) -> dict[str, tuple[list[str], str]]:
        product = {
            "model": "product",
            "factors": [
                {"model": "cantor_z",
                 "diagram": {"level_sizes": [1], "incidences": [], "tail": [[1]]}},
                {"model": "sft", "matrix": [[0]]},
            ],
        }
        repeated_path = tmp_path / "repeated.json"
        repeated_path.write_text('{"model": "sft", "matrix": [[1]], "matrix": [[0]]}')
        product_path = tmp_path / "product.json"
        product_path.write_text(json.dumps(product))
        return {
            "repeated_key": ([str(repeated_path)], 'an object repeats the key "matrix"'),
            "uncertified_times_zero_row": ([str(product_path)], "/factors/1: row 0 "),
        }

    @pytest.mark.parametrize("case", ["repeated_key", "uncertified_times_zero_row"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_malformed_exits_three_everywhere(self, capsys, tmp_path, case, command):
        argv, message = self.cases(tmp_path)[case]
        code, out, err = run(capsys, command, *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.count("error:") == 1
        assert message in err
        if case == "uncertified_times_zero_row":
            assert err.count("/factors/1: ") == 1

    @pytest.mark.parametrize("command", ALL_COMMANDS)
    def test_non_utf8_document_exits_three(self, capsys, tmp_path, command):
        path = tmp_path / "model.json"
        path.write_bytes(b"\xff\xfe{}")
        code, out, err = run(capsys, command, str(path))
        assert code == 3
        assert out == ""
        assert err == "error: document is not UTF-8 text: invalid start byte at byte 0\n"

    @pytest.mark.parametrize("command", ALL_COMMANDS)
    def test_entry_longer_than_the_digit_limit(self, capsys, tmp_path, command):
        path = tmp_path / "model.json"
        path.write_text(LONG_ENTRY_DOCUMENT)
        code, out, err = run(capsys, command, str(path))
        if command == "span-check":
            # A model document is not a span document.
            assert (code, out) == (3, "")
            assert err == 'error: /: expected a "span" or "compose" field\n'
            return
        assert code == 0 and err == ""
        if command != "fullgroup-dims":
            assert LONG_ENTRY_H0 in out

    def test_result_longer_than_the_digit_limit(self, capsys, tmp_path):
        # b = 10^4000 + 7 on the diagonal and 1 off it: H_0 = Z/(b(b - 2)),
        # and b(b - 2) = 10^8000 + 12 * 10^4000 + 35 has 8,001 digits.
        b = "1" + "0" * 3999 + "7"
        path = tmp_path / "model.json"
        path.write_text(f'{{"model": "sft", "matrix": [[{b}, 1], [1, {b}]]}}')
        code, out, err = run(capsys, "homology", str(path))
        assert code == 0 and err == ""
        assert f"H_0 = Z/1{'0' * 3998}12{'0' * 3998}35\n" in out

    def test_entry_at_the_digit_cap(self, capsys, tmp_path):
        entry = "1" + "0" * (MAX_INT_DIGITS - 2) + "3"
        path = tmp_path / "model.json"
        path.write_text(f'{{"model": "sft", "matrix": [[{entry}]]}}')
        code, out, err = run(capsys, "homology", str(path))
        assert code == 0 and err == ""
        assert f"H_0 = Z/1{'0' * (MAX_INT_DIGITS - 2)}2\n" in out

    @pytest.mark.parametrize("command", ALL_COMMANDS)
    def test_entry_past_the_digit_cap_exits_three(self, capsys, tmp_path, command):
        digits = 400_000
        path = tmp_path / "model.json"
        path.write_text('{"model": "sft", "matrix": [[1' + "0" * (digits - 2) + '3]]}')
        start = time.perf_counter()
        code, out, err = run(capsys, command, str(path))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err == (
            f"error: an integer literal has {digits:,} digits, "
            f"more than the limit of {MAX_INT_DIGITS:,}\n"
        )

    def test_digit_limit_is_restored(self, capsys):
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this interpreter has no int/str digit limit")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        try:
            code, _, _ = run(capsys, "homology", model_path("o3.json"))
            assert code == 0
            assert sys.get_int_max_str_digits() == 5000
            code, _, _ = run(capsys, "homology", model_path("missing.json"))
            assert code == 3
            assert sys.get_int_max_str_digits() == 5000
        finally:
            sys.set_int_max_str_digits(limit)

    def test_finite_document_is_validated_once(self, capsys, monkeypatch):
        arrows = len(json.loads(Path(model_path("pair2.json")).read_text())["arrows"])
        real = models._validate_finite
        calls = []

        def counted(g, compose, inverse):
            if len(g.arrows) == arrows:
                calls.append(g)
            return real(g, compose, inverse)

        monkeypatch.setattr(models, "_validate_finite", counted)
        code, _, _ = run(capsys, "hk-check", model_path("pair2.json"))
        assert code == 0
        assert len(calls) == 1


class TestOutOfMemory:
    """Running out of memory is exit 3 with one ``error:`` line naming the
    subcommand, never a traceback and exit 1, which means a rank mismatch."""

    def test_memory_error_exits_three(self, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "invariants", exhausted)
        code, out, err = run(capsys, "homology", model_path("o3.json"))
        assert (code, out, err) == (3, "", "error: homology ran out of memory\n")

    @pytest.mark.skipif(sys.platform != "linux", reason="needs an enforced RLIMIT_AS")
    def test_capped_bar_complex_exits_three(self, tmp_path):
        # D_8 x Z/2 to degree 3 peaks near 480 MB; capped at 200 MB of
        # address space, the child runs out of memory in its eliminations.
        import resource

        d8_z2 = [r + (4, 5) for r in D8] + [(0, 1, 2, 3, 5, 4)]
        path = tmp_path / "d8_z2.json"
        path.write_text(json.dumps(finite_document(permutation_group_groupoid(d8_z2))))
        cap = 200 << 20
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC_DIR), env.get("PYTHONPATH"))))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "amplehk.cli", "homology", str(path), "--max-degree", "3"],
            capture_output=True,
            text=True,
            env=env,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        )
        assert time.perf_counter() - start < 10
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == "error: homology ran out of memory\n"


class TestEntryPoint:
    def test_entry_raises_system_exit(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.argv", ["amplehk", "homology", model_path("o3.json")])
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == 0

    def test_main_without_argv_reads_sys_argv(self, capsys, monkeypatch):
        argv = ["homology", model_path("o3.json"), "--format", "json"]
        expected = run(capsys, *argv)
        monkeypatch.setattr("sys.argv", ["amplehk", *argv])
        code = cli.main(None)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == expected

    def test_module_invocation(self):
        # python -m must behave like the console script, not import silently
        proc = subprocess.run(
            [sys.executable, "-m", "amplehk.cli", "ktheory", model_path("o3.json")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "K_0 = Z/2" in proc.stdout


SRC_DIR = Path(cli.__file__).resolve().parent.parent

# One call per row, in this order, all in one process: a usage error, help,
# a rejected option value, then each subcommand on a shipped document.
REUSE_CASES: list[list[str]] = [
    ["homology", "--bogus"],
    ["--help"],
    ["homology", model_path("o3.json"), "--max-degree", "65"],
] + [
    [command, model_path(name)] + fmt
    for command, name in (
        ("homology", "product_fixed_points.json"),
        ("ktheory", "cantor_af.json"),
        ("hk-check", "z2group.json"),
        ("smale-check", "fibonacci.json"),
        ("span-check", "span_pair.json"),
        ("fullgroup-dims", "dyadic_odometer.json"),
    )
    for fmt in ([], ["--format", "json"])
]


class TestOneParserPerProcess:
    """The parser is built once per process and reused by every call."""

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_reused_parser_matches_a_fresh_process(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "100")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC_DIR), env.get("PYTHONPATH"))))
        codes = []
        for argv in REUSE_CASES:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(argv))
                except SystemExit as e:
                    code = e.code
            fresh = subprocess.run(
                [sys.executable, "-m", "amplehk.cli", *argv],
                capture_output=True, text=True, env=env,
            )
            assert (code, out.getvalue(), err.getvalue()) == (
                fresh.returncode, fresh.stdout, fresh.stderr
            ), argv
            codes.append(code)
        assert codes[:3] == [3, 0, 3]


# Command lines whose parse both ways must agree: every golden run, every
# help and usage case, and edge cases around the subcommand name.
DISPATCH_CASES: list[list[str]] = (
    [
        [command, model_path(name), *flags]
        for name, command, *flags in (
            key.split(" ") for key in json.loads(GOLDEN_OUTPUTS.read_text())
        )
    ]
    + ARGV_CASES
    + [
        [],
        ["-h"],
        ["homology"],
        ["homology", "-h"],
        ["homolog", "x"],
        ["homology", "x", "--max-degree"],
        ["homology", "x", "--max-degree", "-1"],
        ["homology", "x", "--form", "json"],
        ["homology", "x", "y"],
        ["hk-check", "--", "x"],
        ["ktheory", "x", "--max-degree", "2"],
        ["--format", "json", "homology", "x"],
    ]
)


def parse_outcome(parse, argv: list[str]) -> tuple:
    """What parsing ``argv`` ends in: the namespace without ``command``, a
    usage error's message, or the exit code and output of help."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            namespace = parse(list(argv))
        except cli._UsageError as e:
            return ("usage error", str(e), out.getvalue())
        except SystemExit as e:
            return ("exit", e.code, out.getvalue())
    fields = vars(namespace)
    fields.pop("command", None)
    return ("parsed", fields, out.getvalue())


def dispatch_id(argv: list[str]) -> str:
    return " ".join(Path(a).name if a.startswith(str(MODELS_DIR)) else a for a in argv) or "(none)"


class TestDirectDispatch:
    """A command line that starts with a subcommand's name is parsed by that
    subcommand's parser alone, with the result the top-level parser gives."""

    @pytest.mark.parametrize("argv", DISPATCH_CASES, ids=dispatch_id)
    def test_same_outcome_as_the_top_level_parser(self, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "100")
        parser, _ = cli._build_parser()
        assert parse_outcome(cli._parse_args, argv) == parse_outcome(parser.parse_args, argv)

    def test_subcommand_lines_skip_the_top_level_parser(self, monkeypatch):
        parser, commands = cli._build_parser()

        def refuse(*args, **kwargs):
            raise AssertionError("parsed by the top-level parser")

        monkeypatch.setattr(parser, "parse_args", refuse)
        for name in commands:
            assert cli._parse_args([name, "doc.json"]).path == "doc.json"
        with pytest.raises(AssertionError):
            cli._parse_args(["--help"])


def test_import_leaves_out_slow_standard_modules():
    """Importing the command line loads none of these: each costs
    milliseconds per process and the package has no use for it."""
    code = (
        f"import sys; sys.path.insert(0, {str(SRC_DIR)!r}); import amplehk.cli; "
        "slow = {'dataclasses', 'inspect', 'pathlib', 'random', 'typing'}; "
        "print(sorted(slow & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert proc.stdout == "[]\n"


def test_import_adds_only_package_modules():
    """With the standard modules the package uses already loaded, importing
    the command line loads nothing but the package's own modules."""
    code = (
        f"import sys; sys.path.insert(0, {str(SRC_DIR)!r}); "
        "import argparse, json, json.encoder, re, math, itertools, functools, operator, "
        "collections.abc, __future__; "
        "before = set(sys.modules); import amplehk.cli; "
        "print(sorted(set(sys.modules) - before))"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True
    )
    added = ast.literal_eval(proc.stdout)
    assert added and [name for name in added if name.split(".")[0] != "amplehk"] == []


def test_no_tuple_is_built_from_an_iterator():
    """``tuple(iterator)`` allocates a tuple of a guessed length and resizes
    it, so when it is freed it joins CPython's free list for its final
    length, which only a full garbage collection empties: a long-running
    caller's memory grows with every call until those lists fill.  The
    package builds its tuples from lists and other sized collections."""
    iterators = {"chain", "filter", "map", "zip", "from_iterable"}
    found = []
    for path in sorted(SRC_DIR.joinpath("amplehk").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "tuple" and len(node.args) == 1):
                continue
            arg = node.args[0]
            called = arg.func if isinstance(arg, ast.Call) else None
            name = getattr(called, "id", None) or getattr(called, "attr", None)
            if isinstance(arg, ast.GeneratorExp) or name in iterators:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
