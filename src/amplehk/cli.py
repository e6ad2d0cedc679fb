"""Command-line interface.

Subcommands: homology, ktheory, hk-check, smale-check, span-check,
fullgroup-dims.  All take a JSON document path.  Exit codes: 0 for success or
a matching verdict, 1 for a rank mismatch, 2 for a failed precondition, 3 for
unusable input.  Output is deterministic: the same input bytes produce the
same output bytes, in both text and JSON formats.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .errors import (
    ModelInvalid,
    NotFinitelyGenerated,
    NotPrincipal,
    ParseError,
    SchemaError,
    ShapeMismatch,
    SimplicityNotCertified,
    SizeBoundExceeded,
    TruncationUnsound,
)
from .hkcheck import (
    VERDICT_MATCH,
    VERDICT_MISMATCH,
    VERDICT_PRECONDITION_FAILED,
    free_graded_commutative_dims,
    group_to_json,
    group_to_text,
    hk_check,
    report_to_json_text,
    report_to_text,
    smale_check,
)
from .homology import DEFAULT_SIZE_BOUND, homology_of_model
from .hkcheck import _graded_to_json  # shared rendering of graded groups
from .ktheory import ktheory_of_model
from .models import CantorZModel, GroupoidModel, ProductModel, SftModel, model_summary
from .modelio import load_json, parse_model, parse_span_document
from .spans import compose_spans, transfer_matrix

__all__ = ["entry", "main"]

_EXIT_OK = 0
_EXIT_MISMATCH = 1
_EXIT_PRECONDITION = 2
_EXIT_INPUT = 3

_VERDICT_EXITS = {
    VERDICT_MATCH: _EXIT_OK,
    VERDICT_MISMATCH: _EXIT_MISMATCH,
    VERDICT_PRECONDITION_FAILED: _EXIT_PRECONDITION,
}


def _dump_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _override_depth(model: GroupoidModel, depth: int | None) -> GroupoidModel:
    if depth is None:
        return model
    if isinstance(model, CantorZModel):
        return dataclasses.replace(model, telescope_depth=depth)
    if isinstance(model, ProductModel):
        return ProductModel(
            _override_depth(model.left, depth), _override_depth(model.right, depth)
        )
    return model


def _read_model(args: argparse.Namespace) -> GroupoidModel:
    model = parse_model(load_json(Path(args.path).read_text()))
    return _override_depth(model, args.telescope_depth)


def _matrix_json(m) -> list[list[int]]:
    return m.to_rows()


def _cmd_homology(args: argparse.Namespace) -> int:
    model = _read_model(args)
    graded = homology_of_model(
        model,
        max_degree=args.max_degree,
        size_bound=args.size_bound,
        stage=args.stage,
        rational_only=args.rational_only,
    )
    if args.format == "json":
        sys.stdout.write(
            _dump_json({"model": model_summary(model), "homology": _graded_to_json(graded)})
        )
    else:
        lines = [f"model: {model_summary(model)}"]
        for d, v in enumerate(graded.by_degree):
            lines.append(f"H_{d} = {group_to_text(v)}")
        lines.append(
            f"zero above degree {graded.max_degree}"
            if graded.vanishing_above
            else f"truncated at degree {graded.max_degree}"
        )
        sys.stdout.write("\n".join(lines) + "\n")
    return _EXIT_OK


def _cmd_ktheory(args: argparse.Namespace) -> int:
    model = _read_model(args)
    pair = ktheory_of_model(model, stage=args.stage, rational_only=args.rational_only)
    if args.format == "json":
        sys.stdout.write(
            _dump_json(
                {
                    "model": model_summary(model),
                    "ktheory": {"k0": group_to_json(pair.k0), "k1": group_to_json(pair.k1)},
                }
            )
        )
    else:
        sys.stdout.write(
            f"model: {model_summary(model)}\nK_0 = {group_to_text(pair.k0)}\n"
            f"K_1 = {group_to_text(pair.k1)}\n"
        )
    return _EXIT_OK


def _cmd_hk_check(args: argparse.Namespace) -> int:
    model = _read_model(args)
    report = hk_check(
        model,
        max_degree=args.max_degree,
        stage=args.stage,
        size_bound=args.size_bound,
        rational_only=args.rational_only,
    )
    sys.stdout.write(report_to_json_text(report) if args.format == "json" else report_to_text(report))
    return _VERDICT_EXITS[report.verdict]


def _cmd_smale_check(args: argparse.Namespace) -> int:
    model = _read_model(args)
    if not isinstance(model, SftModel):
        raise SchemaError("/model", "smale-check needs an sft model (the presenting shift)")
    report = smale_check(model, max_degree=args.max_degree, size_bound=args.size_bound)
    sys.stdout.write(report_to_json_text(report) if args.format == "json" else report_to_text(report))
    return _VERDICT_EXITS[report.verdict]


def _cmd_span_check(args: argparse.Namespace) -> int:
    kind, spans = parse_span_document(load_json(Path(args.path).read_text()))
    if kind == "span":
        t = transfer_matrix(spans[0])
        if args.format == "json":
            sys.stdout.write(_dump_json({"transfer": _matrix_json(t)}))
        else:
            sys.stdout.write(f"transfer = {t}\n")
        return _EXIT_OK
    first, second = spans
    composite = compose_spans(second, first)
    t_first = transfer_matrix(first)
    t_second = transfer_matrix(second)
    t_composite = transfer_matrix(composite)
    product = t_second @ t_first
    functorial = t_composite == product
    if args.format == "json":
        sys.stdout.write(
            _dump_json(
                {
                    "transfer_first": _matrix_json(t_first),
                    "transfer_second": _matrix_json(t_second),
                    "transfer_composite": _matrix_json(t_composite),
                    "product": _matrix_json(product),
                    "functorial": functorial,
                }
            )
        )
    else:
        sys.stdout.write(
            f"transfer(first) = {t_first}\ntransfer(second) = {t_second}\n"
            f"transfer(composite) = {t_composite}\n"
            f"functorial: {str(functorial).lower()}\n"
        )
    return _EXIT_OK if functorial else _EXIT_MISMATCH


def _cmd_fullgroup_dims(args: argparse.Namespace) -> int:
    model = _read_model(args)
    report = hk_check(
        model,
        max_degree=args.max_degree,
        stage=args.stage,
        size_bound=args.size_bound,
        rational_only=args.rational_only,
    )
    if report.verdict == VERDICT_PRECONDITION_FAILED:
        sys.stderr.write("error: " + "; ".join(report.notes) + "\n")
        return _EXIT_PRECONDITION
    assert report.ktheory is not None
    r0 = report.ktheory.k0.rank
    r1 = report.ktheory.k1.rank
    dims = free_graded_commutative_dims(r0, r1, args.words)
    acyclic = all(e == 0 and o == 0 for e, o in dims[1:])
    if args.format == "json":
        sys.stdout.write(
            _dump_json(
                {
                    "model": report.model,
                    "k0_rank": r0,
                    "k1_rank": r1,
                    "dims_by_word_length": [list(d) for d in dims],
                    "trivial_above_word_zero": acyclic,
                }
            )
        )
    else:
        lines = [f"model: {report.model}", f"K ranks: even {r0}, odd {r1}"]
        for n, (e, o) in enumerate(dims):
            lines.append(f"word length {n}: even {e}, odd {o}")
        if acyclic:
            lines.append("trivial above word length 0: the full group is rationally acyclic")
        sys.stdout.write("\n".join(lines) + "\n")
    return _EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amplehk",
        description="Exact homology / K-theory invariants of ample groupoid models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str, with_words: bool = False) -> None:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("path", help="JSON document to read")
        p.add_argument("--max-degree", type=int, default=3, dest="max_degree",
                       help="top homology degree for truncated computations (default 3)")
        p.add_argument("--stage", type=int, default=3,
                       help="certification depth for colimit torsion certificates (default 3)")
        p.add_argument("--telescope-depth", type=int, default=None, dest="telescope_depth",
                       help="override the telescoping depth of cantor_z models")
        p.add_argument("--size-bound", type=int, default=DEFAULT_SIZE_BOUND, dest="size_bound",
                       help=f"abort when a nerve level outgrows this (default {DEFAULT_SIZE_BOUND})")
        p.add_argument("--format", choices=("text", "json"), default="text",
                       help="output format (default text)")
        p.add_argument("--rational-only", action="store_true", dest="rational_only",
                       help="drop torsion bookkeeping and compare ranks only")
        if with_words:
            p.add_argument("--words", type=int, default=6,
                           help="top word length for graded dimensions (default 6)")
        p.set_defaults(handler=handler)

    add("homology", _cmd_homology, "graded homology of a model")
    add("ktheory", _cmd_ktheory, "K-theory pair of a model")
    add("hk-check", _cmd_hk_check, "compare periodicized homology ranks with K-theory")
    add("smale-check", _cmd_smale_check, "the same comparison in Smale-space terms")
    add("span-check", _cmd_span_check, "transfer matrices and composition of spans")
    add("fullgroup-dims", _cmd_fullgroup_dims,
        "graded dimensions of the enveloping full group's rational homology",
        with_words=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    for flag in ("max_degree", "words"):
        if getattr(args, flag, 0) < 0:
            sys.stderr.write(f"error: --{flag.replace('_', '-')} must be nonnegative\n")
            return _EXIT_INPUT
    try:
        return args.handler(args)
    except (ParseError, SchemaError, ModelInvalid, ShapeMismatch, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return _EXIT_INPUT
    except (NotPrincipal, SimplicityNotCertified, NotFinitelyGenerated, TruncationUnsound) as e:
        sys.stderr.write(f"precondition failure: {e}\n")
        return _EXIT_PRECONDITION
    except SizeBoundExceeded as e:
        sys.stderr.write(f"error: {e}\n")
        return _EXIT_INPUT


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
