"""Command-line interface.

Subcommands: homology, ktheory, hk-check, smale-check, span-check,
fullgroup-dims.  All take a JSON document path.  Exit codes: 0 for success or
a matching verdict, 1 for a rank mismatch, 2 for a failed precondition, 3 for
unusable input or a usage error.  Output is deterministic: the same input
bytes produce the same output bytes, in both text and JSON formats.
Integers are exact; a document's integer literals have at most
``modelio.MAX_INT_DIGITS`` digits, and results are printed in full.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from .errors import (
    ModelInvalid,
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
    _canonical_json,
    free_graded_commutative_dims,
    hk_check,
    report_to_json_text,
    report_to_text,
    smale_check,
)
from .homology import DEFAULT_SIZE_BOUND
from .ktheory import invariants
from .models import GroupoidModel, SftModel
from .modelio import load_json, parse_model, parse_span_document
from .spans import compose_spans, transfer_matrix

__all__ = ["entry", "main"]

_EXIT_OK = 0
_EXIT_MISMATCH = 1
_EXIT_PRECONDITION = 2
_EXIT_INPUT = 3

# Largest ``fullgroup-dims --words``; the output lists every word length.
MAX_WORDS = 10_000

# Largest ``--max-degree``.  A nontrivial isotropy group meets the default
# ``--size-bound`` long before it: Z/2 from degree 17.  A principal groupoid's
# complex is empty above degree 0, so its cost is linear in the degree, but
# the output has a line per degree; ``homology_finite`` on ``pair2.json``
# takes 0.5 ms at degree 64 and 0.1 s at 10,000 (Python 3.11, 2-core Xeon).
MAX_DEGREE = 64

_VERDICT_EXITS = {
    VERDICT_MATCH: _EXIT_OK,
    VERDICT_MISMATCH: _EXIT_MISMATCH,
    VERDICT_PRECONDITION_FAILED: _EXIT_PRECONDITION,
}


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError as e:
        raise ParseError(f"document is not UTF-8 text: {e.reason} at byte {e.start}") from None
    return load_json(text)


def _read_model(args: argparse.Namespace) -> GroupoidModel:
    return parse_model(_read_json(args.path))


def _cmd_homology(args: argparse.Namespace) -> int:
    found = invariants(_read_model(args), args.max_degree, args.size_bound)
    graded = found.homology()
    if args.format == "json":
        sys.stdout.write(_canonical_json({"model": found.summary, "homology": graded}))
    else:
        lines = [f"model: {found.summary}"]
        for d, v in enumerate(graded.by_degree):
            lines.append(f"H_{d} = {v}")
        lines.append(
            f"zero above degree {graded.max_degree}"
            if graded.vanishing_above
            else f"truncated at degree {graded.max_degree}"
        )
        sys.stdout.write("\n".join(lines) + "\n")
    return _EXIT_OK


def _cmd_ktheory(args: argparse.Namespace) -> int:
    found = invariants(_read_model(args))
    pair = found.ktheory()
    if args.format == "json":
        sys.stdout.write(_canonical_json({"model": found.summary, "ktheory": pair}))
    else:
        sys.stdout.write(f"model: {found.summary}\nK_0 = {pair.k0}\nK_1 = {pair.k1}\n")
    return _EXIT_OK


def _cmd_hk_check(args: argparse.Namespace) -> int:
    report = hk_check(_read_model(args), max_degree=args.max_degree, size_bound=args.size_bound)
    sys.stdout.write(report_to_json_text(report) if args.format == "json" else report_to_text(report))
    return _VERDICT_EXITS[report.verdict]


def _cmd_smale_check(args: argparse.Namespace) -> int:
    model = _read_model(args)
    if not isinstance(model, SftModel):
        raise SchemaError("/model", "smale-check needs an sft model (the presenting shift)")
    report = smale_check(model, max_degree=args.max_degree)
    sys.stdout.write(report_to_json_text(report) if args.format == "json" else report_to_text(report))
    return _VERDICT_EXITS[report.verdict]


def _cmd_span_check(args: argparse.Namespace) -> int:
    kind, spans = parse_span_document(_read_json(args.path))
    if kind == "span":
        t = transfer_matrix(spans[0])
        if args.format == "json":
            sys.stdout.write(_canonical_json({"transfer": t.to_rows()}))
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
            _canonical_json(
                {
                    "transfer_first": t_first.to_rows(),
                    "transfer_second": t_second.to_rows(),
                    "transfer_composite": t_composite.to_rows(),
                    "product": product.to_rows(),
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
    report = hk_check(_read_model(args), max_degree=args.max_degree, size_bound=args.size_bound)
    if report.verdict == VERDICT_PRECONDITION_FAILED:
        reasons = (note.removeprefix("precondition failed: ") for note in report.notes)
        sys.stderr.write("precondition failure: " + "; ".join(reasons) + "\n")
        return _EXIT_PRECONDITION
    assert report.ktheory is not None
    r0 = report.ktheory.k0.rank
    r1 = report.ktheory.k1.rank
    dims = free_graded_commutative_dims(r0, r1, args.words)
    # Word length 1 is the generating space, of dims (r0, r1): the algebra is
    # trivial above word length 0 exactly when both ranks are 0, whatever
    # --words is, 0 included.
    acyclic = r0 == r1 == 0
    if args.format == "json":
        sys.stdout.write(
            _canonical_json(
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


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as exit 3, not argparse's exit 2, which here
    means a failed precondition."""

    def error(self, message: str):
        raise _UsageError(message)


@cache
def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The top-level parser and each subcommand's parser by name.

    Built once per process: building takes about twenty times as long as a
    parse, and a parse leaves the parsers unchanged (it fills a new
    namespace, and help is formatted when it is printed)."""

    # The options every subcommand takes, declared once and inherited.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("path", help="JSON document to read")
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default text)")
    # The integer options, each given only to the subcommands whose handler
    # reads it: (default, help).
    integer_options = {
        "--max-degree": (3, "top homology degree for truncated computations "
                            f"(default 3, at most {MAX_DEGREE})"),
        "--size-bound": (DEFAULT_SIZE_BOUND,
                         "exit 3 when a level of the reduced finite-groupoid complex (the nerve "
                         f"of one unit per orbit) outgrows this (default {DEFAULT_SIZE_BOUND})"),
        "--words": (6, f"top word length for graded dimensions (default 6, at most {MAX_WORDS})"),
    }

    parser = _Parser(
        prog="amplehk",
        description="Exact homology / K-theory invariants of ample groupoid models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, _Parser] = {}
    degree_and_bound = ("--max-degree", "--size-bound")
    for name, handler, help_text, flags in (
        ("homology", _cmd_homology, "graded homology of a model", degree_and_bound),
        ("ktheory", _cmd_ktheory, "K-theory pair of a model", ()),
        ("hk-check", _cmd_hk_check, "compare periodicized homology ranks with K-theory",
         degree_and_bound),
        ("smale-check", _cmd_smale_check, "the same comparison in Smale-space terms",
         ("--max-degree",)),
        ("span-check", _cmd_span_check, "transfer matrices and composition of spans", ()),
        ("fullgroup-dims", _cmd_fullgroup_dims,
         "graded dimensions of the enveloping full group's rational homology",
         degree_and_bound + ("--words",)),
    ):
        command = sub.add_parser(name, help=help_text, parents=[common])
        for flag in flags:
            default, flag_help = integer_options[flag]
            command.add_argument(flag, type=int, default=default, help=flag_help)
        command.set_defaults(handler=handler)
        commands[name] = command
    return parser, commands


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    # A command line that starts with a subcommand's name is parsed by that
    # subcommand's parser alone.  Through the top-level parser argparse would
    # classify every argument, match the name and then hand the rest to the
    # same subparser, parsing the line twice.  Anything else (no arguments,
    # -h, an unknown name) goes to the top-level parser, which prints the
    # help and usage errors.  Both are _Parser, so an error raises
    # _UsageError with the same message either way; only the namespace's
    # ``command``, which nothing reads, is left unset.
    if argv is None:
        argv = sys.argv[1:]
    parser, commands = _build_parser()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    return command.parse_args(argv[1:])


def main(argv: list[str] | None = None) -> int:
    # Invariants are exact, so document entries and results can be longer
    # than the int/str conversion limit of Python 3.10.7 and later (4,300
    # digits by default).  Lift it for this call; older interpreters have none.
    if not hasattr(sys, "set_int_max_str_digits"):
        return _run(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _run(argv: list[str] | None) -> int:
    try:
        args = _parse_args(argv)
    except _UsageError as e:
        sys.stderr.write(f"error: {e}\n")
        return _EXIT_INPUT
    # Rejected before the document is read: (option, cap or None).
    for flag, cap in (("max_degree", MAX_DEGREE), ("size_bound", None), ("words", MAX_WORDS)):
        value = getattr(args, flag, None)
        if value is None or (0 <= value and (cap is None or value <= cap)):
            continue
        problem = "must be nonnegative" if value < 0 else f"must be at most {cap}"
        sys.stderr.write(f"error: --{flag.replace('_', '-')} {problem}\n")
        return _EXIT_INPUT
    try:
        return args.handler(args)
    except (ParseError, SchemaError, ModelInvalid, ShapeMismatch, OSError, SizeBoundExceeded) as e:
        sys.stderr.write(f"error: {e}\n")
        return _EXIT_INPUT
    except (NotPrincipal, SimplicityNotCertified, TruncationUnsound) as e:
        sys.stderr.write(f"precondition failure: {e}\n")
        return _EXIT_PRECONDITION


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
