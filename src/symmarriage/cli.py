"""Command-line front end: solve, check, gen, verify.

Exit codes are part of the contract so that shell harnesses stay portable:

* solve: 0 solved, 1 unsolvable, 2 infeasible, 3 size guard (--method weight)
* check: 0 condition holds, 1 violator found, 2 infeasible, 3 size guard
* verify: 0 claim valid, 1 claim invalid
* gen: 0 instance written
* any command: 64 usage error, 65 unreadable/malformed/invalid input,
  70 internal error (a broken invariant of the program, never of the input;
  for gen, also a generator that ran out of retries)
* solve, gen: 73 the --output file cannot be written (no partial file is left)

Exit codes 64 and above print one line to stderr and leave no --output file.

Every command loads its instance in one checked pass
(:func:`~symmarriage.fileio.prepare_document`); ``verify`` loads it the
same way, checks its claim against the kept rosters' place maps and index
rows that load returns and prints one ``invalid: ...`` line per problem.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import os
import stat
import sys

from .fileio import (
    ParseError,
    ResultDoc,
    claim_problems,
    parse_result,
    prepare_document,
    serialize_instance,
    serialize_result,
)
from .generators import RetryExhaustedError, gen_assignment, gen_chessboard, gen_rooks, gen_tournament
from .hall import SizeLimitError, hall_bicriteria
from .instances import (
    Assignment,
    IndexRows,
    Infeasible,
    InvariantError,
    cmp_to_smp,
)
from .star import solve, solve_via_subproblems, unsolvable_violator
from .weighted import weighted_assignment

EXIT_OK = 0
EXIT_UNSOLVABLE = 1
EXIT_INFEASIBLE = 2
EXIT_SIZE_LIMIT = 3
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_INTERNAL = 70
EXIT_CANTCREAT = 73

# The flags only gen assignment takes, with their defaults.
_ASSIGNMENT_DEFAULTS = {"workers": 4, "tasks": 4, "paid": 2, "mandatory": 2, "density": 0.5}


class _UsageError(Exception):
    pass


class _OutputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise _UsageError(message)


# Built once per process: parsing never changes the parser, and each build
# leaves about 200 cyclic objects (formatter, actions, groups) behind.
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="symmarriage", description="Two-sided hard-list matching toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_solve = sub.add_parser("solve", help="solve an instance file")
    p_solve.add_argument("input", help="instance file path")
    p_solve.add_argument(
        "--method",
        choices=("star", "subproblems", "weight"),
        default="star",
        help="decision route (default: star)",
    )
    p_solve.add_argument("--output", help="result file path (default: stdout)")
    p_solve.set_defaults(handler=_cmd_solve)

    p_check = sub.add_parser(
        "check", help="test the two-sided subset condition by enumeration"
    )
    p_check.add_argument("input", help="instance file path")
    p_check.set_defaults(handler=_cmd_check)

    p_gen = sub.add_parser("gen", help="generate a structured instance")
    p_gen.add_argument(
        "kind", choices=("tournament", "rooks", "chessboard", "assignment")
    )
    p_gen.add_argument("--n", type=int, default=1, help="size parameter (default: 1)")
    p_gen.add_argument("--seed", type=int, default=0, help="RNG seed (default: 0)")
    p_gen.add_argument("--output", help="instance file path (default: stdout)")
    # The assignment flags default to None, so that another kind given one
    # is told so; _cmd_gen fills in _ASSIGNMENT_DEFAULTS.
    p_gen.add_argument("--workers", type=int, help="assignment: worker count (default: 4)")
    p_gen.add_argument("--tasks", type=int, help="assignment: task count (default: 4)")
    p_gen.add_argument(
        "--paid", type=int, help="assignment: the first PAID workers are paid (default: 2)"
    )
    p_gen.add_argument(
        "--mandatory",
        type=int,
        help="assignment: the first MANDATORY tasks are mandatory (default: 2)",
    )
    p_gen.add_argument(
        "--density", type=float, help="assignment: capability density (default: 0.5)"
    )
    p_gen.set_defaults(handler=_cmd_gen)

    p_verify = sub.add_parser(
        "verify", help="independently re-check a result against its instance"
    )
    p_verify.add_argument("instance", help="instance file path")
    p_verify.add_argument("result", help="result file path")
    p_verify.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    # A command allocates about one tuple or dict per list entry, and none of
    # them can form a reference cycle, so the cyclic collector would only
    # rescan them.  Pause it for the one command and restore the caller's
    # setting on every way out.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SizeLimitError as exc:
        print(f"size limit: {exc}", file=sys.stderr)
        return EXIT_SIZE_LIMIT
    except (InvariantError, RetryExhaustedError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except _OutputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CANTCREAT
    finally:
        if collecting:
            gc.enable()


def entry() -> None:
    sys.exit(main())


def _emit(path: str | None, text: str) -> None:
    """Write ``text`` to ``path`` or stdout; raise ``_OutputError`` when the
    file cannot be written, removing a regular file left partly written."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        handle = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise _OutputError(f"cannot write '{path}': {exc}") from exc
    try:
        with handle:
            handle.write(text)
    except OSError as exc:
        with contextlib.suppress(OSError):
            if stat.S_ISREG(os.lstat(path).st_mode):
                os.remove(path)
        raise _OutputError(f"cannot write '{path}': {exc}") from exc


def _input_text(path: str) -> str:
    """The text of an instance or result file; ParseError when it cannot be
    read or is not UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"'{path}' is not UTF-8 text: {exc}") from exc
    except OSError as exc:
        raise ParseError(f"cannot read '{path}': {exc}") from exc


def _load_instance(path: str) -> IndexRows | Infeasible:
    """Read, validate and preprocess an instance file into an
    :class:`~symmarriage.instances.IndexView`
    (:func:`~symmarriage.fileio.prepare_document`); ParseError for
    unreadable, malformed or invalid documents."""
    # The loader reads the file itself, so it holds the only reference to
    # the text and frees it once the load returns.
    return prepare_document(functools.partial(_input_text, path))


def _cmd_solve(args) -> int:
    prepared = _load_instance(args.input)
    if isinstance(prepared, Infeasible):
        _emit(args.output, serialize_result(ResultDoc("infeasible", infeasible_member=prepared.member)))
        return EXIT_INFEASIBLE
    instance = prepared
    if args.method == "weight":
        assignment = weighted_assignment(instance)
        if assignment is not None:
            doc = ResultDoc("solved", assignment=assignment.pairs)
        else:
            violator = unsolvable_violator(instance)
            if violator is None:
                raise InvariantError("weight route found no pairing but no violator either")
            doc = ResultDoc("unsolvable", violator=violator)
    else:
        route = solve if args.method == "star" else solve_via_subproblems
        outcome = route(instance)
        if isinstance(outcome, Assignment):
            doc = ResultDoc("solved", assignment=outcome.pairs)
        else:
            doc = ResultDoc("unsolvable", violator=outcome.violator)
    _emit(args.output, serialize_result(doc))
    return EXIT_OK if doc.status == "solved" else EXIT_UNSOLVABLE


def _cmd_check(args) -> int:
    prepared = _load_instance(args.input)
    if isinstance(prepared, Infeasible):
        print(f"infeasible: refusals empty the list of '{prepared.member}'")
        return EXIT_INFEASIBLE
    violator = hall_bicriteria(prepared)
    if violator is None:
        print("ok")
        return EXIT_OK
    members = ", ".join(violator.members)
    print(f"violator: side={violator.side} members=[{members}] union_size={violator.union_size}")
    return EXIT_UNSOLVABLE


def _gen_usage_problem(args) -> str | None:
    """The first argument of ``gen`` that no instance can honour, or None."""
    if args.n < 1:
        return "--n must be >= 1"
    if args.kind == "assignment":
        if args.workers < 0 or args.tasks < 0:
            return "--workers and --tasks must be >= 0"
        if not 0 <= args.paid <= args.workers or not 0 <= args.mandatory <= args.tasks:
            return "--paid/--mandatory must fit within --workers/--tasks"
        if not 0.0 <= args.density <= 1.0:
            return "--density must lie in [0, 1]"
        # A paid worker lists tasks and a mandatory task lists workers; an
        # empty side leaves nothing to list.
        if args.paid and not args.tasks:
            return "--paid needs --tasks >= 1"
        if args.mandatory and not args.workers:
            return "--mandatory needs --workers >= 1"
    if args.seed < 0:
        return "--seed must be >= 0"
    if args.kind != "assignment":
        for name in _ASSIGNMENT_DEFAULTS:
            if getattr(args, name) is not None:
                return f"--{name} applies to gen assignment only"
    return None


def _cmd_gen(args) -> int:
    if args.kind == "assignment":
        for name, default in _ASSIGNMENT_DEFAULTS.items():
            if getattr(args, name) is None:
                setattr(args, name, default)
    problem = _gen_usage_problem(args)
    if problem is not None:
        print(f"usage error: {problem}", file=sys.stderr)
        return EXIT_USAGE
    if args.kind == "tournament":
        instance = cmp_to_smp(gen_tournament(args.n, args.seed))
    elif args.kind == "rooks":
        instance = cmp_to_smp(gen_rooks(args.n, args.seed))
    elif args.kind == "chessboard":
        instance, _ = gen_chessboard(args.n, args.seed)
    else:
        workers = tuple(f"w{i + 1}" for i in range(args.workers))
        tasks = tuple(f"t{j + 1}" for j in range(args.tasks))
        instance = gen_assignment(
            workers,
            tasks,
            mandatory_tasks=tasks[: args.mandatory],
            paid_workers=workers[: args.paid],
            seed=args.seed,
            density=args.density,
        )
    _emit(args.output, serialize_instance(instance))
    return EXIT_OK


def _cmd_verify(args) -> int:
    """Check a result's claim against its instance, loaded as ``solve``
    loads it (:func:`~symmarriage.fileio.claim_problems`, which writes
    every problem).  The result is read first; one that cannot be read or
    parsed is reported only after the instance's own errors
    (:func:`~symmarriage.fileio.prepare_document`)."""
    read = functools.partial(_input_text, args.instance)
    try:
        result = parse_result(_input_text(args.result))
    except ParseError:
        prepare_document(read)
        raise
    problems = claim_problems(read, result)
    for p in problems:
        print(f"invalid: {p}")
    if problems:
        return EXIT_UNSOLVABLE
    print("valid")
    return EXIT_OK


if __name__ == "__main__":
    entry()
