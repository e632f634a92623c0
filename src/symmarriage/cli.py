"""Command-line front end: solve, check, gen, verify.

Exit codes are part of the contract so that shell harnesses stay portable:

* solve: 0 solved, 1 unsolvable, 2 infeasible, 3 size guard (--method weight)
* check: 0 condition holds, 1 violator found, 2 infeasible, 3 size guard
* verify: 0 claim valid, 1 claim invalid
* any command: 64 usage error, 65 unreadable/malformed/invalid input,
  70 internal error (a broken invariant of the program, never of the input)
"""

from __future__ import annotations

import argparse
import sys

from .fileio import (
    ParseError,
    ResultDoc,
    parse_instance,
    parse_result,
    serialize_instance,
    serialize_result,
)
from .generators import gen_assignment, gen_chessboard, gen_rooks, gen_tournament
from .hall import SizeLimitError, hall_bicriteria
from .instances import (
    Assignment,
    Infeasible,
    InvariantError,
    SmpInstance,
    assignment_violations,
    cmp_to_smp,
    pare_lists,
    preprocess_refusals,
    validate_raw,
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


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise _UsageError(message)


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
    p_gen.add_argument("--workers", type=int, default=4, help="assignment: worker count")
    p_gen.add_argument("--tasks", type=int, default=4, help="assignment: task count")
    p_gen.add_argument(
        "--paid", type=int, default=2, help="assignment: the first PAID workers are paid"
    )
    p_gen.add_argument(
        "--mandatory",
        type=int,
        default=2,
        help="assignment: the first MANDATORY tasks are mandatory",
    )
    p_gen.add_argument(
        "--density", type=float, default=0.5, help="assignment: capability density"
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
    try:
        return args.handler(args)
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _emit(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _load_instance(path: str) -> SmpInstance | Infeasible:
    """Read, validate and preprocess an instance file.

    Raises ParseError for unreadable, malformed or invalid documents.
    """
    try:
        raw = parse_instance(_read_text(path))
    except OSError as exc:
        raise ParseError(f"cannot read '{path}': {exc}") from exc
    problems = validate_raw(raw)
    if problems:
        raise ParseError("; ".join(problems))
    return preprocess_refusals(raw)


def _cmd_solve(args) -> int:
    try:
        prepared = _load_instance(args.input)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    if isinstance(prepared, Infeasible):
        _emit(args.output, serialize_result(ResultDoc("infeasible", infeasible_member=prepared.member)))
        return EXIT_INFEASIBLE
    instance = prepared
    if args.method == "weight":
        try:
            assignment = weighted_assignment(instance)
        except SizeLimitError as exc:
            print(f"size limit: {exc}", file=sys.stderr)
            return EXIT_SIZE_LIMIT
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
    try:
        prepared = _load_instance(args.input)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    if isinstance(prepared, Infeasible):
        print(f"infeasible: refusals empty the list of '{prepared.member}'")
        return EXIT_INFEASIBLE
    try:
        violator = hall_bicriteria(prepared)
    except SizeLimitError as exc:
        print(f"size limit: {exc}", file=sys.stderr)
        return EXIT_SIZE_LIMIT
    if violator is None:
        print("ok")
        return EXIT_OK
    members = ", ".join(violator.members)
    print(f"violator: side={violator.side} members=[{members}] union_size={violator.union_size}")
    return EXIT_UNSOLVABLE


def _cmd_gen(args) -> int:
    if args.n < 1:
        print("usage error: --n must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    if args.kind == "tournament":
        instance = cmp_to_smp(gen_tournament(args.n, args.seed))
    elif args.kind == "rooks":
        instance = cmp_to_smp(gen_rooks(args.n, args.seed))
    elif args.kind == "chessboard":
        instance, _ = gen_chessboard(args.n, args.seed)
    else:
        if args.workers < 0 or args.tasks < 0:
            print("usage error: --workers and --tasks must be >= 0", file=sys.stderr)
            return EXIT_USAGE
        if not 0 <= args.paid <= args.workers or not 0 <= args.mandatory <= args.tasks:
            print(
                "usage error: --paid/--mandatory must fit within --workers/--tasks",
                file=sys.stderr,
            )
            return EXIT_USAGE
        if not 0.0 <= args.density <= 1.0:
            print("usage error: --density must lie in [0, 1]", file=sys.stderr)
            return EXIT_USAGE
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
    try:
        prepared = _load_instance(args.instance)
        result = parse_result(_read_text(args.result))
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    problems = _verify_claim(prepared, result)
    if problems:
        for p in problems:
            print(f"invalid: {p}")
        return EXIT_UNSOLVABLE
    print("valid")
    return EXIT_OK


def _verify_claim(prepared: SmpInstance | Infeasible, result: ResultDoc) -> list[str]:
    """Re-derive the claim from the instance; any discrepancy invalidates it."""
    if result.status == "infeasible":
        if not isinstance(prepared, Infeasible):
            return ["instance survives refusal preprocessing"]
        if prepared.member != result.infeasible_member:
            return [
                f"preprocessing empties the list of '{prepared.member}', "
                f"not '{result.infeasible_member}'"
            ]
        return []
    if isinstance(prepared, Infeasible):
        return [f"refusals empty the list of '{prepared.member}'"]
    if result.status == "solved":
        return assignment_violations(prepared, Assignment(result.assignment))
    violator = result.violator
    by_girl, by_boy = pare_lists(prepared)
    table = by_girl if violator.side == "girls" else by_boy
    problems = []
    members = violator.members
    if len(set(members)) != len(members):
        problems.append("violator members repeat")
    missing = [m for m in members if m not in table]
    if missing:
        problems.append(f"violator members not listed on the {violator.side} side: {missing}")
        return problems
    union: set[str] = set()
    for m in members:
        union.update(table[m])
    if len(union) != violator.union_size:
        problems.append(
            f"recomputed union size {len(union)} differs from claimed {violator.union_size}"
        )
    if len(union) >= len(members):
        problems.append(
            f"union of pared lists has {len(union)} members, not smaller than the "
            f"subset of {len(members)}"
        )
    return problems
