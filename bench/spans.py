"""Spans around the program's layers, recorded from the benchmark side.

:func:`traced_solve` and :func:`traced_verify` replay ``symmarriage solve``
and ``symmarriage verify`` call by call, in the order of ``cli._cmd_solve``
and ``cli._cmd_verify``, wrapping each call into a module's public
functions in a span.  No span is recorded inside the program, so a layer
that calls another (the certificate re-runs the matcher) is one span.
Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

from symmarriage.bipartite import max_matching
from symmarriage.fileio import (
    ParseError,
    ResultDoc,
    parse_instance,
    parse_result,
    serialize_result,
)
from symmarriage.instances import (
    Assignment,
    Infeasible,
    assignment_violations,
    pare_lists,
    preprocess_refusals,
    validate_raw,
)
from symmarriage.star import (
    build_star_graph,
    extract_assignment,
    repair_mismatches,
    unsolvable_violator,
)

# Layer spans per operation kind, in pipeline order.  Each becomes the
# per-layer metric ``<name>_s``: the median over operations of the layer's
# summed self time within one operation.
SOLVE_LAYERS = (
    "fileio.io",
    "fileio.parse",
    "instances.validate",
    "instances.refusals",
    "instances.index",
    "star.build",
    "bipartite.match",
    "star.repair",
    "star.extract",
    "star.certificate",
    "fileio.serialize",
)
VERIFY_LAYERS = (
    "fileio.parse_result",
    "instances.assignment_check",
    "instances.pare",
)

PER_LAYER_UNITS = {
    **{f"{layer}_s": "s" for layer in SOLVE_LAYERS + VERIFY_LAYERS},
    "fileio.instance_bytes": "B",
    "fileio.result_bytes": "B",
    **dict.fromkeys(
        (
            "instances.list_entries",
            "instances.listed_girls",
            "instances.listed_boys",
            "instances.refused",
            "star.left_nodes",
            "star.right_nodes",
            "star.edges",
            "star.target",
            "bipartite.matched",
            "star.mismatches_initial",
            "star.repair_iterations",
            "star.certificate_members",
            "star.certificate_union",
        ),
        "count",
    ),
    **dict.fromkeys(
        (
            "bipartite.match_ratio",
            "star.mismatches_per_iteration",
            "trace.coverage",
            "trace.overhead",
        ),
        "ratio",
    ),
}

# The SmpInstance caches that star.build_star_graph reads.  girl_list_sets
# is left lazy: only the certificate reads it, so forcing it here would add
# work the CLI does not do on the solved path.
_INDEX_CACHES = (
    "girl_index",
    "boy_index",
    "girl_lists_idx",
    "boy_lists_idx",
    "boy_list_sets",
    "listed_girl_idx",
    "listed_boy_idx",
)


@dataclass
class Span:
    name: str
    op: str
    parent: int | None
    start: float
    end: float = 0.0


class Tracer:
    """In-memory span recorder; spans nest by the order they are opened."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, op: str):
        parent = self._open[-1] if self._open else None
        self._open.append(len(self.spans))
        record = Span(name, op, parent, time.perf_counter())
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per operation id, each span name's summed self time in seconds."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: dict[str, dict[str, float]] = {}
        for s, inner in zip(self.spans, child_time):
            per_op = out.setdefault(s.op, {})
            per_op[s.name] = per_op.get(s.name, 0.0) + (s.end - s.start) - inner
        return out

    def roots(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.parent is None and s.name == name]

    def coverage(self, root: Span) -> float:
        """Share of a root span's wall time covered by its direct children."""
        index = self.spans.index(root)
        covered = sum(s.end - s.start for s in self.spans if s.parent == index)
        return covered / (root.end - root.start)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([asdict(s) for s in self.spans], handle)


def _read(tracer: Tracer, op: str, path: str) -> str:
    with tracer.span("fileio.io", op):
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()


def _load(tracer: Tracer, op: str, path: str):
    """``cli._load_instance``, one span per call."""
    text = _read(tracer, op, path)
    with tracer.span("fileio.parse", op):
        raw = parse_instance(text)
    with tracer.span("instances.validate", op):
        problems = validate_raw(raw)
    if problems:
        raise ParseError("; ".join(problems))
    with tracer.span("instances.refusals", op):
        prepared = preprocess_refusals(raw)
    return raw, prepared


def traced_solve(tracer: Tracer, op: str, instance_path: str, output_path: str) -> dict:
    """Replay ``symmarriage solve --method star`` with a span per call.

    Returns the operation's counts.  Raises on an input the benchmark's
    workloads never produce (malformed or infeasible).
    """
    with tracer.span("solve", op):
        raw, prepared = _load(tracer, op, instance_path)
        if isinstance(prepared, Infeasible):
            raise ValueError(f"workload instance is infeasible at '{prepared.member}'")
        with tracer.span("instances.index", op):
            for name in _INDEX_CACHES:
                getattr(prepared, name)
        with tracer.span("star.build", op):
            star = build_star_graph(prepared)
        with tracer.span("bipartite.match", op):
            matching = max_matching(star.graph)
        stats = {"initial_mismatches": 0, "iterations": 0}
        violator = None
        if len(matching.pairs) == star.target_size:
            with tracer.span("star.repair", op):
                repaired = repair_mismatches(star, matching, stats)
            with tracer.span("star.extract", op):
                assignment = extract_assignment(star, repaired)
            doc = ResultDoc("solved", assignment=assignment.pairs)
        else:
            with tracer.span("star.certificate", op):
                violator = unsolvable_violator(prepared)
            doc = ResultDoc("unsolvable", violator=violator)
        with tracer.span("fileio.serialize", op):
            text = serialize_result(doc)
        with tracer.span("fileio.io", op):
            with open(output_path, "w", encoding="utf-8") as handle:
                handle.write(text)
    target = star.target_size
    return {
        "fileio.instance_bytes": os.path.getsize(instance_path),
        "fileio.result_bytes": len(text.encode("utf-8")),
        "instances.list_entries": sum(map(len, prepared.girl_lists.values()))
        + sum(map(len, prepared.boy_lists.values())),
        "instances.listed_girls": len(prepared.listed_girl_idx),
        "instances.listed_boys": len(prepared.listed_boy_idx),
        "instances.refused": len(raw.girls) + len(raw.boys)
        - len(prepared.girls)
        - len(prepared.boys),
        "star.left_nodes": star.graph.left_count,
        "star.right_nodes": star.graph.right_count,
        "star.edges": sum(map(len, star.graph.adjacency)),
        "star.target": target,
        "bipartite.matched": len(matching.pairs),
        "bipartite.match_ratio": len(matching.pairs) / target,
        "star.mismatches_initial": stats["initial_mismatches"],
        "star.repair_iterations": stats["iterations"],
        "star.mismatches_per_iteration": (
            stats["initial_mismatches"] / stats["iterations"] if stats["iterations"] else 0.0
        ),
        "star.certificate_members": len(violator.members) if violator else 0,
        "star.certificate_union": violator.union_size if violator else 0,
    }


def traced_verify(tracer: Tracer, op: str, instance_path: str, result_path: str) -> list[str]:
    """Replay ``symmarriage verify`` with a span per call; returns the problems
    found, the empty list meaning the claim is valid."""
    with tracer.span("verify", op):
        _, prepared = _load(tracer, op, instance_path)
        text = _read(tracer, op, result_path)
        with tracer.span("fileio.parse_result", op):
            result = parse_result(text)
        if isinstance(prepared, Infeasible) or result.status == "infeasible":
            return ["benchmark workloads are never infeasible"]
        if result.status == "solved":
            with tracer.span("instances.assignment_check", op):
                return assignment_violations(prepared, Assignment(result.assignment))
        with tracer.span("instances.pare", op):
            by_girl, by_boy = pare_lists(prepared)
        # The violator re-check of ``cli._verify_claim``: the members' pared
        # lists must cover fewer partners than there are members.
        violator = result.violator
        table = by_girl if violator.side == "girls" else by_boy
        members = violator.members
        if len(set(members)) != len(members) or any(m not in table for m in members):
            return ["violator members repeat or are not listed"]
        union = set().union(*(table[m] for m in members))
        if len(union) != violator.union_size or len(union) >= len(members):
            return [f"violator union {len(union)} does not certify {len(members)} members"]
        return []


def layer_medians(tracer: Tracer) -> dict[str, float]:
    """``<layer>_s`` per-layer metrics: medians of per-operation self time.

    A layer that an operation does not reach counts as zero for it, so a
    branch the workload never takes reads 0.
    """
    per_op = tracer.self_times()
    solves = [times for times in per_op.values() if "solve" in times]
    verifies = [times for times in per_op.values() if "verify" in times]
    out = {}
    for layers, ops in ((SOLVE_LAYERS, solves), (VERIFY_LAYERS, verifies)):
        for layer in layers:
            out[f"{layer}_s"] = statistics.median(t.get(layer, 0.0) for t in ops)
    return out
