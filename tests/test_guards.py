"""Invariant guards of the solve path: each test breaks the step a guard
protects, and ``symmarriage solve`` must then exit 70 with the guard's one
``internal error`` line, with or without asserts."""

import json

from symmarriage import bipartite, cli, star
from symmarriage.cli import main


class Stalled(Exception):
    """A stub ran far more often than the loop it serves could call it."""


def assert_guard_trips(tmp_path, capsys, girl_lists, boy_lists, message, *options):
    doc = {"version": 1, "girls": ["g1", "g2"], "boys": ["b1", "b2"], "girl_lists": girl_lists, "boy_lists": boy_lists}
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path), *options]) == 70
    assert capsys.readouterr() == ("", f"internal error: {message}\n")


def test_phase_that_augments_nothing(tmp_path, capsys, monkeypatch):
    # The girls' component is graph(2, 2, [(0, 1), (0,)]): greedy leaves g2
    # free, so a phase finds an augmenting path that the stub never takes.
    calls = []

    def stalled(*args):
        calls.append(args)
        if len(calls) > 100:
            raise Stalled
        return False

    monkeypatch.setattr(bipartite, "_augment", stalled)
    message = "a phase with an augmenting path augmented nothing"
    assert_guard_trips(tmp_path, capsys, {"g1": ["b1", "b2"], "g2": ["b1"]}, {}, message)


def test_star_matching_above_the_listed_member_bound(tmp_path, capsys, monkeypatch):
    # Component B, matched girls-left with the boys' rows, claims both
    # wildcard girls matched although no boy is listed.
    original = star._match_array

    def overfull(graph, transpose=None):
        return [0] * graph.left_count if transpose is not None else original(graph)

    monkeypatch.setattr(star, "_match_array", overfull)
    assert_guard_trips(tmp_path, capsys, {}, {}, "star matching exceeds the listed-member bound")


def test_deficient_star_matching_with_both_subproblems_matchable(tmp_path, capsys, monkeypatch):
    # Component B matched girls-left leaves everything free, although the
    # boys' own one-sided graph is matchable.
    original = star._match_array

    def empty(graph, transpose=None):
        return [-1] * graph.left_count if transpose is not None else original(graph)

    monkeypatch.setattr(star, "_match_array", empty)
    message = "deficient star matching but both subproblems matchable"
    assert_guard_trips(tmp_path, capsys, {"g1": ["b1"]}, {"b1": ["g1"]}, message)


def test_weight_route_with_neither_pairing_nor_violator(tmp_path, capsys, monkeypatch):
    # The weight route finds no pairing for a solvable instance.
    monkeypatch.setattr(cli, "weighted_assignment", lambda instance: None)
    message = "weight route found no pairing but no violator either"
    assert_guard_trips(tmp_path, capsys, {"g1": ["b1"]}, {"b1": ["g1"]}, message, "--method", "weight")
