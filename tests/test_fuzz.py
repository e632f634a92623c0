"""Bounded fuzzing of the command line, and the byte contract under fixed hash seeds.

Every command, given any argument values and any document, exits with a
code it documents, prints at most one line to stderr and never a
traceback, leaves no ``--output`` file when it fails, and gives the same
bytes when run again.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import symmarriage
from symmarriage.cli import main

from .test_cli import instance_documents

# The exit codes each command documents (see the cli module docstring),
# less 70 where a program fault is the only way to reach it: no input may
# break an invariant of solve, check or verify.
EXIT_CODES = {
    "solve": {0, 1, 2, 3, 64, 65, 73},
    "check": {0, 1, 2, 3, 64, 65},
    "verify": {0, 1, 64, 65},
    "gen": {0, 64, 70, 73},
}

ROOT = Path(__file__).resolve().parent.parent
GEN_KINDS = ("tournament", "rooks", "chessboard", "assignment")
GEN_COUNTS = ("--workers", "--tasks", "--paid", "--mandatory")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_robust(argv, output=None):
    """Run ``argv`` twice and check the contract in the module docstring;
    return the first run's exit code, stdout and written file (or None)."""
    runs = []
    for _ in range(2):
        code, out, err = run(argv)
        written = None
        if output is not None and os.path.exists(output):
            written = Path(output).read_bytes()
            os.remove(output)
        runs.append((code, out, err, written))
    code, out, err, written = runs[0]
    assert code in EXIT_CODES[argv[0]], (code, err)
    assert err == "" or (err.endswith("\n") and err.count("\n") == 1), err
    assert "Traceback" not in err
    if code not in (0, 1, 2):
        assert written is None
    assert runs[1] == runs[0]
    return code, out, written


@st.composite
def gen_argvs(draw):
    kind = draw(st.sampled_from(GEN_KINDS))
    argv = ["gen", kind, "--n", str(draw(st.integers(1, 4))), "--seed", str(draw(st.integers(-3, 20)))]
    # Only assignment takes the count and density flags; the other kinds get
    # them half the time, so that they also reach a written instance.
    if kind != "assignment" and draw(st.booleans()):
        return argv
    for flag in GEN_COUNTS:
        if draw(st.booleans()):
            argv += [flag, str(draw(st.integers(-2, 4)))]
    if draw(st.booleans()):
        density = draw(
            st.one_of(st.floats(-1, 2), st.sampled_from([math.nan, math.inf, -math.inf]))
        )
        argv += ["--density", repr(density)]
    return argv


class TestGenFuzz:
    @given(gen_argvs())
    @example(["gen", "assignment", "--workers", "1", "--tasks", "0", "--paid", "1", "--mandatory", "0"])
    @example(["gen", "assignment", "--workers", "0", "--tasks", "1", "--paid", "0", "--mandatory", "1"])
    @example(["gen", "tournament", "--n", "1", "--seed", "-1"])
    @example(["gen", "assignment", "--density", "1.5"])
    @example(["gen", "tournament", "--n", "1", "--density", "5", "--workers", "-2"])
    @example(["gen", "rooks", "--n", "1", "--paid", "-3", "--mandatory", "99"])
    @settings(deadline=None, max_examples=300)
    def test_documented_exit_one_line_no_partial_file(self, argv):
        with tempfile.TemporaryDirectory() as directory:
            output = os.path.join(directory, "g.json")
            code, out, written = assert_robust([*argv, "--output", output], output)
            assert out == ""
            assert (written is not None) == (code == 0)


# What a node of a result document may be replaced by, names most often.
RESULT_NAMES = st.sampled_from(["g1", "g2", "b1", "b2", "x", "zz"])
RESULT_NODES = st.one_of(
    RESULT_NAMES,
    RESULT_NAMES,
    st.sampled_from(["solved", "unsolvable", "infeasible", "girls", "boys"]),
    st.integers(-1, 3),
    st.none(),
    st.booleans(),
    st.lists(RESULT_NAMES, max_size=3),
    st.just({}),
)


@st.composite
def mutated(draw, value):
    """``value`` itself, or with one node in it replaced or removed."""
    if not isinstance(value, (list, dict)) or not value:
        return draw(RESULT_NODES)
    action = draw(st.sampled_from(["descend", "descend", "replace", "remove", "keep"]))
    if action == "keep":
        return value
    key = draw(st.sampled_from(list(value) if isinstance(value, dict) else range(len(value))))
    changed = value.copy()
    if action == "remove":
        del changed[key]
    else:
        changed[key] = draw(RESULT_NODES if action == "replace" else mutated(value[key]))
    return changed


class TestDocumentFuzz:
    @given(instance_documents(), st.sampled_from(["star", "subproblems", "weight"]), st.data())
    @settings(deadline=None, max_examples=300)
    def test_documented_exit_one_line_no_partial_file(self, text, method, data):
        with tempfile.TemporaryDirectory() as directory:
            instance = os.path.join(directory, "i.json")
            Path(instance).write_text(text, encoding="utf-8")
            output = os.path.join(directory, "r.json")
            code, _, written = assert_robust(
                ["solve", instance, "--method", method, "--output", output], output
            )
            assert_robust(["check", instance])
            # Verify the solver's own result, mutated, or a mutated stand-in
            # when the instance has none.
            if written is not None:
                result = json.loads(written)
            else:
                result = {"status": "solved", "assignment": [["g1", "b1"]]}
            claim = os.path.join(directory, "claim.json")
            Path(claim).write_text(json.dumps(data.draw(mutated(result))), encoding="utf-8")
            assert_robust(["verify", instance, claim])


def run_pinned_digest_tests(tmp_path, hash_seed, *flags):
    """Run the digest-pinning tests in a child interpreter started with
    ``flags`` under ``PYTHONHASHSEED=hash_seed``; assert that they pass."""
    src = str(Path(symmarriage.__file__).resolve().parent.parent)
    paths = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    done = subprocess.run(
        [
            sys.executable, *flags, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "--basetemp", str(tmp_path / "runs"),
            "tests/test_star.py::TestGoldenOutput",
            "tests/test_cli.py::TestDeterminism",
        ],
        cwd=ROOT,
        capture_output=True,
        env=dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(paths)),
        timeout=600,
    )
    assert done.returncode == 0, done.stdout.decode()[-3000:]
    assert b"3 passed" in done.stdout


@pytest.mark.parametrize("hash_seed", ["0", "1", "4242"])
def test_byte_contract_holds_under_fixed_hash_seeds(hash_seed, tmp_path):
    # The digests are pinned whatever hash seed the interpreter draws; these
    # runs fix three seeds so the contract does not rest on one random draw.
    run_pinned_digest_tests(tmp_path, hash_seed)


def test_byte_contract_holds_under_optimize(tmp_path):
    # python -O strips the package's assert statements (the source rules
    # forbid them); the answers and their bytes must not change.  pytest
    # still rewrites the tests' own asserts into explicit checks.
    run_pinned_digest_tests(tmp_path, "0", "-O")
