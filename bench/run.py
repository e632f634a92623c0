"""End-to-end benchmark of `symmarriage solve` and `symmarriage verify`.

Run from the repository root:

    python3 bench/run.py --workload planted-unsolvable --seed 1 --seconds 50 --trace 0

One run, in one process and one thread, does this:

1. set-up: generate the workload's instance from ``--seed`` and write it to
   ``.bench_out/<workload>-seed<seed>/instance.json``, at least three times
   and for two seconds, checking that the bytes repeat and that the
   structure holds (``workloads.self_check``); ``setup_s`` is the median;
2. ``--trace 0``: one solve+verify through ``symmarriage.cli.main`` with
   the solve under ``tracemalloc`` (``peak_mb``), then solve+verify
   operations timed with tracing off for ``--seconds`` (``solve_s`` and
   ``verify_s`` are medians);
   ``--trace 1``: for ``--seconds``, alternate a CLI solve+verify with the
   same operation replayed layer by layer under spans (``spans.py``), whose
   result must be byte-equal to the CLI's.

Every operation is checked: the solve's exit code must be the workload's
(0 for reciprocal-repair, 1 for planted-unsolvable), verify must exit 0 and print ``valid``, and the
result bytes must equal those of the run's first solve.  A miss counts as a failed
operation and makes the run exit 1.  The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  ``report.json`` (environment, instance hash and shape, raw
samples) and, when traced, ``spans.json`` are written to the run's
directory; the instance and result files are removed after a correct run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("reciprocal-repair", "planted-unsolvable")
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
MIN_TIMED_OPS = 3
MIN_COVERAGE = 0.95

END_TO_END_UNITS = {"solve_s": "s", "verify_s": "s", "peak_mb": "MB", "setup_s": "s"}


def _bootstrap() -> None:
    """Import the program from this checkout's ``src``, or stop."""
    src = ROOT / "src"
    if not (src / "symmarriage" / "__init__.py").is_file():
        sys.exit(f"benchmark: no program source under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    # Keep numpy's math libraries from starting worker threads: all load
    # comes from this one thread.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")


class Run:
    """Shared state of one benchmark run: paths, reference bytes, tallies."""

    def __init__(self, expected_exit: int, directory: Path) -> None:
        self.expected_exit = expected_exit
        self.instance = str(directory / "instance.json")
        self.result = str(directory / "result.json")
        self.traced_result = str(directory / "traced-result.json")
        self.reference: str | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.solve_s: list[float] = []
        self.verify_s: list[float] = []

    def _failed(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def _digest(self, path: str) -> str:
        with open(path, "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()

    def cli_operation(self, cli_main, peak: bool = False) -> float | None:
        """One checked ``solve`` then ``verify`` through the CLI.

        Records both wall times, unless ``peak``: then the solve runs under
        ``tracemalloc`` and its peak in MB is returned instead.
        """
        self.attempted += 1
        gc.collect()
        peak_mb = None
        try:
            if peak:
                tracemalloc.start()
            start = time.perf_counter()
            code = cli_main(["solve", self.instance, "--output", self.result])
            solve_s = time.perf_counter() - start
            if peak:
                peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
                tracemalloc.stop()
            shown = io.StringIO()
            with contextlib.redirect_stdout(shown):
                start = time.perf_counter()
                verdict = cli_main(["verify", self.instance, self.result])
                verify_s = time.perf_counter() - start
            digest = self._digest(self.result)
        except Exception:  # noqa: BLE001 - a crash is a failed operation, not a dead run
            if tracemalloc.is_tracing():
                tracemalloc.stop()
            self._failed(traceback.format_exc(limit=3))
            return None
        if self.reference is None:
            self.reference = digest
        misses = []
        if code != self.expected_exit:
            misses.append(f"solve exited {code}, expected {self.expected_exit}")
        if verdict != 0 or shown.getvalue() != "valid\n":
            misses.append(f"verify exited {verdict}: {shown.getvalue().strip()[:200]}")
        if digest != self.reference:
            misses.append("result bytes differ from the run's first result")
        if misses:
            self._failed("; ".join(misses))
            return None
        if not peak:
            self.solve_s.append(solve_s)
            self.verify_s.append(verify_s)
        return peak_mb

    def traced_operation(self, tracer, index: int, counts: list[dict]) -> None:
        """The same operation replayed under spans; result must match the CLI's."""
        from spans import traced_solve, traced_verify

        self.attempted += 1
        gc.collect()
        try:
            counts.append(
                traced_solve(tracer, f"solve-{index}", self.instance, self.traced_result)
            )
            problems = traced_verify(tracer, f"verify-{index}", self.instance, self.traced_result)
            digest = self._digest(self.traced_result)
        except Exception:  # noqa: BLE001 - a crash is a failed operation, not a dead run
            self._failed(traceback.format_exc(limit=3))
            return
        misses = []
        if problems:
            misses.append(f"traced verify found: {problems[:3]}")
        if digest != self.reference:
            misses.append(
                "traced result differs from the CLI result: the trace no longer "
                "measures the program users run"
            )
        if counts[0] != counts[-1]:
            misses.append("traced counts differ between repeats")
        if misses:
            self._failed("; ".join(misses))


def _environment(seed: int) -> dict:
    import numpy

    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threads = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "os_threads": threads,
        "seed": seed,
    }


def _setup(workloads, workload: str, seed: int, path: Path) -> tuple[list[float], dict, int]:
    """Generate and write the instance at least ``SETUP_MIN_REPEATS`` times
    and for ``SETUP_MIN_SECONDS``, then self-check it; returns the set-up
    times, the instance record and the exit code `symmarriage solve` must
    give."""
    times, digests = [], set()
    while len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_SECONDS:
        start = time.perf_counter()
        inst = workloads.generate(workload, seed)
        text = inst.document()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        times.append(time.perf_counter() - start)
        digests.add(hashlib.sha256(text.encode("utf-8")).hexdigest())
    if len(digests) != 1:
        raise workloads.SelfCheckError("the same seed gave different instance bytes")
    workloads.self_check(inst)
    record = {"sha256": digests.pop(), "bytes": len(text.encode("utf-8")), **inst.shape()}
    return times, record, inst.expected_exit


def _measure_untraced(run: Run, cli_main, seconds: float) -> dict[str, float]:
    peak_mb = run.cli_operation(cli_main, peak=True)
    deadline = time.perf_counter() + seconds
    while not run.failed and (len(run.solve_s) < MIN_TIMED_OPS or time.perf_counter() < deadline):
        run.cli_operation(cli_main)
    if run.failed:
        return {}
    return {
        "solve_s": statistics.median(run.solve_s),
        "verify_s": statistics.median(run.verify_s),
        "peak_mb": peak_mb,
    }


def _measure_traced(run: Run, cli_main, seconds: float, out_dir: Path):
    from spans import Tracer, layer_medians

    tracer = Tracer()
    counts: list[dict] = []
    deadline = time.perf_counter() + seconds
    index = 0
    while not run.failed and (index < MIN_TIMED_OPS or time.perf_counter() < deadline):
        run.cli_operation(cli_main)
        run.traced_operation(tracer, index, counts)
        index += 1
    tracer.dump(str(out_dir / "spans.json"))
    if run.failed:
        return {}
    roots = tracer.roots("solve")
    coverage = statistics.median(tracer.coverage(r) for r in roots)
    if coverage < MIN_COVERAGE:
        run.problems.append(
            f"trace covers {coverage:.3f} of the traced solve, below {MIN_COVERAGE}: "
            "the trace no longer measures the program users run"
        )
    traced_solve_s = statistics.median(r.end - r.start for r in roots)
    metrics = layer_medians(tracer)
    metrics.update(counts[-1])
    metrics["trace.coverage"] = coverage
    metrics["trace.overhead"] = traced_solve_s / statistics.median(run.solve_s)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    _bootstrap()
    import workloads
    from symmarriage.cli import main as cli_main

    out_dir = OUT / f"{args.workload}-seed{args.seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    setup_s, instance, expected_exit = _setup(
        workloads, args.workload, args.seed, out_dir / "instance.json"
    )
    run = Run(expected_exit, out_dir)

    if args.trace:
        from spans import PER_LAYER_UNITS as units

        measured = _measure_traced(run, cli_main, args.seconds, out_dir)
    else:
        units = END_TO_END_UNITS
        measured = _measure_untraced(run, cli_main, args.seconds)
        measured["setup_s"] = statistics.median(setup_s)
    correct = not run.problems and set(measured) == set(units)
    metrics = {
        name: {"value": measured[name], "unit": units[name]} for name in units if name in measured
    }

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": _environment(args.seed),
        "instance": instance,
        "samples": {"setup_s": setup_s, "solve_s": run.solve_s, "verify_s": run.verify_s},
        "attempted": run.attempted,
        "failed": run.failed,
        "error_rate": run.failed / run.attempted,
        "problems": run.problems,
        "metrics": metrics,
    }
    with open(out_dir / "report.json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    if correct:
        # The instance is reproducible from its seed; keep files only to
        # inspect a failed run.
        for name in ("instance.json", "result.json", "traced-result.json"):
            (out_dir / name).unlink(missing_ok=True)

    for problem in run.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(f"environment: {json.dumps(report['environment'])}")
    print(f"instance: {json.dumps(instance)}")
    for name, entry in metrics.items():
        print(f"{args.workload} {name}: {entry['value']:.6g} {entry['unit']}")
    print(
        f"{args.workload} error_rate: {report['error_rate']:.6g} "
        f"({run.failed} failed of {run.attempted} solve+verify operations)"
    )
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed}
    print(json.dumps({**result, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
