"""alertsift benchmark runner.

    python3 perfbench/run.py --workload golden|fleet|longstream \
        --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program is imported from its
``src/`` directory, never from an installed copy. One caller issues one
operation at a time (closed loop, single process, no threads) for ``S``
seconds after set-up and a warm-up. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones from a traced run, and the raw spans are written to
``perfbench/out/spans-<workload>.csv.gz``. A summary of the samples goes to
standard error.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
import tracemalloc
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Any, Iterator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# The reference loop's time on the host the baseline was taken on. Each timed
# sample is scaled by REFERENCE_NOMINAL_S / (reference time around it), so the
# figures read as those of a host at that speed.
REFERENCE_NOMINAL_S = 0.012
# Before each phase, sample the reference for about this share of the time
# since the last sample (at least one loop).
REFERENCE_SHARE = 0.05

MODULES = ("model", "assembly", "sentinel", "routing", "specialists", "meta",
           "synthgen", "evaluate", "cli")
# Set-up runs this many times per run; setup_s is the median.
SETUPS = 5
# The warm-up runs one operation on a small instance of the workload.
WARMUP = {"golden": {}, "fleet": {"replicas": 1}, "longstream": {"lengths": (100, 200, 300)}}
PHASES = ("generate", "pipeline", "evaluate_cmd")


def fresh_import() -> SimpleNamespace:
    """Import alertsift anew (its modules, not numpy's) and return them."""
    for name in [m for m in sys.modules if m == "alertsift" or m.startswith("alertsift.")]:
        del sys.modules[name]
    importlib.import_module("alertsift.cli")
    return SimpleNamespace(**{m: sys.modules[f"alertsift.{m}"] for m in MODULES})


@dataclass(frozen=True)
class _Record:
    key: str
    value: float
    at: datetime
    tags: tuple


def reference_loop() -> int:
    """Fixed pure-Python work of the program's kind.

    Frozen dataclasses, datetime arithmetic, dict comprehensions and JSON.
    The host is shared: the time of a fixed loop swings by up to 2x from
    one minute to the next, and the pipeline's time swings with it. Timing
    this loop next to each phase and dividing it out removes most of that.
    """
    base = datetime(2022, 6, 1)
    out = []
    for i in range(1400):
        r = _Record(f"k{i % 50}", i * 0.5, base + timedelta(minutes=i), ("a", "b"))
        view = {k: v for k, v in {"key": r.key, "value": r.value, "at": r.at}.items() if k != "at"}
        out.append(json.dumps(view, separators=(",", ":")))
    out.sort()
    return len(out)


class Samples:
    """Timed samples of one loop, with reference-loop times around them.

    A sample is (start, end, seconds): the window it ran in and its time.
    """

    def __init__(self) -> None:
        self.phases: dict[str, list[tuple[float, float, float]]] = {p: [] for p in PHASES}
        self.growth: list[float] = []
        self.reference: list[tuple[float, float]] = []  # (taken at, seconds per loop)
        self._last_reference = perf_counter()

    def sample_reference(self) -> None:
        gap = perf_counter() - self._last_reference
        loops = min(max(round(REFERENCE_SHARE * gap / REFERENCE_NOMINAL_S), 1), 20)
        started = perf_counter()
        for _ in range(loops):
            reference_loop()
        self._last_reference = perf_counter()
        self.reference.append((self._last_reference, (self._last_reference - started) / loops))

    def scaled(self, phase: str) -> list[float]:
        """Each sample's seconds at the nominal host speed.

        The host speed for a sample is the mean of the reference samples
        taken just before and just after it.
        """
        taken = [t for t, _ in self.reference]
        out = []
        for start, end, seconds in self.phases[phase]:
            around = {bisect_right(taken, start) - 1, bisect_left(taken, end)}
            refs = [self.reference[i][1] for i in around if 0 <= i < len(taken)]
            out.append(seconds * REFERENCE_NOMINAL_S / statistics.mean(refs))
        return out

    def median(self, phase: str) -> float:
        return statistics.median(self.scaled(phase))

    def scale(self) -> float:
        """One factor to nominal host speed for the whole loop."""
        return REFERENCE_NOMINAL_S / statistics.median(t for _, t in self.reference)


class Runner:
    def __init__(self, workload: Any, tracer: Any) -> None:
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.samples = Samples()

    @contextmanager
    def phase(self, name: str, traced: bool) -> Iterator[list[float]]:
        """A timed phase: set-up garbage is collected first, never inside.

        Yields a list that holds the phase's (start, end) once it is over.
        """
        self.samples.sample_reference()
        gc.collect()
        window: list[float] = [perf_counter()]
        self.tracer.enabled = traced
        try:
            with self.tracer.span(f"bench.{name}"):
                yield window
        finally:
            self.tracer.enabled = False
            window.append(perf_counter())

    def op(self, record: bool = True, traced: bool = False) -> None:
        """One operation: generate, pipeline, evaluate command, then checks."""
        w = self.workload
        self.attempted += 1
        try:
            with self.phase("generate", traced) as generate_window:
                t_generate, generated = w.generate()
            problems = w.check_generate(generated)
            with self.phase("pipeline", traced) as pipeline_window:
                t_calls, reports = w.pipeline()
            problems += w.check_pipeline(reports)
            del reports
            with self.phase("evaluate_cmd", traced) as command_window:
                t_command, outputs = w.evaluate_cmd()
            problems += w.check_cmd(outputs)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return
        self.count_failures(problems)
        if record:
            phases = self.samples.phases
            phases["generate"].append((*generate_window, t_generate))
            phases["pipeline"].append((*pipeline_window, sum(t_calls[: len(w.calls)])))
            phases["evaluate_cmd"].append((*command_window, t_command))
            self.samples.growth.append(w.growth(t_calls))

    def pipeline_peak_mb(self) -> float:
        """Peak memory the pipeline phase allocates, under tracemalloc."""
        w = self.workload
        self.attempted += 1
        gc.collect()
        tracemalloc.start()
        try:
            _, reports = w.pipeline()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.count_failures(w.check_pipeline(reports))
        return peak / 2**20

    def count_failures(self, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"check failed: {problem}", file=sys.stderr)

    def loop(self, seconds: float, traced: bool = False) -> Samples:
        """Closed loop: the next operation starts when the last one returns."""
        self.samples = Samples()
        started = perf_counter()
        while True:
            self.op(traced=traced)
            if perf_counter() - started >= seconds:
                self.samples.sample_reference()
                if not self.samples.growth:
                    raise SystemExit("error: no operation completed")
                return self.samples


def measure_setup(cls: Any, seed: int, work: Path) -> tuple[float, Any, Any]:
    """Set up SETUPS times; returns the scaled median and the last api and workload."""
    speed = Samples()
    for _ in range(SETUPS):
        speed.sample_reference()
        started = perf_counter()
        api = fresh_import()
        workload = cls(api, seed, work)
        ended = perf_counter()
        speed.phases["generate"].append((started, ended, ended - started))
    speed.sample_reference()
    return speed.median("generate"), api, workload


def end_to_end(w: Any, s: Samples, setup_s: float) -> dict[str, tuple[float, str]]:
    """Every end-to-end metric as (value, unit), from untraced operations.

    Times are medians at the nominal host speed (see reference_loop).
    """
    return {
        "generate_epochs_per_s": (w.epochs / s.median("generate"), "epochs/s"),
        "pipeline_epochs_per_s": (w.epochs / s.median("pipeline"), "epochs/s"),
        "evaluate_cmd_epochs_per_s": (w.epochs / s.median("evaluate_cmd"), "epochs/s"),
        "stream_cost_growth": (statistics.median(s.growth), "ratio"),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def summarize(name: str, s: Samples) -> None:
    """Raw and scaled medians, and p90 where ten samples lie beyond it, to stderr."""
    print(f"{name} reference loop: n={len(s.reference)} "
          f"median={1e3 * REFERENCE_NOMINAL_S / s.scale():.3f} ms", file=sys.stderr)
    for phase in PHASES:
        raw = [seconds for _, _, seconds in s.phases[phase]]
        if not raw:
            continue
        line = (f"{name} {phase}: n={len(raw)} raw median={1e3 * statistics.median(raw):.3f} ms"
                f" scaled median={1e3 * s.median(phase):.3f} ms")
        if len(raw) >= 100:
            line += f" scaled p90={1e3 * statistics.quantiles(s.scaled(phase), n=10)[-1]:.3f} ms"
        print(line, file=sys.stderr)


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict[str, Any]:
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    cls = WORKLOADS[workload]
    setup_s, api, w = measure_setup(cls, seed, work)
    print(f"{workload} setup: n={SETUPS} scaled median={setup_s:.4f} s", file=sys.stderr)

    tracer = Tracer()
    runner = Runner(cls(api, seed, work / "warmup", **WARMUP[workload]), tracer)
    runner.op(record=False)
    runner.workload = w

    if not trace:
        samples = runner.loop(seconds)
        summarize(workload, samples)
        metrics = end_to_end(w, samples, setup_s)
    else:
        untraced = runner.loop(seconds / 2)
        tracer.calibrate()
        with tracer.installed(api):
            traced = runner.loop(seconds / 2, traced=True)
        peak_mb = runner.pipeline_peak_mb()
        summarize(f"{workload} untraced", untraced)
        summarize(f"{workload} traced", traced)
        overhead = traced.median("pipeline") / untraced.median("pipeline")
        metrics = layer_metrics(tracer, peak_mb, overhead, traced.scale())
        tracer.write(OUT / f"spans-{workload}.csv.gz")

    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WARMUP))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")

    if not (SRC / "alertsift" / "__init__.py").is_file():
        print(f"error: no alertsift sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    work = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
