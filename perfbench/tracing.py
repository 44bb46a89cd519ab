"""In-memory spans around alertsift's layer functions, for the traced run.

The tracer replaces module attributes at the places where the program's own
code looks them up (``alertsift.evaluate`` calls ``assemble``, ``detect`` and
the rest through its module globals; ``alertsift.routing`` calls
``project_for_specialists`` through its own). The program's loop therefore
does the calling, and the spans stay valid when that loop is restructured.

A span is (name, start, end, parent). Self time is a span's duration minus the
durations of its direct children, and minus the tracer's own cost for each of
those children, which falls in the parent's interval; that cost is measured
on a no-op before the run. Counts that ratios need are taken by small
observers at the same boundaries.
"""

from __future__ import annotations

import functools
import gzip
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator


def _count_alert(counts: Counter, args: tuple, result: Any) -> None:
    counts["alerts"] += result is not None


def _count_route(counts: Counter, args: tuple, result: Any) -> None:
    counts["route.targets"] += len(result.targets)
    counts["route.ambiguous"] += bool(result.ambiguity_flag)


def _count_claims(counts: Counter, args: tuple, result: Any) -> None:
    counts["claims"] += len(result)


def _count_resolve(counts: Counter, args: tuple, result: Any) -> None:
    counts["debounced"] += result.resolution_path.value == "debounced"


def _count_evaluate(counts: Counter, args: tuple, result: Any) -> None:
    counts["epochs.evaluated"] += len(args[0].epochs)
    counts["cases"] += len(result.case_outcomes)


def _count_read(counts: Counter, args: tuple, result: Any) -> None:
    counts["epochs.read"] += len(result)


def _count_written(counts: Counter, args: tuple, result: Any) -> None:
    counts["epochs.written"] += len(args[0])


def _count_generated(counts: Counter, args: tuple, result: Any) -> None:
    counts["epochs.generated"] += len(result[0])


def _count_decisions(counts: Counter, args: tuple, result: Any) -> None:
    counts["decisions.written"] += sum(len(c.epoch_decisions) for c in args[0].case_outcomes)


def _count_report(counts: Counter, args: tuple, result: Any) -> None:
    counts["reports"] += 1


def _stream_length(bundle: Any, at: Any) -> int:
    return len(bundle.vitals_stream)


# (module under alertsift, attribute path, span name, observer, tag).
# The same span name on two bindings of one function (say ``cli.evaluate``
# and ``evaluate.evaluate``) covers both ways the program reaches it.
BINDINGS: tuple[tuple[str, str, str, Callable | None, Callable | None], ...] = (
    ("evaluate", "assemble", "assembly.assemble", None, _stream_length),
    ("evaluate", "project_for_specialists", "assembly.project", None, None),
    ("routing", "project_for_specialists", "assembly.project", None, None),
    ("evaluate", "detect", "sentinel.detect", _count_alert, None),
    ("evaluate", "route", "routing.route", _count_route, None),
    ("evaluate", "claims_for", "specialists.claims_for", _count_claims, None),
    ("evaluate", "resolve", "meta.resolve", _count_resolve, None),
    ("evaluate", "evaluate", "evaluate.aggregate", _count_evaluate, None),
    ("cli", "evaluate", "evaluate.aggregate", _count_evaluate, None),
    ("evaluate", "read_epochs_jsonl", "model.read_epochs", _count_read, None),
    ("synthgen", "write_epochs_jsonl", "model.write_epochs", _count_written, None),
    ("synthgen", "generate_dataset", "synthgen.generate", None, None),
    ("cli", "generate_dataset", "synthgen.generate", None, None),
    ("synthgen", "generate_case", "synthgen.generate", _count_generated, None),
    ("synthgen", "load_taxonomy", "synthgen.load_taxonomy", None, None),
    ("cli", "load_taxonomy", "synthgen.load_taxonomy", None, None),
    ("evaluate", "write_decision_log", "evaluate.write_decisions", _count_decisions, None),
    ("cli", "write_decision_log", "evaluate.write_decisions", _count_decisions, None),
    ("evaluate", "EvaluationReport.to_json_dict", "evaluate.report", _count_report, None),
    ("cli", "render_report_text", "evaluate.report", None, None),
)

# Spans the benchmark opens itself around each timed phase of an operation.
PHASES = ("bench.generate", "bench.pipeline", "bench.evaluate_cmd")

# Layer spans, in pipeline order; each gets a ``<span>.share`` metric.
LAYERS = (
    "synthgen.load_taxonomy",
    "synthgen.generate",
    "model.write_epochs",
    "model.read_epochs",
    "assembly.assemble",
    "assembly.project",
    "sentinel.detect",
    "routing.route",
    "specialists.claims_for",
    "meta.resolve",
    "evaluate.aggregate",
    "evaluate.write_decisions",
    "evaluate.report",
)


def resolve_target(api: Any, module: str, path: str) -> tuple[Any, str]:
    """The object holding the binding and the attribute name on it."""
    owner = getattr(api, module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Span recorder; records nothing while ``enabled`` is false."""

    def __init__(self) -> None:
        self.enabled = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.tag = array("q")
        self.counts: Counter = Counter()
        self._open = -1
        self.cost_per_span = 0.0

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name_id: int, tag: int = 0) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._open)
        self.tag.append(tag)
        self.end.append(0.0)
        self.start.append(perf_counter())
        self._open = index
        return index

    def finish(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._open = self.parent[index]

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        index = self.begin(self.intern(name))
        try:
            yield
        finally:
            self.finish(index)

    def wrap(self, fn: Callable, name: str, observe: Callable | None, tag: Callable | None) -> Callable:
        name_id = self.intern(name)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return fn(*args, **kwargs)
            index = self.begin(name_id, tag(*args, **kwargs) if tag else 0)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(index)
            if observe is not None:
                observe(self.counts, args, result)
            return result

        return traced

    def calibrate(self, calls: int = 20000, repeats: int = 5) -> float:
        """Seconds one traced call adds to its caller, measured on a no-op."""

        def noop() -> None:
            return None

        traced = self.wrap(noop, "calibrate", None, None)
        best = float("inf")
        for _ in range(repeats):
            mark = len(self.start)
            self.enabled = True
            started = perf_counter()
            for _ in range(calls):
                traced()
            with_spans = perf_counter() - started
            self.enabled = False
            started = perf_counter()
            for _ in range(calls):
                noop()
            best = min(best, (with_spans - (perf_counter() - started)) / calls)
            for column in (self.name, self.start, self.end, self.parent, self.tag):
                del column[mark:]
        self.cost_per_span = max(best, 0.0)
        return self.cost_per_span

    @contextmanager
    def installed(self, api: Any) -> Iterator[list[tuple[Any, str, Any]]]:
        """Wrap every binding in ``BINDINGS``; restore the originals on exit.

        ``api`` holds the modules themselves (``sys.modules["alertsift.x"]``).
        ``alertsift.evaluate`` as a package attribute is the evaluate()
        function, not the module, so the package is never used as a holder.
        """
        saved: list[tuple[Any, str, Any]] = []
        try:
            for module, path, name, observe, tag in BINDINGS:
                owner, attr = resolve_target(api, module, path)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, observe, tag))
            yield saved
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Write every span once, as gzipped CSV with times in seconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fp:
            fp.write("span,parent,name,start_s,end_s,tag\n")
            for i in range(len(self.start)):
                fp.write(
                    f"{i},{self.parent[i]},{self.names[self.name[i]]},"
                    f"{self.start[i] - origin:.9f},{self.end[i] - origin:.9f},{self.tag[i]}\n"
                )


class SpanStats:
    """Per-name call counts, inclusive and self time, computed once."""

    def __init__(self, tracer: Tracer) -> None:
        n = len(tracer.start)
        names, parent = tracer.names, tracer.parent
        duration = [tracer.end[i] - tracer.start[i] for i in range(n)]
        cost = tracer.cost_per_span
        child = [0.0] * n
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += duration[i] + cost
        self.nested = sum(1 for i in range(n) if parent[i] >= 0)
        self.calls: Counter = Counter()
        self.inclusive: Counter = Counter()
        self.self_time: Counter = Counter()
        self.by_tag: dict[str, Counter] = {}
        self.calls_by_tag: dict[str, Counter] = {}
        for i in range(n):
            name = names[tracer.name[i]]
            self.calls[name] += 1
            self.self_time[name] += max(duration[i] - child[i], 0.0)
            # A span nested in one of its own name (generate_case inside
            # generate_dataset) is already inside the outer span's time.
            if parent[i] < 0 or tracer.name[parent[i]] != tracer.name[i]:
                self.inclusive[name] += duration[i]
            if tracer.tag[i]:
                self.by_tag.setdefault(name, Counter())[tracer.tag[i]] += duration[i]
                self.calls_by_tag.setdefault(name, Counter())[tracer.tag[i]] += 1

    def per_call(self, name: str) -> float:
        return _ratio(self.inclusive[name], self.calls[name])

    def tagged_groups(self, name: str) -> tuple[float, float, float]:
        """Seconds per call on the shortest, middle and longest tag groups.

        Tags are stream lengths. The middle group is every length strictly
        between the shortest and the longest; with no such length it is all
        calls.
        """
        times, calls = self.by_tag.get(name, Counter()), self.calls_by_tag.get(name, Counter())
        if not calls:
            return (0.0, 0.0, 0.0)
        tags = sorted(calls)
        middle = tags[1:-1] or tags

        def group(members: list[int]) -> float:
            return _ratio(sum(times[t] for t in members), sum(calls[t] for t in members))

        return (group(tags[:1]), group(middle), group(tags[-1:]))


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(
    tracer: Tracer, tracemalloc_peak_mb: float, overhead_ratio: float, scale: float
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as (value, unit), by the names ``BENCHMARK.json`` lists.

    Times are multiplied by ``scale``, the runner's factor to nominal host speed.
    """
    s = SpanStats(tracer)
    c = tracer.counts
    us, ms = 1e6 * scale, 1e3 * scale
    short, middle, longest = s.tagged_groups("assembly.assemble")
    # Traced wall time of the timed phases, less what the tracer itself cost.
    total = sum(s.inclusive[p] for p in PHASES) - tracer.cost_per_span * s.nested
    metrics = {
        "synthgen.generate.us_per_epoch": (
            us * _ratio(s.inclusive["synthgen.generate"], c["epochs.generated"]), "us/epoch"),
        "synthgen.load_taxonomy.ms": (ms * s.per_call("synthgen.load_taxonomy"), "ms"),
        "model.write_epochs.us_per_epoch": (
            us * _ratio(s.inclusive["model.write_epochs"], c["epochs.written"]), "us/epoch"),
        "model.read_epochs.us_per_epoch": (
            us * _ratio(s.inclusive["model.read_epochs"], c["epochs.read"]), "us/epoch"),
        "assembly.assemble.us_per_call": (us * s.per_call("assembly.assemble"), "us/call"),
        "assembly.assemble.us_per_call.n500": (us * short, "us/call"),
        "assembly.assemble.us_per_call.n2000": (us * middle, "us/call"),
        "assembly.assemble.us_per_call.n8000": (us * longest, "us/call"),
        "assembly.project.us_per_call": (us * s.per_call("assembly.project"), "us/call"),
        "assembly.project.calls_per_epoch": (
            _ratio(s.calls["assembly.project"], c["epochs.evaluated"]), "calls/epoch"),
        "sentinel.detect.us_per_call": (us * s.per_call("sentinel.detect"), "us/call"),
        "sentinel.alert_ratio": (_ratio(c["alerts"], s.calls["sentinel.detect"]), "ratio"),
        "routing.route.self_us_per_call": (
            us * _ratio(s.self_time["routing.route"], s.calls["routing.route"]), "us/call"),
        "routing.targets_per_alert": (
            _ratio(c["route.targets"], s.calls["routing.route"]), "targets/alert"),
        "routing.ambiguous_ratio": (_ratio(c["route.ambiguous"], s.calls["routing.route"]), "ratio"),
        "specialists.claims_for.us_per_call": (us * s.per_call("specialists.claims_for"), "us/call"),
        "specialists.claims_per_alert": (
            _ratio(c["claims"], s.calls["specialists.claims_for"]), "claims/alert"),
        "meta.resolve.us_per_call": (us * s.per_call("meta.resolve"), "us/call"),
        "meta.debounced_ratio": (_ratio(c["debounced"], s.calls["meta.resolve"]), "ratio"),
        "evaluate.aggregate.self_us_per_case": (
            us * _ratio(s.self_time["evaluate.aggregate"], c["cases"]), "us/case"),
        "evaluate.write_decisions.us_per_decision": (
            us * _ratio(s.inclusive["evaluate.write_decisions"], c["decisions.written"]), "us/decision"),
        "evaluate.report.ms": (ms * _ratio(s.inclusive["evaluate.report"], c["reports"]), "ms"),
        "evaluate.tracemalloc_peak_mb": (tracemalloc_peak_mb, "MB"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.share"] = (_ratio(s.self_time[layer], total), "ratio")
    metrics["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return metrics
