"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_fleet_of_one_replica_reproduces_golden_counts(tmp_path: Path) -> None:
    api = run.fresh_import()
    fleet = workloads.Fleet(api, seed=0, work=tmp_path, replicas=1)
    _, reports = fleet.pipeline()
    report = reports[0]
    assert (report.ts_count, report.fe_count, report.ind_count) == (82, 16, 0)
    assert fleet.check_pipeline(reports) == []


def test_fleet_check_rejects_counts_off_by_one_case(tmp_path: Path) -> None:
    api = run.fresh_import()
    fleet = workloads.Fleet(api, seed=0, work=tmp_path, replicas=2)
    fleet.replicas = 3  # claims one replica more than was evaluated
    _, reports = fleet.pipeline()
    assert fleet.check_reports(reports[:1])


def test_wrappers_restore_the_original_bindings() -> None:
    api = run.fresh_import()
    targets = [tracing.resolve_target(api, m, p) for m, p, *_ in tracing.BINDINGS]
    originals = [owner.__dict__[attr] for owner, attr in targets]
    package_evaluate = sys.modules["alertsift"].evaluate
    tracer = tracing.Tracer()
    with tracer.installed(api):
        for (owner, attr), original in zip(targets, originals):
            assert getattr(owner, attr) is not original
        assert sys.modules["alertsift.evaluate"].assemble.__wrapped__ is originals[0]
    for (owner, attr), original in zip(targets, originals):
        assert owner.__dict__[attr] is original
    # The package re-exports the evaluate() function under the module's name.
    assert sys.modules["alertsift"].evaluate is package_evaluate
    assert callable(package_evaluate) and not hasattr(package_evaluate, "assemble")


def test_self_time_excludes_children() -> None:
    tracer = tracing.Tracer()
    tracer.enabled = True
    outer = tracer.begin(tracer.intern("outer"))
    inner = tracer.begin(tracer.intern("inner"))
    tracer.finish(inner)
    tracer.finish(outer)
    tracer.start[outer], tracer.end[outer] = 0.0, 10.0
    tracer.start[inner], tracer.end[inner] = 2.0, 5.0
    stats = tracing.SpanStats(tracer)
    assert stats.self_time["outer"] == 7.0
    assert stats.self_time["inner"] == 3.0
    assert stats.inclusive["outer"] == 10.0


def test_longstream_counts_alerting_epochs_from_raw_values(tmp_path: Path) -> None:
    api = run.fresh_import()
    stream = workloads.Longstream(api, seed=3, work=tmp_path, lengths=(100, 300))
    alerting = [len(times) for times in stream.alerting]
    assert all(0 < n < 0.2 * c.epochs for n, c in zip(alerting, stream.calls))
    _, reports = stream.pipeline()
    assert stream.check_pipeline(reports) == []
    # A decision log one decision short of the alerting epochs must fail.
    stream.alerting[0] = stream.alerting[0] + [stream.alerting[0][-1]]
    assert stream.check_reports(reports)


def _printed(trace: bool, tmp_path: Path) -> dict[str, str]:
    result = run.run("golden", seed=0, seconds=0, trace=trace, work=tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_printed_end_to_end_metrics_match_benchmark_json(tmp_path: Path) -> None:
    assert _printed(False, tmp_path) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


def test_printed_per_layer_metrics_match_benchmark_json(tmp_path: Path) -> None:
    assert _printed(True, tmp_path) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
