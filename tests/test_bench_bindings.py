"""The benchmark's tracer finds the program's layer functions by name."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import alertsift

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# Run in a new interpreter, so that no module an earlier test imported or
# patched can stand in for a missing attribute; -B writes no bytecode cache
# next to the benchmark's files.
_RESOLVE = """
import importlib, importlib.util, json, sys, types
spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
names = {module for module, *_ in tracing.BINDINGS}
api = types.SimpleNamespace(**{m: importlib.import_module("alertsift." + m) for m in names})
missing = []
for module, path, *_ in tracing.BINDINGS:
    try:
        owner, attr = tracing.resolve_target(api, module, path)
        if not callable(getattr(owner, attr)):
            missing.append(module + "." + path)
    except AttributeError:
        missing.append(module + "." + path)
print(json.dumps([len(tracing.BINDINGS), missing]))
"""


def test_every_tracer_binding_resolves_on_a_fresh_import():
    # perfbench/tracing.py wraps each function it times by module and
    # attribute name; a name moved out of the package would fail only the
    # benchmark's own tests, which this suite does not run.
    env = {**os.environ, "PYTHONPATH": str(Path(alertsift.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-B", "-c", _RESOLVE, str(TRACING)],
        env=env, capture_output=True, text=True, check=True,
    )
    count, missing = json.loads(done.stdout)
    assert count > 0 and missing == []


_COUNT_EPOCHS = """
import importlib, importlib.util, json, sys, tempfile, types
spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
names = {module for module, *_ in tracing.BINDINGS}
api = types.SimpleNamespace(**{m: importlib.import_module("alertsift." + m) for m in names})
synthgen = api.synthgen
taxonomy = synthgen.load_taxonomy(synthgen.default_taxonomy_path())
tracer = tracing.Tracer()
with tracer.installed(api), tempfile.TemporaryDirectory() as out:
    tracer.enabled = True
    synthgen.write_dataset(synthgen.generate_dataset(taxonomy, 42), out)
print(json.dumps([tracer.counts["epochs.generated"], tracer.counts["epochs.written"]]))
"""


def test_the_tracer_sees_every_generated_and_written_epoch():
    # The traced synthgen.generate.us_per_epoch and model.write_epochs.us_per_epoch
    # divide by the epochs that pass through the wrapped generate_case and
    # write_epochs_jsonl, which generate_dataset and write_dataset must call
    # through synthgen's module globals for every case.
    env = {**os.environ, "PYTHONPATH": str(Path(alertsift.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-B", "-c", _COUNT_EPOCHS, str(TRACING)],
        env=env, capture_output=True, text=True, check=True,
    )
    assert json.loads(done.stdout) == [530, 530]


BENCH = TRACING.parent

# One operation of each benchmark workload, at a small size, in a temporary
# directory: the benchmark builds specs and entries directly and reads the
# patient id range, so a change to those fails here, not only in the
# benchmark's own tests.
_RUN_WORKLOADS = """
import json, sys, tempfile
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import run, workloads
api = run.fresh_import()
problems = {}
with tempfile.TemporaryDirectory() as tmp:
    for name, workload in (
        ("golden", workloads.Golden(api, 0, Path(tmp))),
        ("fleet", workloads.Fleet(api, 0, Path(tmp), replicas=2)),
        ("longstream", workloads.Longstream(api, 0, Path(tmp), lengths=(200, 300))),
    ):
        _, generated = workload.generate()
        _, reports = workload.pipeline()
        _, outputs = workload.evaluate_cmd()
        problems[name] = (
            workload.check_generate(generated)
            + workload.check_pipeline(reports)
            + workload.check_cmd(outputs)
        )
print(json.dumps(problems))
"""


def test_every_benchmark_workload_runs_one_checked_operation():
    env = {**os.environ, "PYTHONPATH": str(Path(alertsift.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-B", "-c", _RUN_WORKLOADS, str(BENCH)],
        env=env, capture_output=True, text=True, check=True,
    )
    assert json.loads(done.stdout.splitlines()[-1]) == {
        "golden": [], "fleet": [], "longstream": [],
    }
