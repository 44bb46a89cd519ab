"""The benchmark's three workloads: golden, fleet and longstream.

Each workload builds its inputs from the benchmark seed, then runs operations
made of three timed phases:

* generate: synthesize the dataset and write it to disk;
* pipeline: ``evaluate()`` alone, on inputs built in memory at set-up;
* evaluate_cmd: load the written dataset, ``evaluate()``, write
  ``report.json`` and ``decisions.jsonl``.

Every phase's output is checked outside the timed region. The program is
reached only through ``api``, a namespace of the ``alertsift.*`` modules of
one import, so that the traced run sees the calls through its wrappers.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import random
import statistics
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path
from time import perf_counter
from typing import Any, Sequence

GOLDEN_SEED = 42
FLEET_REPLICAS = 20
LONGSTREAM_LENGTHS = (500, 2000, 8000)
# One alert burst per this many minutes of otherwise quiet stream. Bursts are
# catalogue cases of one length, so every seed gives the same alert count.
BURST_PERIOD_MINUTES = 100
BURST_EPOCHS = 5
# The shortest stream's call takes about 20 ms, too noisy a base for
# stream_cost_growth on its own; it is evaluated this many more times.
SHORT_STREAM_REPEATS = 4

# The paper's screening thresholds, restated here so that the alerting
# epochs of a stream are counted independently of the program.
SPO2_ALERT_BELOW = 94.0
HR_ALERT_ABOVE = 100.0
HR_ALERT_BELOW = 50.0


@dataclass(frozen=True)
class Call:
    """One ``evaluate(dataset, taxonomy)`` call and what it covers."""

    dataset: Any
    taxonomy: list
    epochs: int
    # Positions of this call's cases in the workload's main call, for the
    # stream-length groups that re-evaluate a subset of it; empty for a plain
    # repeat of a main call.
    origin: tuple[int, ...] = ()


def renumber(api: Any, cases: Sequence[Any]) -> list[Any]:
    """Give generated cases consecutive patient ids from the first valid id.

    ``evaluate()`` attributes patients to taxonomy entries by that numbering.
    """
    first = api.model.PATIENT_ID_RANGE[0]
    out = []
    for index, case in enumerate(cases):
        pid = first + index
        if case.patient_id != pid:
            case = dataclasses.replace(
                case,
                patient_id=pid,
                epochs=tuple(dataclasses.replace(e, patient_id=pid) for e in case.epochs),
                context=dataclasses.replace(case.context, patient_id=pid),
            )
        out.append(case)
    return out


def as_call(api: Any, cases: Sequence[Any], origin: tuple[int, ...] = ()) -> Call:
    dataset = api.evaluate.Dataset(
        epochs=tuple(e for c in cases for e in c.epochs),
        contexts={c.patient_id: c.context for c in cases},
    )
    return Call(dataset, [c.entry for c in cases], len(dataset.epochs), origin)


def length_groups(api: Any, cases: Sequence[Any]) -> list[Call]:
    """Calls over the shortest and the longest streams of ``cases``."""
    lengths = [len(c.epochs) for c in cases]
    calls = []
    for length in (min(lengths), max(lengths)):
        origin = tuple(i for i, n in enumerate(lengths) if n == length)
        calls.append(as_call(api, renumber(api, [cases[i] for i in origin]), origin))
    return calls


def write_report(api: Any, report: Any, out: Path) -> None:
    """Write report.json and decisions.jsonl as ``alertsift evaluate`` does."""
    out.mkdir(parents=True, exist_ok=True)
    payload = report.to_json_dict()
    with open(out / "report.json", "w", encoding="utf-8") as fp:
        fp.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    api.evaluate.write_decision_log(report, out / "decisions.jsonl")


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def counts_of(report: Any) -> dict[str, Any]:
    return {
        "overall": (report.ts_count, report.fe_count, report.ind_count),
        "per_domain": {k.value: (r.n, r.ts, r.fe) for k, r in report.per_domain.items()},
        "failure_modes": {k.value: v for k, v in report.failure_modes.items()},
    }


class Workload:
    """Inputs and phases shared by the workloads; subclasses fill them in."""

    name = ""

    def __init__(self, api: Any, seed: int, work: Path) -> None:
        self.api = api
        self.seed = seed
        self.work = work / self.name
        self.work.mkdir(parents=True, exist_ok=True)
        self.calls: list[Call] = []  # the pipeline phase
        self.groups: list[Call] = []  # extra calls for stream_cost_growth
        # Indices into calls + groups of the shortest and the longest streams.
        self.growth_calls: tuple[tuple[int, ...], tuple[int, ...]] = ((0,), (0,))
        self._digests: dict[str, str] = {}

    @property
    def epochs(self) -> int:
        return sum(c.epochs for c in self.calls)

    def growth(self, seconds: list[float]) -> float:
        """Per-epoch time on the longest streams over that on the shortest.

        ``seconds`` are one pipeline phase's call times, so the host speed
        cancels out.
        """
        both = self.calls + self.groups
        short, long = (
            statistics.median(seconds[i] for i in calls) / both[calls[0]].epochs
            for calls in self.growth_calls
        )
        return long / short

    def pipeline(self) -> tuple[list[float], list[Any]]:
        """Time each ``evaluate()`` call; returns durations and reports."""
        evaluate = self.api.evaluate
        durations, reports = [], []
        for call in self.calls + self.groups:
            started = perf_counter()
            report = evaluate.evaluate(call.dataset, call.taxonomy)
            durations.append(perf_counter() - started)
            reports.append(report)
        return durations, reports

    def check_pipeline(self, reports: list[Any]) -> list[str]:
        main = reports[: len(self.calls)]
        problems = self.check_reports(main)
        for call, report in zip(self.groups, reports[len(self.calls):]):
            expected = [main[0].case_outcomes[i].outcome for i in call.origin]
            if call.origin and [c.outcome for c in report.case_outcomes] != expected:
                problems.append("stream-length group outcomes differ from the full run")
        for call, report in zip(self.calls + self.groups, reports):
            if report.epochs != call.epochs:
                problems.append(f"report covers {report.epochs} epochs, expected {call.epochs}")
        problems += self.stable("pipeline", self.decision_digest(main))
        return problems

    def check_reports(self, reports: list[Any]) -> list[str]:
        raise NotImplementedError

    def stable(self, key: str, digest: str) -> list[str]:
        """Outputs of the same inputs must not change between operations."""
        first = self._digests.setdefault(key, digest)
        return [] if first == digest else [f"{key} output changed between operations"]

    @staticmethod
    def decision_digest(reports: list[Any]) -> str:
        h = hashlib.sha256()
        for report in reports:
            for case in report.case_outcomes:
                for d in case.epoch_decisions:
                    h.update(f"{case.case_id}|{d.decided_at.isoformat()}|{d.verdict.value}|"
                             f"{d.resolution_path.value};".encode())
        return h.hexdigest()


class Golden(Workload):
    """The shipped catalogue, through the command line, as a user runs it."""

    name = "golden"

    def __init__(self, api: Any, seed: int, work: Path) -> None:
        super().__init__(api, seed, work)
        synthgen = api.synthgen
        taxonomy = synthgen.load_taxonomy(synthgen.default_taxonomy_path())
        cases = list(synthgen.generate_dataset(taxonomy, GOLDEN_SEED).cases)
        self.calls = [as_call(api, cases)]
        self.groups = length_groups(api, cases)
        self.growth_calls = ((1,), (2,))
        self.config = self.work / "config.json"
        self.config.write_text(json.dumps({
            "seed": GOLDEN_SEED,
            "paths": {"dataset_dir": str(self.work / "dataset"),
                      "report_dir": str(self.work / "report")},
        }))

    def _cli(self, *argv: str) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.api.cli.main(["--config", str(self.config), *argv])
        return code, out.getvalue()

    def generate(self) -> tuple[float, Any]:
        started = perf_counter()
        code, _ = self._cli("generate")
        return perf_counter() - started, code

    def check_generate(self, code: Any) -> list[str]:
        return [] if code == 0 else [f"generate exited {code}"]

    def evaluate_cmd(self) -> tuple[float, Any]:
        started = perf_counter()
        result = self._cli("evaluate", "--golden-check")
        return perf_counter() - started, result

    def check_cmd(self, result: Any) -> list[str]:
        code, out = result
        if code != 0 or "golden check: ok" not in out:
            return [f"evaluate --golden-check exited {code}"]
        return self.stable("decisions.jsonl", file_digest(self.work / "report" / "decisions.jsonl"))

    def check_reports(self, reports: list[Any]) -> list[str]:
        return [f"golden: {p}" for p in self.api.evaluate.check_golden(reports[0])]


class FileWorkload(Workload):
    """A workload whose commands run through the library, not the CLI.

    ``parts`` names one dataset directory per ``evaluate()`` call.
    """

    parts: tuple[str, ...] = ()

    def synthesize(self) -> Any:
        raise NotImplementedError

    def arrange(self, raw: Any) -> list[Any]:
        """Turn the generator's output into one list of cases per part."""
        raise NotImplementedError

    def command_taxonomy(self, part: int) -> list[Any]:
        raise NotImplementedError

    def build(self) -> list[list[Any]]:
        return self.arrange(self.synthesize())

    def generate(self) -> tuple[float, None]:
        """Time synthesis and writing; renumbering is benchmark glue."""
        synthgen = self.api.synthgen
        started = perf_counter()
        raw = self.synthesize()
        synthesized = perf_counter()
        parts = self.arrange(raw)
        arranged = perf_counter()
        for name, cases in zip(self.parts, parts):
            manifest = {"seed": self.seed, "case_count": len(cases),
                        "epoch_count": sum(len(c.epochs) for c in cases)}
            synthgen.write_dataset(
                synthgen.GeneratedDataset(seed=self.seed, cases=tuple(cases), manifest=manifest),
                self.work / name / "dataset",
            )
        written = perf_counter()
        return (synthesized - started) + (written - arranged), None

    def check_generate(self, result: Any) -> list[str]:
        # What was written is checked when evaluate_cmd reads it back.
        return []

    def evaluate_cmd(self) -> tuple[float, list[Any]]:
        evaluate = self.api.evaluate
        reports = []
        started = perf_counter()
        for index, name in enumerate(self.parts):
            taxonomy = self.command_taxonomy(index)
            dataset = evaluate.load_dataset(self.work / name / "dataset")
            report = evaluate.evaluate(dataset, taxonomy)
            write_report(self.api, report, self.work / name / "report")
            reports.append(report)
        return perf_counter() - started, reports

    def check_cmd(self, reports: list[Any]) -> list[str]:
        problems = self.check_reports(reports)
        for call, report in zip(self.calls, reports):
            if report.epochs != call.epochs:
                problems.append(f"loaded {report.epochs} epochs, wrote {call.epochs}")
        digest = hashlib.sha256(
            "".join(file_digest(self.work / n / "report" / "decisions.jsonl") for n in self.parts).encode()
        ).hexdigest()
        return problems + self.stable("decisions.jsonl", digest)


class Fleet(FileWorkload):
    """The catalogue replicated: many short independent cases, all alerting."""

    name = "fleet"
    parts = ("fleet",)

    def __init__(self, api: Any, seed: int, work: Path, replicas: int = FLEET_REPLICAS) -> None:
        super().__init__(api, seed, work)
        self.replicas = replicas
        (cases,) = self.build()
        self.calls = [as_call(api, cases)]
        self.groups = length_groups(api, cases)
        self.growth_calls = ((1,), (2,))

    def load_catalogue(self) -> list[Any]:
        synthgen = self.api.synthgen
        return synthgen.load_taxonomy(synthgen.default_taxonomy_path())

    def synthesize(self) -> list[Any]:
        catalogue = self.load_catalogue()
        base = self.seed * self.replicas
        return [self.api.synthgen.generate_dataset(catalogue, base + r) for r in range(self.replicas)]

    def arrange(self, raw: list[Any]) -> list[list[Any]]:
        return [renumber(self.api, [case for replica in raw for case in replica.cases])]

    def command_taxonomy(self, part: int) -> list[Any]:
        return self.load_catalogue() * self.replicas

    def check_reports(self, reports: list[Any]) -> list[str]:
        """Golden counts are seed-independent, so R replicas give R times them."""
        evaluate, r = self.api.evaluate, self.replicas
        expected = {
            "overall": tuple(r * evaluate.GOLDEN_OVERALL[k] for k in ("ts_count", "fe_count", "ind_count")),
            "per_domain": {k.value: tuple(r * x for x in v) for k, v in evaluate.GOLDEN_PER_DOMAIN.items()},
            "failure_modes": {k.value: r * v for k, v in evaluate.GOLDEN_FAILURE_MODES.items()},
        }
        report = reports[0]
        problems = []
        got = counts_of(report)
        for key, want in expected.items():
            if got[key] != want:
                problems.append(f"fleet {key} {got[key]} != {r} x golden {want}")
        decided = sum(len(c.epoch_decisions) for c in report.case_outcomes)
        if decided != report.epochs:
            problems.append(f"fleet: {decided} decisions for {report.epochs} alerting epochs")
        return problems


def quiet_entry(api: Any, epochs: int) -> Any:
    """A catalogue-style entry whose every epoch is inside the screens.

    SpO2 stays in [95.5, 99.5] and HR in [60, 90] (noise is re-clamped to the
    bounds) with device status ok, so no quiet minute raises an alert.
    """
    s = api.synthgen
    return s.TaxonomyEntry(
        case_id=f"quiet-baseline-{epochs}",
        domain_class=s.DomainClass.PROBE_INTEGRITY,
        epoch_count=epochs,
        continuous_params={
            "spo2": s.ContinuousSpec(mu=97.5, sigma=0.8, lower=95.5, upper=99.5),
            "hr": s.ContinuousSpec(mu=72.0, sigma=5.0, lower=60.0, upper=90.0),
        },
        categorical_params={
            "accel_level": s.CategoricalSpec(fixed="still"),
            "device_status": s.CategoricalSpec(fixed="ok"),
            "position": s.CategoricalSpec(choices=("upright", "supine", "lateral")),
            "probe_cover_present": s.CategoricalSpec(fixed=False),
        },
        context={"copd_documented": False, "baseline_spo2": None, "baseline_hr": None,
                 "rate_limiting_medication": False},
        nocturnal=False,
        expected_outcome_note="quiet baseline for long single-patient streams",
    )


def alerting_times(epochs: Sequence[Any]) -> list[datetime]:
    """Timestamps of epochs that cross a screen, from the raw values."""
    return [
        e.timestamp for e in epochs
        if e.spo2 < SPO2_ALERT_BELOW or e.hr > HR_ALERT_ABOVE or e.hr < HR_ALERT_BELOW
        or e.device_status.value != "ok"
    ]


class Longstream(FileWorkload):
    """Long single-patient streams: mostly quiet minutes, periodic bursts."""

    name = "longstream"

    def __init__(self, api: Any, seed: int, work: Path,
                 lengths: tuple[int, ...] = LONGSTREAM_LENGTHS) -> None:
        super().__init__(api, seed, work)
        self.lengths = lengths
        self.parts = tuple(f"n{n}" for n in lengths)
        self.entries = [quiet_entry(api, n) for n in lengths]
        parts = self.build()
        self.calls = [as_call(api, cases) for cases in parts]
        shortest = min(range(len(lengths)), key=lengths.__getitem__)
        longest = max(range(len(lengths)), key=lengths.__getitem__)
        self.groups = [self.calls[shortest]] * SHORT_STREAM_REPEATS
        repeats = range(len(self.calls), len(self.calls) + SHORT_STREAM_REPEATS)
        self.growth_calls = ((shortest, *repeats), (longest,))
        self.alerting = [alerting_times(c.dataset.epochs) for c in self.calls]

    def synthesize(self) -> list[Any]:
        synthgen = self.api.synthgen
        catalogue = synthgen.load_taxonomy(synthgen.default_taxonomy_path())
        plain = self.entries[0].context
        bursts = [e for e in catalogue
                  if dict(e.context) == dict(plain) and e.epoch_count == BURST_EPOCHS]
        pid = self.api.model.PATIENT_ID_RANGE[0]
        streams = []
        for entry in self.entries:
            rng = random.Random(f"{self.seed}:longstream:{entry.epoch_count}")
            start = datetime(2022, 6, 1, tzinfo=timezone.utc) + timedelta(days=rng.randrange(80))
            epochs, context = synthgen.generate_case(entry, pid, start, self.seed)
            for block in range(0, entry.epoch_count - BURST_PERIOD_MINUTES + 1, BURST_PERIOD_MINUTES):
                burst_entry = rng.choice(bursts)
                offset = block + rng.randrange(BURST_PERIOD_MINUTES - BURST_EPOCHS)
                burst, _ = synthgen.generate_case(
                    burst_entry, pid, start + timedelta(minutes=offset), rng.randrange(2**31)
                )
                epochs[offset:offset + len(burst)] = burst
            streams.append(synthgen.GeneratedCase(
                entry=entry, patient_id=pid, start_time=start, epochs=tuple(epochs), context=context,
            ))
        return streams

    def arrange(self, raw: list[Any]) -> list[list[Any]]:
        return [[stream] for stream in raw]

    def command_taxonomy(self, part: int) -> list[Any]:
        return [self.entries[part]]

    def check_reports(self, reports: list[Any]) -> list[str]:
        """Every alerting epoch gets exactly one binary decision, no other does."""
        problems = []
        for n, expected, report in zip(self.lengths, self.alerting, reports):
            (case,) = report.case_outcomes
            decided = [d.decided_at for d in case.epoch_decisions]
            if decided != expected:
                problems.append(
                    f"longstream n{n}: {len(decided)} decisions for {len(expected)} alerting epochs"
                )
            if any(d.verdict.value not in ("suppress", "escalate") for d in case.epoch_decisions):
                problems.append(f"longstream n{n}: non-binary verdict")
        return problems


WORKLOADS = {w.name: w for w in (Golden, Fleet, Longstream)}
