"""End-to-end evaluation: pipeline execution, case aggregation, metrics.

Keys every epoch, in per-patient timestamp order, by its cell: the
outcomes of the rules' vital comparisons, its four categorical fields,
whether its time is nocturnal and the patient's EHR facts, which decide its
alert types, routing and claims. The key's first comparisons are
detection's own threshold test on the raw device fields, and an epoch that
crosses none of them gets no key and is skipped. The first epoch of a cell
in an ``evaluate`` call runs assemble -> project -> detect -> route ->
specialists -> weigh; every keyed epoch then runs resolve, the debounce,
against its patient's history. Decides each case by its first escalation,
and computes the report: overall rates, per-class stratification, Wilson
confidence intervals, and the distribution of device statuses at the point
of failure.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from dataclasses import dataclass
from enum import Enum
from json.encoder import encode_basestring_ascii
from math import sqrt
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, Mapping, NamedTuple, Sequence

from .assembly import SourceBundle, assemble, project_for_specialists
from .meta import DecisionHistory, MetaConfig, Weighing, resolve, weigh
from .model import (
    COMPACT_JSON,
    AgentClaim,
    AlertType,
    DeviceStatus,
    DomainClass,
    Epoch,
    InvariantViolation,
    PatientContext,
    SystemDecision,
    Verdict,
    _BLOCK_LINES,
    _DECODE_ERRORS,
    _integer,
    _located,
    _number,
    _object,
    _shown,
    format_timestamp,
    parse_enum,
    read_contexts_json,
    read_epochs_jsonl,
    PATIENT_ID_RANGE,
)
from .routing import RoutingDecision, in_nocturnal_window, route
from .sentinel import SentinelConfig, detect
from .specialists import DEFAULT_NOCTURNAL_BASELINE_SPO2, SpecialistConfig, claims_for

__all__ = [
    "CaseOutcome",
    "Dataset",
    "DomainRow",
    "EvaluationReport",
    "GOLDEN_EPOCHS",
    "GOLDEN_FAILURE_MODES",
    "GOLDEN_OVERALL",
    "GOLDEN_PER_DOMAIN",
    "GOLDEN_TAXONOMY_SHA256",
    "Manifest",
    "ManifestCase",
    "OutcomeKind",
    "check_golden",
    "evaluate",
    "load_dataset",
    "load_manifest",
    "render_report_text",
    "validate_report_payload",
    "wilson_interval",
    "write_decision_log",
]


class OutcomeKind(str, Enum):
    TRUE_SUPPRESSION = "true_suppression"
    FALSE_ESCALATION = "false_escalation"


# Bound once: reading an Enum member off its class costs about 0.1 us.
_ESCALATE = Verdict.ESCALATE
_TRUE_SUPPRESSION = OutcomeKind.TRUE_SUPPRESSION
_FALSE_ESCALATION = OutcomeKind.FALSE_ESCALATION

_Z = 1.96  # the normal quantile of the report's 95% intervals


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """Wilson score 95% interval for a binomial proportion.

    For successes == n the lower bound reduces to the closed form
    n / (n + z^2). Bounds are fractions in [0, 1].
    """
    if n < 1 or not 0 <= successes <= n:
        raise InvariantViolation(f"require 0 <= successes <= n, n >= 1; got {successes}/{n}")
    p = successes / n
    z2 = _Z * _Z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2 * n)) / denom
    margin = (_Z / denom) * sqrt(p * (1 - p) / n + z2 / (4 * n * n))
    return (max(0.0, center - margin), min(1.0, center + margin))


class CaseOutcome(NamedTuple):
    """One case's outcome and the epoch decisions behind it.

    An immutable tuple, equal when all six fields are equal, as tuples are.
    A tuple because it is the one object kept per case, as ``SystemDecision``
    is per decision.
    """

    case_id: str
    patient_id: int
    domain_class: DomainClass
    outcome: OutcomeKind
    epoch_decisions: tuple[SystemDecision, ...]
    failure_device_status: DeviceStatus | None


class DomainRow(NamedTuple):
    """One class row: its case count, true suppressions and false escalations."""

    n: int
    ts: int
    fe: int

    @property
    def tsr(self) -> float:
        return self.ts / self.n

    @property
    def fer(self) -> float:
        return self.fe / self.n


@dataclass(frozen=True)
class EvaluationReport:
    """The class rows, the epoch total, the failure modes and the case
    outcomes: all a report holds. Each overall count is the rows' sum, and
    ``ind_count`` the rest, 0 while every case is suppressed or escalated."""

    per_domain: Mapping[DomainClass, DomainRow]
    epochs: int
    failure_modes: Mapping[DeviceStatus, int]
    case_outcomes: tuple[CaseOutcome, ...] = ()

    @property
    def ts_count(self) -> int:
        return sum(row.ts for row in self.per_domain.values())

    @property
    def fe_count(self) -> int:
        return sum(row.fe for row in self.per_domain.values())

    @property
    def cases(self) -> int:
        return sum(row.n for row in self.per_domain.values())

    @property
    def ind_count(self) -> int:
        return self.cases - self.ts_count - self.fe_count

    @property
    def tsr(self) -> float:
        return self.ts_count / self.cases

    @property
    def fer(self) -> float:
        return self.fe_count / self.cases

    @property
    def indr(self) -> float:
        return self.ind_count / self.cases

    @property
    def mean_epochs_per_case(self) -> float:
        return self.epochs / self.cases

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "overall": {
                "ts_count": self.ts_count,
                "fe_count": self.fe_count,
                "ind_count": self.ind_count,
                "tsr": round(self.tsr, 6),
                "fer": round(self.fer, 6),
                "indr": round(self.indr, 6),
            },
            "per_domain": {
                cls.value: {
                    "n": row.n,
                    "ts": row.ts,
                    "fe": row.fe,
                    "tsr": round(row.tsr, 6),
                    "fer": round(row.fer, 6),
                }
                for cls, row in self.per_domain.items()
            },
            "wilson_cis": {
                cls.value: {"lower": round(lo, 6), "upper": round(hi, 6)}
                for cls, row in self.per_domain.items()
                for lo, hi in (wilson_interval(row.ts, row.n),)
            },
            "failure_modes": {
                status.value: count for status, count in self.failure_modes.items()
            },
            "totals": {
                "cases": self.cases,
                "epochs": self.epochs,
                "mean_epochs_per_case": round(self.mean_epochs_per_case, 6),
            },
        }


@dataclass(frozen=True)
class Dataset:
    epochs: tuple[Epoch, ...]
    contexts: Mapping[int, PatientContext]


def load_dataset(dataset_dir: str | Path) -> Dataset:
    """Read a dataset directory; ``evaluate`` checks the streams as it walks them."""
    base = Path(dataset_dir)
    with open(base / "epochs.jsonl", encoding="utf-8") as fp:
        epochs = read_epochs_jsonl(fp)
    with open(base / "contexts.json", encoding="utf-8") as fp:
        contexts = read_contexts_json(fp)
    return Dataset(epochs=tuple(epochs), contexts=contexts)


class ManifestCase(NamedTuple):
    """One case row of manifest.json, as much of it as ``evaluate`` reads."""

    case_id: str
    patient_id: int
    domain_class: DomainClass
    epoch_count: int


@dataclass(frozen=True)
class Manifest:
    taxonomy_sha256: str
    cases: tuple[ManifestCase, ...]


# The keys ``generate`` writes to manifest.json, at the top level and in each
# case row; any other key is rejected. Only the ones read are required.
_MANIFEST_KEYS = frozenset(
    {"seed", "case_count", "epoch_count", "patient_id_range", "taxonomy_sha256", "cases"}
)
_MANIFEST_CASE_KEYS = frozenset(
    {"case_id", "patient_id", "domain_class", "epoch_count", "start_time", "sha256"}
)


def _manifest_case(raw: Any, patient_id: int, seen: set[str]) -> ManifestCase:
    row = _object(raw, _MANIFEST_CASE_KEYS, "case row")
    case_id = row["case_id"]
    if not isinstance(case_id, str):
        raise InvariantViolation(f"case_id must be a string, got {_shown(case_id)}")
    if case_id in seen:
        raise InvariantViolation("duplicate case_id")
    seen.add(case_id)
    case = ManifestCase(
        case_id,
        _integer(row["patient_id"], "patient_id"),
        parse_enum(DomainClass, row["domain_class"], "domain_class"),
        _integer(row["epoch_count"], "epoch_count"),
    )
    if case.patient_id != patient_id:
        raise InvariantViolation(
            f"patient_id {case.patient_id} is not {patient_id}: ids run consecutively"
            f" from {PATIENT_ID_RANGE[0]} in row order"
        )
    if case.epoch_count < 1:
        raise InvariantViolation(f"epoch_count must be positive, got {case.epoch_count}")
    return case


def load_manifest(dataset_dir: str | Path) -> Manifest:
    """Read a dataset's manifest.json, the cases ``evaluate`` attributes its
    patients to, and fail closed on anything that does not hold together.

    Each case row names its case id (unique), patient id, domain class and
    epoch count (positive); the patient ids are the consecutive block from
    ``PATIENT_ID_RANGE[0]`` in row order, the rule ``evaluate`` attributes
    by. The list is non-empty, and ``case_count`` and ``epoch_count`` agree
    with it. An error names the case row, the key, or the file if no JSON.
    """
    with open(Path(dataset_dir) / "manifest.json", encoding="utf-8") as fp:
        try:
            raw = json.load(fp)
        except _DECODE_ERRORS as exc:
            raise _located("manifest.json", exc) from None
    try:
        data = _object(raw, _MANIFEST_KEYS, "manifest")
        rows, digest = data["cases"], data["taxonomy_sha256"]
        case_count = _integer(data["case_count"], "case_count")
        epoch_count = _integer(data["epoch_count"], "epoch_count")
    except KeyError as exc:
        raise _located("manifest", exc) from None
    if not isinstance(digest, str):
        raise InvariantViolation(f"manifest taxonomy_sha256 must be a string, got {_shown(digest)}")
    if type(rows) is not list or not rows:
        raise InvariantViolation("manifest cases must be a non-empty array")
    cases, seen = [], set()
    for index, row in enumerate(rows):
        try:
            cases.append(_manifest_case(row, PATIENT_ID_RANGE[0] + index, seen))
        except (KeyError, InvariantViolation) as exc:
            name = row.get("case_id") if type(row) is dict else None
            where = f"case {_shown(name)}" if isinstance(name, str) else f"cases[{index}]"
            raise _located(f"manifest {where}", exc) from None
    if case_count != len(cases):
        raise InvariantViolation(f"manifest case_count {case_count} != {len(cases)} case rows")
    total = sum(case.epoch_count for case in cases)
    if epoch_count != total:
        raise InvariantViolation(
            f"manifest epoch_count {epoch_count} != {total}, the sum over its case rows"
        )
    return Manifest(taxonomy_sha256=digest, cases=tuple(cases))


_BY_TIME = attrgetter("timestamp")
_OK = DeviceStatus.OK
_DUPLICATE_ALERT = DeviceStatus.DUPLICATE_ALERT

# A cell's value: the alert's type set, its routing decision, its claims and
# their weighing.
_Cell = tuple[frozenset[AlertType], RoutingDecision, tuple[AgentClaim, ...], Weighing]


def _cell_key(
    context: PatientContext, sentinel_cfg: SentinelConfig, specialist_cfg: SpecialistConfig
) -> Callable[[Epoch], tuple[Any, ...] | None]:
    """The function that gives each alerting epoch of this patient its cell,
    and each quiet one None.

    The screen is detection's: SpO2 below its threshold, HR past either
    bound, or a device status other than ok. Reading it off the raw epoch is
    exact because ``detect`` reads only ``spo2``, ``hr`` and
    ``device_status``, and ``assemble`` tags all three ``device_verified``
    on every epoch, so the projection always keeps them. It is written as
    the negation of the four tests, not as their complements: a comparison
    with NaN is false either way round, so ``spo2 >= threshold`` would call
    a NaN vital loud where ``detect`` stays silent. Its outcomes are the
    key's first entries, the status standing for its own test.

    Detection, routing and the claims read an epoch through its record's
    view, and the view holds only what the projection passes: the epoch's
    device-verified vitals, accelerometer level and status, its
    patient-reported position and activity, and the context's EHR facts.
    The rules read each vital only through the comparisons below, each
    written as the rule writes it, with the configs' own values and this
    patient's baselines; the EHR facts through COPD, medication and which
    baselines are present; the time only through ``in_nocturnal_window``.
    So two epochs with one key get one type set, one routing decision and
    one set of claims, whichever patient they belong to.
    ``tests/test_rule_reads.py`` holds every vital comparison of the rules
    to its twin here, and the screen's three to ``sentinel``'s.
    """
    baseline_spo2 = context.baseline_spo2
    baseline_hr = context.baseline_hr
    facts = (
        context.copd_documented is True,
        context.rate_limiting_medication is True,
        baseline_spo2 is not None,
        baseline_hr is not None,
    )
    spo2_low = sentinel_cfg.spo2_low_threshold
    hr_high = sentinel_cfg.hr_high_threshold
    hr_low = sentinel_cfg.hr_low_threshold
    personal_floor = specialist_cfg.bradycardia_personal_floor
    allowance = specialist_cfg.hr_activity_allowance
    floor = specialist_cfg.copd_acceptable_spo2
    if baseline_spo2 is not None:
        floor = max(floor, baseline_spo2 - 2.0)
    dip_baseline = DEFAULT_NOCTURNAL_BASELINE_SPO2 if baseline_spo2 is None else baseline_spo2
    dip_allowance = specialist_cfg.nocturnal_dip_allowance

    def key(epoch: Epoch) -> tuple[Any, ...] | None:
        spo2 = epoch.spo2
        hr = epoch.hr
        status = epoch.device_status
        low_spo2 = spo2 < spo2_low
        high_hr = hr > hr_high
        low_hr = hr < hr_low
        if not (low_spo2 or high_hr or low_hr or status is not _OK):
            return None
        return (
            low_spo2,
            high_hr,
            low_hr,
            status,
            facts,
            hr < personal_floor,
            baseline_hr is not None and hr <= baseline_hr + allowance,
            spo2 >= floor,
            dip_baseline - spo2 > dip_allowance,
            epoch.accel_level,
            epoch.position,
            epoch.self_reported_activity,
            in_nocturnal_window(epoch.timestamp),
        )

    return key


def _run_case(
    case: Any,
    patient_id: int,
    epochs: Sequence[Epoch],
    context: PatientContext,
    sentinel_cfg: SentinelConfig,
    specialist_cfg: SpecialistConfig,
    meta_cfg: MetaConfig,
    cells: dict[tuple[Any, ...], _Cell],
) -> CaseOutcome:
    """Walk one patient's epochs oldest first: the one pass that checks the
    stream and decides the case.

    ``case`` is one of ``evaluate``'s cases. The sort and the duplicate-minute
    check cover every epoch; after the walk, so that a repeated minute is
    named as one, the stream must hold the case's ``epoch_count`` epochs. An
    epoch ``_cell_key`` gives no key is quiet and skipped. Every other epoch
    must belong to the patient, as assembly checks. ``cells`` maps each key
    met so far in the ``evaluate`` call to its type set, routing decision,
    claims and their weighing. On a miss, assemble -> project -> detect ->
    route -> claims -> weigh run, and the epoch must alert; the patient's
    ``SourceBundle`` is built on the case's first miss, so a case whose
    every cell was met before builds none. On a hit no bundle, record or
    view is built and nothing is weighed. Either way ``resolve`` runs the
    debounce against the patient's history, from the cell's value, the
    epoch's time and its status. The case is a false escalation if some
    decision escalates, with the device status of the first; otherwise, and
    when no epoch alerts, a true suppression.
    """
    stream = tuple(sorted(epochs, key=_BY_TIME))
    bundle = None
    key = _cell_key(context, sentinel_cfg, specialist_cfg)
    history = DecisionHistory()
    decisions: list[SystemDecision] = []
    failure_status: DeviceStatus | None = None
    previous_at = None
    for epoch in stream:
        if epoch.timestamp == previous_at:
            raise InvariantViolation(
                f"duplicate epoch for patient {patient_id} at {format_timestamp(previous_at)}"
            )
        previous_at = epoch.timestamp
        cell_key = key(epoch)
        if cell_key is None:
            continue
        if epoch.patient_id != context.patient_id:
            raise InvariantViolation(
                f"epoch patient {epoch.patient_id} != context patient {context.patient_id}"
            )
        cell = cells.get(cell_key)
        if cell is None:
            if bundle is None:
                bundle = SourceBundle(ehr=context, vitals_stream=stream)
            view = project_for_specialists(assemble(bundle, epoch))
            alert_types = detect(view, sentinel_cfg)
            if alert_types is None:
                raise InvariantViolation(
                    f"patient {patient_id} at {format_timestamp(epoch.timestamp)}:"
                    " an epoch past the quiet screen raised no alert"
                )
            routing = route(alert_types, view)
            claims = claims_for(alert_types, view, routing, specialist_cfg)
            cell = cells[cell_key] = (
                alert_types, routing, claims, weigh(claims, routing, meta_cfg)
            )
        alert_types, _, claims, weighing = cell
        status = epoch.device_status
        decision = resolve(
            claims, weighing, alert_types, epoch.timestamp, status is _DUPLICATE_ALERT,
            history, meta_cfg,
        )
        decisions.append(decision)
        if failure_status is None and decision.verdict is _ESCALATE:
            failure_status = status
    if len(stream) != case.epoch_count:
        raise InvariantViolation(
            f"case {_shown(case.case_id)}: patient {patient_id} has {len(stream)}"
            f" epochs, expected {case.epoch_count}"
        )
    outcome = _TRUE_SUPPRESSION if failure_status is None else _FALSE_ESCALATION
    return CaseOutcome(
        case.case_id, patient_id, case.domain_class, outcome, tuple(decisions), failure_status
    )


def evaluate(
    dataset: Dataset,
    taxonomy: Sequence[Any],
    sentinel_cfg: SentinelConfig | None = None,
    specialist_cfg: SpecialistConfig | None = None,
    meta_cfg: MetaConfig | None = None,
) -> EvaluationReport:
    """Evaluate a dataset against its cases, in the order generated.

    ``taxonomy`` holds one object per case: a ``ManifestCase`` read from the
    dataset's manifest, or the ``TaxonomyEntry`` it was generated from. Of
    each only ``case_id``, ``domain_class`` and ``epoch_count`` are read.
    Patients are attributed to cases by patient id, ``PATIENT_ID_RANGE[0]``
    plus the case's index, as generation assigns them; a patient with
    another number of epochs than its case's ``epoch_count`` fails. Cases
    run one after another in patient-id order, each with its own decision
    history, so report metrics do not depend on input file order.
    """
    sentinel_cfg = sentinel_cfg or SentinelConfig()
    specialist_cfg = specialist_cfg or SpecialistConfig()
    meta_cfg = meta_cfg or MetaConfig()

    first_pid = PATIENT_ID_RANGE[0]
    expected_pids = {first_pid + i: entry for i, entry in enumerate(taxonomy)}

    # Nothing looks a patient up before the set check below, so a lookup
    # never adds a patient.
    by_patient: defaultdict[int, list[Epoch]] = defaultdict(list)
    for epoch in dataset.epochs:
        by_patient[epoch.patient_id].append(epoch)

    for source, patients in (("dataset", by_patient), ("context sidecar", dataset.contexts)):
        if set(patients) != set(expected_pids):
            missing = sorted(set(expected_pids) - set(patients))
            extra = sorted(set(patients) - set(expected_pids))
            raise InvariantViolation(
                f"{source} patients differ from the case list"
                f" (missing={missing[:5]}, extra={extra[:5]})"
            )

    # The cells of every case: a cell's value, its weighing included, depends
    # on the configs and the key alone, and both stay fixed for the call.
    cells: dict[tuple[Any, ...], _Cell] = {}
    outcomes = tuple(
        _run_case(
            entry, pid, by_patient[pid], dataset.contexts[pid],
            sentinel_cfg, specialist_cfg, meta_cfg, cells,
        )
        for pid, entry in sorted(expected_pids.items())
    )

    counts = Counter((outcome.domain_class, outcome.outcome) for outcome in outcomes)
    per_domain: dict[DomainClass, DomainRow] = {}
    for cls in DomainClass:
        ts, fe = counts[cls, _TRUE_SUPPRESSION], counts[cls, _FALSE_ESCALATION]
        if ts + fe:
            per_domain[cls] = DomainRow(ts + fe, ts, fe)
    # An escalating epoch, and so a failure status, makes a false escalation.
    failure_modes = dict(
        Counter(o.failure_device_status for o in outcomes if o.failure_device_status is not None)
    )
    return EvaluationReport(per_domain, len(dataset.epochs), failure_modes, outcomes)


# Expected metrics for the shipped catalogue under default configuration,
# with its shape, which nothing else checks: 98 cases (the per-class n
# column) and 530 epochs. GOLDEN_TAXONOMY_SHA256 is the shipped catalogue's
# digest, which ``generate`` writes to the manifest as ``taxonomy_sha256``.
GOLDEN_EPOCHS = 530
GOLDEN_TAXONOMY_SHA256 = "6fb7f27cc70e84b4b29ae9dd0a664769cf9dc6792dfaad4a2704d9e2a574ee86"
GOLDEN_PER_DOMAIN = {
    DomainClass.PROBE_INTEGRITY: (23, 23, 0),
    DomainClass.ACTIVITY_INTEGRITY: (8, 8, 0),
    DomainClass.COPD: (13, 13, 0),
    DomainClass.BRADYCARDIA: (2, 2, 0),
    DomainClass.NOCTURNAL: (3, 3, 0),
    DomainClass.TACHYCARDIA: (8, 7, 1),
    DomainClass.META_CONFLICT: (30, 21, 9),
    DomainClass.PROBE_ACTIVITY_CONFLICT: (8, 5, 3),
    DomainClass.PROBE_CONDITION_CONFLICT: (3, 0, 3),
}
# The overall counts are the class rows' sums: 82, 16 and 0.
_N, _TS, _FE = map(sum, zip(*GOLDEN_PER_DOMAIN.values()))
GOLDEN_OVERALL = {"ts_count": _TS, "fe_count": _FE, "ind_count": _N - _TS - _FE}
GOLDEN_FAILURE_MODES = {
    DeviceStatus.SYSTEM_FLAG: 7,
    DeviceStatus.OK: 4,
    DeviceStatus.MOTION_ARTEFACT: 2,
    DeviceStatus.PROBE_COVER: 1,
    DeviceStatus.THRESHOLD_MARGINAL: 1,
    DeviceStatus.DUPLICATE_ALERT: 1,
}


def check_golden(report: EvaluationReport) -> list[str]:
    """Compare a report to the golden expectations; returns mismatches."""
    problems: list[str] = []
    if report.epochs != GOLDEN_EPOCHS:
        problems.append(f"epochs {report.epochs} != {GOLDEN_EPOCHS}")
    overall = {key: getattr(report, key) for key in GOLDEN_OVERALL}
    if overall != GOLDEN_OVERALL:
        problems.append(f"overall {overall} != {GOLDEN_OVERALL}")
    for cls, (n, ts, fe) in GOLDEN_PER_DOMAIN.items():
        row = report.per_domain.get(cls)
        got = (row.n, row.ts, row.fe) if row else None
        if got != (n, ts, fe):
            problems.append(f"{cls.value}: {got} != {(n, ts, fe)}")
    if dict(report.failure_modes) != GOLDEN_FAILURE_MODES:
        got = ", ".join(f"{k.value}: {v}" for k, v in _by_count(report.failure_modes))
        problems.append(f"failure modes {{{got}}} != expected")
    return problems


def _by_count(failure_modes: Mapping[Any, int]) -> list[tuple[Any, int]]:
    """Failure modes by count, descending, then by device status value,
    whatever order the mapping holds them in (report.json sorts its keys)."""
    return sorted(failure_modes.items(), key=lambda kv: (-kv[1], kv[0]))


def _pct(x: float) -> str:
    return f"{100 * x:.1f}%"


def render_report_text(data: Mapping[str, Any]) -> str:
    """Human-readable tables: overall, per-class, Wilson CIs, failure modes.

    Reads the serialized report, ``EvaluationReport.to_json_dict()`` or a
    stored report.json, so both render to identical text.
    """
    overall = data["overall"]
    totals = data["totals"]

    lines: list[str] = []
    lines.append("OVERALL OUTCOMES")
    lines.append(
        f"  cases={totals['cases']}  epochs={totals['epochs']}  "
        f"mean {totals['mean_epochs_per_case']:.1f} epochs/case"
    )
    lines.append(f"  {'outcome':<20}{'count':>7}{'rate':>9}")
    for kind, count, rate in (
        ("true_suppression", "ts_count", "tsr"),
        ("false_escalation", "fe_count", "fer"),
        ("indeterminate", "ind_count", "indr"),
    ):
        lines.append(f"  {kind:<20}{overall[count]:>7}{_pct(overall[rate]):>9}")
    lines.append("")

    lines.append("PER-CLASS STRATIFICATION")
    lines.append(f"  {'class':<28}{'n':>4}{'ts':>4}{'fe':>4}{'tsr':>9}{'fer':>9}")
    for cls in DomainClass:
        row = data["per_domain"].get(cls.value)
        if row is None:
            continue
        lines.append(
            f"  {cls.value:<28}{row['n']:>4}{row['ts']:>4}{row['fe']:>4}"
            f"{_pct(row['tsr']):>9}{_pct(row['fer']):>9}"
        )
    lines.append("")

    lines.append("WILSON 95% CONFIDENCE INTERVALS (TSR)")
    lines.append(f"  {'class':<28}{'n':>4}{'tsr':>9}  interval")
    for cls in DomainClass:
        row = data["per_domain"].get(cls.value)
        if row is None:
            continue
        ci = data["wilson_cis"][cls.value]
        lines.append(
            f"  {cls.value:<28}{row['n']:>4}{_pct(row['tsr']):>9}"
            f"  {_pct(ci['lower'])} - {_pct(ci['upper'])}"
        )
    lines.append(
        "  note: for perfect-suppression classes the Wilson lower bound is"
    )
    lines.append(
        "  n/(n+z^2); the exact Clopper-Pearson lower bound differs, e.g."
    )
    lines.append(
        "  23/23 gives 85.7% (Wilson) versus 85.2% (Clopper-Pearson)."
    )
    lines.append("")

    lines.append("FAILURE MODES (device status at first escalating epoch)")
    lines.append(f"  {'device_status':<24}{'count':>6}")
    for status, count in _by_count(data["failure_modes"]):
        lines.append(f"  {status:<24}{count:>6}")
    if not data["failure_modes"]:
        lines.append("  (no false escalations)")
    return "\n".join(lines) + "\n"


def write_decision_log(report: EvaluationReport, path: str | Path) -> None:
    """Emit every epoch decision as JSON Lines, in case then epoch order.

    A line is ``{"case_id":…,"patient_id":…,"decision":{…}}``, the decision
    as ``SystemDecision.to_dict`` gives it, encoded compactly. Each case's
    head is written once, as text. A log repeats few distinct decision
    bodies, so each is encoded once per call, up to its ``decided_at``
    value, keyed by its verdict, its path and the identity of the claims
    tuple that a cell's decisions share, not by the claims' equality:
    ``confidence=1`` and ``1.0`` compare equal but encode differently. The report holds the
    tuples for the whole call, so no identity is reused while the cache
    lives.
    """
    bodies: dict[tuple[Any, ...], str] = {}
    with open(path, "w", encoding="utf-8") as fp:
        write = fp.write
        for case in report.case_outcomes:
            head = (
                '{"case_id":' + encode_basestring_ascii(case.case_id)
                + ',"patient_id":' + str(case.patient_id) + ',"decision":'
            )
            decisions = case.epoch_decisions
            for start in range(0, len(decisions), _BLOCK_LINES):
                lines = []
                for decision in decisions[start : start + _BLOCK_LINES]:
                    verdict, claims, resolution_path, decided_at = decision
                    key = (verdict, resolution_path, id(claims))
                    body = bodies.get(key)
                    if body is None:
                        fields = decision.to_dict()
                        del fields["decided_at"]
                        body = bodies[key] = COMPACT_JSON.encode(fields)[:-1] + ',"decided_at":"'
                    lines.append(head + body + format_timestamp(decided_at) + '"}}\n')
                write("".join(lines))


# The sections of report.json; ``EvaluationReport.to_json_dict`` states the rest.
_REPORT_SECTIONS = frozenset({"overall", "per_domain", "wilson_cis", "failure_modes", "totals"})


def _count(raw: Any, name: str) -> int:
    """A count in report.json: a number, then a non-negative integer."""
    _number(raw, name)
    if _integer(raw, name) < 0:
        raise InvariantViolation(f"{name} must not be negative, got {raw}")
    return raw


def _inputs(raw: Any, where: str, *names: str) -> list[int]:
    """The counts ``names`` of the object at ``where``; the walk checks its
    other keys."""
    if type(raw) is not dict:
        raise InvariantViolation(f"report payload {where!r} must be a JSON object, got {_shown(raw)}")
    return [_count(raw.get(name), f"report payload {where}.{name}") for name in names]


def _walk(stored: Any, expected: Any, where: str) -> None:
    """Require ``stored``, the value at ``where`` in report.json, to be
    ``expected``: an object with exactly its keys, a missing one read as
    null; a count as ``_count`` reads it; any number finite and equal."""
    if type(expected) is dict:
        stored = _object(stored, frozenset(expected), f"report payload {where!r}")
        for key, value in expected.items():
            _walk(stored.get(key), value, f"{where}.{key}")
        return
    name = f"report payload {where}"
    if type(expected) is int:
        _count(stored, name)
    else:
        _number(stored, name)
    if stored != expected:
        raise InvariantViolation(f"{name} is {stored}, the rows give {expected}")


def validate_report_payload(data: Mapping[str, Any]) -> dict[str, Any]:
    """Check a stored report.json loaded for re-rendering: it must be the
    document its free inputs give.

    The free inputs are each class row's ``n``, ``ts`` and ``fe``, the epoch
    total and the failure-mode counts, each a non-negative integer; every
    case is suppressed or escalated, so a class row has ``ts + fe = n``;
    ``wilson_cis`` holds an interval for exactly the classes of
    ``per_domain``, and ``per_domain`` holds one at least.
    Every case has an epoch, so the epoch total is at least the case count;
    every false escalation has one failure status, so the failure-mode
    counts sum to ``fe_count``. The rest of the file must be
    ``to_json_dict()`` of the ``EvaluationReport`` they make, key for key.
    """
    data = _object(data, _REPORT_SECTIONS, "report payload")
    missing = _REPORT_SECTIONS - data.keys()
    if missing:
        raise InvariantViolation(f"report payload missing {sorted(missing)}")
    rows = _object(data["per_domain"], DomainClass, "report payload 'per_domain'")
    cis = _object(data["wilson_cis"], DomainClass, "report payload 'wilson_cis'")
    unmatched = sorted(rows.keys() ^ cis.keys())
    if unmatched:
        cls = unmatched[0]
        has = "no interval" if cls in rows else "an interval but no per_domain row"
        raise InvariantViolation(f"report payload wilson_cis: class {cls!r} has {has}")
    if not rows:
        raise InvariantViolation("report payload per_domain holds no class")
    per_domain = {}
    for cls, row in rows.items():
        n, ts, fe = _inputs(row, f"per_domain.{cls}", "n", "ts", "fe")
        try:
            wilson_interval(ts, n)
            if ts + fe != n:
                raise InvariantViolation(
                    f"ts + fe is {ts + fe}, not n {n}: every case is suppressed or escalated"
                )
        except InvariantViolation as exc:
            raise InvariantViolation(f"report payload per_domain.{cls}: {exc}") from None
        per_domain[DomainClass(cls)] = DomainRow(n, ts, fe)
    (epochs,) = _inputs(data["totals"], "totals", "epochs")
    failure_modes = {
        DeviceStatus(status): _count(count, f"report payload failure_modes.{status}")
        for status, count in _object(
            data["failure_modes"], DeviceStatus, "report payload 'failure_modes'"
        ).items()
    }
    report = EvaluationReport(per_domain, epochs, failure_modes)
    for key, expected in report.to_json_dict().items():
        _walk(data[key], expected, key)
    if epochs < report.cases:
        raise InvariantViolation(
            f"report payload totals.epochs is {epochs}, below totals.cases"
            f" {report.cases}: every case has at least one epoch"
        )
    total = sum(failure_modes.values())
    if total != report.fe_count:
        raise InvariantViolation(
            f"report payload failure_modes sum to {total}, not overall.fe_count {report.fe_count}:"
            " every false escalation has one failure status"
        )
    return dict(data)
