"""End-to-end evaluation: pipeline execution, case aggregation, metrics.

Runs assemble -> project -> detect -> route -> specialists -> resolve for
every epoch in per-patient timestamp order, folds epoch decisions into
case outcomes, and computes the report: overall rates, per-class
stratification, Wilson confidence intervals, and the distribution of
device statuses at the point of failure.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from datetime import datetime
from enum import Enum
from math import sqrt
from pathlib import Path
from typing import Any, Mapping, Sequence

from .assembly import SourceBundle, assemble, project_for_specialists
from .meta import DecisionHistory, MetaConfig, resolve
from .model import (
    COMPACT_JSON,
    DeviceStatus,
    Epoch,
    InvariantViolation,
    PatientContext,
    SystemDecision,
    Verdict,
    format_timestamp,
    parse_enum,
    read_contexts_json,
    read_epochs_jsonl,
    PATIENT_ID_RANGE,
)
from .routing import route
from .sentinel import SentinelConfig, detect
from .specialists import SpecialistConfig, claims_for
from .synthgen import DomainClass, TaxonomyEntry

__all__ = [
    "CaseOutcome",
    "Dataset",
    "DatasetTaxonomyMismatch",
    "DomainRow",
    "EmptyDecisions",
    "EvaluationReport",
    "GOLDEN_FAILURE_MODES",
    "GOLDEN_OVERALL",
    "GOLDEN_PER_DOMAIN",
    "InvalidCounts",
    "OutcomeKind",
    "aggregate_case",
    "check_golden",
    "evaluate",
    "load_dataset",
    "render_report_text",
    "validate_report_payload",
    "wilson_interval",
    "write_decision_log",
]


class EmptyDecisions(ValueError):
    """A case cannot be aggregated from zero decisions."""


class InvalidCounts(ValueError):
    """Wilson interval inputs out of range."""


class DatasetTaxonomyMismatch(ValueError):
    """Dataset patients and taxonomy cases do not line up one-to-one."""


class OutcomeKind(str, Enum):
    TRUE_SUPPRESSION = "true_suppression"
    FALSE_ESCALATION = "false_escalation"
    INDETERMINATE = "indeterminate"


def aggregate_case(decisions: Sequence[SystemDecision]) -> OutcomeKind:
    """Fold one case's epoch decisions into its outcome.

    A case is a true suppression only when every epoch was suppressed; one
    escalating epoch makes it a false escalation. The indeterminate arm is
    defined for robustness but unreachable while verdicts are binary.
    """
    if not decisions:
        raise EmptyDecisions("aggregate_case requires at least one decision")
    if any(d.verdict is Verdict.ESCALATE for d in decisions):
        return OutcomeKind.FALSE_ESCALATION
    if all(d.verdict is Verdict.SUPPRESS for d in decisions):
        return OutcomeKind.TRUE_SUPPRESSION
    return OutcomeKind.INDETERMINATE


def wilson_interval(successes: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    For successes == n the lower bound reduces to the closed form
    n / (n + z^2). Bounds are fractions in [0, 1].
    """
    if n < 1 or not 0 <= successes <= n:
        raise InvalidCounts(f"require 0 <= successes <= n, n >= 1; got {successes}/{n}")
    p = successes / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2 * n)) / denom
    margin = (z / denom) * sqrt(p * (1 - p) / n + z2 / (4 * n * n))
    return (max(0.0, center - margin), min(1.0, center + margin))


@dataclass(frozen=True)
class CaseOutcome:
    case_id: str
    patient_id: int
    domain_class: DomainClass
    outcome: OutcomeKind
    epoch_decisions: tuple[SystemDecision, ...]
    failure_device_status: DeviceStatus | None


@dataclass(frozen=True)
class DomainRow:
    n: int
    ts: int
    fe: int

    @property
    def tsr(self) -> float:
        return self.ts / self.n if self.n else 0.0

    @property
    def fer(self) -> float:
        return self.fe / self.n if self.n else 0.0


@dataclass(frozen=True)
class EvaluationReport:
    ts_count: int
    fe_count: int
    ind_count: int
    cases: int
    epochs: int
    per_domain: Mapping[DomainClass, DomainRow]
    wilson_cis: Mapping[DomainClass, tuple[float, float]]
    failure_modes: Mapping[DeviceStatus, int]
    case_outcomes: tuple[CaseOutcome, ...]

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
                for cls, (lo, hi) in self.wilson_cis.items()
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
    """Read a dataset directory; a repeated (patient, minute) epoch is rejected."""
    base = Path(dataset_dir)
    with open(base / "epochs.jsonl", encoding="utf-8") as fp:
        epochs = read_epochs_jsonl(fp)
    seen: set[tuple[int, datetime]] = set()
    for epoch in epochs:
        key = (epoch.patient_id, epoch.timestamp)
        if key in seen:
            raise InvariantViolation(
                f"duplicate epoch for patient {epoch.patient_id} "
                f"at {format_timestamp(epoch.timestamp)}"
            )
        seen.add(key)
    with open(base / "contexts.json", encoding="utf-8") as fp:
        contexts = read_contexts_json(fp)
    return Dataset(epochs=tuple(epochs), contexts=contexts)


def _run_case(
    case_id: str,
    domain_class: DomainClass,
    patient_id: int,
    epochs: Sequence[Epoch],
    context: PatientContext,
    sentinel_cfg: SentinelConfig,
    specialist_cfg: SpecialistConfig,
    meta_cfg: MetaConfig,
) -> CaseOutcome:
    """Process one patient's epochs serially, oldest first."""
    bundle = SourceBundle(
        ehr=context,
        conversation_log=(),
        vitals_stream=tuple(sorted(epochs, key=lambda e: e.timestamp)),
        patient_reported=(),
    )
    history = DecisionHistory()
    decisions: list[SystemDecision] = []
    failure_status: DeviceStatus | None = None
    for epoch in bundle.vitals_stream:
        record = assemble(bundle, epoch)
        view = project_for_specialists(record)
        alert = detect(view, sentinel_cfg)
        if alert is None:
            continue
        routing = route(alert, view)
        claims = claims_for(alert, view, routing, specialist_cfg)
        decision = resolve(claims, routing, alert, history, meta_cfg)
        decisions.append(decision)
        if failure_status is None and decision.verdict is Verdict.ESCALATE:
            failure_status = epoch.device_status
    # A case whose epochs never alert has nothing to suppress or escalate;
    # no alert reached anyone, which is the suppression goal trivially met.
    # Unreachable on the shipped catalogue, where every epoch alerts.
    outcome = (
        aggregate_case(decisions) if decisions else OutcomeKind.TRUE_SUPPRESSION
    )
    return CaseOutcome(
        case_id=case_id,
        patient_id=patient_id,
        domain_class=domain_class,
        outcome=outcome,
        epoch_decisions=tuple(decisions),
        failure_device_status=failure_status,
    )


def evaluate(
    dataset: Dataset,
    taxonomy: Sequence[TaxonomyEntry],
    sentinel_cfg: SentinelConfig | None = None,
    specialist_cfg: SpecialistConfig | None = None,
    meta_cfg: MetaConfig | None = None,
) -> EvaluationReport:
    """Evaluate a dataset against its taxonomy.

    Cases are attributed to taxonomy entries by patient id, assigned in
    catalogue order at generation time. Cases run one after another in
    patient-id order, each with its own decision history, so report
    metrics do not depend on input file order.
    """
    sentinel_cfg = sentinel_cfg or SentinelConfig()
    specialist_cfg = specialist_cfg or SpecialistConfig()
    meta_cfg = meta_cfg or MetaConfig()

    first_pid = PATIENT_ID_RANGE[0]
    expected_pids = {first_pid + i: entry for i, entry in enumerate(taxonomy)}

    by_patient: dict[int, list[Epoch]] = {}
    for epoch in dataset.epochs:
        by_patient.setdefault(epoch.patient_id, []).append(epoch)

    if set(by_patient) != set(expected_pids):
        missing = sorted(set(expected_pids) - set(by_patient))
        extra = sorted(set(by_patient) - set(expected_pids))
        raise DatasetTaxonomyMismatch(
            f"dataset/taxonomy patients differ (missing={missing[:5]}, extra={extra[:5]})"
        )
    if set(dataset.contexts) != set(expected_pids):
        raise DatasetTaxonomyMismatch("context sidecar does not cover the taxonomy patients")

    outcomes = tuple(
        _run_case(
            entry.case_id,
            entry.domain_class,
            pid,
            by_patient[pid],
            dataset.contexts[pid],
            sentinel_cfg,
            specialist_cfg,
            meta_cfg,
        )
        for pid, entry in sorted(expected_pids.items())
    )

    counts = Counter(outcome.outcome for outcome in outcomes)
    per_domain_counts: dict[DomainClass, dict[str, int]] = {
        cls: {"n": 0, "ts": 0, "fe": 0} for cls in DomainClass
    }
    failure_modes: Counter[DeviceStatus] = Counter()
    for outcome in outcomes:
        row = per_domain_counts[outcome.domain_class]
        row["n"] += 1
        if outcome.outcome is OutcomeKind.TRUE_SUPPRESSION:
            row["ts"] += 1
        elif outcome.outcome is OutcomeKind.FALSE_ESCALATION:
            row["fe"] += 1
            if outcome.failure_device_status is not None:
                failure_modes[outcome.failure_device_status] += 1

    per_domain = {
        cls: DomainRow(**vals) for cls, vals in per_domain_counts.items() if vals["n"]
    }
    wilson_cis = {cls: wilson_interval(row.ts, row.n) for cls, row in per_domain.items()}

    return EvaluationReport(
        ts_count=counts[OutcomeKind.TRUE_SUPPRESSION],
        fe_count=counts[OutcomeKind.FALSE_ESCALATION],
        ind_count=counts[OutcomeKind.INDETERMINATE],
        cases=len(outcomes),
        epochs=len(dataset.epochs),
        per_domain=per_domain,
        wilson_cis=wilson_cis,
        failure_modes=dict(
            sorted(failure_modes.items(), key=lambda kv: (-kv[1], kv[0].value))
        ),
        case_outcomes=outcomes,
    )


# Expected metrics for the shipped catalogue under default configuration.
GOLDEN_OVERALL = {"ts_count": 82, "fe_count": 16, "ind_count": 0}
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
    overall = {
        "ts_count": report.ts_count,
        "fe_count": report.fe_count,
        "ind_count": report.ind_count,
    }
    if overall != GOLDEN_OVERALL:
        problems.append(f"overall {overall} != {GOLDEN_OVERALL}")
    for cls, (n, ts, fe) in GOLDEN_PER_DOMAIN.items():
        row = report.per_domain.get(cls)
        got = (row.n, row.ts, row.fe) if row else None
        if got != (n, ts, fe):
            problems.append(f"{cls.value}: {got} != {(n, ts, fe)}")
    if dict(report.failure_modes) != GOLDEN_FAILURE_MODES:
        problems.append(
            f"failure modes {{{', '.join(f'{k.value}: {v}' for k, v in report.failure_modes.items())}}}"
            f" != expected"
        )
    return problems


def _pct(x: float) -> str:
    return f"{100 * x:.1f}%"


def render_report_text(report: EvaluationReport | Mapping[str, Any]) -> str:
    """Human-readable tables: overall, per-class, Wilson CIs, failure modes.

    Accepts either a live report or its serialized dict, so a stored
    report.json re-renders to identical text.
    """
    data = report.to_json_dict() if isinstance(report, EvaluationReport) else report
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
        ci = data["wilson_cis"].get(cls.value)
        if row is None or ci is None:
            continue
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
    for status, count in data["failure_modes"].items():
        lines.append(f"  {status:<24}{count:>6}")
    if not data["failure_modes"]:
        lines.append("  (no false escalations)")
    return "\n".join(lines) + "\n"


def write_decision_log(report: EvaluationReport, path: str | Path) -> None:
    """Emit every epoch decision as JSON Lines, in case then epoch order."""
    encode = COMPACT_JSON.encode
    with open(path, "w", encoding="utf-8") as fp:
        for case in report.case_outcomes:
            for decision in case.epoch_decisions:
                line = {
                    "case_id": case.case_id,
                    "patient_id": case.patient_id,
                    "decision": decision.to_dict(),
                }
                fp.write(encode(line) + "\n")


# The fields of report.json that render_report_text reads, all numbers.
_REPORT_FIELDS = {
    "overall": ("ts_count", "fe_count", "ind_count", "tsr", "fer", "indr"),
    "totals": ("cases", "epochs", "mean_epochs_per_case"),
    "per_domain": ("n", "ts", "fe", "tsr", "fer"),
    "wilson_cis": ("lower", "upper"),
}


def _check_object(value: Any, where: str) -> None:
    if not isinstance(value, dict):
        raise InvariantViolation(f"report payload {where!r} must be a JSON object")


def _check_numbers(row: Any, names: Sequence[str], where: str) -> None:
    _check_object(row, where)
    for name in names:
        value = row.get(name)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise InvariantViolation(
                f"report payload {where}.{name} must be a number, got {value!r}"
            )


def validate_report_payload(data: Mapping[str, Any]) -> dict[str, Any]:
    """Schema check for a stored report.json loaded for re-rendering.

    Every section and row the text report reads must be present and typed:
    the overall and totals numbers, each class row's counts and rates, each
    interval's bounds, and each failure mode's integer count.
    """
    if not isinstance(data, dict):
        raise InvariantViolation("report payload must be a JSON object")
    for key in ("overall", "per_domain", "wilson_cis", "failure_modes", "totals"):
        if key not in data:
            raise InvariantViolation(f"report payload missing {key!r}")
        _check_object(data[key], key)
    for key in ("overall", "totals"):
        _check_numbers(data[key], _REPORT_FIELDS[key], key)
    for key in ("per_domain", "wilson_cis"):
        for cls, row in data[key].items():
            parse_enum(DomainClass, cls)
            _check_numbers(row, _REPORT_FIELDS[key], f"{key}.{cls}")
    for status, count in data["failure_modes"].items():
        parse_enum(DeviceStatus, status)
        if isinstance(count, bool) or not isinstance(count, int):
            raise InvariantViolation(
                f"report payload failure_modes.{status} must be an integer, got {count!r}"
            )
    return dict(data)
