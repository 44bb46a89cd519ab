"""Shared builders for pipeline tests.

Records are built through the real assembly path so tag assignment and
projection behave exactly as in production; tests that need a tampered
record (e.g. an inferred-tagged field) rebuild it field by field.
"""

from __future__ import annotations

from datetime import datetime, timedelta, timezone
from typing import Any, Iterable, Sequence

import numpy as np

from alertsift.assembly import (
    SourceBundle,
    SpecialistView,
    assemble,
    project_for_specialists,
)
from alertsift.evaluate import CaseOutcome, OutcomeKind, aggregate_case
from alertsift.meta import DecisionHistory, MetaConfig, resolve
from alertsift.model import (
    AccelLevel,
    AgentDomain,
    AlertType,
    CandidateAlert,
    DeviceStatus,
    DomainClass,
    Epoch,
    InvariantViolation,
    PatientContext,
    Position,
    ProvenanceTag,
    SelfReportedActivity,
    SystemDecision,
    TaggedValue,
    Verdict,
    VeritasRecord,
    format_timestamp,
)
from alertsift.routing import ARTEFACT_STATUSES, RoutingDecision, route
from alertsift.sentinel import SentinelConfig, detect
from alertsift.specialists import SpecialistConfig, claims_for
from alertsift.synthgen import (
    MAX_REJECTIONS,
    NOISE_SIGMA,
    CategoricalSpec,
    ContinuousSpec,
    TaxonomyEntry,
    _substream,
)

DAYTIME = datetime(2022, 6, 15, 14, 0, tzinfo=timezone.utc)
NIGHT = datetime(2022, 6, 15, 2, 30, tzinfo=timezone.utc)
PATIENT = 3847291

# Epoch fields whose provenance must be device_verified after assembly.
DEVICE_STREAM_FIELDS = ("spo2", "hr", "accel_level", "device_status")

# The seed-42 outputs, pinned byte for byte (acceptance criterion 6). A change
# that moves any of these digests must say why in CHANGES.md and update them.
SEED_42_SHA256 = {
    "manifest.json": "f73541a9626e2cbbc4a4fe38f1e6730e27d1c8c11b249ff29735a4c8596c2724",
    "epochs.jsonl": "bfca5c0f8e0a10e3ae6828939166a0cb128451d6c9d7701f1285dcbd128d3783",
    "contexts.json": "7bcc9b14888769b8c7e1ad887fd53894fa59ff92c569ba12c670c9a04caf72a4",
    "report.json": "39428218c8a791b5e20468697ec8a2b3bd8894eae28d6b281b2ef80c2df99889",
    "decisions.jsonl": "758cb992e50fc7c199fec6f0db2f9cc6eb3284a2456c3e22fcadc07feb43f720",
    "report.txt": "153be463479429a9bf32269de1d0770c50f45c501a305fa7429f6b4ccc10aaf8",
}


def make_epoch(
    ts: datetime = DAYTIME,
    patient_id: int = PATIENT,
    spo2: float = 97.0,
    hr: float = 72.0,
    accel: AccelLevel = AccelLevel.STILL,
    status: DeviceStatus = DeviceStatus.OK,
    probe_cover: bool = False,
    position: Position = Position.UPRIGHT,
    activity: SelfReportedActivity | None = None,
    ambient: str | None = None,
) -> Epoch:
    return Epoch(
        patient_id=patient_id,
        timestamp=ts,
        spo2=spo2,
        hr=hr,
        accel_level=accel,
        device_status=status,
        probe_cover_present=probe_cover,
        position=position,
        self_reported_activity=activity,
        ambient_condition=ambient,
    )


def epoch_row(epoch: Epoch) -> dict[str, Any]:
    """An epoch's dataset row as a dict, in field order: the reference that
    ``epoch_line`` writes and ``Epoch.from_dict`` reads."""
    return {
        "patient_id": epoch.patient_id,
        "timestamp": format_timestamp(epoch.timestamp),
        "spo2": epoch.spo2,
        "hr": epoch.hr,
        "accel_level": epoch.accel_level.value,
        "device_status": epoch.device_status.value,
        "probe_cover_present": epoch.probe_cover_present,
        "position": epoch.position.value,
        "self_reported_activity": (
            epoch.self_reported_activity.value if epoch.self_reported_activity else None
        ),
        "ambient_condition": epoch.ambient_condition,
    }


def make_context(
    patient_id: int = PATIENT,
    copd: bool = False,
    baseline_spo2: float | None = None,
    baseline_hr: float | None = None,
    med: bool = False,
) -> PatientContext:
    return PatientContext(
        patient_id=patient_id,
        copd_documented=copd,
        baseline_spo2=baseline_spo2,
        baseline_hr=baseline_hr,
        rate_limiting_medication=med,
    )


def make_bundle(epoch: Epoch, context: PatientContext | None = None) -> SourceBundle:
    return SourceBundle(
        ehr=context or make_context(patient_id=epoch.patient_id), vitals_stream=(epoch,)
    )


def make_record(epoch: Epoch, context: PatientContext | None = None) -> VeritasRecord:
    return assemble(make_bundle(epoch, context), epoch)


def make_view(epoch: Epoch, context: PatientContext | None = None) -> SpecialistView:
    return project_for_specialists(make_record(epoch, context))


def all_tagged(record: VeritasRecord) -> Iterable[tuple[str, TaggedValue]]:
    """Every (name, tagged value) of a record: epoch fields, then context fields."""
    yield from record.epoch_fields.items()
    yield from record.context_fields.items()


def field_names(view: SpecialistView) -> frozenset[str]:
    """The names of every field a view exposes."""
    return frozenset(view.epoch_fields) | frozenset(view.context_fields)


def retagged(tv: TaggedValue, provenance: ProvenanceTag) -> TaggedValue:
    """A copy of ``tv`` with a different provenance tag (tags never mutate)."""
    return TaggedValue(tv.value, provenance, tv.source_id, tv.observed_at)


def retag_field(record: VeritasRecord, name: str, tag: ProvenanceTag) -> VeritasRecord:
    """Rebuild a record with one epoch field's provenance replaced."""
    epoch_fields = dict(record.epoch_fields)
    epoch_fields[name] = retagged(epoch_fields[name], tag)
    return VeritasRecord(
        patient_id=record.patient_id,
        timestamp=record.timestamp,
        epoch_fields=epoch_fields,
        context_fields=record.context_fields,
    )


def detect_and_route(epoch: Epoch, context: PatientContext | None = None):
    """Run the front half of the pipeline for one epoch."""
    cfg = SentinelConfig()
    view = make_view(epoch, context)
    alert = detect(view, cfg)
    routing = route(alert, view) if alert is not None else None
    return view, alert, routing


def routed_via_last_resort(alert: CandidateAlert, decision: RoutingDecision) -> bool:
    """True when probe_integrity holds the alert only as the fallback target.

    In that situation no specialist has positive provenance context for the
    alert (no artefact-class status earned the probe route), which is what
    separates clear domain ownership from a hypothesis of last resort.
    """
    if decision.targets != frozenset({AgentDomain.PROBE_INTEGRITY}):
        return False
    # signal_quality fires on the projected device status, so its trigger
    # is that status.
    status = alert.triggering_values.get(AlertType.SIGNAL_QUALITY)
    earned = status is not None and status.value in ARTEFACT_STATUSES
    return not earned


def make_entry(**overrides) -> TaxonomyEntry:
    """A six-epoch daytime COPD entry; keyword arguments replace its fields."""
    base = dict(
        case_id="TOY-001",
        domain_class=DomainClass.COPD,
        epoch_count=6,
        continuous_params={
            "spo2": ContinuousSpec(88.0, 0.5, 86.0, 90.0),
            "hr": ContinuousSpec(74.0, 4.0, 58.0, 92.0),
        },
        categorical_params={
            "accel_level": CategoricalSpec(fixed="still"),
            "device_status": CategoricalSpec(fixed="ok"),
            "position": CategoricalSpec(choices=("supine", "lateral")),
            "self_reported_activity": CategoricalSpec(fixed=None),
            "probe_cover_present": CategoricalSpec(fixed=False),
            "ambient_condition": CategoricalSpec(fixed=None),
        },
        context={
            "copd_documented": True,
            "baseline_spo2": 89.0,
            "baseline_hr": None,
            "rate_limiting_medication": False,
        },
        nocturnal=False,
        expected_outcome_note="toy",
    )
    base.update(overrides)
    return TaxonomyEntry(**base)


def sample_truncated_gaussian(
    mu: float, sigma: float, lower: float, upper: float, rng: np.random.Generator
) -> float:
    """Draw from N(mu, sigma^2) conditioned on [lower, upper].

    Rejection sampling with a deterministic fallback: after 1000 rejected
    draws the last draw is clamped into the interval, keeping generation
    total even under extreme truncation. The reference for the draw that
    ``generate_case`` runs inline.
    """
    if not lower < upper:
        raise InvariantViolation(f"require lower < upper, got [{lower},{upper}]")
    if sigma <= 0:
        raise InvariantViolation(f"sigma must be positive, got {sigma}")
    x = mu
    for _ in range(MAX_REJECTIONS):
        x = rng.normal(mu, sigma)
        if lower <= x <= upper:
            return float(x)
    return float(min(max(x, lower), upper))


def draw_continuous(spec: ContinuousSpec, rng: np.random.Generator) -> float:
    """One generated continuous value: a truncated draw, noise, the clamp
    and two decimal places, read from the spec as it was built."""
    value = sample_truncated_gaussian(spec.mu, spec.sigma, spec.lower, spec.upper, rng)
    value += rng.normal(0.0, NOISE_SIGMA)
    return round(float(min(max(value, spec.lower), spec.upper)), 2)


_ENUM_FIELDS = {
    "accel_level": AccelLevel,
    "device_status": DeviceStatus,
    "position": Position,
    "self_reported_activity": SelfReportedActivity,
}


def reference_generate_case(
    entry: TaxonomyEntry, patient_id: int, start_time: datetime, seed: int
) -> tuple[list[Epoch], PatientContext]:
    """``generate_case`` as a plain per-epoch loop: every epoch re-sorts the
    field names, draws each continuous field through ``draw_continuous`` and
    parses each categorical value it draws. The draw plan must give the same
    epochs, draw for draw and byte for byte."""
    rng = _substream(seed, f"case:{entry.case_id}")
    context = PatientContext(
        patient_id=patient_id,
        copd_documented=bool(entry.context.get("copd_documented", False)),
        baseline_spo2=entry.context.get("baseline_spo2"),
        baseline_hr=entry.context.get("baseline_hr"),
        rate_limiting_medication=bool(entry.context.get("rate_limiting_medication", False)),
    )
    epochs = []
    for i in range(entry.epoch_count):
        values = {}
        for name in sorted(entry.continuous_params):
            values[name] = draw_continuous(entry.continuous_params[name], rng)
        for name in sorted(entry.categorical_params):
            spec = entry.categorical_params[name]
            if spec.choices:
                raw = spec.choices[int(rng.integers(len(spec.choices)))]
            else:
                raw = spec.fixed
            if raw is not None and name in _ENUM_FIELDS:
                raw = _ENUM_FIELDS[name](raw)
            values[name] = raw
        epochs.append(
            Epoch(
                patient_id=patient_id,
                timestamp=start_time + timedelta(minutes=i),
                spo2=values.get("spo2", 97.0),
                hr=values.get("hr", 72.0),
                accel_level=values.get("accel_level") or AccelLevel.STILL,
                device_status=values.get("device_status") or DeviceStatus.OK,
                probe_cover_present=bool(values.get("probe_cover_present", False)),
                position=values.get("position") or Position.UPRIGHT,
                self_reported_activity=values.get("self_reported_activity"),
                ambient_condition=values.get("ambient_condition"),
            )
        )
    return epochs, context


def reference_run_case(
    case_id: str,
    domain_class: DomainClass,
    patient_id: int,
    epochs: Sequence[Epoch],
    context: PatientContext,
    sentinel_cfg: SentinelConfig,
    specialist_cfg: SpecialistConfig,
    meta_cfg: MetaConfig,
) -> CaseOutcome:
    """``evaluate._run_case`` with no quiet-epoch gate: every epoch is
    assembled, projected and detected, so the walk's outcome is what the
    pipeline's layers give with nothing skipped."""
    bundle = SourceBundle(
        ehr=context, vitals_stream=tuple(sorted(epochs, key=lambda e: e.timestamp))
    )
    history = DecisionHistory()
    decisions: list[SystemDecision] = []
    failure_status: DeviceStatus | None = None
    previous_at = None
    for epoch in bundle.vitals_stream:
        if epoch.timestamp == previous_at:
            raise InvariantViolation(
                f"duplicate epoch for patient {patient_id} at {format_timestamp(previous_at)}"
            )
        previous_at = epoch.timestamp
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
    outcome = aggregate_case(decisions) if decisions else OutcomeKind.TRUE_SUPPRESSION
    return CaseOutcome(
        case_id=case_id,
        patient_id=patient_id,
        domain_class=domain_class,
        outcome=outcome,
        epoch_decisions=tuple(decisions),
        failure_device_status=failure_status,
    )
