"""Shared builders for pipeline tests.

Records are built through the real assembly path so tag assignment and
projection behave exactly as in production; tests that need a tampered
record (e.g. an inferred-tagged field) rebuild it field by field.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import random
from datetime import datetime, time, timedelta, timezone
from typing import Any, Iterable, NamedTuple, Sequence

from alertsift.assembly import (
    ALLOWED_SPECIALIST_PROVENANCE,
    SourceBundle,
    SpecialistView,
    assemble,
    project_for_specialists,
)
from alertsift.evaluate import CaseOutcome, Dataset, ManifestCase, OutcomeKind
from alertsift.meta import MetaConfig, resolve, weigh
from alertsift.model import (
    DOMAIN_ORDER,
    PATIENT_ID_RANGE,
    AccelLevel,
    AgentClaim,
    AgentDomain,
    AlertType,
    DeviceStatus,
    DomainClass,
    Epoch,
    InvariantViolation,
    PatientContext,
    Position,
    ProvenanceTag,
    Recommendation,
    ResolutionPath,
    SelfReportedActivity,
    SystemDecision,
    TaggedValue,
    Verdict,
    VeritasRecord,
)
from alertsift.routing import (
    ARTEFACT_STATUSES,
    RoutingDecision,
    in_nocturnal_window,
    route,
)
from alertsift.sentinel import SentinelConfig, detect
from alertsift.specialists import (
    DEFAULT_NOCTURNAL_BASELINE_SPO2,
    SpecialistConfig,
    evaluate_activity_integrity,
    evaluate_bradycardia,
    evaluate_copd,
    evaluate_nocturnal,
    evaluate_probe_integrity,
    evaluate_tachycardia,
)
from alertsift.synthgen import (
    MAX_REJECTIONS,
    NOISE_SIGMA,
    CategoricalSpec,
    ContinuousSpec,
    DATA_WINDOW,
    TaxonomyEntry,
)

DAYTIME = datetime(2022, 6, 15, 14, 0, tzinfo=timezone.utc)
NIGHT = datetime(2022, 6, 15, 2, 30, tzinfo=timezone.utc)
PATIENT = 3847291

# Epoch fields whose provenance must be device_verified after assembly.
DEVICE_STREAM_FIELDS = ("spo2", "hr", "accel_level", "device_status")

# The seed-42 outputs, pinned byte for byte (acceptance criterion 6). A change
# that moves any of these digests must say why in CHANGES.md and update them.
SEED_42_SHA256 = {
    "manifest.json": "c72d70814da9755580dc66fd3038b088f3491a35c95dacf6405aaea81d3a37a5",
    "epochs.jsonl": "d66d683291a125bb2501a6a669ba9df72bf8c9772e5b411e6dbf4472c6871e8b",
    "contexts.json": "7bcc9b14888769b8c7e1ad887fd53894fa59ff92c569ba12c670c9a04caf72a4",
    "report.json": "39428218c8a791b5e20468697ec8a2b3bd8894eae28d6b281b2ef80c2df99889",
    "decisions.jsonl": "3bdaa6996b21f657c082a4e5cdd1c670a6f2e339d3441173a63714d07253f68f",
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


def reference_format_timestamp(ts: datetime) -> str:
    """``format_timestamp`` as %-formatting of the five UTC fields, the year
    padded to four digits (strftime leaves a year below 1000 unpadded)."""
    u = ts.astimezone(timezone.utc)
    return "%04d-%02d-%02dT%02d:%02d:00Z" % (u.year, u.month, u.day, u.hour, u.minute)


def epoch_row(epoch: Epoch) -> dict[str, Any]:
    """An epoch's dataset row as a dict, in field order: the reference that
    ``epoch_line`` writes and ``Epoch.from_dict`` reads."""
    return {
        "patient_id": epoch.patient_id,
        "timestamp": reference_format_timestamp(epoch.timestamp),
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
    """Every (name, tagged value) of a record, in the record's order."""
    return record.fields.items()


def field_names(view: SpecialistView) -> frozenset[str]:
    """The names of every field a view exposes."""
    return frozenset(view.fields)


def retagged(tv: TaggedValue, provenance: ProvenanceTag) -> TaggedValue:
    """A copy of ``tv`` with a different provenance tag (tags never mutate)."""
    return TaggedValue(tv.value, provenance)


def retag_field(record: VeritasRecord, name: str, tag: ProvenanceTag) -> VeritasRecord:
    """Rebuild a record with one field's provenance replaced."""
    return VeritasRecord(
        record.patient_id,
        record.timestamp,
        {**record.fields, name: retagged(record.fields[name], tag)},
    )


def detect_and_route(epoch: Epoch, context: PatientContext | None = None):
    """Run the front half of the pipeline for one epoch: its view, the alert
    types detection finds on it (None for none) and, for an alert, its
    routing."""
    view = make_view(epoch, context)
    alert_types = detect(view, SentinelConfig())
    routing = route(alert_types, view) if alert_types is not None else None
    return view, alert_types, routing


def routed_via_last_resort(
    alert_types: frozenset[AlertType], view: SpecialistView, decision: RoutingDecision
) -> bool:
    """True when probe_integrity holds the alert only as the fallback target.

    In that situation no specialist has positive provenance context for the
    alert (no artefact-class status earned the probe route), which is what
    separates clear domain ownership from a hypothesis of last resort.
    """
    if decision.targets != frozenset({AgentDomain.PROBE_INTEGRITY}):
        return False
    earned = (
        AlertType.SIGNAL_QUALITY in alert_types
        and view.value("device_status") in ARTEFACT_STATUSES
    )
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


def case_stream(seed: int, case_id: str) -> random.Random:
    """A case's sub-stream as README states it: a ``random.Random`` seeded
    with the first eight bytes, big-endian, of the sha256 of
    ``"{seed}:case:{case_id}"``."""
    digest = hashlib.sha256(f"{seed}:case:{case_id}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def reference_normals(rng: random.Random, n: int, mu: float, sigma: float) -> list[float]:
    """A block of ``n`` normals as README states it, one pair at a time: two
    uniforms ``u`` then ``v`` give ``s = sqrt(-2 sigma^2 log(1 - u))`` and
    the angle ``2 pi v``, then ``mu + s cos`` and ``mu + s sin`` of it; an
    odd block drops the last value of its last pair."""
    values = []
    while len(values) < n:
        u = rng.random()
        v = rng.random()
        s = math.sqrt(-2.0 * sigma * sigma * math.log(1.0 - u))
        angle = 2.0 * math.pi * v
        values.append(mu + s * math.cos(angle))
        values.append(mu + s * math.sin(angle))
    return values[:n]


def sample_truncated_gaussian(
    mu: float, sigma: float, lower: float, upper: float, rng: random.Random, n: int
) -> list[float]:
    """``n`` draws from N(mu, sigma^2) conditioned on [lower, upper], by rounds.

    The first round is one block of ``n`` draws. Each later round re-draws
    every value still outside the interval, all of them by one block,
    assigned in index order; after ``MAX_REJECTIONS`` rounds in all, a value
    still outside is clamped into the interval, keeping generation total
    even under extreme truncation. The plain reference for the draw that
    ``generate_case`` runs, written from README: the blocks from
    ``reference_normals``, the rounds and the clamp one value at a time.
    """
    if not lower < upper:
        raise InvariantViolation(f"require lower < upper, got [{lower},{upper}]")
    if sigma <= 0:
        raise InvariantViolation(f"sigma must be positive, got {sigma}")
    values = reference_normals(rng, n, mu, sigma)
    for _ in range(MAX_REJECTIONS - 1):
        misses = [i for i in range(n) if not lower <= values[i] <= upper]
        if not misses:
            return values
        for i, x in zip(misses, reference_normals(rng, len(misses), mu, sigma)):
            values[i] = x
    return [min(max(x, lower), upper) for x in values]


_ENUM_FIELDS = {
    "accel_level": AccelLevel,
    "device_status": DeviceStatus,
    "position": Position,
    "self_reported_activity": SelfReportedActivity,
}


def reference_generate_case(
    entry: TaxonomyEntry, patient_id: int, start_time: datetime | None, seed: int
) -> tuple[list[Epoch], PatientContext]:
    """``generate_case`` as a plain loop over the case's sub-stream, in the
    spec's order: the start (the day, from those on which the latest start
    of the entry's clock, 19:59 by day or 04:49 by night, still ends the
    case before September 2022, then the hour and the minute), used when
    ``start_time`` is None; each continuous field's truncated block, noise
    block, clamp and two decimal places, in sorted name order; then each
    choice field's index block, in sorted name order, each value parsed as
    it is drawn. The draw plan must give the same epochs, draw for draw and
    byte for byte."""
    rng = case_stream(seed, entry.case_id)
    window = (DATA_WINDOW[1] - DATA_WINDOW[0]) // timedelta(minutes=1)
    hours, minutes = ((0, 5), 50) if entry.nocturnal else ((7, 20), 60)
    latest = (hours[1] - 1) * 60 + minutes - 1
    days = math.ceil((window - latest - entry.epoch_count + 1) / (24 * 60))
    day = int(rng.random() * days)
    hour = hours[0] + int(rng.random() * (hours[1] - hours[0]))
    minute = int(rng.random() * minutes)
    if start_time is None:
        start_time = DATA_WINDOW[0] + timedelta(days=day, hours=hour, minutes=minute)
    context = PatientContext(
        patient_id=patient_id,
        copd_documented=bool(entry.context.get("copd_documented", False)),
        baseline_spo2=entry.context.get("baseline_spo2"),
        baseline_hr=entry.context.get("baseline_hr"),
        rate_limiting_medication=bool(entry.context.get("rate_limiting_medication", False)),
    )
    n = entry.epoch_count
    columns: dict[str, list[Any]] = {}
    for name in sorted(entry.continuous_params):
        spec = entry.continuous_params[name]
        lower, upper = float(spec.lower), float(spec.upper)
        values = sample_truncated_gaussian(spec.mu, spec.sigma, lower, upper, rng, n)
        noise = reference_normals(rng, n, 0.0, NOISE_SIGMA)
        columns[name] = [round(min(max(x + e, lower), upper), 2) for x, e in zip(values, noise)]
    for name in sorted(entry.categorical_params):
        spec = entry.categorical_params[name]
        if spec.choices:
            drawn = [spec.choices[int(rng.random() * len(spec.choices))] for _ in range(n)]
        else:
            drawn = [spec.fixed] * n
        if name in _ENUM_FIELDS:
            drawn = [None if raw is None else _ENUM_FIELDS[name](raw) for raw in drawn]
        columns[name] = drawn
    epochs = []
    for i in range(n):
        values = {name: column[i] for name, column in columns.items()}
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


def reference_case_digest(epochs: Sequence[Epoch], context: PatientContext) -> str:
    """A manifest row's ``sha256``: the case's epochs as epochs.jsonl holds
    them, each a compact JSON line in field order, then its context as a
    sorted-key compact JSON line with no newline."""
    lines = [json.dumps(epoch_row(e), separators=(",", ":")) + "\n" for e in epochs]
    lines.append(json.dumps(context.to_dict(), sort_keys=True, separators=(",", ":")))
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def reference_assemble(bundle: SourceBundle, epoch: Epoch) -> VeritasRecord:
    """The assembly the fast path must equal, built through the checked constructor.

    Tags follow the source, and the record carries the patient id and the
    epoch's time; the EHR fields are derived here from the context, not read
    from what the bundle built. The epoch's ``probe_cover_present`` and
    ``ambient_condition``, which no rule reads, are left out.
    """
    pid = bundle.ehr.patient_id
    if epoch.patient_id != pid:
        raise InvariantViolation(f"epoch patient {epoch.patient_id} != context patient {pid}")
    device, reported, ehr = (
        ProvenanceTag.DEVICE_VERIFIED, ProvenanceTag.PATIENT_REPORTED, ProvenanceTag.EHR_DERIVED
    )
    fields = {
        name: TaggedValue(getattr(epoch, name), device)
        for name in ("spo2", "hr", "accel_level", "device_status")
    }
    fields["position"] = TaggedValue(epoch.position, reported)
    if epoch.self_reported_activity is not None:
        fields["self_reported_activity"] = TaggedValue(epoch.self_reported_activity, reported)
    context = bundle.ehr
    fields["copd_documented"] = TaggedValue(context.copd_documented, ehr)
    fields["rate_limiting_medication"] = TaggedValue(context.rate_limiting_medication, ehr)
    for name in ("baseline_spo2", "baseline_hr"):
        if getattr(context, name) is not None:
            fields[name] = TaggedValue(getattr(context, name), ehr)
    return VeritasRecord(pid, epoch.timestamp, fields)


def oracle_targets(types, view):
    """Independent rendering of the routing rule list, for the alert types
    ``types`` found on ``view``."""
    status = view.value("device_status")
    accel = view.value("accel_level")
    reported = view.value("self_reported_activity")
    copd = view.value("copd_documented", default=False)
    physio = bool(
        types & {AlertType.LOW_SPO2, AlertType.HIGH_HR, AlertType.LOW_HR}
    )
    fired = []
    if AlertType.SIGNAL_QUALITY in types and status in (
        DeviceStatus.MOTION_ARTEFACT,
        DeviceStatus.PROBE_COVER,
        DeviceStatus.SYSTEM_FLAG,
    ):
        fired.append(AgentDomain.PROBE_INTEGRITY)
    if physio and (
        (accel is not None and accel != AccelLevel.STILL)
        or reported in (SelfReportedActivity.WALKING, SelfReportedActivity.EXERCISING)
    ):
        fired.append(AgentDomain.ACTIVITY_INTEGRITY)
    if AlertType.HIGH_HR in types:
        fired.append(AgentDomain.TACHYCARDIA)
    if AlertType.LOW_HR in types:
        fired.append(AgentDomain.BRADYCARDIA)
    if AlertType.LOW_SPO2 in types and copd:
        fired.append(AgentDomain.COPD)
    if physio and in_nocturnal_window(view.timestamp):
        fired.append(AgentDomain.NOCTURNAL)
    targets = set(fired) or {AgentDomain.PROBE_INTEGRITY}
    return targets, len(fired)


class ReferenceHistory:
    """The history as first written: keyed by patient, never pruned, each
    lookup scanning back from the newest entry until the horizon."""

    def __init__(self):
        self._by_patient = {}

    def record(self, patient_id, timestamp, alert_types, decision):
        entries = self._by_patient.setdefault(patient_id, [])
        if entries and timestamp <= entries[-1][0]:
            raise InvariantViolation("decision timestamps must strictly increase")
        entries.append((timestamp, alert_types, decision))

    def last_matching(self, patient_id, alert_types, now, window_minutes):
        horizon = now - timedelta(minutes=window_minutes)
        for timestamp, types, decision in reversed(self._by_patient.get(patient_id, [])):
            if timestamp < horizon:
                return None
            if types == alert_types:
                return decision
        return None


def reference_resolve(claims, routing, alert_types, view, history, cfg, patient_id):
    """resolve as first written: the expected order rebuilt from the targets
    on every call, a ``finish`` closure per call, and one ``sum`` per side.
    The straight-line resolve must give the same decision at every step.
    The alert is ``alert_types`` found on ``view``, which gives the time and
    the device status. ``history`` is a ReferenceHistory, so the pruned
    window is checked against the full history; ``patient_id`` keys it, as
    each run covers one patient. The claims are weighed before the debounce
    looks at a prior, because a prior suppression is replayed only over a
    suppressing weighing."""
    claimed = [c.domain for c in claims]
    expected = [d for d in DOMAIN_ORDER if d in routing.targets]
    if claimed != expected:
        raise InvariantViolation(
            f"claims must be one per routed target in domain order; got "
            f"{[d.value for d in claimed]}, expected {[d.value for d in expected]}"
        )

    now = view.timestamp
    status = view.value("device_status")

    def finish(verdict, path):
        decision = SystemDecision(
            verdict=verdict,
            contributing_claims=claims,
            resolution_path=path,
            decided_at=now,
        )
        history.record(patient_id, now, alert_types, decision)
        return decision

    def weighed():
        if len(claims) == 1 and claims[0].recommendation is not Recommendation.INDETERMINATE:
            verdict = (
                Verdict.SUPPRESS
                if claims[0].recommendation is Recommendation.SUPPRESS
                else Verdict.ESCALATE
            )
            return verdict, ResolutionPath.SINGLE_DOMAIN

        def score(side):
            return sum(
                cfg.weight(c.domain) * c.confidence for c in claims if c.recommendation is side
            )

        suppress_score = score(Recommendation.SUPPRESS)
        escalate_score = score(Recommendation.ESCALATE)
        if suppress_score - escalate_score >= cfg.resolution_margin:
            return Verdict.SUPPRESS, ResolutionPath.WEIGHTED_AGGREGATION
        if escalate_score - suppress_score >= cfg.resolution_margin:
            return Verdict.ESCALATE, ResolutionPath.WEIGHTED_AGGREGATION
        return Verdict.ESCALATE, ResolutionPath.AMBIGUITY_DEFAULT

    verdict, path = weighed()
    if status is not DeviceStatus.DUPLICATE_ALERT:
        prior = history.last_matching(patient_id, alert_types, now, cfg.cooldown_window_minutes)
        escalating = any(c.recommendation is Recommendation.ESCALATE for c in claims)
        # A prior escalation holds the alarm; a prior suppression is
        # replayed only over a suppressing weighing with no escalate claim.
        if prior is not None and (
            prior.verdict is Verdict.ESCALATE
            or (verdict is Verdict.SUPPRESS and not escalating)
        ):
            return finish(prior.verdict, ResolutionPath.DEBOUNCED)
    return finish(verdict, path)


def resolve_alert(
    claims: tuple[AgentClaim, ...],
    routing: RoutingDecision,
    alert_types: frozenset[AlertType],
    view: SpecialistView,
    history: dict[frozenset[AlertType], SystemDecision],
    cfg: MetaConfig,
) -> SystemDecision:
    """``weigh`` then ``resolve`` for the alert types found on ``view``, with
    the view's time and whether its device status is duplicate_alert, as
    ``_run_case`` reads them from the epoch."""
    duplicate = view.value("device_status") is DeviceStatus.DUPLICATE_ALERT
    weighing = weigh(claims, routing, cfg)
    return resolve(claims, weighing, alert_types, view.timestamp, duplicate, history, cfg)


def reference_project(record: VeritasRecord) -> SpecialistView:
    """The projection as a plain filter: every field whose tag is allowed,
    always copied."""
    allowed = ALLOWED_SPECIALIST_PROVENANCE
    return SpecialistView(
        record.timestamp, {k: tv for k, tv in record.fields.items() if tv.provenance in allowed}
    )


def reference_detect(view: SpecialistView, cfg: SentinelConfig) -> frozenset[AlertType] | None:
    """Detection as README's layer 2 states it: four strict comparisons,
    each made only when its field is in the view. low_spo2 when SpO2 is
    below its threshold, high_hr and low_hr when HR is past either bound,
    signal_quality when the device status is not ok; None when none fires."""
    fields = view.fields
    fired = set()
    if "spo2" in fields and fields["spo2"].value < cfg.spo2_low_threshold:
        fired.add(AlertType.LOW_SPO2)
    if "hr" in fields and fields["hr"].value > cfg.hr_high_threshold:
        fired.add(AlertType.HIGH_HR)
    if "hr" in fields and fields["hr"].value < cfg.hr_low_threshold:
        fired.add(AlertType.LOW_HR)
    if "device_status" in fields and fields["device_status"].value != DeviceStatus.OK:
        fired.add(AlertType.SIGNAL_QUALITY)
    return frozenset(fired) or None


def reference_route(
    alert_types: frozenset[AlertType], view: SpecialistView
) -> RoutingDecision:
    """Routing from ``oracle_targets``, built by the checked constructor."""
    targets, _ = oracle_targets(alert_types, view)
    ambiguous = view.value("device_status") in (
        DeviceStatus.SYSTEM_FLAG, DeviceStatus.THRESHOLD_MARGINAL
    )
    return RoutingDecision(frozenset(targets), ambiguous)


_SPECIALISTS = {
    AgentDomain.PROBE_INTEGRITY: evaluate_probe_integrity,
    AgentDomain.ACTIVITY_INTEGRITY: evaluate_activity_integrity,
    AgentDomain.TACHYCARDIA: evaluate_tachycardia,
    AgentDomain.BRADYCARDIA: evaluate_bradycardia,
    AgentDomain.COPD: evaluate_copd,
    AgentDomain.NOCTURNAL: evaluate_nocturnal,
}


def reference_claims(
    alert_types: frozenset[AlertType],
    view: SpecialistView,
    routing: RoutingDecision,
    cfg: SpecialistConfig,
) -> tuple[AgentClaim, ...]:
    """One claim per target in ``DOMAIN_ORDER``, each a new ``AgentClaim``
    rebuilt by its checked constructor, never a shared interned one."""
    claims = []
    for domain in DOMAIN_ORDER:
        if domain in routing.targets:
            c = _SPECIALISTS[domain](alert_types, view, cfg)
            claims.append(AgentClaim(c.domain, c.recommendation, c.confidence, c.rationale_codes))
    return tuple(claims)


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
    """``evaluate._run_case`` composed from the plain references: no
    quiet-epoch gate, so every epoch is assembled, projected and detected
    (by ``reference_detect``); checked constructors only; a
    ``ReferenceHistory``, a list each lookup scans back to the window's
    horizon; and its own fold, not
    ``aggregate_case``: a failure status, which means an escalation
    anywhere, makes a false escalation, and no failure status a true
    suppression."""
    stream = sorted(epochs, key=lambda e: e.timestamp)
    bundle = SourceBundle(ehr=context, vitals_stream=tuple(stream))
    history = ReferenceHistory()
    decisions: list[SystemDecision] = []
    failure_status: DeviceStatus | None = None
    previous_at = None
    for epoch in stream:
        if epoch.timestamp == previous_at:
            raise InvariantViolation(
                f"duplicate epoch for patient {patient_id} at {reference_format_timestamp(previous_at)}"
            )
        previous_at = epoch.timestamp
        view = reference_project(reference_assemble(bundle, epoch))
        alert_types = reference_detect(view, sentinel_cfg)
        if alert_types is None:
            continue
        routing = reference_route(alert_types, view)
        claims = reference_claims(alert_types, view, routing, specialist_cfg)
        decision = reference_resolve(
            claims, routing, alert_types, view, history, meta_cfg, patient_id
        )
        decisions.append(decision)
        if failure_status is None and decision.verdict is Verdict.ESCALATE:
            failure_status = epoch.device_status
    outcome = (
        OutcomeKind.TRUE_SUPPRESSION if failure_status is None else OutcomeKind.FALSE_ESCALATION
    )
    return CaseOutcome(
        case_id=case_id,
        patient_id=patient_id,
        domain_class=domain_class,
        outcome=outcome,
        epoch_decisions=tuple(decisions),
        failure_device_status=failure_status,
    )


def reference_decision_lines(outcomes: Iterable[CaseOutcome]) -> str:
    """The decision log as ``json.dumps`` writes it, one full line per decision."""
    return "".join(
        json.dumps(
            {"case_id": case.case_id, "patient_id": case.patient_id, "decision": d.to_dict()},
            separators=(",", ":"),
        )
        + "\n"
        for case in outcomes
        for d in case.epoch_decisions
    )


# The single-epoch decision's input space. Each rule reads a vital only
# through a comparison with a config value, or with one from the patient's
# baselines, and the rest of an epoch through its four categorical fields and
# whether its time is nocturnal. The contexts: plain, COPD with a baseline,
# baseline SpO2 alone, and baseline HR with and without medication. Their
# baselines are not whole numbers, so each floor and allowance is a sum that
# rounds.
GRID_CONTEXTS = (
    make_context(),
    make_context(copd=True, baseline_spo2=89.3),
    make_context(baseline_spo2=92.1),
    make_context(baseline_hr=83.7, med=True),
    make_context(baseline_hr=83.7),
)
GRID_DAY, GRID_NIGHT = time(14, 0), time(2, 30)
GRID_EDGES = (time(5, 59), time(6, 0), time(21, 59), time(22, 0))
# Every accelerometer level, device status, position and self-report.
GRID_CATEGORICALS = tuple(
    itertools.product(AccelLevel, DeviceStatus, Position, (None, *SelfReportedActivity))
)
# The categorical values that reach each vital comparison: a still
# accelerometer (tachycardia's allowance), or light motion; an ok, artefact or
# duplicate status; supine (the nocturnal dip) or upright.
_VITAL_SLICE = tuple(
    itertools.product(
        (AccelLevel.STILL, AccelLevel.LIGHT),
        (DeviceStatus.OK, DeviceStatus.MOTION_ARTEFACT, DeviceStatus.DUPLICATE_ALERT),
        (Position.SUPINE, Position.UPRIGHT),
        (None,),
    )
)
_EDGE_SLICE = (
    (AccelLevel.STILL, DeviceStatus.OK, Position.SUPINE, None),
    (AccelLevel.STILL, DeviceStatus.DUPLICATE_ALERT, Position.SUPINE, SelfReportedActivity.RESTING),
    (AccelLevel.VIGOROUS, DeviceStatus.SYSTEM_FLAG, Position.LATERAL, SelfReportedActivity.WALKING),
)
# Normal vitals (only a status alerts), low SpO2 with high HR, and low SpO2
# with low HR above the personal floor.
_CATEGORICAL_SLICE = ((97.0, 72.0), (90.0, 110.0), (90.0, 45.0))
_GRID_START = datetime(2000, 1, 1, tzinfo=timezone.utc)


def _flip(test, x: float) -> tuple[float, float]:
    """The two adjacent floats at which ``test``, true below and false
    above, changes: the largest true and the smallest false, from ``x``."""
    while test(x):
        x = math.nextafter(x, math.inf)
    while not test(x):
        x = math.nextafter(x, -math.inf)
    return x, math.nextafter(x, math.inf)


def comparison_points(
    context: PatientContext, sentinel_cfg: SentinelConfig, specialist_cfg: SpecialistConfig
) -> tuple[list[float], list[float]]:
    """The patient's SpO2 and HR values: each comparison's equality point,
    from the rules' own arithmetic, and a value half a unit either side.

    The SpO2 screen and the COPD floor, the higher of the acceptable bound
    and the baseline less 2.0, are equality points. The nocturnal dip test
    ``baseline - spo2 > allowance`` has none in general, so it gives the two
    adjacent floats where it flips. HR has the two screens, the personal
    floor and, with a baseline, the baseline plus the allowance.
    """
    floor = specialist_cfg.copd_acceptable_spo2
    if context.baseline_spo2 is not None:
        floor = max(floor, context.baseline_spo2 - 2.0)
    baseline = context.baseline_spo2
    if baseline is None:
        baseline = DEFAULT_NOCTURNAL_BASELINE_SPO2
    allowance = specialist_cfg.nocturnal_dip_allowance
    dip_true, dip_false = _flip(lambda spo2: baseline - spo2 > allowance, baseline - allowance)
    spo2 = {v + d for v in (sentinel_cfg.spo2_low_threshold, floor) for d in (-0.5, 0.0, 0.5)}
    spo2 |= {dip_true - 0.5, dip_true, dip_false, dip_false + 0.5}
    hr_points = [
        sentinel_cfg.hr_high_threshold,
        sentinel_cfg.hr_low_threshold,
        specialist_cfg.bradycardia_personal_floor,
    ]
    if context.baseline_hr is not None:
        hr_points.append(context.baseline_hr + specialist_cfg.hr_activity_allowance)
    hr = {v + d for v in hr_points for d in (-0.5, 0.0, 0.5)}
    return sorted(spo2), sorted(hr)


def grid_points(
    context: PatientContext, sentinel_cfg: SentinelConfig, specialist_cfg: SpecialistConfig
) -> tuple[list[tuple[time, tuple[Any, ...]]], list[tuple[time, tuple[Any, ...]]]]:
    """One context's points, each a time of day and ``(spo2, hr, accel,
    status, position, self_report)``, in three products:

    - every SpO2 and HR value of ``comparison_points`` with the categorical
      values that reach each comparison, by day in rising and by night in
      falling order of the vitals. A cell's value comes from its first
      point, and an equality point is the lowest or the highest of its
      cell's values, so each is the first point of a cell on one side of
      the window: a comparison that flips at another point than the key's
      then decides that cell wrongly;
    - every categorical combination with three vital pairs, by day and by
      night (returned second as well, as the points priors are put before);
    - every vital pair with three categorical combinations at each window
      edge, 05:59, 06:00, 21:59 and 22:00.
    """
    spo2s, hrs = comparison_points(context, sentinel_cfg, specialist_cfg)
    vitals = list(itertools.product(spo2s, hrs))
    categorical = [
        (at, v + k) for at in (GRID_DAY, GRID_NIGHT)
        for v in _CATEGORICAL_SLICE for k in GRID_CATEGORICALS
    ]
    points = [(GRID_DAY, v + k) for v in vitals for k in _VITAL_SLICE]
    points += [(GRID_NIGHT, v + k) for v in reversed(vitals) for k in _VITAL_SLICE]
    points += categorical
    points += [(at, v + k) for at in GRID_EDGES for v in vitals for k in _EDGE_SLICE]
    return points, categorical


def _grid_epoch(patient_id: int, ts: datetime, fields: tuple[Any, ...]) -> Epoch:
    spo2, hr, accel, status, position, activity = fields
    return Epoch(patient_id, ts, spo2, hr, accel, status, False, position, activity, None)


def _grid_time(day: int, at: time) -> datetime:
    return _GRID_START + timedelta(days=day, hours=at.hour, minutes=at.minute)


def _grid_types(fields: tuple[Any, ...], cfg: SentinelConfig) -> frozenset[AlertType]:
    """The alert types a point's screen fires, by which a prior is paired with it."""
    spo2, hr, _, status, _, _ = fields
    return frozenset(
        t for t, fired in (
            (AlertType.LOW_SPO2, spo2 < cfg.spo2_low_threshold),
            (AlertType.HIGH_HR, hr > cfg.hr_high_threshold),
            (AlertType.LOW_HR, hr < cfg.hr_low_threshold),
            (AlertType.SIGNAL_QUALITY, status is not DeviceStatus.OK),
        ) if fired
    )


class DecisionGrid(NamedTuple):
    """A dataset of grid points, its cases, each case's outcome from
    ``reference_run_case``, and how many points and priors it holds."""

    dataset: Dataset
    cases: tuple[ManifestCase, ...]
    reference: tuple[CaseOutcome, ...]
    points: int
    priors: int


def decision_grid(
    sentinel_cfg: SentinelConfig, specialist_cfg: SpecialistConfig, meta_cfg: MetaConfig
) -> DecisionGrid:
    """Every context's ``grid_points`` as one dataset, with each of three priors.

    The first patient of each context holds its points with no prior, one a
    day, so no decision is in another's cooldown window. The second holds
    the categorical product's points again, each a minute after a prior:
    an epoch of the same context whose own decision, with no prior, was an
    escalation, or a suppression, for the same alert-type set on the same
    side of the nocturnal window. A point gets no such pair where no
    first-patient epoch decided so.
    """
    cfgs = sentinel_cfg, specialist_cfg, meta_cfg
    contexts: dict[int, PatientContext] = {}
    epochs: list[Epoch] = []
    cases: list[ManifestCase] = []
    reference: list[CaseOutcome] = []

    def add(context: PatientContext, stream: list[Epoch]) -> CaseOutcome:
        pid = stream[0].patient_id
        contexts[pid] = dataclasses.replace(context, patient_id=pid)
        case = ManifestCase(f"GRID-{len(cases):02d}", pid, DomainClass.META_CONFLICT, len(stream))
        cases.append(case)
        epochs.extend(stream)
        reference.append(reference_run_case(
            case.case_id, case.domain_class, pid, stream, contexts[pid], *cfgs
        ))
        return reference[-1]

    first_pid = PATIENT_ID_RANGE[0]
    points = priors = 0
    firsts = []
    for context in GRID_CONTEXTS:
        standalone, categorical = grid_points(context, sentinel_cfg, specialist_cfg)
        pid = first_pid + len(cases)
        stream = [
            _grid_epoch(pid, _grid_time(day, at), fields)
            for day, (at, fields) in enumerate(standalone)
        ]
        points += len(stream)
        verdicts = {d.decided_at: d.verdict for d in add(context, stream).epoch_decisions}
        first = {}
        for epoch, (_, fields) in zip(stream, standalone):
            verdict = verdicts.get(epoch.timestamp)
            if verdict is not None:
                night = in_nocturnal_window(epoch.timestamp)
                first.setdefault((night, _grid_types(fields, sentinel_cfg), verdict), fields)
        firsts.append((context, categorical, first))
    for context, categorical, first in firsts:
        pid = first_pid + len(cases)
        stream = []
        for at, fields in categorical:
            types = _grid_types(fields, sentinel_cfg)
            for verdict in (Verdict.ESCALATE, Verdict.SUPPRESS):
                ts = _grid_time(len(stream), at)
                before = ts - timedelta(minutes=1)
                prior = first.get((in_nocturnal_window(before), types, verdict))
                if prior is not None:
                    stream += [_grid_epoch(pid, before, prior), _grid_epoch(pid, ts, fields)]
                    priors += 1
        add(context, stream)
    return DecisionGrid(
        Dataset(tuple(epochs), contexts), tuple(cases), tuple(reference), points, priors
    )
