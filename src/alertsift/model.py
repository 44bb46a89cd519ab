"""Shared domain types for the alert-suppression pipeline.

Every value that crosses a layer boundary is defined here: provenance-tagged
measurements, the unified per-epoch patient record, the three inter-layer
messages (candidate alert, specialist claim, system decision), and the JSON
codecs for the dataset files and the decision log. Types carry no behaviour
beyond construction, validation, and serialization; all are immutable once
built.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from datetime import datetime, timezone
from enum import Enum
from functools import cache
from typing import Any, Iterable, Mapping, NamedTuple, TextIO

__all__ = [
    "AccelLevel",
    "AgentClaim",
    "AgentDomain",
    "AlertType",
    "CandidateAlert",
    "DeviceStatus",
    "EnumParseError",
    "Epoch",
    "InvariantViolation",
    "PatientContext",
    "Position",
    "ProvenanceTag",
    "Recommendation",
    "ResolutionPath",
    "RiskLevel",
    "SelfReportedActivity",
    "SystemDecision",
    "TaggedValue",
    "Verdict",
    "VeritasRecord",
    "CANONICAL_JSON",
    "COMPACT_JSON",
    "DEVICE_STREAM_FIELDS",
    "DOMAIN_ORDER",
    "HR_BOUNDS",
    "PATIENT_ID_RANGE",
    "SPO2_BOUNDS",
    "DATA_WINDOW",
    "format_timestamp",
    "parse_enum",
    "parse_timestamp",
    "read_contexts_json",
    "read_epochs_jsonl",
    "validate_epoch",
    "write_contexts_json",
    "write_epochs_jsonl",
]

import json
import math

# One encoder per output format, built once: json.dumps with a non-default
# argument builds a new JSONEncoder on every call. COMPACT_JSON writes the
# dataset and decision-log lines; CANONICAL_JSON (sorted keys) the per-case
# digests.
COMPACT_JSON = json.JSONEncoder(separators=(",", ":"))
CANONICAL_JSON = json.JSONEncoder(separators=(",", ":"), sort_keys=True)


class EnumParseError(ValueError):
    """Raised when an input string is outside a closed enumeration."""


class InvariantViolation(ValueError):
    """Raised when a domain type is constructed in an invalid state."""


class ProvenanceTag(str, Enum):
    """Trust origin of a datum. Every tagged value carries exactly one."""

    DEVICE_VERIFIED = "device_verified"
    PATIENT_REPORTED = "patient_reported"
    EHR_DERIVED = "ehr_derived"
    INFERRED = "inferred"


class DeviceStatus(str, Enum):
    OK = "ok"
    MOTION_ARTEFACT = "motion_artefact"
    PROBE_COVER = "probe_cover"
    SYSTEM_FLAG = "system_flag"
    THRESHOLD_MARGINAL = "threshold_marginal"
    DUPLICATE_ALERT = "duplicate_alert"


class AccelLevel(str, Enum):
    STILL = "still"
    LIGHT = "light"
    VIGOROUS = "vigorous"


class Position(str, Enum):
    UPRIGHT = "upright"
    SUPINE = "supine"
    PRONE = "prone"
    LATERAL = "lateral"


class SelfReportedActivity(str, Enum):
    RESTING = "resting"
    WALKING = "walking"
    EXERCISING = "exercising"


class AlertType(str, Enum):
    LOW_SPO2 = "low_spo2"
    HIGH_HR = "high_hr"
    LOW_HR = "low_hr"
    SIGNAL_QUALITY = "signal_quality"


class AgentDomain(str, Enum):
    """The six specialist domains, in canonical evaluation order."""

    PROBE_INTEGRITY = "probe_integrity"
    ACTIVITY_INTEGRITY = "activity_integrity"
    TACHYCARDIA = "tachycardia"
    BRADYCARDIA = "bradycardia"
    COPD = "copd"
    NOCTURNAL = "nocturnal"


# The domains in canonical order, built once: claims are produced and checked
# in this order on every alerting epoch.
DOMAIN_ORDER = tuple(AgentDomain)


class Recommendation(str, Enum):
    SUPPRESS = "suppress"
    ESCALATE = "escalate"
    INDETERMINATE = "indeterminate"


class RiskLevel(str, Enum):
    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"


class Verdict(str, Enum):
    SUPPRESS = "suppress"
    ESCALATE = "escalate"


class ResolutionPath(str, Enum):
    SINGLE_DOMAIN = "single_domain"
    WEIGHTED_AGGREGATION = "weighted_aggregation"
    AMBIGUITY_DEFAULT = "ambiguity_default"
    DEBOUNCED = "debounced"


@cache
def _members_by_value(cls: type) -> dict[Any, Any]:
    return {member.value: member for member in cls}


def parse_enum(cls: type, raw: Any) -> Any:
    """Parse ``raw`` into a member of the closed enumeration ``cls``.

    Raises EnumParseError naming the offending value and the allowed set;
    unknown strings in input files must never round into a default. A
    member of ``cls`` parses to itself, as ``cls(raw)`` would.
    """
    try:
        return _members_by_value(cls)[raw]
    except (KeyError, TypeError):  # TypeError: an unhashable value
        allowed = ", ".join(m.value for m in cls)
        raise EnumParseError(
            f"{cls.__name__}: {raw!r} is not one of [{allowed}]"
        ) from None


# Physiological clamps for generated data; wide enough to admit every
# device-failure value that occurs in the scenario catalogue.
SPO2_BOUNDS = (70.0, 100.0)
HR_BOUNDS = (25.0, 220.0)
PATIENT_ID_RANGE = (3847291, 3847388)
DATA_WINDOW = (
    datetime(2022, 6, 1, tzinfo=timezone.utc),
    datetime(2022, 9, 1, tzinfo=timezone.utc),
)

# Epoch fields whose provenance must be device_verified after assembly.
DEVICE_STREAM_FIELDS = ("spo2", "hr", "accel_level", "device_status")


def format_timestamp(ts: datetime) -> str:
    """Render a UTC minute-resolution timestamp as ``YYYY-MM-DDTHH:MM:00Z``.

    %-formatting of the fields, not strftime, which costs about twice as
    much; it writes every epoch's and decision's timestamp.
    """
    u = ts.astimezone(timezone.utc)
    return "%04d-%02d-%02dT%02d:%02d:00Z" % (u.year, u.month, u.day, u.hour, u.minute)


def parse_timestamp(raw: str) -> datetime:
    if not isinstance(raw, str):
        raise InvariantViolation(f"timestamp {raw!r} is not a string")
    text = raw.replace("Z", "+00:00")
    try:
        ts = datetime.fromisoformat(text)
    except ValueError as exc:
        raise InvariantViolation(f"bad timestamp {raw!r}: {exc}") from None
    if ts.tzinfo is None:
        raise InvariantViolation(f"timestamp {raw!r} is not timezone-aware")
    ts = ts.astimezone(timezone.utc)
    if ts.second or ts.microsecond:
        raise InvariantViolation(f"timestamp {raw!r} is not minute-resolution")
    return ts


class _TaggedFields(NamedTuple):
    value: Any
    provenance: ProvenanceTag
    source_id: str
    observed_at: datetime


class TaggedValue(_TaggedFields):
    """A measurement or fact annotated with its trust origin.

    An immutable tuple ``(value, provenance, source_id, observed_at)`` whose
    construction rejects any provenance that is not a ProvenanceTag; no
    field can be set afterwards, so there is no untagged state anywhere in
    the system. Equal when all four fields are equal. A tuple rather than a
    frozen dataclass because assembly builds eight to ten per epoch and a
    tuple costs about half as much to build; reading a field costs slightly
    more.
    """

    __slots__ = ()

    def __new__(
        cls, value: Any, provenance: ProvenanceTag, source_id: str, observed_at: datetime
    ) -> "TaggedValue":
        if not isinstance(provenance, ProvenanceTag):
            raise InvariantViolation("TaggedValue requires a ProvenanceTag")
        return tuple.__new__(cls, (value, provenance, source_id, observed_at))

    @classmethod
    def _make(cls, iterable: Iterable[Any]) -> "TaggedValue":
        # NamedTuple's _make (and _replace through it) skip __new__; keep the check.
        return cls(*iterable)

    def retagged(self, provenance: ProvenanceTag) -> "TaggedValue":
        """Copy with a different provenance tag (test hook; tags never mutate)."""
        return TaggedValue(self.value, provenance, self.source_id, self.observed_at)


@dataclass(frozen=True)
class Epoch:
    """One-minute summarized measurement row for one patient.

    ``ambient_condition`` is carried through the schema for forward
    compatibility but is never consumed by any rule.
    """

    patient_id: int
    timestamp: datetime
    spo2: float
    hr: float
    accel_level: AccelLevel
    device_status: DeviceStatus
    probe_cover_present: bool
    position: Position
    self_reported_activity: SelfReportedActivity | None = None
    ambient_condition: str | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "patient_id": self.patient_id,
            "timestamp": format_timestamp(self.timestamp),
            "spo2": self.spo2,
            "hr": self.hr,
            "accel_level": self.accel_level.value,
            "device_status": self.device_status.value,
            "probe_cover_present": self.probe_cover_present,
            "position": self.position.value,
            "self_reported_activity": (
                self.self_reported_activity.value if self.self_reported_activity else None
            ),
            "ambient_condition": self.ambient_condition,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Epoch":
        """Decode one dataset row, rejecting vitals no device can report.

        Only physical bounds are checked here, not the catalogue's ranges
        (see ``validate_epoch``). NaN fails every comparison, so the chained
        bounds below reject it along with the infinities.
        """
        spo2, hr = float(data["spo2"]), float(data["hr"])
        if not 0.0 <= spo2 <= 100.0:
            raise InvariantViolation(f"spo2 outside [0, 100]: {spo2}")
        if not 0.0 < hr < math.inf:
            raise InvariantViolation(f"hr not a finite positive rate: {hr}")
        activity = data.get("self_reported_activity")
        return cls(
            patient_id=_patient_id(data["patient_id"]),
            timestamp=parse_timestamp(data["timestamp"]),
            spo2=spo2,
            hr=hr,
            accel_level=parse_enum(AccelLevel, data["accel_level"]),
            device_status=parse_enum(DeviceStatus, data["device_status"]),
            probe_cover_present=_flag(data["probe_cover_present"], "probe_cover_present"),
            position=parse_enum(Position, data["position"]),
            self_reported_activity=(
                parse_enum(SelfReportedActivity, activity) if activity is not None else None
            ),
            ambient_condition=data.get("ambient_condition"),
        )


def validate_epoch(epoch: Epoch) -> list[str]:
    """Check every epoch invariant; returns a list of violations (empty = ok).

    Violations name the field and the bound so callers can report precisely.
    """
    violations: list[str] = []
    lo, hi = SPO2_BOUNDS
    if not lo <= epoch.spo2 <= hi:
        violations.append(f"spo2 out of [{lo:g},{hi:g}]: {epoch.spo2}")
    lo, hi = HR_BOUNDS
    if not lo <= epoch.hr <= hi:
        violations.append(f"hr out of [{lo:g},{hi:g}]: {epoch.hr}")
    lo_id, hi_id = PATIENT_ID_RANGE
    if not lo_id <= epoch.patient_id <= hi_id:
        violations.append(f"patient_id out of [{lo_id},{hi_id}]: {epoch.patient_id}")
    start, end = DATA_WINDOW
    if not start <= epoch.timestamp < end:
        violations.append(
            f"timestamp out of [{format_timestamp(start)},{format_timestamp(end)}): "
            f"{format_timestamp(epoch.timestamp)}"
        )
    if epoch.timestamp.second or epoch.timestamp.microsecond:
        violations.append("timestamp not minute-resolution")
    return violations


def _flag(raw: Any, name: str) -> bool:
    """A JSON boolean; a string such as "false" is rejected, not read as true."""
    if not isinstance(raw, bool):
        raise InvariantViolation(f"{name} must be true or false, got {raw!r}")
    return raw


def _patient_id(raw: Any) -> int:
    """A JSON integer; 3847291.9 or true is rejected, not rounded to an id."""
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise InvariantViolation(f"patient_id must be an integer, got {raw!r}")
    return raw


def _finite_or_none(data: Mapping[str, Any], name: str) -> float | None:
    raw = data.get(name)
    if raw is None:
        return None
    value = float(raw)
    if not math.isfinite(value):
        raise InvariantViolation(f"{name} is not finite: {value}")
    return value


@dataclass(frozen=True)
class PatientContext:
    """EHR-derived per-patient baseline facts."""

    patient_id: int
    copd_documented: bool
    baseline_spo2: float | None = None
    baseline_hr: float | None = None
    rate_limiting_medication: bool = False

    def __post_init__(self) -> None:
        if self.copd_documented and self.baseline_spo2 is None:
            raise InvariantViolation(
                "documented COPD requires a baseline_spo2 in the patient context"
            )

    def to_dict(self) -> dict[str, Any]:
        return {
            "patient_id": self.patient_id,
            "copd_documented": self.copd_documented,
            "baseline_spo2": self.baseline_spo2,
            "baseline_hr": self.baseline_hr,
            "rate_limiting_medication": self.rate_limiting_medication,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PatientContext":
        return cls(
            patient_id=_patient_id(data["patient_id"]),
            copd_documented=_flag(data["copd_documented"], "copd_documented"),
            baseline_spo2=_finite_or_none(data, "baseline_spo2"),
            baseline_hr=_finite_or_none(data, "baseline_hr"),
            rate_limiting_medication=_flag(
                data.get("rate_limiting_medication", False), "rate_limiting_medication"
            ),
        )


# The field names a VeritasRecord may carry: every epoch and context field
# except the record coordinates.
_EPOCH_FIELDS = frozenset(f.name for f in fields(Epoch)) - {"patient_id", "timestamp"}
_CONTEXT_FIELDS = frozenset(f.name for f in fields(PatientContext)) - {"patient_id"}


@dataclass(frozen=True)
class VeritasRecord:
    """Unified per-epoch patient record with every field provenance-tagged.

    Measurement and context fields live in mappings keyed by field name so a
    field can be structurally absent (optional inputs, or excluded by the
    specialist projection). ``patient_id`` and ``timestamp`` are record
    coordinates, not measurements, and are not tagged.
    """

    patient_id: int
    timestamp: datetime
    epoch_fields: Mapping[str, TaggedValue]
    context_fields: Mapping[str, TaggedValue]
    conversation_flags: tuple[TaggedValue, ...] = ()

    def __post_init__(self) -> None:
        # issuperset reads the keys in place; the unknown names are only
        # built for the error message.
        if not _EPOCH_FIELDS.issuperset(self.epoch_fields):
            unknown = sorted(self.epoch_fields.keys() - _EPOCH_FIELDS)
            raise InvariantViolation(f"unknown epoch fields: {unknown}")
        if not _CONTEXT_FIELDS.issuperset(self.context_fields):
            unknown = sorted(self.context_fields.keys() - _CONTEXT_FIELDS)
            raise InvariantViolation(f"unknown context fields: {unknown}")

    def all_tagged(self) -> Iterable[tuple[str, TaggedValue]]:
        yield from self.epoch_fields.items()
        yield from self.context_fields.items()
        for i, flag in enumerate(self.conversation_flags):
            yield f"conversation_flags[{i}]", flag


@dataclass(frozen=True)
class CandidateAlert:
    """Threshold-exceedance message emitted by the detection layer.

    Every alert type carries the tagged value that triggered it, so the
    provenance of the trigger travels with the alert.
    """

    alert_types: frozenset[AlertType]
    triggering_values: Mapping[AlertType, TaggedValue]
    record_ref: VeritasRecord
    raised_at: datetime

    def __post_init__(self) -> None:
        if not self.alert_types:
            raise InvariantViolation("CandidateAlert requires at least one alert type")
        for alert_type in self.alert_types:
            trigger = self.triggering_values.get(alert_type)
            if trigger is None:
                raise InvariantViolation(f"missing triggering value for {alert_type.value}")
            if trigger.provenance is ProvenanceTag.INFERRED:
                raise InvariantViolation(
                    f"alert type {alert_type.value} triggered by an inferred value"
                )


@dataclass(frozen=True)
class AgentClaim:
    """A specialist's recommendation for one routed alert."""

    domain: AgentDomain
    recommendation: Recommendation
    confidence: float
    risk_level: RiskLevel
    rationale_codes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence <= 1.0:
            raise InvariantViolation(f"confidence out of [0,1]: {self.confidence}")

    def to_dict(self) -> dict[str, Any]:
        return {
            "domain": self.domain.value,
            "recommendation": self.recommendation.value,
            "confidence": self.confidence,
            "risk_level": self.risk_level.value,
            "rationale_codes": list(self.rationale_codes),
        }


@dataclass(frozen=True)
class SystemDecision:
    """The forced binary outcome for one epoch; never indeterminate."""

    verdict: Verdict
    contributing_claims: tuple[AgentClaim, ...]
    resolution_path: ResolutionPath
    decided_at: datetime

    def to_dict(self) -> dict[str, Any]:
        return {
            "verdict": self.verdict.value,
            "contributing_claims": [c.to_dict() for c in self.contributing_claims],
            "resolution_path": self.resolution_path.value,
            "decided_at": format_timestamp(self.decided_at),
        }


# ---------------------------------------------------------------------------
# Dataset file formats: epochs as JSON Lines, contexts as a keyed sidecar.
# ---------------------------------------------------------------------------


def write_epochs_jsonl(epochs: Iterable[Epoch], fp: TextIO) -> None:
    encode, write = COMPACT_JSON.encode, fp.write
    for epoch in epochs:
        write(encode(epoch.to_dict()) + "\n")


# A malformed row raises KeyError (a missing field), TypeError (a null, or a
# row that is not an object) or ValueError (bad JSON, number, enum or bound).
_DECODE_ERRORS = (KeyError, TypeError, ValueError)


def read_epochs_jsonl(fp: TextIO) -> list[Epoch]:
    """Decode every row; any malformed row fails, naming its line number."""
    epochs = []
    for line_no, line in enumerate(fp, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            epochs.append(Epoch.from_dict(json.loads(line)))
        except _DECODE_ERRORS as exc:
            raise InvariantViolation(f"epochs line {line_no}: {exc}") from None
    return epochs


def write_contexts_json(contexts: Mapping[int, PatientContext], fp: TextIO) -> None:
    payload = {str(pid): ctx.to_dict() for pid, ctx in sorted(contexts.items())}
    fp.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_contexts_json(fp: TextIO) -> dict[int, PatientContext]:
    """Decode the sidecar; a malformed record fails, naming its patient key."""
    raw = json.load(fp)
    if not isinstance(raw, dict):
        raise InvariantViolation("contexts must be an object keyed by patient id")
    contexts = {}
    for key, data in raw.items():
        try:
            context = PatientContext.from_dict(data)
            if str(context.patient_id) != key:
                raise InvariantViolation(f"holds patient_id {context.patient_id}")
        except _DECODE_ERRORS as exc:
            raise InvariantViolation(f"contexts patient {key}: {exc}") from None
        contexts[context.patient_id] = context
    return contexts
