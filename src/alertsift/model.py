"""Shared domain types for the alert-suppression pipeline.

Every value that crosses a layer boundary is defined here: provenance-tagged
measurements, the unified per-epoch patient record, the alert types,
specialist claims and system decisions passed between layers, and the JSON
codecs for the dataset files and the decision log. Types carry no behaviour
beyond construction, validation, and serialization; all are immutable once
built.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from enum import Enum
from functools import cache
from itertools import islice, product, repeat
from typing import Any, Iterable, Mapping, NamedTuple, TextIO

__all__ = [
    "AccelLevel",
    "AgentClaim",
    "AgentDomain",
    "AlertType",
    "DeviceStatus",
    "DomainClass",
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
    "DOMAIN_ORDER",
    "PATIENT_ID_RANGE",
    "VITAL_RANGES",
    "epoch_line",
    "format_timestamp",
    "parse_enum",
    "parse_timestamp",
    "read_contexts_json",
    "read_epochs_jsonl",
    "write_contexts_json",
    "write_epochs_jsonl",
]

import json
import math
import re
import reprlib

# One encoder per output format, built once: json.dumps with a non-default
# argument builds a new JSONEncoder on every call. COMPACT_JSON writes the
# decision-log bodies, and ``epoch_line`` falls back to it for a value it does
# not write itself; CANONICAL_JSON (sorted keys) writes the context line that
# ``write_dataset`` hashes into a case digest.
COMPACT_JSON = json.JSONEncoder(separators=(",", ":"))
CANONICAL_JSON = json.JSONEncoder(separators=(",", ":"), sort_keys=True)


class InvariantViolation(ValueError):
    """The one error for a rejected value: a domain type constructed in an
    invalid state, or an input value outside its reader's rule."""


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


class DomainClass(str, Enum):
    """Scenario classes for outcome stratification, one per report row."""

    PROBE_INTEGRITY = "probe_integrity"
    ACTIVITY_INTEGRITY = "activity_integrity"
    COPD = "copd"
    BRADYCARDIA = "bradycardia"
    NOCTURNAL = "nocturnal"
    TACHYCARDIA = "tachycardia"
    META_CONFLICT = "meta_conflict"
    PROBE_ACTIVITY_CONFLICT = "probe_activity_conflict"
    PROBE_CONDITION_CONFLICT = "probe_condition_conflict"


@cache
def _members_by_value(cls: type) -> dict[Any, Any]:
    return {member.value: member for member in cls}


def parse_enum(cls: type, raw: Any, name: str) -> Any:
    """Parse ``raw``, the value of field ``name``, into a member of the closed
    enumeration ``cls``.

    Raises InvariantViolation naming the field, the offending value and the
    allowed set; unknown strings in input files must never round into a
    default. A member of ``cls`` parses to itself, as ``cls(raw)`` would.
    """
    try:
        return _members_by_value(cls)[raw]
    except (KeyError, TypeError):  # TypeError: an unhashable value
        allowed = ", ".join(m.value for m in cls)
        raise InvariantViolation(f"{name}: {_shown(raw)} is not one of [{allowed}]") from None


# The patient ids a generated dataset assigns, one per case in catalogue
# order; evaluation attributes patients to cases by the same rule.
PATIENT_ID_RANGE = (3847291, 3847388)

# Each generated vital's physiological range: every catalogue spec's bounds,
# and so every generated value, and every patient's baseline lie in it.
VITAL_RANGES = {"spo2": (70.0, 100.0), "hr": (25.0, 220.0)}


# ``format_timestamp``'s tables: each UTC day's ``YYYY-MM-DD``, by its
# ``toordinal()``, filled as days are first written (a dataset spans at most
# 92) and emptied when it reaches _DAY_TEXT_LIMIT, so that it stays small in
# a long process; and the two-digit text of 0 to 59, for the hour and the
# minute. An entry depends only on its key, so what the table holds never
# changes a result.
_DAY_TEXT: dict[int, str] = {}
_DAY_TEXT_LIMIT = 1024
_TWO_DIGITS = tuple(f"{i:02d}" for i in range(60))


def format_timestamp(ts: datetime) -> str:
    """Render a UTC minute-resolution timestamp as ``YYYY-MM-DDTHH:MM:00Z``.

    The year is padded to four digits, as strftime does not pad it on every
    platform. It writes every epoch's and decision's timestamp, so the date
    is looked up by the UTC day's ordinal in ``_DAY_TEXT`` and the hour and
    minute in ``_TWO_DIGITS``: about 0.32 against 0.98 µs for %-formatting
    the five fields (in-process, on a shared 2-core x86-64 host under Python
    3.11). Nothing finer than a UTC day is kept. A ``timezone.utc`` time
    skips ``astimezone``.
    """
    u = ts if ts.tzinfo is timezone.utc else ts.astimezone(timezone.utc)
    ordinal = u.toordinal()
    day = _DAY_TEXT.get(ordinal)
    if day is None:
        if len(_DAY_TEXT) >= _DAY_TEXT_LIMIT:
            _DAY_TEXT.clear()
        day = _DAY_TEXT[ordinal] = "%04d-%02d-%02d" % (u.year, u.month, u.day)
    return f"{day}T{_TWO_DIGITS[u.hour]}:{_TWO_DIGITS[u.minute]}:00Z"


# The one form a timestamp is read in, ``YYYY-MM-DDTHH:MM:SS`` with ``Z`` or
# ``±HH:MM``: ``fromisoformat`` alone also reads week dates, the basic format,
# a space for the T, and times without seconds or minutes. The zone is left
# optional here so that a naive timestamp gets its own error.
_TIMESTAMP_FORM = re.compile(
    r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}(?:Z|[+-][0-9]{2}:[0-9]{2})?"
)


def parse_timestamp(raw: str) -> datetime:
    """Read a UTC minute in README's form, ``2022-06-15T14:03:00Z``, or the
    same wall time with an offset, which is moved to UTC."""
    if not isinstance(raw, str):
        raise InvariantViolation(f"timestamp {_shown(raw)} is not a string")
    if _TIMESTAMP_FORM.fullmatch(raw) is None:
        raise InvariantViolation(
            f"timestamp {_shown(raw)} is not of the form YYYY-MM-DDTHH:MM:SS with Z or ±HH:MM"
        )
    text = raw.replace("Z", "+00:00")
    try:
        ts = datetime.fromisoformat(text)
    except ValueError as exc:
        raise InvariantViolation(f"bad timestamp {_shown(raw)}: {exc}") from None
    if ts.tzinfo is None:
        raise InvariantViolation(f"timestamp {_shown(raw)} is not timezone-aware")
    try:
        ts = ts.astimezone(timezone.utc)
    except OverflowError:  # an offset moves year 1 or 9999 out of range
        raise InvariantViolation(f"timestamp {_shown(raw)} is out of range in UTC") from None
    if ts.second or ts.microsecond:
        raise InvariantViolation(f"timestamp {_shown(raw)} is not minute-resolution")
    return ts


class _TaggedFields(NamedTuple):
    value: Any
    provenance: ProvenanceTag


class TaggedValue(_TaggedFields):
    """A measurement or fact annotated with its trust origin.

    An immutable tuple ``(value, provenance)`` whose construction rejects
    any provenance that is not a ProvenanceTag; no field can be set
    afterwards, so there is no untagged state anywhere in the system. Equal
    when both fields are equal. Its source follows from the tag and the
    record's patient id, and its time is the record's. A tuple rather than a
    frozen dataclass because assembly builds eight to twelve per epoch and a
    tuple costs about half as much to build. Assembly, whose tags are fixed
    ProvenanceTag members, builds its values with ``tuple.__new__`` and
    skips the check (see ``assembly``).
    """

    __slots__ = ()

    def __new__(cls, value: Any, provenance: ProvenanceTag) -> "TaggedValue":
        if not isinstance(provenance, ProvenanceTag):
            raise InvariantViolation("TaggedValue requires a ProvenanceTag")
        return tuple.__new__(cls, (value, provenance))

    @classmethod
    def _make(cls, iterable: Iterable[Any]) -> "TaggedValue":
        # NamedTuple's _make (and _replace through it) skip __new__; keep the check.
        return cls(*iterable)


@dataclass(frozen=True, slots=True, init=False)
class Epoch:
    """One-minute summarized measurement row for one patient.

    ``probe_cover_present`` and ``ambient_condition`` (text or null) are
    carried for forward compatibility; no rule reads them and no record
    holds them (``_CARRIED_ONLY``). Slotted: generation and the reader
    build one per epoch, and an instance without a
    ``__dict__`` is smaller and quicker to build.

    The ``__init__`` is written out, with the parameters and defaults the
    dataclass would give it. It sets each slot through its member
    descriptor's ``__set__`` (``_EPOCH_SETTERS``), where the generated one
    calls ``object.__setattr__`` once per field: about 0.8 against 1.35 µs
    an epoch (in-process, on a shared 2-core x86-64 host under Python 3.11).
    The reader and the generator build epochs in bulk through
    ``_epoch_columns``, which sets the same slots a column at a time.
    Everything else is still the dataclass's own: ``fields``,
    ``dataclasses.replace``, equality, hashing, the repr, pickling, and
    ``FrozenInstanceError`` on setting or deleting a field. There is no
    ``__post_init__``: neither build would run it.
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

    def __init__(
        self,
        patient_id: int,
        timestamp: datetime,
        spo2: float,
        hr: float,
        accel_level: AccelLevel,
        device_status: DeviceStatus,
        probe_cover_present: bool,
        position: Position,
        self_reported_activity: SelfReportedActivity | None = None,
        ambient_condition: str | None = None,
    ) -> None:
        (
            set_patient_id, set_timestamp, set_spo2, set_hr, set_accel_level,
            set_device_status, set_probe_cover_present, set_position,
            set_self_reported_activity, set_ambient_condition,
        ) = _EPOCH_SETTERS
        set_patient_id(self, patient_id)
        set_timestamp(self, timestamp)
        set_spo2(self, spo2)
        set_hr(self, hr)
        set_accel_level(self, accel_level)
        set_device_status(self, device_status)
        set_probe_cover_present(self, probe_cover_present)
        set_position(self, position)
        set_self_reported_activity(self, self_reported_activity)
        set_ambient_condition(self, ambient_condition)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Epoch":
        """Decode one dataset row, rejecting vitals no device can report.

        Only physical bounds are checked here; the generator's narrower
        ranges hold its specs when a catalogue loads. A float vital skips
        ``_number``: NaN fails every comparison, so the chained bounds below
        reject it along with the infinities.
        """
        data = _object(data, _EPOCH_KEYS, "epoch row")
        spo2, hr = data["spo2"], data["hr"]
        if type(spo2) is not float:
            spo2 = _number(spo2, "spo2")
        if type(hr) is not float:
            hr = _number(hr, "hr")
        if not 0.0 <= spo2 <= 100.0:
            raise InvariantViolation(f"spo2 outside [0, 100]: {spo2}")
        if not 0.0 < hr < math.inf:
            raise InvariantViolation(f"hr not a finite positive rate: {hr}")
        activity = data.get("self_reported_activity")
        return cls(
            patient_id=_integer(data["patient_id"], "patient_id"),
            timestamp=parse_timestamp(data["timestamp"]),
            spo2=spo2,
            hr=hr,
            accel_level=parse_enum(AccelLevel, data["accel_level"], "accel_level"),
            device_status=parse_enum(DeviceStatus, data["device_status"], "device_status"),
            probe_cover_present=_flag(data["probe_cover_present"], "probe_cover_present"),
            position=parse_enum(Position, data["position"], "position"),
            self_reported_activity=(
                None if activity is None
                else parse_enum(SelfReportedActivity, activity, "self_reported_activity")
            ),
            ambient_condition=_text(data.get("ambient_condition"), "ambient_condition"),
        )


# Each field's slot setter, in field order, for ``Epoch.__init__`` and
# ``_epoch_columns``: the member descriptors of the slotted class, which
# store a value without going through the frozen ``__setattr__``.
_EPOCH_SETTERS = tuple(getattr(Epoch, f.name).__set__ for f in fields(Epoch))


# Below this many epochs ``_epoch_columns`` calls ``Epoch`` per epoch: its
# ten maps and deques cost about 3 µs a call, which the saving per epoch
# repays only from about 15 epochs (timeit, best of 7, on a shared 2-core
# x86-64 host under Python 3.11). A shipped catalogue case is 4 to 7
# epochs; a block of rows and a long stream are hundreds or more.
_COLUMN_BUILD_MIN = 16


def _epoch_columns(n: int, columns: Iterable[Iterable[Any]]) -> list[Epoch]:
    """The first ``n`` epochs of ten columns in field order, each yielding
    at least ``n`` values: ``list(map(Epoch, *columns))`` with no defaults.

    From ``_COLUMN_BUILD_MIN`` epochs on, it makes ``n`` bare instances,
    then fills one field at a time by mapping that slot's setter over them,
    each map drained by a zero-length deque: a C loop per field where
    ``Epoch.__init__`` pays a Python call per epoch. About 0.63 against
    0.81 µs an epoch for 1,000 epochs (timeit, same host). The slots set
    are ``__init__``'s, so the instances are the same.
    """
    if n < _COLUMN_BUILD_MIN:
        return list(islice(map(Epoch, *columns), n))
    epochs = list(map(object.__new__, repeat(Epoch, n)))
    for set_field, column in zip(_EPOCH_SETTERS, columns, strict=True):
        deque(map(set_field, epochs, column), 0)
    return epochs


# The field readers every input file goes through: epoch rows, context
# records, the config, a user taxonomy and report.json. Each takes the
# decoded JSON value and the name an error should give, and rejects a value
# outside the rule with an InvariantViolation naming it.


_SHOWN = reprlib.Repr()
_SHOWN.maxstring = _SHOWN.maxlong = _SHOWN.maxother = 80


def _shown(raw: Any) -> str:
    """``repr(raw)`` for an error message, cut short: a string or number to
    about 80 characters, an array or object to its first few items, and
    nesting to a few levels, so a rejected value as large as a whole file
    gives a line, not the file."""
    return _SHOWN.repr(raw)


def _flag(raw: Any, name: str) -> bool:
    """A JSON boolean; a string such as "false" is rejected, not read as true."""
    if not isinstance(raw, bool):
        raise InvariantViolation(f"{name} must be true or false, got {_shown(raw)}")
    return raw


def _text(raw: Any, name: str) -> str | None:
    """A JSON string or null."""
    if raw is not None and type(raw) is not str:
        raise InvariantViolation(f"{name} must be a string or null, got {_shown(raw)}")
    return raw


def _integer(raw: Any, name: str) -> int:
    """A JSON integer; 3847291.9 or true is rejected, not rounded or read as 1."""
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise InvariantViolation(f"{name} must be an integer, got {_shown(raw)}")
    return raw


def _number(raw: Any, name: str) -> float:
    """A finite JSON number, as a float.

    json decodes a number to a float or an int, and also accepts NaN and
    ±Infinity: true (a bool, not an int to ``type``), "97", null, a
    non-finite float and an integer too large for a float are rejected.
    """
    if type(raw) is int:
        try:
            raw = float(raw)
        except OverflowError:
            raise InvariantViolation(f"{name} is too large for a float") from None
    elif type(raw) is not float:
        raise InvariantViolation(f"{name} must be a number, got {_shown(raw)}")
    if not math.isfinite(raw):
        raise InvariantViolation(f"{name} is not finite: {raw}")
    return raw


def _baseline(raw: Any, vital: str) -> float:
    """A patient's baseline of ``vital``, inside its range: a baseline moves
    the limits a specialist compares the vitals with."""
    name = f"baseline_{vital}"
    value = _number(raw, name)
    low, high = VITAL_RANGES[vital]
    if not low <= value <= high:
        raise InvariantViolation(f"{name} outside [{low:g}, {high:g}]: {value}")
    return value


def _object(raw: Any, allowed: Any, where: str) -> dict[str, Any]:
    """A JSON object whose every key is allowed; a misspelt key is rejected,
    not read as an absent optional one.

    ``allowed`` is a set of key names, or a closed enumeration (an Enum
    class) for an object keyed by its values.
    """
    if type(raw) is not dict:
        raise InvariantViolation(f"{where} must be a JSON object, got {_shown(raw)}")
    if isinstance(allowed, type):
        for key in raw:
            parse_enum(allowed, key, where)
    elif not allowed.issuperset(raw):
        raise InvariantViolation(f"unknown keys {sorted(raw.keys() - allowed)} in {where}")
    return raw


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
        """Decode one record; as for an epoch row, an unknown key is rejected."""
        data = _object(data, _CONTEXT_KEYS, "patient context")
        spo2, hr = data.get("baseline_spo2"), data.get("baseline_hr")
        return cls(
            patient_id=_integer(data["patient_id"], "patient_id"),
            copd_documented=_flag(data["copd_documented"], "copd_documented"),
            baseline_spo2=None if spo2 is None else _baseline(spo2, "spo2"),
            baseline_hr=None if hr is None else _baseline(hr, "hr"),
            rate_limiting_medication=_flag(
                data.get("rate_limiting_medication", False), "rate_limiting_medication"
            ),
        )


# The keys an epoch row and a context record may carry, and the field names a
# VeritasRecord may carry: both less the record coordinates and the epoch
# fields carried only in the files, so exactly the names the rules read. The
# key sets share only ``patient_id``, so one record mapping holds both.
_EPOCH_KEYS = frozenset(f.name for f in fields(Epoch))
_CONTEXT_KEYS = frozenset(f.name for f in fields(PatientContext))
_CARRIED_ONLY = frozenset({"probe_cover_present", "ambient_condition"})
_RECORD_FIELDS = (_EPOCH_KEYS | _CONTEXT_KEYS) - {"patient_id", "timestamp"} - _CARRIED_ONLY


class _RecordFields(NamedTuple):
    patient_id: int
    timestamp: datetime
    fields: Mapping[str, TaggedValue]


class VeritasRecord(_RecordFields):
    """Unified per-epoch patient record with every field provenance-tagged.

    Measurement and context fields live in one mapping keyed by field name,
    so a field can be structurally absent (optional inputs, or excluded by
    the specialist projection); each value's tag says where it came from.
    ``patient_id`` and ``timestamp`` are record coordinates, not
    measurements, and are not tagged.

    An immutable tuple ``(patient_id, timestamp, fields)`` whose
    construction rejects a field name that no rule reads (``_RECORD_FIELDS``);
    equal when all three fields are equal, as tuples are. A tuple for the
    reason ``TaggedValue`` is one: every alerting epoch builds one.
    ``assemble``, whose keys are its own literals or the bundle's EHR field
    names, builds it with ``tuple.__new__`` and skips the check.
    """

    __slots__ = ()

    def __new__(
        cls, patient_id: int, timestamp: datetime, fields: Mapping[str, TaggedValue]
    ) -> "VeritasRecord":
        # issuperset reads the keys in place; the unknown names are only
        # built for the error message.
        if not _RECORD_FIELDS.issuperset(fields):
            unknown = sorted(fields.keys() - _RECORD_FIELDS)
            raise InvariantViolation(f"unknown record fields: {unknown}")
        return tuple.__new__(cls, (patient_id, timestamp, fields))

    @classmethod
    def _make(cls, iterable: Iterable[Any]) -> "VeritasRecord":
        # As for TaggedValue: _make and _replace keep the check.
        return cls(*iterable)


_RISK = {
    Recommendation.SUPPRESS: RiskLevel.LOW,
    Recommendation.INDETERMINATE: RiskLevel.MEDIUM,
    Recommendation.ESCALATE: RiskLevel.HIGH,
}


@dataclass(frozen=True)
class AgentClaim:
    """A specialist's recommendation for one routed alert. Its risk level
    follows from the recommendation, so the two cannot disagree."""

    domain: AgentDomain
    recommendation: Recommendation
    confidence: float
    rationale_codes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence <= 1.0:
            raise InvariantViolation(f"confidence out of [0,1]: {self.confidence}")

    @property
    def risk_level(self) -> RiskLevel:
        return _RISK[self.recommendation]

    def to_dict(self) -> dict[str, Any]:
        return {
            "domain": self.domain.value,
            "recommendation": self.recommendation.value,
            "confidence": self.confidence,
            "risk_level": self.risk_level.value,
            "rationale_codes": list(self.rationale_codes),
        }


class SystemDecision(NamedTuple):
    """The forced binary outcome for one epoch; never indeterminate.

    An immutable tuple ``(verdict, contributing_claims, resolution_path,
    decided_at)``, equal when all four fields are equal, as tuples are. A
    tuple because it is the one object kept per decision: it costs less to
    build and to hold than a frozen dataclass. It checks nothing, so
    ``resolve`` builds it with ``tuple.__new__``, skipping only the
    NamedTuple's generated Python ``__new__``.
    """

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


def epoch_line(epoch: Epoch) -> str:
    """One epoch as a line: its row, ``COMPACT_JSON``-encoded, and a newline,
    byte for byte, without building the row or running the encoder. The row
    is an object of the ten fields in declaration order: enums as their
    values, the timestamp as ``format_timestamp`` writes it, every other
    field as is.

    The fields are read once and written into one template. Enum members
    give ``_value_`` (a plain attribute; ``.value`` is a descriptor), whose
    plain ASCII needs no escape. A finite float vital is written by
    ``float.__repr__``, as the encoder writes it; any other vital (an int,
    NaN, ±inf) and any ambient_condition but null go through the encoder.
    ``patient_id`` and ``probe_cover_present`` are the int and bool every
    reader and the generator give them.
    """
    encode = COMPACT_JSON.encode
    spo2, hr, ambient, activity = (
        epoch.spo2, epoch.hr, epoch.ambient_condition, epoch.self_reported_activity
    )
    # x - x is 0.0 for a finite float, and NaN (truthy) for NaN and ±inf.
    spo2 = repr(spo2) if type(spo2) is float and not spo2 - spo2 else encode(spo2)
    hr = repr(hr) if type(hr) is float and not hr - hr else encode(hr)
    ambient = "null" if ambient is None else encode(ambient)
    activity = "null" if activity is None else f'"{activity._value_}"'
    cover = "true" if epoch.probe_cover_present else "false"
    return (
        f'{{"patient_id":{epoch.patient_id},"timestamp":"{format_timestamp(epoch.timestamp)}",'
        f'"spo2":{spo2},"hr":{hr},"accel_level":"{epoch.accel_level._value_}",'
        f'"device_status":"{epoch.device_status._value_}","probe_cover_present":{cover},'
        f'"position":"{epoch.position._value_}","self_reported_activity":{activity},'
        f'"ambient_condition":{ambient}}}\n'
    )


# A stream's lines are read, and go out, in blocks of at most this many
# lines: a long stream is never one string, and its transient columns stay
# small.
_BLOCK_LINES = 1024


def write_epochs_jsonl(epochs: Iterable[Epoch], fp: TextIO, digest: Any = None) -> None:
    """Write one ``epoch_line`` per epoch, joined in writes of at most
    ``_BLOCK_LINES`` lines: a long stream is never held as one string.
    With ``digest``, a ``hashlib`` object, each block is also fed to it
    once, as UTF-8, the bytes the file gets."""
    lines = map(epoch_line, epochs)
    while block := "".join(islice(lines, _BLOCK_LINES)):
        fp.write(block)
        if digest is not None:
            digest.update(block.encode())


# A malformed row or record raises KeyError (a missing field), ValueError (bad
# JSON, number, enum or bound) or RecursionError (JSON nested deeper than the
# decoder goes); TypeError is caught too, so a wrong type no reader checks
# still names its line or patient key.
_DECODE_ERRORS = (KeyError, TypeError, ValueError, RecursionError)


def _located(where: str, exc: Exception) -> InvariantViolation:
    """The error for a value rejected at ``where`` (a line, a patient key, an
    entry): ``<where>: missing field 'k'`` for a KeyError, else
    ``<where>: <exc>``."""
    if isinstance(exc, KeyError):
        return InvariantViolation(f"{where}: missing field {exc}")
    return InvariantViolation(f"{where}: {exc}")


# The whitespace JSON allows around a value; str.strip() with no argument
# would also drop U+00A0, U+2028 and the other Unicode spaces json rejects.
_JSON_WHITESPACE = " \t\r\n"
_JSON_FRACTION = r"(-?(?:0|[1-9][0-9]*)\.[0-9]+(?:[eE][-+]?[0-9]+)?)"


def _member_of(cls: type) -> str:
    return '"(?:' + "|".join(re.escape(member.value) for member in cls) + ')"'


# A row in exactly the form ``epoch_line`` writes, then JSON whitespace, with
# one group each for the id, timestamp, vitals and ambient_condition and one
# for the five categorical fields. Each value takes only what JSON takes
# there, narrowed to what ``from_dict`` reads without a reader of its own: an
# id without a leading zero, vitals with a fraction, a minute in Z form, and
# a null or a string without escapes or control characters. Any other row,
# valid or not, is left to ``_decode_row``.
_TEMPLATE_ROW = re.compile(
    r'\{"patient_id":(-?(?:0|[1-9][0-9]*)),'
    r'"timestamp":"([0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:00Z)",'
    f'"spo2":{_JSON_FRACTION},"hr":{_JSON_FRACTION},'
    f'("accel_level":{_member_of(AccelLevel)},"device_status":{_member_of(DeviceStatus)},'
    f'"probe_cover_present":(?:true|false),"position":{_member_of(Position)},'
    f'"self_reported_activity":(?:null|{_member_of(SelfReportedActivity)})),'
    r'"ambient_condition":(?:null|"([^"\\\x00-\x1f]*)")\}[ \t\r\n]*'
)
# Each categorical span ``epoch_line`` writes, keyed to its five values;
# filled on the first row read, so an import alone never builds it.
_CATEGORIES: dict[str, tuple[Any, ...]] = {}


def _categories() -> dict[str, tuple[Any, ...]]:
    stamp = datetime(2000, 1, 1, tzinfo=timezone.utc)
    for values in product(
        AccelLevel, DeviceStatus, (True, False), Position, (None, *SelfReportedActivity)
    ):
        line = epoch_line(Epoch(0, stamp, 0.0, 0.0, *values))
        span = line[line.index('"accel_level"') : line.index(',"ambient_condition"')]
        _CATEGORIES[span] = values
    return _CATEGORIES


def _template_block(lines: list[str]) -> list[Epoch] | None:
    """The Epochs of lines that are all in ``_TEMPLATE_ROW``'s form, or None:
    when any line is in another form, or holds a value ``from_dict`` would
    reject (a vital out of its bounds, a date that does not exist, an id
    past ``int``'s digit limit). Never raises, so every error comes from
    ``_decode_row``.

    The block is matched line by line and its groups transposed into
    columns; no match outlives its groups, so the garbage collector does
    not keep meeting a block's worth of them. The values are the ones
    ``from_dict`` gives: ``int`` and ``float`` parse the digits as json
    does, ``fromisoformat`` reads the Z form as ``timezone.utc``, as
    ``parse_timestamp`` does, and each categorical span is one lookup.
    ``min`` and ``max`` apply the vitals' bounds to a whole column, and
    ``_epoch_columns`` builds the block.
    """
    try:
        patients, stamps, spo2s, hrs, spans, ambients = zip(
            *map(re.Match.groups, map(_TEMPLATE_ROW.fullmatch, lines))
        )
    except TypeError:  # a line out of the form: fullmatch gave None
        return None
    spo2s, hrs = list(map(float, spo2s)), list(map(float, hrs))
    if not (0.0 <= min(spo2s) and max(spo2s) <= 100.0 and 0.0 < min(hrs) and max(hrs) < math.inf):
        return None
    try:
        categories = map((_CATEGORIES or _categories()).__getitem__, spans)
        accels, statuses, covers, positions, activities = zip(*categories)
        patients = list(map(int, patients))
        stamps = list(map(datetime.fromisoformat, stamps))
    except (KeyError, ValueError):
        return None
    return _epoch_columns(len(lines), (
        patients, stamps, spo2s, hrs, accels, statuses, covers, positions, activities, ambients
    ))


def _decode_row(line: str, line_no: int) -> Epoch:
    """Decode one stripped line as any JSON row: whitespace, escapes, any key
    order and duplicate keys (the last wins). A malformed row fails naming
    its line number."""
    try:
        return Epoch.from_dict(json.loads(line))
    except _DECODE_ERRORS as exc:
        raise _located(f"epochs line {line_no}", exc) from None


def _read_block(lines: list[str], first: int) -> list[Epoch]:
    """The epochs of consecutive lines, the first numbered ``first``: as one
    template block, or else line by line. A line in ``_TEMPLATE_ROW``'s form
    is tried as a one-line block; any other line, or one that block rejects,
    is stripped, skipped if blank, and decoded by ``_decode_row``, so a row
    out of the form costs one failed match and a decode. Lines are read in
    order, so the first malformed row is the one that fails."""
    epochs = _template_block(lines)
    if epochs is not None:
        return epochs
    epochs = []
    for line_no, line in enumerate(lines, start=first):
        epoch = _TEMPLATE_ROW.fullmatch(line) and _template_block([line])
        if epoch:
            epochs += epoch
        elif line := line.strip(_JSON_WHITESPACE):
            epochs.append(_decode_row(line, line_no))
    return epochs


def read_epochs_jsonl(fp: TextIO) -> list[Epoch]:
    """Decode every row; any malformed row fails, naming its line number.

    A line holds exactly one JSON value, with only JSON whitespace around
    it: data after it (a second object, or anything else) fails with "Extra
    data", and U+00A0 or U+2028 fails with "Expecting value", as ``json.loads``
    fails them. The file is read in blocks of ``_BLOCK_LINES`` lines. A
    block whose every row is in the form ``epoch_line`` writes, as every
    generated row is, is read as it stands through one pattern and built a
    column at a time (``_template_block``). A block that fails any check is
    read line by line (``_read_block``): a line in that form is tried as a
    one-line block, and any other line, or one that fails, is stripped,
    skipped if blank, and decoded by the JSON decoder. Either way a row
    gives the same epoch, and the first malformed row the same error.
    """
    epochs: list[Epoch] = []
    first = 1
    while block := list(islice(fp, _BLOCK_LINES)):
        epochs += _read_block(block, first)
        first += len(block)
    return epochs


def write_contexts_json(contexts: Mapping[int, PatientContext], fp: TextIO) -> None:
    """The sidecar as ``json.dumps({str(pid): ctx.to_dict()}, indent=2,
    sort_keys=True)`` writes it, and a newline: records in their keys' text
    order, each from one template, without the pure-Python indenting encoder.
    """
    records = [
        f'  "{key}": {{\n    "baseline_hr": {_json_scalar(ctx.baseline_hr)},\n'
        f'    "baseline_spo2": {_json_scalar(ctx.baseline_spo2)},\n'
        f'    "copd_documented": {_json_scalar(ctx.copd_documented)},\n'
        f'    "patient_id": {_json_scalar(ctx.patient_id)},\n'
        f'    "rate_limiting_medication": {_json_scalar(ctx.rate_limiting_medication)}\n  }}'
        for key, ctx in sorted((str(pid), ctx) for pid, ctx in contexts.items())
    ]
    fp.write("{\n" + ",\n".join(records) + "\n}\n" if records else "{}\n")


def _json_scalar(value: Any) -> str:
    """A scalar as ``json.dumps`` writes it."""
    kind = type(value)
    if kind is bool:
        return "true" if value else "false"
    if kind is int or kind is float and not value - value:
        return repr(value)
    return "null" if value is None else COMPACT_JSON.encode(value)


def read_contexts_json(fp: TextIO) -> dict[int, PatientContext]:
    """Decode the sidecar; a file that is no JSON fails naming it, a patient
    key given twice naming the key, and a malformed record naming its
    patient key.

    Within one record a repeated key keeps json's rule, the last wins, as
    in an epoch row. The decoder's pairs hook keeps the last object's pairs,
    which are the top level's when the file is an object: the top level
    closes last.
    """
    last_pairs: list[tuple[str, Any]] = []

    def keep_pairs(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
        nonlocal last_pairs
        last_pairs = pairs
        return dict(pairs)

    try:
        raw = json.load(fp, object_pairs_hook=keep_pairs)
    except _DECODE_ERRORS as exc:
        raise _located("contexts.json", exc) from None
    if not isinstance(raw, dict):
        raise InvariantViolation(
            f"contexts.json: must be a JSON object keyed by patient id, got {type(raw).__name__}"
        )
    if len(raw) != len(last_pairs):
        seen: set[str] = set()
        for key, _ in last_pairs:
            if key in seen:
                raise InvariantViolation(f"contexts.json: patient key {_shown(key)} is given twice")
            seen.add(key)
    contexts = {}
    for key, data in raw.items():
        try:
            context = PatientContext.from_dict(data)
            if str(context.patient_id) != key:
                raise InvariantViolation(f"holds patient_id {context.patient_id}")
        except _DECODE_ERRORS as exc:
            raise _located(f"contexts patient {key}", exc) from None
        contexts[context.patient_id] = context
    return contexts
