"""Ground-truth assembly and the inferred-value-excluding projection.

Layer 1 merges the four per-patient sources (EHR context, conversation log,
vitals stream, patient self-reports) into a fully provenance-tagged record
for one epoch. The projection applied before any downstream agent runs
removes every inferred-tagged field from the record's field set, so a value
produced by model inference can never reach detection or specialist logic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from typing import Any, Iterable, Mapping

from .model import (
    Epoch,
    PatientContext,
    ProvenanceTag,
    TaggedValue,
    VeritasRecord,
)

__all__ = [
    "ConversationEntry",
    "PatientIdMismatch",
    "SelfReportEntry",
    "SourceBundle",
    "SpecialistView",
    "assemble",
    "project_for_specialists",
]

ALLOWED_SPECIALIST_PROVENANCE = frozenset(
    {
        ProvenanceTag.DEVICE_VERIFIED,
        ProvenanceTag.PATIENT_REPORTED,
        ProvenanceTag.EHR_DERIVED,
    }
)


class PatientIdMismatch(ValueError):
    """Bundle sources disagree about which patient they describe."""


@dataclass(frozen=True)
class ConversationEntry:
    """A pre-categorized timestamped statement from the conversation log."""

    timestamp: datetime
    statement: str


@dataclass(frozen=True)
class SelfReportEntry:
    """A patient-reported activity or position statement."""

    timestamp: datetime
    kind: str  # "activity" | "position"
    value: Any

    def __post_init__(self) -> None:
        if self.kind not in ("activity", "position"):
            raise ValueError(f"self-report kind must be activity|position, got {self.kind!r}")


@dataclass(frozen=True)
class SourceBundle:
    """The four ground-truth sources for one patient.

    What assembly needs of the sources besides the epoch itself does not
    change from epoch to epoch, so it is built here once per patient: the
    source ids, the present EHR fields, and the self-reports split by kind.
    """

    ehr: PatientContext
    conversation_log: tuple[ConversationEntry, ...]
    vitals_stream: tuple[Epoch, ...]
    patient_reported: tuple[SelfReportEntry, ...]
    _device_src: str = field(init=False, repr=False, compare=False)
    _ehr_src: str = field(init=False, repr=False, compare=False)
    _report_src: str = field(init=False, repr=False, compare=False)
    _conversation_src: str = field(init=False, repr=False, compare=False)
    _ehr_fields: tuple[tuple[str, Any], ...] = field(init=False, repr=False, compare=False)
    _positions: tuple[SelfReportEntry, ...] = field(init=False, repr=False, compare=False)
    _activities: tuple[SelfReportEntry, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pid = self.ehr.patient_id
        for epoch in self.vitals_stream:
            if epoch.patient_id != pid:
                raise PatientIdMismatch(
                    f"epoch patient {epoch.patient_id} != context patient {pid}"
                )
        ehr = self.ehr
        ehr_fields = [
            ("copd_documented", ehr.copd_documented),
            ("rate_limiting_medication", ehr.rate_limiting_medication),
        ]
        if ehr.baseline_spo2 is not None:
            ehr_fields.append(("baseline_spo2", ehr.baseline_spo2))
        if ehr.baseline_hr is not None:
            ehr_fields.append(("baseline_hr", ehr.baseline_hr))
        derived = {
            "_device_src": f"vitals/{pid}",
            "_ehr_src": f"ehr/{pid}",
            "_report_src": f"patient_report/{pid}",
            "_conversation_src": f"conversation/{pid}",
            "_ehr_fields": tuple(ehr_fields),
            "_positions": tuple(e for e in self.patient_reported if e.kind == "position"),
            "_activities": tuple(e for e in self.patient_reported if e.kind == "activity"),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)


def _latest_at_or_before(entries, at: datetime):
    """Recency join: the entry with the greatest timestamp <= at, or None.

    Among entries with equal timestamps the first in input order wins.
    """
    best = None
    for entry in entries:
        if entry.timestamp <= at and (best is None or entry.timestamp > best.timestamp):
            best = entry
    return best


def assemble(bundle: SourceBundle, epoch: Epoch) -> VeritasRecord:
    """Build the tagged record for ``epoch``, one epoch of the bundle's patient.

    The caller walks the patient's vitals stream and passes each epoch as
    it goes, so assembly does no search of the stream. An epoch of another
    patient raises PatientIdMismatch: a record never mixes two patients.
    Everything else assembly reads was built once, with the bundle.

    Tag assignment follows the source: device stream fields are
    device_verified, EHR context fields are ehr_derived, self-reported
    fields (activity, position) are patient_reported. Self-report and
    conversation entries are attached by recency join (latest entry with
    timestamp <= the epoch's; among equal timestamps the first in input
    order); a joined self-report overrides the epoch's inline value and
    keeps its own observation time. Deterministic, and never invents a
    value: every output field traces to exactly one source datum.
    """
    pid = bundle.ehr.patient_id
    if epoch.patient_id != pid:
        raise PatientIdMismatch(
            f"epoch patient {epoch.patient_id} != context patient {pid}"
        )
    at = epoch.timestamp
    device_src = bundle._device_src
    epoch_fields: dict[str, TaggedValue] = {
        "spo2": TaggedValue(epoch.spo2, ProvenanceTag.DEVICE_VERIFIED, device_src, at),
        "hr": TaggedValue(epoch.hr, ProvenanceTag.DEVICE_VERIFIED, device_src, at),
        "accel_level": TaggedValue(
            epoch.accel_level, ProvenanceTag.DEVICE_VERIFIED, device_src, at
        ),
        "device_status": TaggedValue(
            epoch.device_status, ProvenanceTag.DEVICE_VERIFIED, device_src, at
        ),
        "probe_cover_present": TaggedValue(
            epoch.probe_cover_present, ProvenanceTag.DEVICE_VERIFIED, device_src, at
        ),
    }
    if epoch.ambient_condition is not None:
        epoch_fields["ambient_condition"] = TaggedValue(
            epoch.ambient_condition, ProvenanceTag.DEVICE_VERIFIED, device_src, at
        )

    report_src = bundle._report_src
    entry = _latest_at_or_before(bundle._positions, at)
    if entry is None:
        position = TaggedValue(epoch.position, ProvenanceTag.PATIENT_REPORTED, report_src, at)
    else:
        position = TaggedValue(
            entry.value, ProvenanceTag.PATIENT_REPORTED, report_src, entry.timestamp
        )
    epoch_fields["position"] = position
    entry = _latest_at_or_before(bundle._activities, at)
    if entry is not None:
        epoch_fields["self_reported_activity"] = TaggedValue(
            entry.value, ProvenanceTag.PATIENT_REPORTED, report_src, entry.timestamp
        )
    elif epoch.self_reported_activity is not None:
        epoch_fields["self_reported_activity"] = TaggedValue(
            epoch.self_reported_activity, ProvenanceTag.PATIENT_REPORTED, report_src, at
        )

    ehr_src = bundle._ehr_src
    context_fields: dict[str, TaggedValue] = {}
    for name, value in bundle._ehr_fields:
        context_fields[name] = TaggedValue(value, ProvenanceTag.EHR_DERIVED, ehr_src, at)

    conversation = _latest_at_or_before(bundle.conversation_log, at)
    flags: tuple[TaggedValue, ...] = ()
    if conversation is not None:
        flags = (
            TaggedValue(
                conversation.statement, ProvenanceTag.PATIENT_REPORTED,
                bundle._conversation_src, conversation.timestamp,
            ),
        )

    return VeritasRecord(
        patient_id=pid,
        timestamp=at,
        epoch_fields=epoch_fields,
        context_fields=context_fields,
        conversation_flags=flags,
    )


@dataclass(frozen=True, slots=True)
class SpecialistView:
    """The record as seen by detection, routing, and specialists.

    Inferred-tagged fields are structurally missing: they are not present
    in the view's field mappings at all, so no rule can read them. The
    originating record is kept for message plumbing only.
    """

    record: VeritasRecord
    epoch_fields: Mapping[str, TaggedValue]
    context_fields: Mapping[str, TaggedValue]
    conversation_flags: tuple[TaggedValue, ...]

    @property
    def patient_id(self) -> int:
        return self.record.patient_id

    @property
    def timestamp(self) -> datetime:
        return self.record.timestamp

    def field_names(self) -> frozenset[str]:
        return frozenset(self.epoch_fields) | frozenset(self.context_fields)

    def get(self, name: str) -> TaggedValue | None:
        tv = self.epoch_fields.get(name)
        if tv is None:
            tv = self.context_fields.get(name)
        return tv

    def value(self, name: str, default: Any = None) -> Any:
        tv = self.get(name)
        return default if tv is None else tv.value


def _all_allowed(tagged: Iterable[TaggedValue]) -> bool:
    for tv in tagged:
        if tv.provenance not in ALLOWED_SPECIALIST_PROVENANCE:
            return False
    return True


def project_for_specialists(record: VeritasRecord) -> SpecialistView:
    """Expose only device-verified, patient-reported, and EHR-derived fields.

    An inferred field is absent from the returned view's field set, not
    nulled; downstream code cannot distinguish it from a field that was
    never collected.

    A scan of the tags decides, per mapping, whether anything must go. A
    mapping whose every tag is allowed is shared with the record rather
    than copied (neither side ever writes to it); any other mapping is
    filtered into a new one. Either way the view holds only allowed tags.
    """
    allowed = ALLOWED_SPECIALIST_PROVENANCE
    epoch_fields = record.epoch_fields
    if not _all_allowed(epoch_fields.values()):
        epoch_fields = {k: tv for k, tv in epoch_fields.items() if tv.provenance in allowed}
    context_fields = record.context_fields
    if not _all_allowed(context_fields.values()):
        context_fields = {k: tv for k, tv in context_fields.items() if tv.provenance in allowed}
    flags = record.conversation_flags
    if not _all_allowed(flags):
        flags = tuple([tv for tv in flags if tv.provenance in allowed])
    return SpecialistView(record, epoch_fields, context_fields, flags)
