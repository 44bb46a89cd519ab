"""Ground-truth assembly and the inferred-value-excluding projection.

Layer 1 merges the four per-patient sources (EHR context, conversation log,
vitals stream, patient self-reports) into a fully provenance-tagged record
for one epoch. The projection applied before any downstream agent runs
removes every inferred-tagged field from the record's field set, so a value
produced by model inference can never reach detection or specialist logic.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import Any, Mapping

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
    """The four ground-truth sources for one patient."""

    ehr: PatientContext
    conversation_log: tuple[ConversationEntry, ...]
    vitals_stream: tuple[Epoch, ...]
    patient_reported: tuple[SelfReportEntry, ...]

    def __post_init__(self) -> None:
        for epoch in self.vitals_stream:
            if epoch.patient_id != self.ehr.patient_id:
                raise PatientIdMismatch(
                    f"epoch patient {epoch.patient_id} != context patient {self.ehr.patient_id}"
                )


def _latest_at_or_before(entries, at: datetime):
    """Recency join: the entry with the greatest timestamp <= at, or None."""
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

    Tag assignment follows the source: device stream fields are
    device_verified, EHR context fields are ehr_derived, self-reported
    fields (activity, position) are patient_reported. Self-report and
    conversation entries are attached by recency join (latest entry with
    timestamp <= the epoch's); a joined self-report overrides the epoch's
    inline value and keeps its own observation time. Deterministic, and never
    invents a value: every output field traces to exactly one source datum.
    """
    if epoch.patient_id != bundle.ehr.patient_id:
        raise PatientIdMismatch(
            f"epoch patient {epoch.patient_id} != context patient {bundle.ehr.patient_id}"
        )
    at = epoch.timestamp
    pid = bundle.ehr.patient_id
    device_src = f"vitals/{pid}"
    ehr_src = f"ehr/{pid}"
    report_src = f"patient_report/{pid}"

    def device(value: Any) -> TaggedValue:
        return TaggedValue(value, ProvenanceTag.DEVICE_VERIFIED, device_src, at)

    def reported(kind: str, inline: Any) -> TaggedValue | None:
        """The latest self-report of ``kind`` by ``at``, else the epoch's own value."""
        entry = _latest_at_or_before([e for e in bundle.patient_reported if e.kind == kind], at)
        if entry is None and inline is None:
            return None
        value, observed_at = (inline, at) if entry is None else (entry.value, entry.timestamp)
        return TaggedValue(value, ProvenanceTag.PATIENT_REPORTED, report_src, observed_at)

    epoch_fields: dict[str, TaggedValue] = {
        "spo2": device(epoch.spo2),
        "hr": device(epoch.hr),
        "accel_level": device(epoch.accel_level),
        "device_status": device(epoch.device_status),
        "probe_cover_present": device(epoch.probe_cover_present),
    }
    if epoch.ambient_condition is not None:
        epoch_fields["ambient_condition"] = device(epoch.ambient_condition)
    epoch_fields["position"] = reported("position", epoch.position)
    activity = reported("activity", epoch.self_reported_activity)
    if activity is not None:
        epoch_fields["self_reported_activity"] = activity

    def ehr(value: Any) -> TaggedValue:
        return TaggedValue(value, ProvenanceTag.EHR_DERIVED, ehr_src, at)

    context_fields: dict[str, TaggedValue] = {
        "copd_documented": ehr(bundle.ehr.copd_documented),
        "rate_limiting_medication": ehr(bundle.ehr.rate_limiting_medication),
    }
    if bundle.ehr.baseline_spo2 is not None:
        context_fields["baseline_spo2"] = ehr(bundle.ehr.baseline_spo2)
    if bundle.ehr.baseline_hr is not None:
        context_fields["baseline_hr"] = ehr(bundle.ehr.baseline_hr)

    conversation = _latest_at_or_before(bundle.conversation_log, at)
    flags: tuple[TaggedValue, ...] = ()
    if conversation is not None:
        flags = (
            TaggedValue(
                conversation.statement, ProvenanceTag.PATIENT_REPORTED,
                f"conversation/{pid}", conversation.timestamp,
            ),
        )

    return VeritasRecord(
        patient_id=pid,
        timestamp=at,
        epoch_fields=epoch_fields,
        context_fields=context_fields,
        conversation_flags=flags,
    )


@dataclass(frozen=True)
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


def project_for_specialists(record: VeritasRecord) -> SpecialistView:
    """Expose only device-verified, patient-reported, and EHR-derived fields.

    An inferred field is absent from the returned view's field set, not
    nulled; downstream code cannot distinguish it from a field that was
    never collected.
    """
    return SpecialistView(
        record=record,
        epoch_fields={
            k: tv
            for k, tv in record.epoch_fields.items()
            if tv.provenance in ALLOWED_SPECIALIST_PROVENANCE
        },
        context_fields={
            k: tv
            for k, tv in record.context_fields.items()
            if tv.provenance in ALLOWED_SPECIALIST_PROVENANCE
        },
        conversation_flags=tuple(
            tv
            for tv in record.conversation_flags
            if tv.provenance in ALLOWED_SPECIALIST_PROVENANCE
        ),
    )
