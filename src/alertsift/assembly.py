"""Ground-truth assembly and the inferred-value-excluding projection.

Layer 1 builds a fully provenance-tagged record for one epoch from the two
per-patient sources the dataset carries: the epoch row (the vitals stream,
which also holds the patient's inline position and activity reports) and
the EHR context. The projection applied before any downstream agent runs
removes every inferred-tagged field from the record's field set, so a value
produced by model inference can never reach detection or specialist logic.

Per alerting epoch (a quiet one is never assembled), ``assemble`` builds
one VeritasRecord holding seven to ten ``(value, provenance)`` values in
one mapping, only the fields a rule reads, and the projection one
``(timestamp, fields)`` SpecialistView that shares that mapping, or a
filtered copy when some tag is not allowed. The epoch's five or six values
are built per epoch; the two to four EHR values do not change from epoch
to epoch, so each patient's are built once, with its SourceBundle, and
every record of the patient holds the same immutable ones. All four types
are tuples, built with ``tuple.__new__`` for the reasons given at ``_new``.
"""

from __future__ import annotations

from datetime import datetime
from typing import Any, Iterable, Mapping, NamedTuple

from .model import (
    Epoch,
    InvariantViolation,
    PatientContext,
    ProvenanceTag,
    TaggedValue,
    VeritasRecord,
)

__all__ = [
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

# The three tags assembly assigns, bound once. Assembly builds its values
# and its record with tuple.__new__, and so skips two checks that cannot
# fail there. TaggedValue.__new__'s ProvenanceTag check: every tag it passes
# is one of these members. VeritasRecord.__new__'s field-name check: every
# key it writes is a literal of its own or of SourceBundle, and
# ``tests/test_rule_reads.py`` holds the record they make to the field
# names. Every other caller, whose tags and keys may be arbitrary, keeps the
# checked constructors, and the projection still decides by each value's
# tag. SourceBundle and the projection's SpecialistView check nothing, so
# there tuple.__new__ skips only a NamedTuple's Python __new__.
_DEVICE = ProvenanceTag.DEVICE_VERIFIED
_REPORTED = ProvenanceTag.PATIENT_REPORTED
_EHR = ProvenanceTag.EHR_DERIVED
_new = tuple.__new__


class _BundleFields(NamedTuple):
    ehr: PatientContext
    vitals_stream: tuple[Epoch, ...]
    ehr_fields: tuple[tuple[str, TaggedValue], ...]


class SourceBundle(_BundleFields):
    """One patient's sources, an immutable tuple built at most once per
    case: ``evaluate`` builds it on the case's first cell miss.

    ``ehr_fields`` holds the present EHR fields of ``ehr`` as ``(name,
    TaggedValue)`` pairs tagged ``ehr_derived``, which ``assemble`` adds to
    every record of the patient. ``vitals_stream`` holds the patient's
    epochs in the order the caller walks them; ``assemble`` checks the
    patient of each epoch the walk passes it.
    """

    __slots__ = ()

    def __new__(cls, ehr: PatientContext, vitals_stream: tuple[Epoch, ...]) -> "SourceBundle":
        ehr_fields = (
            ("copd_documented", _new(TaggedValue, (ehr.copd_documented, _EHR))),
            ("rate_limiting_medication", _new(TaggedValue, (ehr.rate_limiting_medication, _EHR))),
        )
        if ehr.baseline_spo2 is not None:
            ehr_fields += (("baseline_spo2", _new(TaggedValue, (ehr.baseline_spo2, _EHR))),)
        if ehr.baseline_hr is not None:
            ehr_fields += (("baseline_hr", _new(TaggedValue, (ehr.baseline_hr, _EHR))),)
        return _new(cls, (ehr, vitals_stream, ehr_fields))


def assemble(bundle: SourceBundle, epoch: Epoch) -> VeritasRecord:
    """Build the tagged record for ``epoch``, one epoch of the bundle's patient.

    The caller walks the patient's vitals stream and passes each epoch that
    may alert as it goes, so assembly does no search of the stream. An
    epoch of another patient raises InvariantViolation: a record never
    mixes two patients. Everything else assembly reads was built once, with
    the bundle.

    Tag assignment follows the source: device stream fields are
    device_verified, EHR context fields are ehr_derived, self-reported
    fields (the epoch's position and activity) are patient_reported; the
    fields no rule reads, ``model._CARRIED_ONLY``, are left out. The record
    carries the patient id and the epoch's time once, for all its
    values. Deterministic, and never invents a value: every output field
    traces to exactly one source datum.
    """
    pid = bundle.ehr.patient_id
    if epoch.patient_id != pid:
        raise InvariantViolation(
            f"epoch patient {epoch.patient_id} != context patient {pid}"
        )
    fields: dict[str, TaggedValue] = {
        "spo2": _new(TaggedValue, (epoch.spo2, _DEVICE)),
        "hr": _new(TaggedValue, (epoch.hr, _DEVICE)),
        "accel_level": _new(TaggedValue, (epoch.accel_level, _DEVICE)),
        "device_status": _new(TaggedValue, (epoch.device_status, _DEVICE)),
        "position": _new(TaggedValue, (epoch.position, _REPORTED)),
    }
    if epoch.self_reported_activity is not None:
        fields["self_reported_activity"] = _new(
            TaggedValue, (epoch.self_reported_activity, _REPORTED)
        )
    fields.update(bundle.ehr_fields)
    return _new(VeritasRecord, (pid, epoch.timestamp, fields))


class SpecialistView(NamedTuple):
    """The record as seen by detection, routing, and specialists.

    Inferred-tagged fields are structurally missing: they are not present
    in the view's field mapping at all, so no rule can read them.

    An immutable tuple ``(timestamp, fields)``, the record's timestamp and
    its allowed fields, equal when both are equal, as tuples are; every
    alerting epoch builds one. ``value`` reads the mapping directly, one
    lookup, as the rules call it a dozen times per alert; ``detect`` reads
    ``fields`` itself.
    """

    timestamp: datetime
    fields: Mapping[str, TaggedValue]

    def value(self, name: str, default: Any = None) -> Any:
        tv = self.fields.get(name)
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

    One scan of the tags decides whether anything must go. A mapping whose
    every tag is allowed is shared with the record rather than copied
    (neither side ever writes to it); any other is filtered into a new one.
    Either way the view holds only allowed tags.
    """
    fields = record.fields
    if not _all_allowed(fields.values()):
        allowed = ALLOWED_SPECIALIST_PROVENANCE
        fields = {k: tv for k, tv in fields.items() if tv.provenance in allowed}
    return _new(SpecialistView, (record.timestamp, fields))
