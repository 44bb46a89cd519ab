"""Record assembly: tag assignment, the reference oracle, inferred exclusion."""

from __future__ import annotations

import random
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings, strategies as st

from alertsift.assembly import (
    ALLOWED_SPECIALIST_PROVENANCE,
    SourceBundle,
    SpecialistView,
    assemble,
    project_for_specialists,
)
from alertsift.model import (
    AccelLevel,
    AlertType,
    DeviceStatus,
    InvariantViolation,
    PATIENT_ID_RANGE,
    Position,
    ProvenanceTag,
    SelfReportedActivity,
    TaggedValue,
    VeritasRecord,
)
from alertsift.sentinel import SentinelConfig, detect
from helpers import (
    DEVICE_STREAM_FIELDS,
    all_tagged,
    field_names,
    make_bundle,
    make_context,
    make_epoch,
    make_record,
    reference_assemble,
    retag_field,
    retagged,
)

NIGHT_2AM = datetime(2022, 6, 15, 2, 0, tzinfo=timezone.utc)
_CONTEXT_FIELD_NAMES = ("copd_documented", "rate_limiting_medication", "baseline_spo2")


def test_tags_assigned_by_source():
    record = make_record(
        make_epoch(ts=NIGHT_2AM, activity=SelfReportedActivity.RESTING),
        make_context(copd=True, baseline_spo2=89.0),
    )
    for name in DEVICE_STREAM_FIELDS:
        assert record.fields[name].provenance is ProvenanceTag.DEVICE_VERIFIED
    for name in _CONTEXT_FIELD_NAMES:
        assert record.fields[name].provenance is ProvenanceTag.EHR_DERIVED, name
    assert record.fields["copd_documented"].value is True
    assert record.fields["self_reported_activity"].provenance is ProvenanceTag.PATIENT_REPORTED
    assert record.fields["position"].provenance is ProvenanceTag.PATIENT_REPORTED


def test_assemble_errors():
    epoch = make_epoch()
    bundle = make_bundle(epoch)
    foreign_pid = epoch.patient_id + 1
    with pytest.raises(
        InvariantViolation, match=f"epoch patient {foreign_pid} != context patient {epoch.patient_id}"
    ):
        assemble(bundle, make_epoch(patient_id=foreign_pid))
    # A bundle does not check its stream; the walk assembles every epoch of
    # it, and assembly rejects the foreign one.
    foreign = SourceBundle(
        ehr=make_context(patient_id=epoch.patient_id + 1), vitals_stream=(epoch,)
    )
    with pytest.raises(
        InvariantViolation, match=f"epoch patient {epoch.patient_id} != context patient {foreign_pid}"
    ):
        assemble(foreign, foreign.vitals_stream[0])


def test_assemble_deterministic():
    epoch = make_epoch(spo2=91.5)
    bundle = make_bundle(epoch, make_context(copd=True, baseline_spo2=90.0))
    assert assemble(bundle, epoch) == assemble(bundle, epoch)


def test_assemble_never_invents_values():
    # provenance audit: every tagged output value equals a source datum
    epoch = make_epoch(
        spo2=88.5, hr=104.0, activity=SelfReportedActivity.WALKING, ambient="heatwave"
    )
    context = make_context(copd=True, baseline_spo2=89.0, baseline_hr=70.0, med=True)
    record = make_record(epoch, context)
    source_values = {
        "spo2": epoch.spo2,
        "hr": epoch.hr,
        "accel_level": epoch.accel_level,
        "device_status": epoch.device_status,
        "position": epoch.position,
        "self_reported_activity": epoch.self_reported_activity,
        "copd_documented": context.copd_documented,
        "baseline_spo2": context.baseline_spo2,
        "baseline_hr": context.baseline_hr,
        "rate_limiting_medication": context.rate_limiting_medication,
    }
    for name, tv in all_tagged(record):
        assert tv.value == source_values[name], name


@st.composite
def _epochs_and_contexts(draw):
    pid = draw(st.integers(*PATIENT_ID_RANGE))
    ts = datetime(2022, 6, 1, tzinfo=timezone.utc) + timedelta(
        minutes=draw(st.integers(0, 92 * 24 * 60 - 1))
    )
    vital = st.floats(0.0, 250.0, allow_nan=False)
    epoch = make_epoch(
        ts=ts,
        patient_id=pid,
        spo2=draw(vital),
        hr=draw(vital),
        accel=draw(st.sampled_from(list(AccelLevel))),
        status=draw(st.sampled_from(list(DeviceStatus))),
        probe_cover=draw(st.booleans()),
        position=draw(st.sampled_from(list(Position))),
        activity=draw(st.none() | st.sampled_from(list(SelfReportedActivity))),
        ambient=draw(st.none() | st.sampled_from(["heatwave", "cold", ""])),
    )
    baseline_spo2 = draw(st.none() | st.floats(70.0, 100.0))
    context = make_context(
        patient_id=pid,
        copd=baseline_spo2 is not None and draw(st.booleans()),
        baseline_spo2=baseline_spo2,
        baseline_hr=draw(st.none() | st.floats(25.0, 220.0)),
        med=draw(st.booleans()),
    )
    return epoch, context


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_epochs_and_contexts())
def test_assemble_matches_the_checked_reference(case):
    # Property: assembly's unchecked tuple construction gives the record the
    # checked constructor gives, of the same type, field for field and in the
    # same order (the epoch's fields, then the context's), and every value is
    # a real TaggedValue holding a ProvenanceTag.
    epoch, context = case
    record = assemble(make_bundle(epoch, context), epoch)
    reference = reference_assemble(make_bundle(epoch, context), epoch)
    assert type(record) is type(reference) is VeritasRecord
    assert record == reference
    assert list(record.fields) == list(reference.fields)
    for name, tv in all_tagged(record):
        assert type(tv) is TaggedValue, name
        assert isinstance(tv.provenance, ProvenanceTag), name


_RECORD_FIELD_NAMES = [
    "spo2", "hr", "accel_level", "device_status", "position", "self_reported_activity",
    "copd_documented", "rate_limiting_medication", "baseline_spo2", "baseline_hr",
]


def _retagged_record(record: VeritasRecord, tags: dict) -> VeritasRecord:
    """``record`` rebuilt, checked, with each field named in ``tags`` retagged."""
    return VeritasRecord(
        record.patient_id,
        record.timestamp,
        {k: retagged(tv, tags[k]) if k in tags else tv for k, tv in record.fields.items()},
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.dictionaries(st.sampled_from(_RECORD_FIELD_NAMES), st.sampled_from(list(ProvenanceTag))),
    st.none() | st.sampled_from(list(SelfReportedActivity)),
    st.none() | st.just("heatwave"),
)
def test_view_accessors_match_a_plain_reference(tags, activity, ambient):
    # Property: over records retagged at random, with the optional epoch
    # fields present or absent, value(n, d) is the .value of the view's
    # tagged value for n, or d.
    epoch = make_epoch(activity=activity, ambient=ambient)
    record = make_record(epoch, make_context(copd=True, baseline_spo2=89.0, baseline_hr=70.0))
    view = project_for_specialists(_retagged_record(record, tags))
    missing = object()
    for name in (*_RECORD_FIELD_NAMES, "pulse"):
        expected = view.fields.get(name)
        assert view.value(name) is (None if expected is None else expected.value), name
        assert view.value(name, missing) is (missing if expected is None else expected.value)


def test_projection_identity_when_nothing_inferred():
    record = make_record(make_epoch(activity=SelfReportedActivity.RESTING))
    view = project_for_specialists(record)
    assert field_names(view) == frozenset(record.fields)
    # Nothing to drop, so the record's mapping is shared, not copied. The
    # view keeps of the record only its timestamp.
    assert view.fields is record.fields
    assert view == (record.timestamp, record.fields) and type(view) is SpecialistView


def test_projection_drops_injected_inferred_statement():
    # An inferred activity ("the model guesses the patient is resting") put
    # into an epoch that carries no self-report never reaches the view.
    record = make_record(make_epoch())
    inferred = TaggedValue(SelfReportedActivity.RESTING, ProvenanceTag.INFERRED)
    tampered = type(record)(
        patient_id=record.patient_id,
        timestamp=record.timestamp,
        fields={**record.fields, "self_reported_activity": inferred},
    )
    view = project_for_specialists(tampered)
    assert "self_reported_activity" not in field_names(view)
    assert view.value("self_reported_activity") is None
    assert all(tv.provenance is not ProvenanceTag.INFERRED for tv in view.fields.values())
    assert field_names(view) == frozenset(record.fields)


def test_projection_excludes_retagged_spo2_and_sentinel_stays_silent():
    record = retag_field(make_record(make_epoch(spo2=80.0)), "spo2", ProvenanceTag.INFERRED)
    view = project_for_specialists(record)
    assert "spo2" not in field_names(view)
    types = detect(view, SentinelConfig())
    assert types is None or AlertType.LOW_SPO2 not in types


def test_projection_field_scan_never_exposes_inferred():
    rng = random.Random(4242)
    names = ["spo2", "hr", "accel_level", "device_status", "position"]
    for _ in range(50):
        record = make_record(make_epoch(spo2=85.0, hr=110.0))
        for name in rng.sample(names, k=rng.randint(1, len(names))):
            record = retag_field(record, name, ProvenanceTag.INFERRED)
        view = project_for_specialists(record)
        for name in field_names(view):
            assert view.fields.get(name).provenance is not ProvenanceTag.INFERRED


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.dictionaries(st.sampled_from(_RECORD_FIELD_NAMES), st.sampled_from(list(ProvenanceTag))))
def test_projection_never_exposes_inferred_under_random_provenance(tags):
    # Property: retag any subset of an assembled record's fields at random;
    # the projected view holds no inferred value.
    epoch = make_epoch(activity=SelfReportedActivity.WALKING, ambient="heatwave")
    record = make_record(epoch, make_context(copd=True, baseline_spo2=89.0, baseline_hr=70.0))
    tampered = _retagged_record(record, tags)
    view = project_for_specialists(tampered)
    shown = list(view.fields.values())
    assert all(tv.provenance is not ProvenanceTag.INFERRED for tv in shown)
    # Only inferred values are dropped.
    kept = [tv for _, tv in all_tagged(tampered) if tv.provenance is not ProvenanceTag.INFERRED]
    assert len(shown) == len(kept)


def test_projection_drops_one_inferred_context_field_into_a_filtered_copy():
    record = make_record(make_epoch(), make_context(copd=True, baseline_spo2=89.0))
    tampered = retag_field(record, "baseline_spo2", ProvenanceTag.INFERRED)
    view = project_for_specialists(tampered)
    assert "baseline_spo2" not in view.fields
    # The record's mapping holds the inferred value, so the view gets a copy
    # without it, and every other field, epoch or context, is kept as is.
    assert view.fields is not tampered.fields
    assert view.fields == {k: tv for k, tv in record.fields.items() if k != "baseline_spo2"}
    assert "baseline_spo2" in tampered.fields
    assert view.value("baseline_spo2") is None
    assert view.value("copd_documented") is True


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.dictionaries(st.sampled_from(_RECORD_FIELD_NAMES), st.sampled_from(list(ProvenanceTag))),
)
def test_projection_never_shares_a_mapping_holding_a_disallowed_tag(tags):
    # Property: whatever the tags, the view's mapping is the record's own
    # exactly when every tag in it is allowed, and otherwise a filtered copy;
    # the view's mapping never holds a disallowed tag.
    epoch = make_epoch(activity=SelfReportedActivity.WALKING)
    record = make_record(epoch, make_context(copd=True, baseline_spo2=89.0, baseline_hr=70.0))
    tampered = _retagged_record(record, tags)
    view = project_for_specialists(tampered)

    allowed = ALLOWED_SPECIALIST_PROVENANCE
    source = tampered.fields
    clean = all(tv.provenance in allowed for tv in source.values())
    assert (view.fields is source) is clean
    assert list(view.fields.values()) == [tv for tv in source.values() if tv.provenance in allowed]
