"""Core type validation, closed enumerations, and round-trip codecs."""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import hashlib
import importlib
import inspect
import io
import itertools
import json
import pickle
import pkgutil
import random
import re
from dataclasses import fields
from datetime import datetime, timedelta, timezone
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from alertsift.model import (
    COMPACT_JSON,
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
    RiskLevel,
    SelfReportedActivity,
    SystemDecision,
    TaggedValue,
    Verdict,
    VeritasRecord,
    epoch_line,
    format_timestamp,
    parse_enum,
    parse_timestamp,
    read_contexts_json,
    read_epochs_jsonl,
    write_contexts_json,
    write_epochs_jsonl,
)
import alertsift
from alertsift import cli, model
from alertsift.assembly import project_for_specialists
from alertsift.evaluate import OutcomeKind
from alertsift.synthgen import (
    CategoricalSpec,
    ContinuousSpec,
    default_taxonomy_path,
    generate_case,
    generate_dataset,
    load_taxonomy,
    write_dataset,
)
from helpers import (
    DAYTIME,
    NIGHT,
    epoch_row,
    make_context,
    make_entry,
    make_epoch,
    make_record,
    reference_format_timestamp,
    retagged,
)


# An epoch's vitals are bounded by the spec they are drawn from, and that
# spec is checked against 70-100 (SpO2) and 25-220 (HR) when its entry is
# built; a draw is clamped to the spec.


def test_validate_epoch_nominal_marginal_values_ok():
    marginal = {
        "spo2": ContinuousSpec(93.5, 0.1, 93.0, 94.0),
        "hr": ContinuousSpec(101.8, 0.1, 101.0, 102.0),
    }
    entry = make_entry(continuous_params=marginal)
    assert entry.continuous_params == marginal
    epochs, _ = generate_case(entry, 3847291, DAYTIME, seed=42)
    assert all(93.0 <= e.spo2 <= 94.0 and 101.0 <= e.hr <= 102.0 for e in epochs)


def test_validate_epoch_boundaries_inclusive():
    # The spec bounds may reach both edges of each range, and the draws
    # reach both edges but never pass them. An HR draw lands on 220 only
    # when the noise carries one of the top ~0.13% of its spec past it, so
    # 1,000 epochs reach all four edges for about one seed in eight; 10,000
    # reach them for 96 seeds of 100.
    edges = {
        "spo2": ContinuousSpec(85.0, 50.0, 70.0, 100.0),
        "hr": ContinuousSpec(120.0, 200.0, 25.0, 220.0),
    }
    epochs, _ = generate_case(
        make_entry(epoch_count=10_000, continuous_params=edges), 3847291, DAYTIME, seed=42
    )
    assert (min(e.spo2 for e in epochs), max(e.spo2 for e in epochs)) == (70.0, 100.0)
    assert (min(e.hr for e in epochs), max(e.hr for e in epochs)) == (25.0, 220.0)


def test_timestamp_minute_resolution_enforced():
    with pytest.raises(InvariantViolation, match="is not minute-resolution"):
        parse_timestamp("2022-06-15T14:00:30Z")
    with pytest.raises(InvariantViolation, match="is not timezone-aware"):
        parse_timestamp("2022-06-15T14:00:00")  # naive


@pytest.mark.parametrize(
    "cls",
    [
        ProvenanceTag,
        DeviceStatus,
        AccelLevel,
        Position,
        SelfReportedActivity,
        AlertType,
        AgentDomain,
        Recommendation,
        RiskLevel,
        Verdict,
        ResolutionPath,
        DomainClass,
        OutcomeKind,
    ],
)
def test_closed_enums_reject_unknown_strings(cls):
    with pytest.raises(
        InvariantViolation, match="^field: 'definitely_not_a_member' is not one of \\["
    ):
        parse_enum(cls, "definitely_not_a_member", "field")
    # every declared member parses back
    for member in cls:
        assert parse_enum(cls, member.value, "field") is member
    # The enum's own constructor is the reference: the same member for every
    # value it accepts, InvariantViolation naming the field and the value for
    # every value it rejects.
    first = next(iter(cls))
    inputs = [m.value for m in cls] + list(cls) + [
        "definitely_not_a_member", "", first.value.upper(), f" {first.value}",
        1, 0, True, None, 1.5, [], [first.value], {}, {first.value: 1},
    ]
    for raw in inputs:
        try:
            expected = cls(raw)
        except ValueError:
            with pytest.raises(InvariantViolation, match=f"^field: {re.escape(repr(raw))} is not"):
                parse_enum(cls, raw, "field")
        else:
            assert parse_enum(cls, raw, "field") is expected


def test_the_package_defines_one_error_type():
    # Every rejected value raises InvariantViolation; cli._Failure only
    # carries a failed command step to main's one error: line.
    defined = set()
    for info in pkgutil.iter_modules(alertsift.__path__):
        module = importlib.import_module(f"alertsift.{info.name}")
        defined.update(
            value for value in vars(module).values()
            if isinstance(value, type) and issubclass(value, BaseException)
            and value.__module__ == module.__name__
        )
    assert defined == {InvariantViolation, cli._Failure}


def test_every_exported_name_is_defined():
    # A name deleted from a module must leave its __all__ too.
    for info in pkgutil.iter_modules(alertsift.__path__):
        module = importlib.import_module(f"alertsift.{info.name}")
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], module.__name__


def test_format_timestamp_matches_strftime():
    # The strftime form is the reference; glibc does not pad years below
    # 1000, so the sweep stays in years 1001-9998 (offsets never leave it).
    rng = random.Random(20220601)
    stamps = [DAYTIME, *(datetime(2022, m, 1, tzinfo=timezone.utc) for m in (6, 9))]
    for _ in range(2000):
        offset = timezone(timedelta(minutes=rng.randint(-23 * 60 - 59, 23 * 60 + 59)))
        stamps.append(
            datetime(
                rng.randint(1001, 9998), rng.randint(1, 12), rng.randint(1, 28),
                rng.randint(0, 23), rng.randint(0, 59), rng.randint(0, 59),
                rng.choice((0, rng.randint(0, 999_999))), tzinfo=offset,
            )
        )
    for ts in stamps:
        reference = ts.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:00Z")
        assert format_timestamp(ts) == reference, ts


def test_format_timestamp_matches_the_reference_from_year_1_to_9999():
    # Each drawn day's UTC midnight, the minutes either side of it and one
    # drawn minute, each written from zones on both sides of UTC: so a local
    # day holds minutes of two UTC days, and a date keyed by the local day
    # would be written for the wrong one.
    rng = random.Random(25)
    offsets = [timezone(timedelta(minutes=m)) for m in (-1439, -60, -1, 0, 1, 60, 1439)]
    first = datetime(1, 1, 1, tzinfo=timezone.utc)
    last_day = (datetime(9999, 12, 31, tzinfo=timezone.utc) - first).days
    for day in [0, last_day, *(rng.randint(0, last_day) for _ in range(2000))]:
        for minute in (-1, 0, 1, rng.randrange(24 * 60)):
            for offset in offsets:
                try:
                    ts = (
                        first
                        + timedelta(days=day, minutes=minute, seconds=rng.randrange(60))
                    ).astimezone(offset)
                except OverflowError:  # before year 1 or after 9999, UTC or local
                    continue
                assert format_timestamp(ts) == reference_format_timestamp(ts), ts


def _epoch_values(rng: random.Random) -> dict:
    """A drawn value for each Epoch field, the optional ones often set."""
    return {
        "patient_id": rng.randint(0, 10**7),
        "timestamp": DAYTIME + timedelta(minutes=rng.randint(-10**6, 10**6)),
        "spo2": rng.uniform(70.0, 100.0),
        "hr": rng.uniform(25.0, 220.0),
        "accel_level": rng.choice(list(AccelLevel)),
        "device_status": rng.choice(list(DeviceStatus)),
        "probe_cover_present": rng.random() < 0.5,
        "position": rng.choice(list(Position)),
        "self_reported_activity": rng.choice([None, *SelfReportedActivity]),
        "ambient_condition": rng.choice([None, "humid", "cold", ""]),
    }


def test_epoch_init_builds_what_the_dataclass_init_builds():
    # Epoch's __init__ is written out, and model._epoch_columns builds
    # epochs a slot column at a time; the reference is the same fields in a
    # frozen slotted dataclass with the __init__ dataclass generates. Neither
    # build would run a __post_init__, so Epoch must not define one.
    assert "__post_init__" not in vars(Epoch)
    params = list(inspect.signature(Epoch).parameters.values())
    assert [(p.name, p.default) for p in params] == [
        (f.name, inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default)
        for f in fields(Epoch)
    ]
    Reference = dataclasses.make_dataclass(
        "Reference",
        [(f.name, f.type, dataclasses.field(default=f.default)) for f in fields(Epoch)],
        frozen=True,
        slots=True,
    )
    names = [f.name for f in fields(Epoch)]
    rng = random.Random(8)
    drawn = [_epoch_values(rng) for _ in range(300)]
    # The column builder, one column per field, over runs of drawn values
    # on both sides of the size from which it builds by column.
    cut = model._COLUMN_BUILD_MIN
    by_columns = []
    for size in (1, 2, cut - 1, cut, cut + 1, 300 - 3 * cut - 3):
        run = drawn[len(by_columns) : len(by_columns) + size]
        by_columns += model._epoch_columns(size, [[values[n] for values in run] for n in names])
    assert len(by_columns) == len(drawn)
    for values, from_columns in zip(drawn, by_columns):
        reference = Reference(**values)
        positional = list(values.values())
        built = [Epoch(**values), Epoch(*positional), from_columns]
        if values["ambient_condition"] is None:
            built.append(Epoch(*positional[:-1]))
            if values["self_reported_activity"] is None:
                built.append(Epoch(*positional[:-2]))
        for epoch in built:
            assert type(epoch) is Epoch
            assert all(getattr(epoch, n) is getattr(reference, n) for n in names), epoch
            assert epoch == built[0] and hash(epoch) == hash(built[0])
            assert repr(epoch) == repr(reference).replace("Reference(", "Epoch(", 1)

        for epoch in (built[0], from_columns):
            moved = dataclasses.replace(epoch, patient_id=epoch.patient_id + 1)
            assert moved.patient_id == epoch.patient_id + 1
            assert [getattr(moved, n) for n in names[1:]] == [getattr(epoch, n) for n in names[1:]]
            assert copy.copy(epoch) == epoch == pickle.loads(pickle.dumps(epoch))

    for epoch in (built[0], from_columns):
        assert not hasattr(epoch, "__dict__")
        for name in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(epoch, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(epoch, name)
    # Columns may be endless, as a constant column is: each gives n values.
    for size in (0, 2, cut, 40):
        endless = [itertools.repeat(value) for value in positional]
        assert model._epoch_columns(size, endless) == [Epoch(*positional)] * size


def test_device_status_spellings_match_file_format():
    assert DeviceStatus.MOTION_ARTEFACT.value == "motion_artefact"
    assert {s.value for s in DeviceStatus} == {
        "ok",
        "motion_artefact",
        "probe_cover",
        "system_flag",
        "threshold_marginal",
        "duplicate_alert",
    }


def test_tagged_value_requires_provenance():
    with pytest.raises(InvariantViolation):
        TaggedValue(1.0, None)  # type: ignore[arg-type]


def test_tagged_value_is_immutable():
    tv = TaggedValue(1.0, ProvenanceTag.DEVICE_VERIFIED)
    assert TaggedValue._fields == ("value", "provenance")
    for name in ("value", "provenance", "extra"):
        with pytest.raises(AttributeError):
            setattr(tv, name, ProvenanceTag.INFERRED)
    assert tv == TaggedValue(1.0, ProvenanceTag.DEVICE_VERIFIED)
    assert retagged(tv, ProvenanceTag.INFERRED).provenance is ProvenanceTag.INFERRED
    with pytest.raises(InvariantViolation):
        tv._replace(provenance="inferred")


def test_epoch_round_trip_all_fields():
    epoch = make_epoch(
        spo2=88.25,
        hr=104.5,
        accel=AccelLevel.VIGOROUS,
        status=DeviceStatus.MOTION_ARTEFACT,
        probe_cover=True,
        position=Position.LATERAL,
        activity=SelfReportedActivity.WALKING,
        ambient="heatwave_advisory",
    )
    assert Epoch.from_dict(epoch_row(epoch)) == epoch
    for bad in (
        {"spo2": 100.5}, {"spo2": float("inf")}, {"hr": 0.0}, {"hr": float("nan")},
        {"patient_id": 3847291.9}, {"patient_id": True}, {"patient_id": "3847291"},
        {"hr": True}, {"spo2": False}, {"spo2": "97"}, {"hr": None},
    ):
        with pytest.raises(InvariantViolation):
            Epoch.from_dict({**epoch_row(epoch), **bad})
    # A JSON integer is a number: it decodes to the float it stands for.
    assert Epoch.from_dict({**epoch_row(epoch), "hr": 104}).hr == 104.0


def test_epoch_round_trip_optionals_absent():
    epoch = make_epoch(activity=None, ambient=None)
    decoded = Epoch.from_dict(epoch_row(epoch))
    assert decoded == epoch
    assert decoded.self_reported_activity is None


def test_patient_context_round_trip():
    ctx = make_context(copd=True, baseline_spo2=89.0, baseline_hr=72.0, med=True)
    assert PatientContext.from_dict(ctx.to_dict()) == ctx
    for bad in (
        {"baseline_hr": float("nan")}, {"patient_id": 3847291.9}, {"patient_id": True},
        {"baseline_spo2": False}, {"baseline_spo2": "0"}, {"baseline_hr": "200"},
        # A baseline outside the generator's SpO2 70-100 or HR 25-220. An HR
        # baseline of 1000 would let tachycardia suppress HR 210.
        {"baseline_spo2": 69.9}, {"baseline_spo2": 100.1},
        {"baseline_hr": 24.9}, {"baseline_hr": 220.1}, {"baseline_hr": 1000},
    ):
        with pytest.raises(InvariantViolation):
            PatientContext.from_dict({**ctx.to_dict(), **bad})
    for edge in (
        {"baseline_spo2": 70.0}, {"baseline_spo2": 100.0},
        {"baseline_hr": 25.0}, {"baseline_hr": 220.0},
    ):
        data = {**ctx.to_dict(), **edge}
        assert PatientContext.from_dict(data).to_dict() == data


def test_patient_context_copd_requires_baseline():
    with pytest.raises(InvariantViolation):
        make_context(copd=True, baseline_spo2=None)


def _tuple_backed_samples():
    """One of each tuple-backed per-epoch type: a record, its view and a
    decision, each built by its constructor."""
    record = make_record(make_epoch(spo2=88.0))
    claim = AgentClaim(AgentDomain.COPD, Recommendation.ESCALATE, 0.9)
    decision = SystemDecision(Verdict.ESCALATE, (claim,), ResolutionPath.SINGLE_DOMAIN, DAYTIME)
    return record, project_for_specialists(record), decision


def test_tuple_backed_types_are_immutable_and_hold_no_dict():
    for sample in _tuple_backed_samples():
        assert not hasattr(sample, "__dict__"), type(sample)
        for name in (*sample._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(sample, name, None)
        # Equality is tuple equality: a rebuilt copy is equal.
        assert type(sample)(*sample) == sample


def test_record_make_and_replace_keep_the_field_name_check():
    record = _tuple_backed_samples()[0]
    tv = record.fields["spo2"]
    assert VeritasRecord._make(record) == record
    assert record._replace(timestamp=NIGHT).timestamp == NIGHT
    # A name that is no field, the two record coordinates, which are not
    # tagged fields either, and the two epoch fields no rule reads.
    for name in (
        "pulse", "copd", "patient_id", "timestamp", "probe_cover_present", "ambient_condition"
    ):
        bad = {"fields": {**record.fields, name: tv}}
        kwargs = {**record._asdict(), **bad}
        message = rf"unknown record fields: \['{name}'\]"
        with pytest.raises(InvariantViolation, match=message):
            VeritasRecord(**kwargs)
        with pytest.raises(InvariantViolation, match=message):
            VeritasRecord._make(kwargs.values())
        with pytest.raises(InvariantViolation, match=message):
            record._replace(**bad)


def test_record_field_names_are_the_epoch_and_context_names_less_the_coordinates():
    # The record keeps epoch and context values in one mapping, so a context
    # field named like an epoch field would overwrite that value unnoticed.
    # The two key sets share only the patient, and a record admits exactly
    # their union less its two coordinates and the two epoch fields carried
    # only in the files, which a full record fills.
    epoch_keys = {f.name for f in fields(Epoch)}
    context_keys = {f.name for f in fields(PatientContext)}
    assert epoch_keys & context_keys == {"patient_id"}
    carried_only = {"probe_cover_present", "ambient_condition"}
    assert model._CARRIED_ONLY == carried_only < epoch_keys
    record_keys = (epoch_keys | context_keys) - {"patient_id", "timestamp"} - carried_only
    assert model._RECORD_FIELDS == record_keys
    record = make_record(
        make_epoch(activity=SelfReportedActivity.WALKING, ambient="heatwave"),
        make_context(copd=True, baseline_spo2=89.0, baseline_hr=70.0),
    )
    assert record.fields.keys() == record_keys
    assert VeritasRecord(*record) == record


def test_agent_claim_round_trip_and_confidence_bounds():
    claim = AgentClaim(
        AgentDomain.COPD, Recommendation.SUPPRESS, 0.9, ("within_copd_baseline",)
    )
    assert json.loads(json.dumps(claim.to_dict())) == {
        "domain": "copd",
        "recommendation": "suppress",
        "confidence": 0.9,
        "risk_level": "low",
        "rationale_codes": ["within_copd_baseline"],
    }
    with pytest.raises(InvariantViolation):
        AgentClaim(AgentDomain.COPD, Recommendation.SUPPRESS, 1.5)
    # The risk level follows from the recommendation; no caller can set it.
    assert [f.name for f in fields(AgentClaim)] == [
        "domain", "recommendation", "confidence", "rationale_codes"
    ]


def test_system_decision_round_trip_and_binary_verdict():
    claim = AgentClaim(
        AgentDomain.PROBE_INTEGRITY,
        Recommendation.INDETERMINATE,
        0.4,
        ("system_flag_no_context",),
    )
    decision = SystemDecision(
        Verdict.ESCALATE, (claim,), ResolutionPath.AMBIGUITY_DEFAULT, DAYTIME
    )
    assert json.loads(json.dumps(decision.to_dict())) == {
        "verdict": "escalate",
        "contributing_claims": [claim.to_dict()],
        "resolution_path": "ambiguity_default",
        "decided_at": format_timestamp(DAYTIME),
    }
    assert {v.value for v in Verdict} == {"suppress", "escalate"}


def test_round_trip_randomized_epochs():
    rng = random.Random(1234)
    statuses = list(DeviceStatus)
    accels = list(AccelLevel)
    positions = list(Position)
    activities = list(SelfReportedActivity) + [None]
    for _ in range(200):
        epoch = make_epoch(
            spo2=round(rng.uniform(70, 100), 2),
            hr=round(rng.uniform(25, 220), 2),
            accel=rng.choice(accels),
            status=rng.choice(statuses),
            probe_cover=rng.random() < 0.5,
            position=rng.choice(positions),
            activity=rng.choice(activities),
        )
        assert Epoch.from_dict(epoch_row(epoch)) == epoch


# ``epoch_line`` writes an epoch's dataset row and its digest row from
# templates; the reference is the encoder over ``epoch_row``. Drawn: vitals at
# float boundaries (subnormal, shortest-repr, exponent form, negative zero),
# as ints and as NaN/±inf; every enum member and no activity; ambient
# conditions as any JSON value, including objects whose keys the digest row
# sorts and text with quotes, backslashes, control and non-ASCII characters;
# patient ids past 64 bits; minutes in non-UTC zones.

_VITALS = st.one_of(
    st.sampled_from([5e-324, 0.1, 1e16, 100.0, -0.0, float("nan"), float("inf"), -float("inf")]),
    st.floats(),
    st.integers(-(10**20), 10**20),
)
_TEXT = st.text(st.sampled_from('aZ0_ "\\/\x00\x1f\x7fé☃\U0001f600\u2028\n\t'), max_size=8) | st.text()
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=8,
)
_ZONES = [
    timezone.utc,
    timezone(timedelta(hours=5, minutes=30)),
    timezone(timedelta(hours=-8)),
    timezone(timedelta(hours=13, minutes=45)),
]
_epochs = st.builds(
    Epoch,
    patient_id=st.one_of(st.integers(0, 10**7), st.integers(-(10**30), 10**30)),
    timestamp=st.datetimes(
        min_value=datetime(2000, 1, 1), max_value=datetime(2099, 12, 31),
        timezones=st.sampled_from(_ZONES),
    ).map(lambda ts: ts.replace(second=0, microsecond=0)),
    spo2=_VITALS,
    hr=_VITALS,
    accel_level=st.sampled_from(AccelLevel),
    device_status=st.sampled_from(DeviceStatus),
    probe_cover_present=st.booleans(),
    position=st.sampled_from(Position),
    self_reported_activity=st.none() | st.sampled_from(SelfReportedActivity),
    ambient_condition=st.none() | _JSON_VALUES,
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_epochs)
def test_epoch_line_matches_the_encoders_byte_for_byte(epoch):
    row = epoch_row(epoch)
    assert epoch_line(epoch) == COMPACT_JSON.encode(row) + "\n"


def test_write_epochs_jsonl_writes_at_most_1024_lines_a_write():
    # In blocks: a long stream is never joined into one string. 2,500
    # epochs go out as two full blocks of 1,024 lines and one of 452.
    class Recorder(io.StringIO):
        def __init__(self):
            super().__init__()
            self.writes = []

        def write(self, text):
            self.writes.append(text)
            return super().write(text)

    epochs = [
        make_epoch(ts=DAYTIME + timedelta(minutes=i), hr=60.0 + i % 40) for i in range(2500)
    ]
    fp = Recorder()
    write_epochs_jsonl(tuple(epochs), fp)
    assert [text.count("\n") for text in fp.writes] == [1024, 1024, 452]
    assert "".join(fp.writes) == "".join(epoch_line(e) for e in epochs)
    assert [Epoch.from_dict(json.loads(line)) for line in fp.getvalue().splitlines()] == epochs
    # With a digest the writes are the same, and the digest is of their bytes.
    hashed, digest = Recorder(), hashlib.sha256()
    write_epochs_jsonl(iter(epochs), hashed, digest)
    assert hashed.writes == fp.writes
    assert digest.hexdigest() == hashlib.sha256(fp.getvalue().encode()).hexdigest()
    # No epochs, no write.
    empty, digest = Recorder(), hashlib.sha256()
    write_epochs_jsonl((), empty, digest)
    assert empty.writes == [] and digest.hexdigest() == hashlib.sha256().hexdigest()


# ``read_epochs_jsonl`` reads a block of rows in the form ``epoch_line``
# writes through one pattern, and reads a block holding any other row line
# by line through the JSON decoder (``model._decode_row``). The reference is
# the decoder alone. Drawn: rows as ``epoch_line`` writes
# them, from ``_epochs`` and from epochs whose values the pattern may take, and
# near-misses of the latter, each one edit that JSON still reads (or
# rejects) its own way.


def _row_text(row, **tokens):
    """The row as compact JSON, each key in ``tokens`` written as the given
    raw JSON text instead of its value."""
    return "{" + ",".join(
        f'"{key}":{tokens[key] if key in tokens else COMPACT_JSON.encode(value)}'
        for key, value in row.items()
    ) + "}"


def _escaped_first_char(value):
    return '"\\u%04x%s"' % (ord(value[0]), value[1:])


_NEAR_MISSES = {
    "duplicate_key_last_valid": lambda row: '{"spo2":-1.0,' + _row_text(row)[1:],
    "duplicate_key_last_invalid": lambda row: _row_text(row)[:-1] + ',"spo2":-1.0}',
    "space_after_comma": lambda row: _row_text(row).replace(",", ", ", 1),
    "space_after_colon": lambda row: _row_text(row).replace(":", ": ", 1),
    "escaped_enum": lambda row: _row_text(
        row, device_status=_escaped_first_char(row["device_status"])
    ),
    "reordered_keys": lambda row: COMPACT_JSON.encode(dict(reversed(row.items()))),
    "int_vital": lambda row: _row_text(row, hr=str(int(row["hr"]))),
    "exponent_only_vital": lambda row: _row_text(row, spo2="1E+1"),
    "negative_zero_spo2": lambda row: _row_text(row, spo2="-0.0"),
    "negative_zero_hr": lambda row: _row_text(row, hr="-0.0"),
    "spo2_over_100": lambda row: _row_text(row, spo2="100.5"),
    "overflowing_vital": lambda row: _row_text(row, hr="1.0e999"),
    "leading_zero_id": lambda row: _row_text(row, patient_id="0%d" % abs(row["patient_id"])),
    "5000_digit_id": lambda row: _row_text(row, patient_id="1" * 5000),
    "month_13": lambda row: _row_text(row, timestamp='"2022-13-01T00:00:00Z"'),
    "february_30": lambda row: _row_text(row, timestamp='"2024-02-30T00:00:00Z"'),
    "year_0000": lambda row: _row_text(row, timestamp='"0000-01-01T00:00:00Z"'),
    "escaped_quote_ambient": lambda row: _row_text(row, ambient_condition='"a\\"b"'),
    "raw_tab_ambient": lambda row: _row_text(row, ambient_condition='"a\tb"'),
    "raw_non_ascii_ambient": lambda row: _row_text(
        row, ambient_condition='"\xe9\u2603\U0001f600\u2028\x7f"'
    ),
    "object_ambient": lambda row: _row_text(row, ambient_condition='{"a":1}'),
    "trailing_data": lambda row: _row_text(row) + " x",
    "byte_order_mark": lambda row: "\ufeff" + _row_text(row),
    "no_break_space_around": lambda row: "\xa0" + _row_text(row) + "\xa0",
    # The pattern takes trailing JSON whitespace, and nothing else after the
    # row: a vertical tab, a form feed or U+2028 is not JSON whitespace, and
    # fails as json.loads fails it. A leading space is left to the decoder.
    "trailing_json_whitespace": lambda row: _row_text(row) + " \t\r",
    "trailing_carriage_return": lambda row: _row_text(row) + "\r",
    "trailing_vertical_tab": lambda row: _row_text(row) + "\x0b",
    "trailing_form_feed": lambda row: _row_text(row) + "\x0c",
    "trailing_line_separator": lambda row: _row_text(row) + "\u2028",
    "leading_space": lambda row: " " + _row_text(row),
}


def _template_epochs(spo2, hr):
    """Epochs whose rows are in the pattern's form but for their vitals,
    which ``spo2`` and ``hr`` draw: ids of any sign, minutes in years
    1-9999, every enum member, and plain ambient strings."""
    return st.builds(
        Epoch,
        patient_id=st.integers(-(10**9), 10**9),
        timestamp=st.datetimes(
            min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59),
            timezones=st.just(timezone.utc),
        ).map(lambda ts: ts.replace(second=0, microsecond=0)),
        spo2=spo2,
        hr=hr,
        accel_level=st.sampled_from(AccelLevel),
        device_status=st.sampled_from(DeviceStatus),
        probe_cover_present=st.booleans(),
        position=st.sampled_from(Position),
        self_reported_activity=st.none() | st.sampled_from(SelfReportedActivity),
        ambient_condition=st.none() | st.text("abz_ -", max_size=6),
    )


def _line(epoch):
    return epoch_line(epoch).rstrip("\n")


def _described(epoch):
    """An Epoch with what ``==`` misses: its line, so -0.0 against 0.0, and
    each field's type and the timestamp's zone."""
    return (
        epoch, epoch_line(epoch), [type(getattr(epoch, f.name)) for f in fields(Epoch)],
        epoch.timestamp.tzinfo,
    )


def _outcome(decode):
    """The described Epoch, or list of them, that ``decode`` gives, or the
    error text."""
    try:
        decoded = decode()
    except InvariantViolation as exc:
        return str(exc)
    return list(map(_described, decoded)) if type(decoded) is list else _described(decoded)


def _decoded_file(text):
    """The decoder-only reference for a whole file: each line stripped, a
    blank one skipped, and every other decoded by ``_decode_row`` with its
    line number, up to the first error."""
    epochs = []
    for line_no, line in enumerate(io.StringIO(text), start=1):
        line = line.strip(" \t\r\n")
        if line:
            epochs.append(model._decode_row(line, line_no))
    return epochs


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    _epochs,
    _template_epochs(st.floats(-1.0, 101.0), st.floats(-1.0, 400.0)),
    _template_epochs(st.floats(70.0, 100.0), st.floats(25.0, 220.0)),
    st.tuples(st.integers(0, 40), st.integers(0, 40)),
)
def test_epoch_reader_matches_the_json_decoder_row_for_row(epoch, wide, generated, places):
    # Each example checks three rows as epoch_line writes them, the last
    # with vitals in the generator's ranges so that it takes the pattern,
    # and every near-miss of the last (30; 6,600 rows in all), each as a
    # file of one line.
    rows = [_line(epoch), _line(wide), _line(generated)]
    rows += [edit(epoch_row(generated)) for edit in _NEAR_MISSES.values()]
    for line in rows:
        def read():
            (decoded,) = read_epochs_jsonl(io.StringIO(line + "\n"))
            return decoded

        reference = _outcome(lambda: model._decode_row(line.strip(" \t\r\n"), 1))
        assert _outcome(read) == reference, line

    # Then as whole files, read in blocks of 3 lines and of the default
    # size: the rows the decoder takes, with a blank line at a drawn place,
    # alone and with one rejected row at another, and every row in order.
    # So template rows, near-misses, the blank line and the rejected row
    # fall on both sides of a block's edge. Each file gives the reference's
    # epochs, or its first error with the same line number.
    taken = [line for line in rows if not isinstance(_outcome(lambda: _decoded_file(line)), str)]
    rejected = [line for line in rows if line not in taken]
    blank, bad = (place % (len(taken) + 1) for place in places)
    clean = [*taken[:blank], "", *taken[blank:]]
    files = [clean, rows]
    if rejected:
        files.append([*clean[:bad], rejected[bad % len(rejected)], *clean[bad:]])
    for lines in files:
        text = "\n".join(lines) + "\n"
        reference = _outcome(lambda: _decoded_file(text))
        for size in (3, model._BLOCK_LINES):
            with mock.patch.object(model, "_BLOCK_LINES", size):
                assert _outcome(lambda: read_epochs_jsonl(io.StringIO(text))) == reference, size


def test_generated_rows_take_the_template_pattern(tmp_path):
    # Every generated row takes the pattern, alone and as one block. A
    # change to epoch_line's template must move the pattern with it, or
    # every block would silently go line by line to the JSON decoder and
    # every other test would still pass.
    generated = generate_dataset(load_taxonomy(default_taxonomy_path()), seed=42)
    write_dataset(generated, tmp_path)
    lines = (tmp_path / "epochs.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 530
    assert [line for line in lines if model._template_block([line]) is None] == []
    assert model._template_block(lines) == [e for case in generated.cases for e in case.epochs]
    every = {
        "accel_level": CategoricalSpec(choices=tuple(m.value for m in AccelLevel)),
        "device_status": CategoricalSpec(choices=tuple(m.value for m in DeviceStatus)),
        "position": CategoricalSpec(choices=tuple(m.value for m in Position)),
        "self_reported_activity": CategoricalSpec(
            choices=tuple(m.value for m in SelfReportedActivity)
        ),
        "probe_cover_present": CategoricalSpec(choices=(True, False)),
        "ambient_condition": CategoricalSpec(choices=("heatwave_advisory", "wildfire smoke")),
    }
    epochs, _ = generate_case(
        make_entry(epoch_count=60, categorical_params=every), 3847291, DAYTIME, seed=7
    )
    lines = [_line(epoch) for epoch in epochs]
    assert {e.self_reported_activity for e in epochs} == set(SelfReportedActivity)
    assert [line for line in lines if model._template_block([line]) is None] == []
    assert model._template_block(lines) == epochs
    assert read_epochs_jsonl(io.StringIO("".join(map(epoch_line, epochs)))) == epochs


def test_crlf_epochs_file_reads_as_the_lf_file(tmp_path):
    # The seed-42 rows written with CRLF line ends give the LF file's epochs:
    # through open(), which reads "\r\n" as "\n", and with newline="", which
    # keeps each "\r" for the pattern to take as trailing JSON whitespace.
    cases = generate_dataset(load_taxonomy(default_taxonomy_path()), seed=42).cases
    epochs = [epoch for case in cases for epoch in case.epochs]
    lf, crlf = tmp_path / "lf.jsonl", tmp_path / "crlf.jsonl"
    for path, newline in ((lf, "\n"), (crlf, "\r\n")):
        with open(path, "w", encoding="utf-8", newline=newline) as fp:
            write_epochs_jsonl(epochs, fp)
    assert crlf.read_bytes() == lf.read_bytes().replace(b"\n", b"\r\n")
    with open(lf, encoding="utf-8") as fp:
        expected = read_epochs_jsonl(fp)
    assert expected == epochs
    with open(crlf, encoding="utf-8") as fp:
        assert read_epochs_jsonl(fp) == expected
    with open(crlf, encoding="utf-8", newline="") as fp:
        lines = fp.readlines()
    assert len(lines) == 530 and all(line.endswith("\r\n") for line in lines)
    assert [line for line in lines if model._template_block([line]) is None] == []
    assert model._template_block(lines) == expected
    with open(crlf, encoding="utf-8", newline="") as fp:
        assert read_epochs_jsonl(fp) == expected


# ``write_contexts_json`` writes each record from a template; the reference
# is json.dumps of the records with indent=2 and sort_keys=True. Drawn:
# baselines as floats (NaN and ±inf included), ints and null, both flags,
# and patient ids whose text order differs from their numeric order.
_NUMBERS = st.floats() | st.integers(-(10**20), 10**20)


@st.composite
def _context_maps(draw):
    ids = draw(
        st.lists(
            st.sampled_from([9, 10, 999, 1000, 3847291, -1, 0]) | st.integers(-(10**12), 10**12),
            unique=True, max_size=6,
        )
    )
    contexts = {}
    for pid in ids:
        copd = draw(st.booleans())
        spo2 = draw(_NUMBERS if copd else st.none() | _NUMBERS)
        contexts[pid] = PatientContext(pid, copd, spo2, draw(st.none() | _NUMBERS), draw(st.booleans()))
    return contexts


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_context_maps())
@example({})
@example({pid: PatientContext(pid, True, 88.0, 72, False) for pid in (1000, 999)})
def test_write_contexts_json_matches_json_dumps_byte_for_byte(contexts):
    # Property (100 examples and the two above: the empty mapping, and 999
    # beside 1000, which sorts after it as text).
    fp = io.StringIO()
    write_contexts_json(contexts, fp)
    payload = {str(pid): ctx.to_dict() for pid, ctx in sorted(contexts.items())}
    assert fp.getvalue() == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _read_contexts(text, template=True):
    """What read_contexts_json gives for ``text``: each key with its
    context's repr, in order, or the error text. Without ``template``, the
    JSON decoder reads every file."""
    with mock.patch.object(model, "_template_contexts", return_value=None) if not template \
            else contextlib.nullcontext():
        try:
            contexts = read_contexts_json(io.StringIO(text))
        except InvariantViolation as exc:
            return str(exc)
    return [(repr(key), repr(context)) for key, context in contexts.items()]


# Sidecars as the generator writes them: baselines inside their ranges, and
# a baseline_spo2 wherever COPD is documented.
@st.composite
def _generated_contexts(draw):
    ids = draw(
        st.lists(
            st.sampled_from([0, 9, 10, 999, 1000, 3847291]) | st.integers(-(10**12), 10**12),
            unique=True, min_size=1, max_size=5,
        )
    )
    contexts = {}
    for pid in ids:
        copd = draw(st.booleans())
        spo2 = st.floats(70.0, 100.0)
        contexts[pid] = PatientContext(
            pid, copd, draw(spo2 if copd else st.none() | spo2),
            draw(st.none() | st.floats(25.0, 220.0)), draw(st.booleans()),
        )
    return contexts


def _contexts_near_misses(text, record, other):
    """Each near-miss of a written sidecar at its record ``record`` (the
    index of one record, and of another given as ``other``): edits a reader
    of the written form alone would misread."""
    lines = text.split("\n")
    key_line, count = 1 + 7 * record, (len(lines) - 3) // 7

    def edited(edits):
        out = list(lines)
        for field, value in edits.items():  # field: 0-4 in written order, "key"
            if field == "key":
                out[key_line] = f'  "{value}": {{'
                continue
            at = key_line + 1 + field
            head = out[at][: out[at].index(": ") + 2]
            out[at] = head + value + ("," if out[at].endswith(",") else "")
        return "\n".join(out)

    def swapped(at):
        out = list(lines)
        out[at], out[at + 1] = out[at + 1], out[at]
        return "\n".join(out)

    copy = [*lines[key_line : key_line + 6], "  },"]
    at = 1 + 7 * (other % count)
    pid = lines[key_line + 4].split(": ")[1].rstrip(",")
    return {
        "integer_baseline": edited({1: "90"}),
        "exponent_baseline": edited({0: "1e2"}),
        "fraction_exponent_baseline": edited({1: "9.5e1"}),
        "reordered_baselines": swapped(key_line + 1),
        "reordered_flag_and_id": swapped(key_line + 3),
        "space_after_colon": edited({2: " true"}),
        "space_at_line_end": "\n".join(lines[:key_line] + [lines[key_line] + " "] + lines[key_line + 1 :]),
        "crlf": text.replace("\n", "\r\n"),
        "no_final_newline": text[:-1],
        "key_differs": edited({"key": str(int(pid) + 1)}),
        "leading_zero_key": edited({"key": f"0{pid}"}),
        "negative_zero_id": edited({"key": "-0", 3: "-0"}),
        "key_given_twice": "\n".join(lines[:at] + copy + lines[at:]),
        "copd_without_baseline": edited({1: "null", 2: "true"}),
        "spo2_below_range": edited({1: "69.9"}),
        "spo2_past_range": edited({1: "100.5"}),
        "hr_below_range": edited({0: "24.5"}),
        "hr_past_range": edited({0: "220.1"}),
        "empty": "{}\n",
        "empty_on_two_lines": "{\n}\n",
    }


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_generated_contexts(), st.integers(0, 4), st.integers(0, 4))
def test_contexts_reader_matches_the_json_decoder(contexts, record, other):
    # Property (100 examples, about 1 s): a generated sidecar, and each of
    # its 20 near-misses at a drawn record, read by read_contexts_json give
    # the JSON decoder's dict, in its order, or its error message. Every
    # generated sidecar takes the template path, so a change to
    # write_contexts_json must move the record pattern with it.
    fp = io.StringIO()
    write_contexts_json(contexts, fp)
    text = fp.getvalue()
    assert model._template_contexts(text) is not None
    assert _read_contexts(text) == _read_contexts(text, template=False)
    record %= len(contexts)
    for name, near_miss in _contexts_near_misses(text, record, other).items():
        assert _read_contexts(near_miss) == _read_contexts(near_miss, template=False), name


def test_the_seed_42_sidecar_takes_the_template_path(tmp_path):
    generated = generate_dataset(load_taxonomy(default_taxonomy_path()), seed=42)
    write_dataset(generated, tmp_path)
    text = (tmp_path / "contexts.json").read_text(encoding="utf-8")
    contexts = model._template_contexts(text)
    assert contexts == {case.patient_id: case.context for case in generated.cases}
    assert _read_contexts(text) == _read_contexts(text, template=False)
