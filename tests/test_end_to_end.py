"""The whole program against a plain reference, over drawn catalogues.

Each example draws a catalogue of one to six entries, a seed, and the
sentinel, specialist and meta configs (the cooldown window, the resolution
margin and some domains' weights), then runs the package end to end in a
temporary directory:
``generate_dataset``, ``write_dataset``, ``load_manifest`` and
``load_dataset``, ``evaluate`` and ``write_decision_log``. The reference
composes the pieces in ``tests/helpers.py``: the sampling loop run one
value at a time, every epoch assembled, projected and detected (no quiet
gate), checked constructors only, a list history scanned back to the
window's horizon, and ``json.dumps`` for every written line. The dataset
files, the verdict and path of every epoch, the case outcomes and the
decision log's bytes must agree.
"""

from __future__ import annotations

import json

from hypothesis import HealthCheck, given, settings, strategies as st

from alertsift.evaluate import evaluate, load_dataset, load_manifest, write_decision_log
from alertsift.meta import MetaConfig
from alertsift.model import (
    PATIENT_ID_RANGE,
    AccelLevel,
    AgentDomain,
    DeviceStatus,
    DomainClass,
    Position,
    SelfReportedActivity,
    format_timestamp,
)
from alertsift.sentinel import SentinelConfig
from alertsift.specialists import SpecialistConfig
from alertsift.synthgen import (
    CategoricalSpec,
    ContinuousSpec,
    TaxonomyEntry,
    generate_dataset,
    write_dataset,
)
from helpers import (
    epoch_row,
    reference_case_digest,
    reference_decision_lines,
    reference_generate_case,
    reference_run_case,
)

# Bounds either side of every rule threshold and floor: the 94 SpO2 screen,
# the COPD floor (86, or two below an 88-90 baseline), HR's (50, 100) screen
# and the bradycardia floor at 40.
_SPO2_POINTS = (70, 80, 84, 85, 86, 87, 88, 89, 90, 92, 93, 94, 95, 96, 97, 100)
_HR_POINTS = (25, 35, 39, 40, 41, 45, 49, 50, 51, 60, 72, 90, 99, 100, 101, 110, 130, 220)

# Each categorical field's catalogue values, null (the field's default) among them.
_CATEGORICAL_VALUES = {
    "accel_level": [*(m.value for m in AccelLevel), None],
    "device_status": [*(m.value for m in DeviceStatus), None],
    "position": [*(m.value for m in Position), None],
    "self_reported_activity": [*(m.value for m in SelfReportedActivity), None],
    "probe_cover_present": [True, False, None],
    "ambient_condition": ["dim", 'lux "3" \\ dim', None],
}


@st.composite
def _continuous_specs(draw, points):
    lower, upper = sorted(draw(st.lists(st.sampled_from(points), min_size=2, max_size=2, unique=True)))
    mu = draw(st.sampled_from((lower, upper)) | st.floats(lower, upper))
    sigma = draw(st.sampled_from((0.2, 1.0, 3.0, 10.0)))
    return ContinuousSpec(mu, sigma, lower, upper)


def _categorical_specs(name):
    values = st.sampled_from(_CATEGORICAL_VALUES[name])
    return st.one_of(
        values.map(lambda v: CategoricalSpec(fixed=v)),
        st.lists(values, min_size=1, max_size=4).map(lambda vs: CategoricalSpec(choices=tuple(vs))),
    )


_BASELINE_SPO2 = st.sampled_from((86.0, 88.0, 90.0, 92.0, 96.0))
_BASELINE_HR = st.none() | st.sampled_from((38.0, 45.0, 55.0, 80.0, 95.0))


@st.composite
def _contexts(draw):
    copd = draw(st.booleans())
    return {
        "copd_documented": copd,
        "baseline_spo2": draw(_BASELINE_SPO2 if copd else st.none() | _BASELINE_SPO2),
        "baseline_hr": draw(_BASELINE_HR),
        "rate_limiting_medication": draw(st.booleans()),
    }


# Built once: a strategy built inside a draw is rebuilt and re-validated on
# every example, which costs more than the example's run.
_CONTINUOUS = st.fixed_dictionaries(
    {}, optional={"spo2": _continuous_specs(_SPO2_POINTS), "hr": _continuous_specs(_HR_POINTS)}
)
_CATEGORICAL = st.fixed_dictionaries(
    {}, optional={name: _categorical_specs(name) for name in _CATEGORICAL_VALUES}
)
_CONTEXTS = _contexts()


@st.composite
def _entries(draw, index):
    return TaxonomyEntry(
        case_id=f"DRAWN-{index:03d}",
        domain_class=draw(st.sampled_from(DomainClass)),
        epoch_count=draw(st.integers(1, 30)),
        continuous_params=draw(_CONTINUOUS),
        categorical_params=draw(_CATEGORICAL),
        context=draw(_CONTEXTS),
        nocturnal=draw(st.booleans()),
        expected_outcome_note="drawn",
    )


# Screens and rule parameters either side of the defaults, and on them, so
# drawn vitals meet them at equality too: the cell key compares each vital
# with the configs' own values. Every COPD floor lies under every SpO2
# screen, as ``PipelineConfig`` requires.
_SENTINEL_CFGS = st.builds(
    SentinelConfig,
    spo2_low_threshold=st.sampled_from((90.0, 93.0, 94.0, 95.0)),
    hr_high_threshold=st.sampled_from((90.0, 100.0, 110.0)),
    hr_low_threshold=st.sampled_from((45.0, 50.0, 60.0)),
)
_SPECIALIST_CFGS = st.builds(
    SpecialistConfig,
    copd_acceptable_spo2=st.sampled_from((84.0, 86.0, 88.0, 89.5)),
    hr_activity_allowance=st.sampled_from((10.0, 20.0, 25.5)),
    nocturnal_dip_allowance=st.sampled_from((2.0, 3.0, 4.5)),
    bradycardia_personal_floor=st.sampled_from((35.0, 40.0, 45.0)),
)


# Margins and weights either side of the defaults, and on them, which each
# cell's weighing reads: uneven weights let one side's claims outweigh more
# claims on the other, and a wide margin sends more claim sets to the
# escalation default. A short cooldown puts a prior decision on the window's
# edge whenever two alerts one or two minutes apart have the same types.
_META_CFGS = st.builds(
    MetaConfig,
    resolution_margin=st.sampled_from((0.1, 0.3, 0.5, 0.9)),
    cooldown_window_minutes=st.sampled_from((1, 2, 5, 10)),
    domain_weights=st.dictionaries(st.sampled_from(AgentDomain), st.sampled_from((0.5, 1.0, 2.0))),
)


@st.composite
def _catalogues(draw):
    count = draw(st.integers(1, 6))
    return [draw(_entries(index)) for index in range(1, count + 1)]


def _compact(value) -> str:
    return json.dumps(value, separators=(",", ":"))


@settings(
    max_examples=200, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(
    catalogue=_catalogues(),
    seed=st.integers(0, 2**32 - 1),
    sentinel_cfg=_SENTINEL_CFGS,
    specialist_cfg=_SPECIALIST_CFGS,
    meta_cfg=_META_CFGS,
)
def test_the_program_matches_the_plain_reference_end_to_end(
    tmp_path, catalogue, seed, sentinel_cfg, specialist_cfg, meta_cfg
):
    # 200 derandomized examples (about 3.5 s).
    cfgs = sentinel_cfg, specialist_cfg, meta_cfg
    dataset_dir = tmp_path / "dataset"
    write_dataset(generate_dataset(catalogue, seed), dataset_dir)
    manifest = load_manifest(dataset_dir)
    report = evaluate(load_dataset(dataset_dir), manifest.cases, *cfgs)
    write_decision_log(report, tmp_path / "decisions.jsonl")

    rows, lines, outcomes = [], [], []
    for index, entry in enumerate(catalogue):
        pid = PATIENT_ID_RANGE[0] + index
        epochs, context = reference_generate_case(entry, pid, None, seed)
        lines += [_compact(epoch_row(e)) + "\n" for e in epochs]
        rows.append({
            "case_id": entry.case_id,
            "domain_class": entry.domain_class.value,
            "epoch_count": entry.epoch_count,
            "patient_id": pid,
            "sha256": reference_case_digest(epochs, context),
            "start_time": format_timestamp(epochs[0].timestamp),
        })
        outcomes.append(reference_run_case(
            entry.case_id, entry.domain_class, pid, epochs, context, *cfgs
        ))

    assert (dataset_dir / "epochs.jsonl").read_text() == "".join(lines)
    assert json.loads((dataset_dir / "manifest.json").read_text())["cases"] == rows
    for got, want in zip(report.case_outcomes, outcomes, strict=True):
        assert [(d.decided_at, d.verdict, d.resolution_path) for d in got.epoch_decisions] == [
            (d.decided_at, d.verdict, d.resolution_path) for d in want.epoch_decisions
        ], got.case_id
    assert report.case_outcomes == tuple(outcomes)
    assert (tmp_path / "decisions.jsonl").read_text() == reference_decision_lines(outcomes)
