"""Generator statistics, determinism, and catalogue invariants."""

from __future__ import annotations

import json
import math
from collections import Counter
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from alertsift import synthgen
from alertsift.model import (
    AccelLevel,
    DeviceStatus,
    Epoch,
    PatientContext,
    Position,
    SelfReportedActivity,
    validate_epoch,
)
from alertsift.routing import in_nocturnal_window
from alertsift.synthgen import (
    CategoricalSpec,
    ContinuousSpec,
    DomainClass,
    EXPECTED_CLASS_COUNTS,
    InvalidBounds,
    InvalidEntry,
    TaxonomyEntry,
    TaxonomyInvariantViolation,
    default_taxonomy_path,
    generate_case,
    generate_dataset,
    load_taxonomy,
    sample_truncated_gaussian,
    validate_taxonomy,
)


def truncated_normal_mean(mu, sigma, a, b):
    """Closed-form oracle for the conditioned-Gaussian mean."""

    def phi(x):
        return math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)

    def cdf(x):
        return 0.5 * (1 + math.erf(x / math.sqrt(2)))

    alpha = (a - mu) / sigma
    beta = (b - mu) / sigma
    z = cdf(beta) - cdf(alpha)
    return mu + sigma * (phi(alpha) - phi(beta)) / z


def test_truncated_gaussian_monte_carlo_mean():
    rng = np.random.default_rng(20240601)
    draws = [sample_truncated_gaussian(96.0, 1.0, 70.0, 100.0, rng) for _ in range(100_000)]
    expected = truncated_normal_mean(96.0, 1.0, 70.0, 100.0)
    assert abs(float(np.mean(draws)) - expected) < 0.02
    assert min(draws) >= 70.0 and max(draws) <= 100.0


def test_truncated_gaussian_degenerate_variance():
    rng = np.random.default_rng(7)
    value = sample_truncated_gaussian(96.0, 1e-9, 70.0, 100.0, rng)
    assert abs(value - 96.0) < 1e-6


def test_truncated_gaussian_heavy_truncation_clamps():
    rng = np.random.default_rng(8)
    for _ in range(10):
        value = sample_truncated_gaussian(80.0, 1.0, 95.0, 95.0001, rng)
        assert 95.0 <= value <= 95.0001


def test_truncated_gaussian_invalid_bounds():
    rng = np.random.default_rng(9)
    with pytest.raises(InvalidBounds):
        sample_truncated_gaussian(90.0, 1.0, 95.0, 94.0, rng)
    with pytest.raises(InvalidBounds):
        sample_truncated_gaussian(90.0, 0.0, 80.0, 95.0, rng)


def _toy_entry(**overrides):
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


START = datetime(2022, 7, 1, 12, 0, tzinfo=timezone.utc)


def test_generate_case_deterministic():
    entry = _toy_entry()
    a_epochs, a_ctx = generate_case(entry, 3847291, START, seed=42)
    b_epochs, b_ctx = generate_case(entry, 3847291, START, seed=42)
    assert a_epochs == b_epochs
    assert a_ctx == b_ctx
    c_epochs, _ = generate_case(entry, 3847291, START, seed=43)
    assert c_epochs != a_epochs


def test_generate_case_respects_bounds_after_noise():
    entry = _toy_entry(epoch_count=400)
    epochs, _ = generate_case(entry, 3847291, START, seed=42)
    assert all(86.0 <= e.spo2 <= 90.0 for e in epochs)
    assert all(58.0 <= e.hr <= 92.0 for e in epochs)
    # noise actually perturbs: far more distinct values than a constant
    assert len({e.spo2 for e in epochs}) > 100


def test_generate_case_timestamps_consecutive_minutes():
    epochs, _ = generate_case(_toy_entry(), 3847291, START, seed=42)
    for i, epoch in enumerate(epochs):
        assert (epoch.timestamp - START).total_seconds() == 60 * i


def test_uniform_choice_frequencies():
    entry = _toy_entry(epoch_count=10_000)
    epochs, _ = generate_case(entry, 3847291, START, seed=42)
    counts = Counter(e.position for e in epochs)
    for member in (Position.SUPINE, Position.LATERAL):
        share = counts[member] / len(epochs)
        assert abs(share - 0.5) < 0.02, counts


def test_shipped_taxonomy_shape():
    entries = load_taxonomy(default_taxonomy_path())
    assert len(entries) == 98
    assert sum(e.epoch_count for e in entries) == 530
    by_class = Counter(e.domain_class for e in entries)
    assert dict(by_class) == EXPECTED_CLASS_COUNTS


def test_shipped_taxonomy_encodes_documented_failure_scenarios():
    entries = load_taxonomy(default_taxonomy_path())

    def status_values(entry):
        spec = entry.categorical_params["device_status"]
        return set(spec.choices) if spec.choices else {spec.fixed}

    marginal = [e for e in entries if status_values(e) == {"threshold_marginal"}]
    assert len(marginal) == 1
    assert marginal[0].domain_class is DomainClass.META_CONFLICT
    assert marginal[0].continuous_params["spo2"].mu == 93.5
    assert marginal[0].continuous_params["hr"].mu == 101.8

    duplicates = [e for e in entries if status_values(e) == {"duplicate_alert"}]
    assert len(duplicates) == 1
    assert duplicates[0].domain_class is DomainClass.META_CONFLICT

    system_flagged = [
        e
        for e in entries
        if status_values(e) == {"system_flag"} and e.domain_class is DomainClass.META_CONFLICT
    ]
    assert len(system_flagged) >= 7

    motion = [
        e
        for e in entries
        if e.domain_class is DomainClass.PROBE_ACTIVITY_CONFLICT
        and "motion_artefact" in status_values(e)
    ]
    assert len(motion) >= 2

    borderline = [
        e for e in entries if e.domain_class is DomainClass.PROBE_CONDITION_CONFLICT
    ]
    assert len(borderline) == 3
    for entry in borderline:
        spec = entry.continuous_params["spo2"]
        assert status_values(entry) == {"ok"}
        assert 88.0 <= spec.lower and spec.upper <= 97.0


def test_validate_taxonomy_rejects_wrong_count():
    entries = load_taxonomy(default_taxonomy_path())
    with pytest.raises(TaxonomyInvariantViolation):
        validate_taxonomy(entries[:97])


def test_validate_taxonomy_rejects_bad_epoch_total():
    entries = list(load_taxonomy(default_taxonomy_path()))
    first = entries[0]
    entries[0] = TaxonomyEntry(
        case_id=first.case_id,
        domain_class=first.domain_class,
        epoch_count=first.epoch_count + 1,
        continuous_params=first.continuous_params,
        categorical_params=first.categorical_params,
        context=first.context,
        nocturnal=first.nocturnal,
        expected_outcome_note=first.expected_outcome_note,
    )
    with pytest.raises(TaxonomyInvariantViolation):
        validate_taxonomy(entries)


def test_generate_dataset_counts_and_patients():
    entries = load_taxonomy(default_taxonomy_path())
    dataset = generate_dataset(entries, seed=42)
    assert dataset.manifest["case_count"] == 98
    assert dataset.manifest["epoch_count"] == 530
    pids = [c.patient_id for c in dataset.cases]
    assert pids == list(range(3847291, 3847389))
    assert round(dataset.manifest["epoch_count"] / dataset.manifest["case_count"], 1) == 5.4


def test_generate_dataset_every_epoch_validates():
    entries = load_taxonomy(default_taxonomy_path())
    dataset = generate_dataset(entries, seed=42)
    for case in dataset.cases:
        for epoch in case.epochs:
            assert validate_epoch(epoch) == []


def test_generate_dataset_nocturnal_scheduling():
    entries = load_taxonomy(default_taxonomy_path())
    dataset = generate_dataset(entries, seed=42)
    for case in dataset.cases:
        for epoch in case.epochs:
            if case.entry.nocturnal:
                assert in_nocturnal_window(epoch.timestamp), case.entry.case_id
            else:
                assert not in_nocturnal_window(epoch.timestamp), case.entry.case_id


def test_generate_dataset_same_seed_same_manifest():
    entries = load_taxonomy(default_taxonomy_path())
    a = generate_dataset(entries, seed=42)
    b = generate_dataset(entries, seed=42)
    assert json.dumps(a.manifest, sort_keys=True) == json.dumps(b.manifest, sort_keys=True)
    c = generate_dataset(entries, seed=1)
    assert json.dumps(c.manifest, sort_keys=True) != json.dumps(a.manifest, sort_keys=True)


def test_case_substreams_independent_of_reordering():
    # moving a case within the catalogue does not change its epochs
    entry_a = _toy_entry(case_id="TOY-A")
    entry_b = _toy_entry(case_id="TOY-B")
    epochs_first, _ = generate_case(entry_a, 3847291, START, seed=42)
    _ = generate_case(entry_b, 3847292, START, seed=42)
    epochs_again, _ = generate_case(entry_a, 3847291, START, seed=42)
    assert epochs_first == epochs_again


def test_invalid_entry_rejected():
    with pytest.raises(InvalidEntry):
        _toy_entry(epoch_count=0)
    with pytest.raises(InvalidEntry):
        _toy_entry(
            continuous_params={
                "spo2": ContinuousSpec(95.0, 0.5, 86.0, 90.0),  # mu outside bounds
                "hr": ContinuousSpec(74.0, 4.0, 58.0, 92.0),
            }
        )
    with pytest.raises(InvalidEntry):
        _toy_entry(continuous_params={"temperature": ContinuousSpec(37.0, 0.1, 36.0, 38.0)})
    # Categorical values are parsed when the entry is built, not when drawn.
    with pytest.raises(ValueError, match="'sprinting' is not one of"):
        _toy_entry(categorical_params={"accel_level": CategoricalSpec(fixed="sprinting")})
    with pytest.raises(ValueError, match="'sideways' is not one of"):
        _toy_entry(categorical_params={"position": CategoricalSpec(choices=("supine", "sideways"))})
    with pytest.raises(ValueError, match="probe_cover_present must be true or false"):
        _toy_entry(categorical_params={"probe_cover_present": CategoricalSpec(choices=(False, 0))})
    for bad in ("supine", [], None):
        with pytest.raises(InvalidEntry, match="choice must be a non-empty array"):
            CategoricalSpec.from_dict({"choice": bad})


def _reference_generate_case(entry, patient_id, start_time, seed):
    """generate_case as a plain per-epoch loop: every epoch re-sorts the field
    names and parses each categorical value it draws. The draw plan must give
    the same epochs, draw for draw."""
    rng = synthgen._substream(seed, f"case:{entry.case_id}")
    context = PatientContext(
        patient_id=patient_id,
        copd_documented=bool(entry.context.get("copd_documented", False)),
        baseline_spo2=entry.context.get("baseline_spo2"),
        baseline_hr=entry.context.get("baseline_hr"),
        rate_limiting_medication=bool(entry.context.get("rate_limiting_medication", False)),
    )
    enum_types = {
        "accel_level": AccelLevel,
        "device_status": DeviceStatus,
        "position": Position,
        "self_reported_activity": SelfReportedActivity,
    }
    epochs = []
    for i in range(entry.epoch_count):
        values = {}
        for name in sorted(entry.continuous_params):
            values[name] = synthgen._draw_continuous(entry.continuous_params[name], rng)
        for name in sorted(entry.categorical_params):
            spec = entry.categorical_params[name]
            if spec.choices:
                raw = spec.choices[int(rng.integers(len(spec.choices)))]
            else:
                raw = spec.fixed
            if raw is not None and name in enum_types:
                raw = enum_types[name](raw)
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


def test_generate_case_matches_reference_loop():
    quiet = _toy_entry(
        case_id="QUIET-001",
        epoch_count=300,
        continuous_params={
            "spo2": ContinuousSpec(97.5, 0.8, 95.5, 99.5),
            "hr": ContinuousSpec(72.0, 5.0, 60.0, 90.0),
        },
        categorical_params={
            "accel_level": CategoricalSpec(choices=("still", None, "light")),
            "device_status": CategoricalSpec(choices=("ok", "duplicate_alert")),
            "position": CategoricalSpec(choices=("upright", "supine", "lateral")),
            "self_reported_activity": CategoricalSpec(choices=("resting", None)),
            "probe_cover_present": CategoricalSpec(choices=(True, False, None)),
            "ambient_condition": CategoricalSpec(choices=("dim", None)),
        },
    )
    # Fields the entry leaves out take their defaults.
    sparse = _toy_entry(
        case_id="SPARSE-001",
        continuous_params={"hr": ContinuousSpec(74.0, 4.0, 58.0, 92.0)},
        categorical_params={"position": CategoricalSpec(choices=("supine", "lateral"))},
        context={"copd_documented": False},
    )
    entries = [*load_taxonomy(default_taxonomy_path()), quiet, sparse, _toy_entry()]
    for seed in (1, 42, 20220601):
        for entry in entries:
            expected = _reference_generate_case(entry, 3847291, START, seed)
            assert generate_case(entry, 3847291, START, seed) == expected, (entry.case_id, seed)
