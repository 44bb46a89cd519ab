"""Generator statistics, determinism, and catalogue invariants."""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import Counter
from dataclasses import replace
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from alertsift import synthgen
from alertsift.evaluate import GOLDEN_EPOCHS, GOLDEN_PER_DOMAIN
from alertsift.model import (
    AccelLevel,
    DeviceStatus,
    DomainClass,
    InvariantViolation,
    Position,
    SelfReportedActivity,
    PATIENT_ID_RANGE,
    epoch_line,
)
from alertsift.routing import in_nocturnal_window
from alertsift.synthgen import (
    CategoricalSpec,
    ContinuousSpec,
    DATA_WINDOW,
    TaxonomyEntry,
    default_taxonomy_path,
    generate_case,
    generate_dataset,
    load_taxonomy,
    validate_taxonomy,
    write_dataset,
)
from helpers import (
    make_entry,
    reference_case_digest,
    reference_generate_case,
    sample_truncated_gaussian,
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
    rng = random.Random(20240601)
    draws = sample_truncated_gaussian(96.0, 1.0, 70.0, 100.0, rng, 100_000)
    expected = truncated_normal_mean(96.0, 1.0, 70.0, 100.0)
    assert abs(math.fsum(draws) / len(draws) - expected) < 0.02
    assert min(draws) >= 70.0 and max(draws) <= 100.0


def test_truncated_gaussian_degenerate_variance():
    rng = random.Random(7)
    (value,) = sample_truncated_gaussian(96.0, 1e-9, 70.0, 100.0, rng, 1)
    assert abs(value - 96.0) < 1e-6


def test_truncated_gaussian_heavy_truncation_clamps():
    rng = random.Random(8)
    values = sample_truncated_gaussian(80.0, 1.0, 95.0, 95.0001, rng, 10)
    assert len(values) == 10 and all(95.0 <= value <= 95.0001 for value in values)


def test_truncated_gaussian_invalid_bounds():
    rng = random.Random(9)
    with pytest.raises(InvariantViolation, match=r"require lower < upper, got \[95.0,94.0\]"):
        sample_truncated_gaussian(90.0, 1.0, 95.0, 94.0, rng, 1)
    with pytest.raises(InvariantViolation, match="sigma must be positive, got 0.0"):
        sample_truncated_gaussian(90.0, 0.0, 80.0, 95.0, rng, 1)


def test_box_muller_normals_have_the_stated_mean_and_spread():
    # Derandomized: 200,000 normals (100,000 pairs) from one fixed stream,
    # N(96, 1.5^2). The mean lies within four standard errors of 96, the
    # variance within four of its standard errors of 2.25, and the cosine
    # and sine halves of the pairs each pass a Kolmogorov-Smirnov test
    # against the stated normal.
    n, mu, sigma = 200_000, 96.0, 1.5
    draws = synthgen._normals(random.Random(36), n, mu, sigma)
    assert len(draws) == n
    mean = math.fsum(draws) / n
    variance = math.fsum((x - mean) ** 2 for x in draws) / (n - 1)
    assert abs(mean - mu) < 4 * sigma / math.sqrt(n)
    assert abs(variance - sigma**2) < 4 * sigma**2 * math.sqrt(2 / (n - 1))
    for half in (draws[0::2], draws[1::2]):
        assert stats.kstest(half, "norm", args=(mu, sigma)).pvalue > 1e-3


@pytest.mark.parametrize("k", [2, 3, 4, 5, 7])
def test_indices_below_k_are_uniform(k):
    # Derandomized: 50,000 indices int(u * k) from one fixed stream per k,
    # each below k, with counts that pass a chi-square test of uniformity.
    draws = synthgen._indices(random.Random(1000 + k), 50_000, k)
    counts = Counter(draws)
    assert set(counts) == set(range(k))
    assert stats.chisquare([counts[i] for i in range(k)]).pvalue > 1e-3


START = datetime(2022, 7, 1, 12, 0, tzinfo=timezone.utc)


def test_generate_case_deterministic():
    entry = make_entry()
    a_epochs, a_ctx = generate_case(entry, 3847291, START, seed=42)
    b_epochs, b_ctx = generate_case(entry, 3847291, START, seed=42)
    assert a_epochs == b_epochs
    assert a_ctx == b_ctx
    c_epochs, _ = generate_case(entry, 3847291, START, seed=43)
    assert c_epochs != a_epochs


def test_generate_case_respects_bounds_after_noise():
    entry = make_entry(epoch_count=400)
    epochs, _ = generate_case(entry, 3847291, START, seed=42)
    assert all(86.0 <= e.spo2 <= 90.0 for e in epochs)
    assert all(58.0 <= e.hr <= 92.0 for e in epochs)
    # noise actually perturbs: far more distinct values than a constant
    assert len({e.spo2 for e in epochs}) > 100


def test_generate_case_timestamps_consecutive_minutes():
    epochs, _ = generate_case(make_entry(), 3847291, START, seed=42)
    for i, epoch in enumerate(epochs):
        assert (epoch.timestamp - START).total_seconds() == 60 * i


def test_uniform_choice_frequencies():
    entry = make_entry(epoch_count=10_000)
    epochs, _ = generate_case(entry, 3847291, START, seed=42)
    counts = Counter(e.position for e in epochs)
    for member in (Position.SUPINE, Position.LATERAL):
        share = counts[member] / len(epochs)
        assert abs(share - 0.5) < 0.02, counts


def test_shipped_taxonomy_shape():
    # The golden check holds the catalogue's shape: its n column is the
    # class counts, and GOLDEN_EPOCHS the epoch total.
    entries = load_taxonomy(default_taxonomy_path())
    assert len(entries) == 98
    assert sum(e.epoch_count for e in entries) == GOLDEN_EPOCHS == 530
    by_class = Counter(e.domain_class for e in entries)
    assert dict(by_class) == {cls: n for cls, (n, _, _) in GOLDEN_PER_DOMAIN.items()}


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


def test_shipped_entries_without_copd_that_can_read_ok_keep_spo2_at_or_above_87_5():
    # Outside documented COPD no SpO2 level is a floor: a status-ok epoch of
    # such a patient can suppress at any SpO2. The golden data never reaches
    # that case, and this is why: every shipped entry without COPD whose
    # device status can be ok (a null status is ok) draws SpO2 from 87.5 up.
    # FP-026 and FP-028 are the lowest.
    entries = load_taxonomy(default_taxonomy_path())
    lowest = {}
    for entry in entries:
        status = entry.categorical_params["device_status"]
        statuses = set(status.choices) if status.choices else {status.fixed}
        if entry.context["copd_documented"] or not statuses & {"ok", None}:
            continue
        lowest[entry.case_id] = entry.continuous_params["spo2"].lower
    assert len(lowest) > 0
    assert min(lowest.values()) == 87.5
    assert sorted(k for k, lower in lowest.items() if lower == 87.5) == ["FP-026", "FP-028"]


def test_validate_taxonomy_rejects_wrong_count():
    # The one count a catalogue can get wrong is none at all; any other size
    # loads, and only the golden check compares it with the shipped 98.
    entries = load_taxonomy(default_taxonomy_path())
    with pytest.raises(InvariantViolation, match="taxonomy holds no entries"):
        validate_taxonomy([])
    for size in (1, 10, 97, 98):
        validate_taxonomy(entries[:size])
    with pytest.raises(InvariantViolation, match="duplicate case_id 'FP-001'"):
        validate_taxonomy([*entries[:3], entries[0]])


@pytest.mark.parametrize(
    "name, bounds, message",
    [
        ("spo2", (69.99, 90.0), "spo2 spec [69.99, 90] outside [70, 100]"),
        ("spo2", (85.0, 100.01), "spo2 spec [85, 100.01] outside [70, 100]"),
        ("hr", (24.99, 90.0), "hr spec [24.99, 90] outside [25, 220]"),
        ("hr", (60.0, 220.01), "hr spec [60, 220.01] outside [25, 220]"),
    ],
    ids=["spo2_below_70", "spo2_above_100", "hr_below_25", "hr_above_220"],
)
def test_vital_spec_past_the_range_edges_is_rejected(name, bounds, message):
    # Checked when the entry is built, even when no draw could reach past
    # the edge: the mu here sits far inside the range.
    lower, upper = bounds
    params = {name: ContinuousSpec((lower + upper) / 2, 0.1, lower, upper)}
    with pytest.raises(InvariantViolation) as caught:
        make_entry(continuous_params=params)
    assert str(caught.value) == message


def test_generate_case_rejects_a_case_outside_the_dataset_bounds():
    entry = make_entry()  # six epochs
    low, high = PATIENT_ID_RANGE
    for pid in (low - 1, high + 1):
        with pytest.raises(InvariantViolation, match=f"TOY-001: patient_id {pid} outside"):
            generate_case(entry, pid, START, seed=42)
    with pytest.raises(InvariantViolation, match="TOY-001: start .* is not minute-resolution"):
        generate_case(entry, low, START.replace(second=30), seed=42)
    start, end = DATA_WINDOW
    for first in (start - timedelta(minutes=1), end - timedelta(minutes=5)):
        with pytest.raises(InvariantViolation, match="TOY-001: epochs .* leave the data window"):
            generate_case(entry, low, first, seed=42)
    # The first and the last minute of the window are inside it.
    for first in (start, end - timedelta(minutes=6)):
        epochs, _ = generate_case(entry, high, first, seed=42)
        assert start <= epochs[0].timestamp and epochs[-1].timestamp < end


def test_generate_dataset_counts_and_patients():
    entries = load_taxonomy(default_taxonomy_path())
    dataset = generate_dataset(entries, seed=42)
    assert dataset.manifest["case_count"] == 98
    assert dataset.manifest["epoch_count"] == 530
    pids = [c.patient_id for c in dataset.cases]
    assert pids == list(range(3847291, 3847389))
    assert round(dataset.manifest["epoch_count"] / dataset.manifest["case_count"], 1) == 5.4


def test_generate_dataset_every_epoch_validates():
    # Every epoch inside the dataset bounds, checked epoch by epoch.
    entries = load_taxonomy(default_taxonomy_path())
    low, high = PATIENT_ID_RANGE
    start, end = DATA_WINDOW
    for seed in range(20):
        for case in generate_dataset(entries, seed=seed).cases:
            for epoch in case.epochs:
                assert 70.0 <= epoch.spo2 <= 100.0, (seed, epoch)
                assert 25.0 <= epoch.hr <= 220.0, (seed, epoch)
                assert low <= epoch.patient_id <= high, (seed, epoch)
                assert start <= epoch.timestamp < end, (seed, epoch)
                assert epoch.timestamp.second == epoch.timestamp.microsecond == 0


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
    entry_a = make_entry(case_id="TOY-A")
    entry_b = make_entry(case_id="TOY-B")
    epochs_first, _ = generate_case(entry_a, 3847291, START, seed=42)
    _ = generate_case(entry_b, 3847292, START, seed=42)
    epochs_again, _ = generate_case(entry_a, 3847291, START, seed=42)
    assert epochs_first == epochs_again


def test_invalid_entry_rejected():
    with pytest.raises(InvariantViolation, match="epoch_count must be positive"):
        make_entry(epoch_count=0)
    with pytest.raises(InvariantViolation, match=r"mu 95.0 outside bounds \[86.0,90.0\]"):
        make_entry(
            continuous_params={
                "spo2": ContinuousSpec(95.0, 0.5, 86.0, 90.0),  # mu outside bounds
                "hr": ContinuousSpec(74.0, 4.0, 58.0, 92.0),
            }
        )
    with pytest.raises(InvariantViolation, match=r"unknown continuous fields \['temperature'\]"):
        make_entry(continuous_params={"temperature": ContinuousSpec(37.0, 0.1, 36.0, 38.0)})
    # Categorical values are parsed when the entry is built, not when drawn.
    with pytest.raises(ValueError, match="'sprinting' is not one of"):
        make_entry(categorical_params={"accel_level": CategoricalSpec(fixed="sprinting")})
    with pytest.raises(ValueError, match="'sideways' is not one of"):
        make_entry(categorical_params={"position": CategoricalSpec(choices=("supine", "sideways"))})
    with pytest.raises(ValueError, match="probe_cover_present must be true or false"):
        make_entry(categorical_params={"probe_cover_present": CategoricalSpec(choices=(False, 0))})
    for bad in ("supine", [], None):
        with pytest.raises(InvariantViolation, match="choice must be a non-empty array"):
            CategoricalSpec.from_dict({"choice": bad})


def _assert_generates_as_reference(entry, seed):
    # Epoch equality cannot see an int vital (85 == 85.0), so the written
    # lines are compared too.
    epochs, context = generate_case(entry, 3847291, START, seed)
    expected, expected_context = reference_generate_case(entry, 3847291, START, seed)
    assert epochs == expected, (entry.case_id, seed)
    assert [epoch_line(e) for e in epochs] == [epoch_line(e) for e in expected], (
        entry.case_id,
        seed,
    )
    assert context == expected_context, (entry.case_id, seed)


def test_generate_case_matches_reference_loop():
    quiet = make_entry(
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
    sparse = make_entry(
        case_id="SPARSE-001",
        continuous_params={"hr": ContinuousSpec(74.0, 4.0, 58.0, 92.0)},
        categorical_params={"position": CategoricalSpec(choices=("supine", "lateral"))},
        context={"copd_documented": False},
    )
    # Almost every draw misses a 0.0001-wide interval, so nearly every value
    # comes from the clamp after MAX_REJECTIONS draws.
    narrow = make_entry(
        case_id="NARROW-001", continuous_params={"spo2": ContinuousSpec(95.0, 1.0, 95.0, 95.0001)}
    )
    # With sigma 500 times the interval, about half the values come from the
    # clamped last draw, and the noise then moves them off the bound.
    wide = make_entry(
        case_id="WIDE-001", continuous_params={"hr": ContinuousSpec(25.0, 1000.0, 25.0, 27.0)}
    )
    # An int-built spec whose mu sits on its lower bound: about half the
    # values are clamped there, and each must still be written as 85.0.
    integral = make_entry(
        case_id="INT-001", continuous_params={"spo2": ContinuousSpec(85, 1, 85, 86)}
    )
    fixed_vitals = make_entry(case_id="NO-DRAWS-001", continuous_params={})
    criterion_10 = make_entry(
        case_id="C10-001", continuous_params={"spo2": ContinuousSpec(96.0, 1.0, 70.0, 100.0)}
    )
    entries = [
        *load_taxonomy(default_taxonomy_path()),
        quiet,
        sparse,
        narrow,
        wide,
        integral,
        fixed_vitals,
        criterion_10,
        make_entry(),
    ]
    for seed in (1, 42, 20220601):
        for entry in entries:
            _assert_generates_as_reference(entry, seed)


def test_a_generated_case_comes_back_from_its_own_start():
    # The start is the first draw of the case's sub-stream, made whether or
    # not a start is given, so the dataset path and a call with the drawn
    # start give the same epochs; both are the reference's, whose start
    # comes from the same three draws.
    entries = load_taxonomy(default_taxonomy_path())
    for seed in (1, 42):
        for case in generate_dataset(entries, seed).cases:
            epochs, context = generate_case(case.entry, case.patient_id, case.start_time, seed)
            assert (tuple(epochs), context) == (case.epochs, case.context)
            expected, _ = reference_generate_case(case.entry, case.patient_id, None, seed)
            assert epochs == expected and case.start_time == expected[0].timestamp


def test_each_case_digest_covers_its_rows_as_written(tmp_path):
    # A manifest row's sha256 is that of the case's bytes in epochs.jsonl,
    # then its context line; write_dataset takes it as it writes the rows.
    entries = load_taxonomy(default_taxonomy_path())
    dataset = generate_dataset(entries, seed=7)
    paths = write_dataset(dataset, tmp_path)
    lines = paths["epochs"].read_bytes().splitlines(keepends=True)
    rows = json.loads(paths["manifest"].read_text())["cases"]
    assert [row["case_id"] for row in rows] == [e.case_id for e in entries]
    assert "sha256" not in dataset.manifest["cases"][0]
    first = 0
    for row, case in zip(rows, dataset.cases, strict=True):
        body = b"".join(lines[first:first + row["epoch_count"]])
        first += row["epoch_count"]
        context = json.dumps(case.context.to_dict(), sort_keys=True, separators=(",", ":"))
        assert row["sha256"] == hashlib.sha256(body + context.encode()).hexdigest()
        assert row["sha256"] == reference_case_digest(case.epochs, case.context)
    assert first == len(lines)


def test_a_manifest_without_cases_is_written_as_given(tmp_path):
    dataset = generate_dataset([make_entry()], seed=42)
    manifest = {"seed": 42, "case_count": 1, "epoch_count": 6}
    paths = write_dataset(replace(dataset, manifest=manifest), tmp_path)
    assert json.loads(paths["manifest"].read_text()) == manifest
    assert paths["epochs"].read_text() == "".join(epoch_line(e) for e in dataset.cases[0].epochs)


# Each categorical field's catalogue values, null (the default) among them.
_CATEGORICAL_VALUES = {
    "accel_level": [*(m.value for m in AccelLevel), None],
    "device_status": [*(m.value for m in DeviceStatus), None],
    "position": [*(m.value for m in Position), None],
    "self_reported_activity": [*(m.value for m in SelfReportedActivity), None],
    "probe_cover_present": [True, False, None],
    "ambient_condition": ["dim", "bright", 'lux "3" \\ dim', None],
}


@st.composite
def _continuous_specs(draw, low, high):
    """A spec inside [low, high], built from ints or floats, whose sigma
    runs from a millionth of its interval to ten thousand times it."""
    if draw(st.booleans()):
        lower = draw(st.integers(low, high - 1))
        upper = draw(st.integers(lower + 1, high))
        mu = draw(st.integers(lower, upper))
    else:
        lower = draw(st.floats(low, high, exclude_max=True))
        upper = draw(st.floats(lower, high, exclude_min=True))
        mu = draw(st.floats(lower, upper))
    sigma = (upper - lower) * 10 ** draw(st.floats(-6, 4))
    return ContinuousSpec(mu, sigma, lower, upper)


def _categorical_specs(name):
    values = st.sampled_from(_CATEGORICAL_VALUES[name])
    return st.one_of(
        values.map(lambda v: CategoricalSpec(fixed=v)),
        st.lists(values, min_size=1, max_size=4).map(
            lambda vs: CategoricalSpec(choices=tuple(vs))
        ),
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    continuous=st.fixed_dictionaries(
        {}, optional={"spo2": _continuous_specs(70, 100), "hr": _continuous_specs(25, 220)}
    ),
    categorical=st.fixed_dictionaries(
        {}, optional={name: _categorical_specs(name) for name in _CATEGORICAL_VALUES}
    ),
    epoch_count=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_generate_case_matches_reference_for_any_spec(continuous, categorical, epoch_count, seed):
    # 300 derandomized examples (about 2 s): any spec, any choice set,
    # any seed, byte for byte.
    entry = make_entry(
        case_id="PROP-001",
        epoch_count=epoch_count,
        continuous_params=continuous,
        categorical_params=categorical,
    )
    _assert_generates_as_reference(entry, seed)


def _given_draws(values):
    """A stand-in for ``synthgen._normals`` whose first block is the given
    values and whose every later block is zeros."""
    blocks = [list(values)]

    def normals(rng, n, mu, sigma):
        return blocks.pop() if blocks else [0.0] * n

    return normals


def test_two_step_rounding_matches_round_at_every_near_tie(monkeypatch):
    # Every tie (m + 0.5) / 100 over the fields' whole range, 25 to 220, and
    # its four float neighbours on each side, then uniform draws; the noise
    # is zero and the bounds hold every value, so each is rounded as drawn.
    values = []
    for m in range(2500, 22001):
        tie = below = above = (m + 0.5) / 100
        values.append(tie)
        for _ in range(4):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
            values += (below, above)
    rng = random.Random(2500)
    values += (rng.uniform(25.0, 220.0) for _ in range(100_000))
    monkeypatch.setattr(synthgen, "_normals", _given_draws(values))
    rounded = synthgen._draw_continuous(None, len(values), 100.0, 1.0, 0.0, 1000.0)
    assert list(map(repr, rounded)) == [repr(round(x, 2)) for x in values]


@pytest.mark.parametrize(
    "sigma", [0.0, -1.0, math.nan, math.inf], ids=["zero", "negative", "nan", "inf"]
)
def test_continuous_spec_rejects_a_sigma_not_positive_and_finite(sigma):
    # A NaN sigma once passed a `sigma <= 0` check and generated NaN vitals.
    with pytest.raises(InvariantViolation, match=f"sigma must be positive and finite, got {sigma}"):
        ContinuousSpec(96.0, sigma, 70.0, 100.0)


def test_generate_case_rejects_a_naive_start():
    # Checked before the window comparison, which would raise TypeError.
    naive = START.replace(tzinfo=None)
    with pytest.raises(
        InvariantViolation, match="TOY-001: start 2022-07-01 12:00:00 is not timezone-aware"
    ):
        generate_case(make_entry(), PATIENT_ID_RANGE[0], naive, seed=42)


def _taxonomy_digest_reference(entries):
    """taxonomy_sha256 as first written: the whole catalogue encoded at once."""
    text = json.dumps([e.to_dict() for e in entries], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def test_taxonomy_digest_matches_one_encode_of_the_whole_catalogue(tmp_path):
    # Each entry's text is built once and joined; the digest is the one the
    # catalogue encoded whole gives, on the first call and on a later one.
    user = [
        {
            "case_id": "USER-é",
            "domain_class": "copd",
            "epoch_count": 3,
            "continuous_params": {"spo2": {"mu": 88, "sigma": 1, "lower": 85, "upper": 91}},
            "categorical_params": {
                "position": {"choice": ["supine", "lateral", None]},
                "ambient_condition": {"choice": ["dim", 'lux "3" \\ \u2603']},
            },
            "context": {"copd_documented": True, "baseline_spo2": 88, "baseline_hr": 61},
            "nocturnal": False,
            "expected_outcome_note": 'SpO\u2082 "dip" \\ within baseline \u2603',
        },
        {**load_taxonomy(default_taxonomy_path())[0].to_dict(), "case_id": "USER-2"},
    ]
    path = tmp_path / "taxonomy.json"
    path.write_text(json.dumps(user), encoding="utf-8")
    for entries in (load_taxonomy(default_taxonomy_path()), load_taxonomy(path)):
        expected = _taxonomy_digest_reference(entries)
        for seed in (42, 7):
            assert generate_dataset(entries, seed).manifest["taxonomy_sha256"] == expected


def test_loaded_entries_are_read_only():
    # The entry's canonical text is cached, so nothing it is built from may
    # change: the mappings are read-only copies of the ones given.
    entry = load_taxonomy(default_taxonomy_path())[0]
    with pytest.raises(TypeError):
        entry.context["copd_documented"] = True
    with pytest.raises(TypeError):
        entry.continuous_params["spo2"] = ContinuousSpec(90.0, 1.0, 85.0, 95.0)
    with pytest.raises(TypeError):
        entry.categorical_params["position"] = CategoricalSpec(fixed="prone")
    context = {"copd_documented": True, "baseline_spo2": 89.0}
    toy = make_entry(context=context)
    text = toy.canonical_text
    context["copd_documented"] = False
    assert toy.context["copd_documented"] is True
    assert toy.canonical_text == text == json.dumps(toy.to_dict(), sort_keys=True)


def test_a_long_entry_starts_on_a_day_it_fits_for_every_seed():
    # A 3,000-epoch copy of FP-001 (daytime) once drew a start too late to
    # end in August; the day is now drawn from those where even the latest
    # start fits. Over 200 seeds the case's start draws reach that last day,
    # and the cases that start on it are generated in full.
    raw = {**load_taxonomy(default_taxonomy_path())[0].to_dict(), "epoch_count": 3000}
    entry = TaxonomyEntry.from_dict(raw)
    last_day = DATA_WINDOW[0].date() + timedelta(days=entry._start_days - 1)
    latest = []
    for seed in range(200):
        start = synthgen._draw_start(entry, synthgen._substream(seed, f"case:{entry.case_id}"))
        assert start + 2999 * timedelta(minutes=1) < DATA_WINDOW[1]
        assert 7 <= start.hour < 20 and start.date() <= last_day
        if start.date() == last_day:
            latest.append(seed)
    assert latest
    for seed in latest:
        epochs, _ = generate_case(entry, PATIENT_ID_RANGE[0], None, seed)
        assert len(epochs) == 3000 and epochs[-1].timestamp < DATA_WINDOW[1]
        assert epochs[0].timestamp.date() == last_day


def test_an_entry_too_long_for_any_day_is_rejected_when_built():
    # The longest daytime entry that fits starts on the window's first day,
    # at any minute up to 19:59; one epoch more fits on no day.
    window = (DATA_WINDOW[1] - DATA_WINDOW[0]) // timedelta(minutes=1)
    longest = window - (19 * 60 + 59)
    entry = make_entry(epoch_count=longest)
    for seed in range(5):
        # The start alone: the first three draws of the case's sub-stream.
        start = synthgen._draw_start(entry, synthgen._substream(seed, f"case:{entry.case_id}"))
        assert start.date() == DATA_WINDOW[0].date()
        assert start + (longest - 1) * timedelta(minutes=1) < DATA_WINDOW[1]
    message = f"epoch_count {longest + 1} does not fit in the data window from a 19:59 start"
    with pytest.raises(InvariantViolation, match=message):
        make_entry(epoch_count=longest + 1)


def test_a_nocturnal_entry_past_the_night_is_rejected_when_built():
    # A nocturnal case starts by 04:49, so 71 epochs always end by 05:59,
    # inside the window routing calls nocturnal; a 72nd epoch could not.
    entry = make_entry(nocturnal=True, epoch_count=71)
    for seed in range(50):
        epochs, _ = generate_case(entry, PATIENT_ID_RANGE[0], None, seed)
        assert all(in_nocturnal_window(e.timestamp) for e in epochs), seed
    message = r"nocturnal epoch_count 72 runs past 06:00 from a 04:49 start \(at most 71\)"
    with pytest.raises(InvariantViolation, match=message):
        make_entry(nocturnal=True, epoch_count=72)
