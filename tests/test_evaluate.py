"""Case outcomes, Wilson intervals, and the end-to-end report."""

from __future__ import annotations

import dataclasses
import json
import os
import random
import subprocess
import sys
from collections import Counter
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from scipy.stats import binomtest

import alertsift
from alertsift.evaluate import (
    CaseOutcome,
    Dataset,
    DomainRow,
    EvaluationReport,
    GOLDEN_FAILURE_MODES,
    GOLDEN_PER_DOMAIN,
    OutcomeKind,
    _cell_key,
    check_golden,
    evaluate,
    render_report_text,
    validate_report_payload,
    wilson_interval,
    write_decision_log,
)
from alertsift.meta import MetaConfig
from alertsift.model import (
    AccelLevel,
    DeviceStatus,
    DomainClass,
    InvariantViolation,
    Position,
    ResolutionPath,
    SelfReportedActivity,
    SystemDecision,
    Verdict,
)
from alertsift.specialists import SpecialistConfig
from alertsift.synthgen import (
    CategoricalSpec,
    ContinuousSpec,
    default_taxonomy_path,
    generate_dataset,
    load_taxonomy,
)
from alertsift.sentinel import SentinelConfig, detect
from helpers import (
    DAYTIME,
    NIGHT,
    PATIENT,
    make_context,
    make_entry,
    make_epoch,
    make_view,
    reference_run_case,
)


def test_wilson_perfect_suppression_lower_bounds():
    # closed-form oracle for k == n: lower bound is n / (n + z^2)
    z2 = 1.96 * 1.96
    for n, printed in [(2, 34.2), (3, 43.9), (13, 77.2), (23, 85.7)]:
        lower, upper = wilson_interval(n, n)
        assert upper == 1.0
        assert lower == pytest.approx(n / (n + z2), abs=1e-12)
        assert abs(lower * 100 - printed) <= 0.1, (n, lower)


def test_wilson_n23_differs_from_clopper_pearson():
    # the exact interval would give 0.025 ** (1/23) ~= 85.2%; Wilson gives 85.7%
    lower, _ = wilson_interval(23, 23)
    clopper_pearson = 0.025 ** (1 / 23)
    assert round(lower * 100, 1) == 85.7
    assert round(clopper_pearson * 100, 1) == 85.2
    assert lower != pytest.approx(clopper_pearson, abs=1e-3)


def test_wilson_against_scipy_oracle():
    rng = random.Random(13)
    for _ in range(100):
        n = rng.randint(1, 500)
        k = rng.randint(0, n)
        lo, hi = wilson_interval(k, n)
        ref_lo, ref_hi = binomtest(k, n).proportion_ci(0.95, method="wilson")
        # scipy uses z = 1.9599... rather than 1.96; agree to 4 decimals
        assert lo == pytest.approx(ref_lo, abs=5e-4)
        assert hi == pytest.approx(ref_hi, abs=5e-4)


def test_wilson_invalid_counts():
    for successes, n in ((3, 2), (-1, 5), (0, 0)):
        with pytest.raises(
            InvariantViolation, match=f"require 0 <= successes <= n, n >= 1; got {successes}/{n}"
        ):
            wilson_interval(successes, n)


@pytest.fixture(scope="module")
def golden_run():
    taxonomy = load_taxonomy(default_taxonomy_path())
    generated = generate_dataset(taxonomy, seed=42)
    epochs = tuple(e for case in generated.cases for e in case.epochs)
    contexts = {case.patient_id: case.context for case in generated.cases}
    dataset = Dataset(epochs=epochs, contexts=contexts)
    report = evaluate(dataset, taxonomy)
    return taxonomy, dataset, report


def test_overall_metrics(golden_run):
    _, _, report = golden_run
    assert (report.ts_count, report.fe_count, report.ind_count) == (82, 16, 0)
    assert round(100 * report.tsr, 1) == 83.7
    assert round(100 * report.fer, 1) == 16.3
    assert report.indr == 0.0


def test_per_domain_rows(golden_run):
    _, _, report = golden_run
    for cls, (n, ts, fe) in GOLDEN_PER_DOMAIN.items():
        row = report.per_domain[cls]
        assert (row.n, row.ts, row.fe) == (n, ts, fe), cls
    assert sum(r.n for r in report.per_domain.values()) == 98


def test_probe_integrity_row(golden_run):
    _, _, report = golden_run
    row = report.per_domain[DomainClass.PROBE_INTEGRITY]
    assert (row.n, row.tsr) == (23, 1.0)


def test_failure_modes(golden_run):
    _, _, report = golden_run
    assert dict(report.failure_modes) == GOLDEN_FAILURE_MODES
    assert sum(report.failure_modes.values()) == report.fe_count


def test_outcomes_mutually_exclusive_and_exhaustive(golden_run):
    _, _, report = golden_run
    assert report.ts_count + report.fe_count + report.ind_count == report.cases == 98
    assert report.epochs == 530


def test_evaluation_invariant_under_case_reordering(golden_run):
    taxonomy, dataset, report = golden_run
    rng = random.Random(3)
    shuffled = list(dataset.epochs)
    rng.shuffle(shuffled)
    shuffled_report = evaluate(
        Dataset(epochs=tuple(shuffled), contexts=dataset.contexts), taxonomy
    )
    assert shuffled_report.to_json_dict() == report.to_json_dict()


def test_dataset_taxonomy_mismatch(golden_run):
    taxonomy, dataset, _ = golden_run
    missing_one = tuple(e for e in dataset.epochs if e.patient_id != 3847291)
    with pytest.raises(
        InvariantViolation,
        match=r"dataset patients differ from the case list \(missing=\[3847291\], extra=\[\]\)",
    ):
        evaluate(Dataset(epochs=missing_one, contexts=dataset.contexts), taxonomy)


def test_duplicate_epoch_in_memory_dataset_raises(golden_run):
    # A second epoch at a patient's minute fails in the walk over that
    # patient's stream, whichever way the dataset reached evaluate(). A quiet
    # copy never reaches the decision history, so nothing else would notice
    # it, and the report would count 531 epochs.
    taxonomy, dataset, _ = golden_run
    first = dataset.epochs[0]
    quiet = dataclasses.replace(
        first, spo2=97.0, hr=72.0, device_status=DeviceStatus.OK, probe_cover_present=False
    )
    context = dataset.contexts[first.patient_id]
    assert detect(make_view(quiet, context), SentinelConfig()) is None
    with pytest.raises(InvariantViolation, match=f"duplicate epoch for patient {first.patient_id} "):
        evaluate(Dataset(epochs=(*dataset.epochs, quiet), contexts=dataset.contexts), taxonomy)


def test_duplicate_quiet_epoch_in_memory_dataset_raises():
    # Both epochs at the duplicated minute are quiet, so neither is ever
    # assembled: the walk checks each minute before the gate skips it.
    entry = make_entry(
        case_id="QUIET-001",
        domain_class=DomainClass.PROBE_INTEGRITY,
        continuous_params={
            "spo2": ContinuousSpec(97.5, 0.8, 95.5, 99.5),
            "hr": ContinuousSpec(72.0, 5.0, 60.0, 90.0),
        },
        categorical_params={"device_status": CategoricalSpec(fixed="ok")},
        context={"copd_documented": False},
    )
    (case,) = generate_dataset([entry], seed=42).cases
    contexts = {case.patient_id: case.context}
    key = _cell_key(case.context, SentinelConfig(), SpecialistConfig())
    assert all(key(epoch) is None for epoch in case.epochs)
    (outcome,) = evaluate(Dataset(epochs=case.epochs, contexts=contexts), [entry]).case_outcomes
    assert outcome.epoch_decisions == ()
    assert outcome.outcome is OutcomeKind.TRUE_SUPPRESSION
    with pytest.raises(InvariantViolation, match=f"duplicate epoch for patient {case.patient_id} "):
        evaluate(Dataset(epochs=(*case.epochs, case.epochs[2]), contexts=contexts), [entry])


def test_context_of_another_patient_raises_before_the_walk():
    # The context must be the patient's own, checked once per case, so a
    # stream whose every epoch is quiet fails as an alerting one does.
    other = PATIENT + 1
    contexts = {PATIENT: make_context(patient_id=other)}
    key = _cell_key(contexts[PATIENT], SentinelConfig(), SpecialistConfig())
    for epoch, alerts in ((make_epoch(hr=130.0), True), (make_epoch(), False)):
        assert (key(epoch) is not None) is alerts
        with pytest.raises(
            InvariantViolation, match=f"^epoch patient {PATIENT} != context patient {other}$"
        ):
            evaluate(Dataset(epochs=(epoch,), contexts=contexts), [make_entry(epoch_count=1)])


def test_an_epoch_past_the_quiet_screen_must_alert(monkeypatch):
    # The cell key's screen is detect()'s read off the raw epoch, so every
    # epoch it keys alerts and gets one decision. Skipped, a silent one would
    # leave the case a true suppression with one decision fewer.
    epoch = make_epoch(hr=130.0)
    assert _cell_key(make_context(), SentinelConfig(), SpecialistConfig())(epoch) is not None
    # The package attribute alertsift.evaluate is the function, not the module.
    monkeypatch.setattr(sys.modules["alertsift.evaluate"], "detect", lambda view, cfg: None)
    with pytest.raises(
        InvariantViolation,
        match=f"patient {PATIENT} at 2022-06-15T14:00:00Z: an epoch past the quiet screen",
    ):
        evaluate(
            Dataset(epochs=(epoch,), contexts={PATIENT: make_context()}),
            [make_entry(epoch_count=1)],
        )


def test_the_golden_counts_hold_for_other_seeds(golden_run):
    # The catalogue's bounds, not the draws, decide each case, so every seed
    # gives the golden counts; fleet's benchmark check, which runs seeds
    # 20*S to 20*S+19, relies on it. 30 seeds, about 0.6 s.
    taxonomy, _, _ = golden_run
    for seed in (*range(25), *range(440000, 440005)):
        cases = generate_dataset(taxonomy, seed).cases
        dataset = Dataset(
            epochs=tuple(e for case in cases for e in case.epochs),
            contexts={case.patient_id: case.context for case in cases},
        )
        assert check_golden(evaluate(dataset, taxonomy)) == [], seed


def test_check_golden_clean_and_tampered(golden_run):
    _, _, report = golden_run
    assert check_golden(report) == []


def test_report_text_renders_all_tables(golden_run):
    _, _, report = golden_run
    text = render_report_text(report.to_json_dict())
    assert "OVERALL OUTCOMES" in text
    assert "PER-CLASS STRATIFICATION" in text
    assert "WILSON 95% CONFIDENCE INTERVALS" in text
    assert "FAILURE MODES" in text
    assert "85.7% (Wilson) versus 85.2% (Clopper-Pearson)" in text
    assert "true_suppression         82    83.7%" in text


def test_importing_evaluate_leaves_numpy_unimported():
    # The package has no runtime dependency: the generator draws from the
    # standard library, so neither evaluate nor the command line, which
    # imports the generator, loads numpy. Each import runs in a fresh process.
    env = {**os.environ, "PYTHONPATH": str(Path(alertsift.__file__).parents[1])}
    for module in ("alertsift.evaluate", "alertsift.cli", "alertsift.synthgen"):
        code = f"import sys, {module}; print('numpy' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert done.stdout == "False\n", module


@st.composite
def _reports(draw: st.DrawFn) -> EvaluationReport:
    """A report over drawn class rows, with failure modes in drawn order and
    counts that split ``fe_count`` over them, as ``evaluate``'s do: one at
    drawn cuts, or an even split, whose counts tie often."""
    per_domain = {}
    for cls in draw(st.lists(st.sampled_from(DomainClass), min_size=1, unique=True)):
        n = draw(st.integers(1, 40))
        ts = draw(st.integers(0, n))
        per_domain[cls] = DomainRow(n, ts, n - ts)
    cases = sum(row.n for row in per_domain.values())
    fe_count = sum(row.fe for row in per_domain.values())
    statuses = draw(
        st.lists(
            st.sampled_from(DeviceStatus), min_size=min(1, fe_count), max_size=fe_count, unique=True
        )
    )
    k = len(statuses)
    if k > 1 and draw(st.booleans()):
        inner = st.integers(1, fe_count - 1)
        cuts = sorted(draw(st.lists(inner, min_size=k - 1, max_size=k - 1, unique=True)))
        counts = [b - a for a, b in zip([0, *cuts], [*cuts, fe_count])]
    else:
        share, rest = divmod(fe_count, k or 1)
        counts = [share + (i < rest) for i in range(k)]
    return EvaluationReport(
        per_domain=per_domain,
        epochs=draw(st.integers(cases, 8 * cases)),
        failure_modes=dict(zip(statuses, counts)),
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_reports())
def test_report_text_is_the_same_from_report_json(report):
    # Property (200 examples): the text evaluate renders from the report in
    # memory equals the text report renders from report.json, whose keys
    # json.dumps sorts; failure modes print by count, then by status.
    payload = report.to_json_dict()
    stored = validate_report_payload(json.loads(json.dumps(payload, indent=2, sort_keys=True)))
    text = render_report_text(payload)
    assert render_report_text(stored) == text
    rows = text.split("FAILURE MODES")[1].splitlines()[2:]
    by_count = sorted(report.failure_modes.items(), key=lambda kv: (-kv[1], kv[0].value))
    expected = [f"  {status.value:<24}{count:>6}" for status, count in by_count]
    assert rows == (expected or ["  (no false escalations)"])


def _derived_paths(payload: dict) -> list[tuple[str, ...]]:
    """The path of every number in report.json that the free inputs give:
    ``overall.*``, two totals, each class row's rates and each interval bound."""
    paths = [("overall", name) for name in payload["overall"]]
    paths += [("totals", "cases"), ("totals", "mean_epochs_per_case")]
    for cls in payload["per_domain"]:
        paths += [("per_domain", cls, "tsr"), ("per_domain", cls, "fer")]
        paths += [("wilson_cis", cls, "lower"), ("wilson_cis", cls, "upper")]
    return paths


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_reports(), st.data())
def test_report_check_names_any_derived_number_edited(report, data):
    # Property (100 examples): report.json must be the document its free
    # inputs give, so one derived number edited to another value of the same
    # JSON type is rejected, and the error names that number's path.
    payload = report.to_json_dict()
    *parents, key = data.draw(st.sampled_from(_derived_paths(payload)))
    target = payload
    for name in parents:
        target = target[name]
    old = target[key]
    if type(old) is int:
        values = st.integers(-(10**6), 10**6)
    else:
        values = st.floats(-1e6, 1e6, allow_nan=False)
    target[key] = data.draw(values.filter(lambda value: value != old))
    with pytest.raises(InvariantViolation) as excinfo:
        validate_report_payload(json.loads(json.dumps(payload, sort_keys=True)))
    assert f"report payload {'.'.join((*parents, key))} " in str(excinfo.value)


def test_decision_paths_present(golden_run):
    # the run exercises adoption, aggregation, ambiguity default, debounce
    _, _, report = golden_run
    paths = {
        d.resolution_path for case in report.case_outcomes for d in case.epoch_decisions
    }
    assert paths == {
        ResolutionPath.SINGLE_DOMAIN,
        ResolutionPath.WEIGHTED_AGGREGATION,
        ResolutionPath.AMBIGUITY_DEFAULT,
        ResolutionPath.DEBOUNCED,
    }


def test_duplicate_alert_case_never_debounces(golden_run):
    _, _, report = golden_run
    duplicate_cases = [
        case
        for case in report.case_outcomes
        if case.failure_device_status is DeviceStatus.DUPLICATE_ALERT
    ]
    assert len(duplicate_cases) == 1
    for d in duplicate_cases[0].epoch_decisions:
        assert d.resolution_path is ResolutionPath.AMBIGUITY_DEFAULT
        assert d.verdict is Verdict.ESCALATE


def test_detect_runs_once_per_cell_and_resolve_once_per_alerting_epoch(golden_run, monkeypatch):
    # The layers before resolve, and resolve's weighing, run once per cell of
    # the rules' comparisons, through evaluate's module bindings, which the
    # benchmark's tracer wraps: the seed-42 catalogue's 530 alerting epochs
    # fall into 52 cells. Every epoch is still resolved, the debounce run,
    # against its own patient's history. A case builds its source bundle
    # only when one of its epochs misses the cache: 46 of the 98 cases do.
    taxonomy, dataset, report = golden_run
    module = sys.modules["alertsift.evaluate"]
    calls = Counter()

    def counted(name, layer):
        def call(*args, **kwargs):
            calls[name] += 1
            return layer(*args, **kwargs)
        return call

    for name in ("detect", "weigh", "resolve", "SourceBundle"):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    assert evaluate(dataset, taxonomy).case_outcomes == report.case_outcomes
    bundles = calls.pop("SourceBundle")
    assert calls == {"detect": 52, "weigh": 52, "resolve": 530}
    assert bundles == 46


# One minute of a stream: (spo2, hr, device status). A quiet minute crosses
# no screen, threshold-equal values included; any other minute may cross
# one, several or none.
_QUIET_MINUTE = st.tuples(
    st.sampled_from((94.0, 97.0)) | st.floats(94.0, 100.0),
    st.sampled_from((50.0, 100.0, 72.0)) | st.floats(50.0, 100.0),
    st.just(DeviceStatus.OK),
)
_ANY_MINUTE = st.tuples(
    st.sampled_from((94.0, 93.9, 90.0, 88.0, 85.0, 75.0)) | st.floats(70.0, 100.0),
    st.sampled_from((50.0, 100.0, 49.0, 101.0, 40.0, 35.0, 130.0, 150.0))
    | st.floats(30.0, 200.0),
    st.sampled_from(list(DeviceStatus)),
)
# Plain, documented COPD with baseline 88, and a low baseline HR on
# rate-limiting medication.
_STREAM_CONTEXTS = (
    make_context(),
    make_context(copd=True, baseline_spo2=88.0),
    make_context(baseline_hr=45.0, med=True),
)


@st.composite
def _single_patient_streams(draw):
    start = draw(st.sampled_from((DAYTIME, NIGHT)))
    minutes = draw(st.lists(_QUIET_MINUTE | _ANY_MINUTE, min_size=1, max_size=40))
    epochs = [
        make_epoch(
            ts=start + timedelta(minutes=i),
            spo2=spo2,
            hr=hr,
            status=status,
            accel=draw(st.sampled_from(list(AccelLevel))),
            probe_cover=draw(st.booleans()),
            position=draw(st.sampled_from(list(Position))),
            activity=draw(st.none() | st.sampled_from(list(SelfReportedActivity))),
        )
        for i, (spo2, hr, status) in enumerate(minutes)
    ]
    return tuple(draw(st.permutations(epochs))), draw(st.sampled_from(_STREAM_CONTEXTS))


@settings(
    max_examples=150, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(_single_patient_streams())
def test_gated_walk_matches_the_gate_free_reference(tmp_path, stream):
    # Property: skipping quiet epochs before assembly changes no decision.
    # Over drawn single-patient streams of quiet and alerting minutes, in
    # any file order, evaluate() gives the case outcome of the walk that
    # assembles, projects and detects every epoch, and the same log bytes.
    epochs, context = stream
    entry = make_entry(case_id="STREAM-001", epoch_count=len(epochs))
    report = evaluate(Dataset(epochs=epochs, contexts={PATIENT: context}), [entry])
    expected = reference_run_case(
        entry.case_id, entry.domain_class, PATIENT, epochs, context,
        SentinelConfig(), SpecialistConfig(), MetaConfig(),
    )
    assert report.case_outcomes == (expected,)
    # A plain tuple equals a NamedTuple of the same fields; the types must hold too.
    for outcome in report.case_outcomes:
        assert type(outcome) is CaseOutcome
        assert all(type(d) is SystemDecision for d in outcome.epoch_decisions)
    gated, reference = tmp_path / "gated.jsonl", tmp_path / "reference.jsonl"
    write_decision_log(report, gated)
    write_decision_log(dataclasses.replace(report, case_outcomes=(expected,)), reference)
    assert gated.read_bytes() == reference.read_bytes()
