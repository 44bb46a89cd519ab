"""Acceptance suite: the exit criteria for this artifact.

Each test covers one numbered criterion at its stated tolerance and prints
one pass/fail line (visible under `pytest -v -s tests/test_acceptance.py`).
Criteria 1-3 hold with zero tolerance because the shipped scenario
catalogue pins every generated value on a known side of every rule
threshold; the outcome distribution is seed-invariant by construction.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import time
from datetime import timedelta

import pytest

from alertsift.assembly import project_for_specialists
from alertsift.cli import main
from alertsift.evaluate import (
    Dataset,
    GOLDEN_FAILURE_MODES,
    GOLDEN_PER_DOMAIN,
    OutcomeKind,
    evaluate,
    render_report_text,
    wilson_interval,
)
from alertsift.meta import DecisionHistory, MetaConfig, resolve, weigh
from alertsift.model import (
    AgentClaim,
    AgentDomain,
    AlertType,
    DeviceStatus,
    DomainClass,
    ProvenanceTag,
    Recommendation,
    Verdict,
)
from alertsift.routing import RoutingDecision, route
from alertsift.sentinel import SentinelConfig, detect
from alertsift.synthgen import default_taxonomy_path, generate_dataset, load_taxonomy
from helpers import (
    DAYTIME,
    PATIENT,
    SEED_42_SHA256,
    field_names,
    make_context,
    make_entry,
    make_epoch,
    make_record,
    make_view,
    retag_field,
    routed_via_last_resort,
    sample_truncated_gaussian,
)


def _check(label: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}" + (f": {detail}" if detail else ""))
    assert ok, f"{label} {detail}"


@pytest.fixture(scope="module")
def golden():
    taxonomy = load_taxonomy(default_taxonomy_path())
    started = time.perf_counter()
    generated = generate_dataset(taxonomy, seed=42)
    dataset = Dataset(
        epochs=tuple(e for case in generated.cases for e in case.epochs),
        contexts={case.patient_id: case.context for case in generated.cases},
    )
    report = evaluate(dataset, taxonomy)
    elapsed = time.perf_counter() - started
    return taxonomy, generated, dataset, report, elapsed


def test_criterion_1_golden_reproduction(golden):
    _, _, _, report, elapsed = golden
    ok = (
        (report.ts_count, report.fe_count, report.ind_count) == (82, 16, 0)
        and f"{100 * report.tsr:.1f}" == "83.7"
        and f"{100 * report.fer:.1f}" == "16.3"
        and f"{100 * report.indr:.1f}" == "0.0"
        and elapsed < 10.0
    )
    _check(
        "criterion 1: golden reproduction",
        ok,
        f"TS={report.ts_count} FE={report.fe_count} IND={report.ind_count} "
        f"in {elapsed:.2f}s",
    )


def test_criterion_2_per_domain_stratification(golden):
    _, _, _, report, _ = golden
    mismatches = []
    for cls, expected in GOLDEN_PER_DOMAIN.items():
        row = report.per_domain.get(cls)
        got = (row.n, row.ts, row.fe) if row else None
        if got != expected:
            mismatches.append(f"{cls.value}: {got} != {expected}")
    _check(
        "criterion 2: per-class stratification exact",
        not mismatches,
        "; ".join(mismatches) or "all nine rows exact",
    )


def test_criterion_3_failure_mode_distribution(golden):
    _, _, _, report, _ = golden
    got = {status.value: n for status, n in report.failure_modes.items()}
    expected = {status.value: n for status, n in GOLDEN_FAILURE_MODES.items()}
    _check(
        "criterion 3: failure-mode distribution exact",
        got == expected,
        f"{got}",
    )


def test_criterion_4_wilson_intervals(golden):
    _, _, _, report, _ = golden
    z2 = 1.96 * 1.96
    checks = []
    for n, printed in [(2, 34.2), (3, 43.9), (13, 77.2)]:
        lower, _ = wilson_interval(n, n)
        checks.append(abs(100 * lower - printed) <= 0.1)
    lower23, _ = wilson_interval(23, 23)
    checks.append(round(100 * lower23, 1) == 85.7)
    checks.append(lower23 == pytest.approx(23 / (23 + z2), abs=1e-12))
    text = render_report_text(report.to_json_dict())
    checks.append("85.7% (Wilson) versus 85.2% (Clopper-Pearson)" in text)
    _check(
        "criterion 4: Wilson lower bounds within 0.1pp, divergence flagged",
        all(checks),
        f"23/23 Wilson lower = {100 * lower23:.2f}%",
    )


def test_criterion_5_dataset_shape(golden):
    _, generated, dataset, _, _ = golden
    pids = sorted({e.patient_id for e in dataset.epochs})
    timestamps_ok = all(
        e.timestamp.year == 2022 and 6 <= e.timestamp.month <= 8 for e in dataset.epochs
    )
    mean = len(dataset.epochs) / generated.manifest["case_count"]
    ok = (
        generated.manifest["case_count"] == 98
        and len(dataset.epochs) == 530
        and f"{mean:.1f}" == "5.4"
        and pids == list(range(3847291, 3847389))
        and timestamps_ok
    )
    _check(
        "criterion 5: dataset shape",
        ok,
        f"98 cases / 530 epochs / mean {mean:.1f} / ids {pids[0]}-{pids[-1]}",
    )


def test_criterion_6_end_to_end_determinism(tmp_path):
    artifacts = {}
    for run_name in ("one", "two"):
        base = tmp_path / run_name
        base.mkdir()
        config = base / "config.json"
        config.write_text(
            json.dumps(
                {
                    "seed": 42,
                    "paths": {
                        "taxonomy": str(default_taxonomy_path()),
                        "dataset_dir": str(base / "dataset"),
                        "report_dir": str(base / "report"),
                    },
                }
            ),
            encoding="utf-8",
        )
        assert main(["--config", str(config), "generate"]) == 0
        assert main(["--config", str(config), "evaluate"]) == 0
        artifacts[run_name] = {
            name: (base / folder / name).read_bytes()
            for folder, name in [
                ("dataset", "manifest.json"),
                ("dataset", "epochs.jsonl"),
                ("dataset", "contexts.json"),
                ("report", "decisions.jsonl"),
                ("report", "report.json"),
                ("report", "report.txt"),
            ]
        }
    identical = artifacts["one"] == artifacts["two"]
    _check(
        "criterion 6: byte-identical dataset files, decision log, report",
        identical,
        "two seeded runs compared",
    )
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in artifacts["one"].items()}
    _check(
        "criterion 6: seed-42 outputs match the pinned sha256 digests",
        digests == SEED_42_SHA256,
        ", ".join(f"{name} {digest[:12]}" for name, digest in digests.items()),
    )


def test_criterion_7_provenance_safety():
    rng = random.Random(20220601)
    injectable = {
        "spo2": (lambda: round(rng.uniform(70.0, 93.0), 1), AlertType.LOW_SPO2),
        "hr": (lambda: round(rng.uniform(100.5, 200.0), 1), AlertType.HIGH_HR),
        "device_status": (
            lambda: rng.choice([s for s in DeviceStatus if s is not DeviceStatus.OK]),
            AlertType.SIGNAL_QUALITY,
        ),
    }
    cfg = SentinelConfig()
    violations = 0
    for _ in range(1000):
        field = rng.choice(list(injectable))
        value_fn, alert_type = injectable[field]
        epoch_kwargs = {"spo2": 97.0, "hr": 72.0, "status": DeviceStatus.OK}
        if field == "spo2":
            epoch_kwargs["spo2"] = value_fn()
        elif field == "hr":
            epoch_kwargs["hr"] = value_fn()
        else:
            epoch_kwargs["status"] = value_fn()
        record = retag_field(make_record(make_epoch(**epoch_kwargs)), field, ProvenanceTag.INFERRED)
        view = project_for_specialists(record)
        if field in field_names(view):
            violations += 1
            continue
        if any(tv.provenance is ProvenanceTag.INFERRED for tv in view.fields.values()):
            violations += 1
            continue
        types = detect(view, cfg)
        if types is not None and alert_type in types:
            violations += 1
    _check(
        "criterion 7: inferred fields never exposed nor alerting (1000 records)",
        violations == 0,
        f"{violations} violations",
    )


def test_criterion_8_meta_totality_conservatism_homogeneity():
    rng = random.Random(987654)
    cfg = MetaConfig()
    recs = [Recommendation.SUPPRESS, Recommendation.ESCALATE, Recommendation.INDETERMINATE]
    base_epoch = make_epoch(spo2=90.0)
    base_view = make_view(base_epoch)
    types = detect(base_view, SentinelConfig())
    # resolve reads the alert's type set, the epoch's time and whether its
    # status is duplicate_alert; this one's is ok.
    at = base_view.timestamp
    failures = 0
    trials = 10_000
    for _ in range(trials):
        domains = rng.sample(list(AgentDomain), k=rng.randint(1, 6))
        domains.sort(key=list(AgentDomain).index)
        claims = tuple(
            AgentClaim(d, rng.choice(recs), round(rng.uniform(0, 1), 3))
            for d in domains
        )
        routing = RoutingDecision(targets=frozenset(domains), ambiguity_flag=False)
        weighing = weigh(claims, routing, cfg)
        decision = resolve(claims, weighing, types, at, False, DecisionHistory(), cfg)
        if decision.verdict not in (Verdict.SUPPRESS, Verdict.ESCALATE):
            failures += 1
            continue
        adopted = (
            len(claims) == 1 and claims[0].recommendation is not Recommendation.INDETERMINATE
        )
        s = sum(c.confidence for c in claims if c.recommendation is Recommendation.SUPPRESS)
        e = sum(c.confidence for c in claims if c.recommendation is Recommendation.ESCALATE)
        if not adopted and abs(s - e) < cfg.resolution_margin:
            if decision.verdict is not Verdict.ESCALATE:
                failures += 1
                continue
        # power-of-two factors scale exactly under IEEE-754; non-dyadic
        # factors are checked away from the decision boundary, where a
        # one-ulp rounding difference cannot legitimately flip the verdict
        factors = [0.5, 2.0]
        if abs(abs(s - e) - cfg.resolution_margin) > 1e-9:
            factors.append(3.0)
        for factor in factors:
            scaled = MetaConfig(
                resolution_margin=cfg.resolution_margin * factor,
                cooldown_window_minutes=cfg.cooldown_window_minutes,
                domain_weights={d: factor for d in AgentDomain},
            )
            weighing = weigh(claims, routing, scaled)
            if (
                resolve(claims, weighing, types, at, False, DecisionHistory(), scaled).verdict
                is not decision.verdict
            ):
                failures += 1
                break
    _check(
        "criterion 8: meta totality, conservative default, homogeneity (10^4 sets)",
        failures == 0,
        f"{failures} failures over {trials} claim sets",
    )


def test_criterion_9_aggregation_oracle():
    # One patient per verdict vector of length 1-6, all in one evaluate()
    # call. A suppressing minute is a motion artefact on normal vitals
    # (probe_integrity, artefact_flagged); an escalating one an HR of 130 at
    # rest in the day with no baseline (tachycardia, isolated_high_hr). Their
    # alert-type sets differ, so the debounce replays each only onto itself.
    def oracle(vector):
        if any(v is Verdict.ESCALATE for v in vector):
            return OutcomeKind.FALSE_ESCALATION
        return OutcomeKind.TRUE_SUPPRESSION

    def minute(pid, i, verdict):
        ts = DAYTIME + timedelta(minutes=i)
        if verdict is Verdict.SUPPRESS:
            return make_epoch(ts, pid, status=DeviceStatus.MOTION_ARTEFACT)
        return make_epoch(ts, pid, hr=130.0)

    vectors = [
        vector
        for length in range(1, 7)
        for vector in itertools.product((Verdict.SUPPRESS, Verdict.ESCALATE), repeat=length)
    ]
    pids = [PATIENT + i for i in range(len(vectors))]
    entries = [
        make_entry(case_id=f"VEC-{i:03d}", epoch_count=len(vector))
        for i, vector in enumerate(vectors)
    ]
    epochs = tuple(
        minute(pid, i, v) for pid, vector in zip(pids, vectors) for i, v in enumerate(vector)
    )
    report = evaluate(
        Dataset(epochs=epochs, contexts={pid: make_context(pid) for pid in pids}), entries
    )
    mismatches = sum(
        tuple(d.verdict for d in case.epoch_decisions) != vector
        or case.outcome is not oracle(vector)
        for case, vector in zip(report.case_outcomes, vectors)
    )
    _check(
        "criterion 9: evaluate() decides all 126 verdict vectors as brute force does",
        len(report.case_outcomes) == len(vectors) == 126 and mismatches == 0,
        f"{len(report.case_outcomes)} cases, {mismatches} mismatches",
    )


def test_criterion_10_truncated_gaussian_statistics():
    rng = random.Random(31415926)
    draws = sample_truncated_gaussian(96.0, 1.0, 70.0, 100.0, rng, 100_000)

    def phi(x):
        return math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)

    def cdf(x):
        return 0.5 * (1 + math.erf(x / math.sqrt(2)))

    alpha, beta = (70.0 - 96.0) / 1.0, (100.0 - 96.0) / 1.0
    analytic = 96.0 + (phi(alpha) - phi(beta)) / (cdf(beta) - cdf(alpha))
    out_of_bounds = sum(not 70.0 <= x <= 100.0 for x in draws)
    deviation = abs(math.fsum(draws) / len(draws) - analytic)
    _check(
        "criterion 10: truncated-Gaussian mean within 0.02, all in bounds",
        deviation < 0.02 and out_of_bounds == 0,
        f"|mean - analytic| = {deviation:.4f}, {out_of_bounds} out of bounds",
    )


def test_criterion_11_single_domain_safety(golden):
    taxonomy, generated, _, report, _ = golden
    sentinel_cfg = SentinelConfig()
    outcomes_by_case = {c.case_id: c for c in report.case_outcomes}

    qualifying: list[str] = []
    for case in generated.cases:
        single_owned = True
        for epoch in case.epochs:
            view = make_view(epoch, case.context)
            types = detect(view, sentinel_cfg)
            if types is None:
                single_owned = False
                break
            routing = route(types, view)
            if (
                len(routing.targets) != 1
                or routing.ambiguity_flag
                or routed_via_last_resort(types, view, routing)
            ):
                single_owned = False
                break
        if single_owned:
            qualifying.append(case.entry.case_id)

    escalated = [
        cid
        for cid in qualifying
        if outcomes_by_case[cid].outcome is OutcomeKind.FALSE_ESCALATION
    ]
    exception_ok = (
        len(escalated) == 1
        and outcomes_by_case[escalated[0]].domain_class is DomainClass.TACHYCARDIA
        and any(
            "isolated_high_hr" in c.rationale_codes
            for d in outcomes_by_case[escalated[0]].epoch_decisions
            for c in d.contributing_claims
        )
    )
    _check(
        "criterion 11: single-domain full-context cases all suppress "
        "(one documented isolated-high-HR exception)",
        exception_ok,
        f"{len(qualifying)} qualifying cases, escalated={escalated}",
    )
