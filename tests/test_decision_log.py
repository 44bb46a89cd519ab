"""The decision log is byte-identical to one written line by line.

``write_decision_log`` builds each distinct decision body once per call,
keyed by the identity of its claims tuple, from each distinct claim encoded
once per call, keyed by its identity, and writes each case's head as text,
then joins them with each decision's timestamp. The reference below is the writer as first written: the whole line rebuilt from
``to_dict`` and encoded for every decision. Over random reports the two must
write the same bytes, including where claims compare equal but are distinct
objects, or compare equal but encode differently (confidence ``1`` and
``1.0``).
"""

from __future__ import annotations

import dataclasses
import sys
from collections import Counter
from datetime import datetime, timedelta, timezone
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from alertsift.evaluate import (
    CaseOutcome, Dataset, DomainRow, EvaluationReport, OutcomeKind, evaluate, write_decision_log,
)
from alertsift.model import (
    COMPACT_JSON,
    AgentClaim,
    AgentDomain,
    DomainClass,
    Recommendation,
    ResolutionPath,
    SystemDecision,
    Verdict,
)
from alertsift.synthgen import default_taxonomy_path, generate_dataset, load_taxonomy


def _reference_write_decision_log(report: EvaluationReport, path: Path) -> None:
    """write_decision_log as first written: one full encode per decision."""
    encode = COMPACT_JSON.encode
    with open(path, "w", encoding="utf-8") as fp:
        for case in report.case_outcomes:
            for decision in case.epoch_decisions:
                line = {
                    "case_id": case.case_id,
                    "patient_id": case.patient_id,
                    "decision": decision.to_dict(),
                }
                fp.write(encode(line) + "\n")


_CODES = ("artefact_flagged", "copd_baseline", "motion_context", "nocturnal_dip", "hr_sustained")

# Confidences equal across types (0/0.0, 1/1.0) sit beside arbitrary floats.
_claims = st.builds(
    AgentClaim,
    domain=st.sampled_from(AgentDomain),
    recommendation=st.sampled_from(Recommendation),
    confidence=st.one_of(st.sampled_from([0, 1, 0.0, 1.0, 0.5]), st.floats(0.0, 1.0)),
    rationale_codes=st.lists(st.sampled_from(_CODES), max_size=3).map(tuple),
)


def _twins(claim: AgentClaim) -> list[AgentClaim]:
    """An equal copy of ``claim``, and, for a whole confidence, the copy
    whose confidence is the other numeric type (1 for 1.0 and back)."""
    twins = [dataclasses.replace(claim)]
    if claim.confidence in (0, 1):
        other = float if isinstance(claim.confidence, int) else int
        twins.append(dataclasses.replace(claim, confidence=other(claim.confidence)))
    return twins


# Both whole confidences as both types, so every report holds such a pair.
_FIXED_CLAIMS = [
    AgentClaim(AgentDomain.COPD, Recommendation.SUPPRESS, confidence, ("copd_baseline",))
    for confidence in (1, 1.0, 0, 0.0)
]

_ZONES = [
    timezone.utc,
    timezone(timedelta(hours=5, minutes=30)),
    timezone(timedelta(hours=-8)),
    timezone(timedelta(hours=13, minutes=45)),
]

_case_ids = st.one_of(
    st.text(st.sampled_from('aZ0_- "\\é☃\U0001f600\u2028\n\t'), max_size=10),
    st.text(max_size=6),
)


@st.composite
def _reports(draw: st.DrawFn) -> EvaluationReport:
    drawn = draw(st.lists(_claims, min_size=1, max_size=5))
    pool = drawn + [twin for claim in drawn for twin in _twins(claim)] + _FIXED_CLAIMS
    claim_sets = st.lists(st.sampled_from(pool), max_size=4).map(tuple)
    # As a cell's decisions do, some decisions share one claims tuple object
    # under different verdicts and paths: the first case walks every pair
    # with the first shared tuple, and any decision may take one of them.
    shared = draw(st.lists(claim_sets, min_size=1, max_size=3))
    claims_of = claim_sets | st.sampled_from(shared)
    stamps = st.datetimes(
        min_value=datetime(2000, 1, 1), max_value=datetime(2099, 12, 31),
        timezones=st.sampled_from(_ZONES),
    )
    pairs = [(verdict, path) for verdict in Verdict for path in ResolutionPath]
    cases = []
    for index in range(draw(st.integers(1, 5))):
        # The first case walks every verdict/path pair, then random ones.
        steps = pairs if index == 0 else []
        steps = steps + draw(
            st.lists(st.tuples(st.sampled_from(Verdict), st.sampled_from(ResolutionPath)), max_size=6)
        )
        decisions = tuple(
            SystemDecision(
                verdict, shared[0] if step < len(pairs) and not index else draw(claims_of),
                path, draw(stamps),
            )
            for step, (verdict, path) in enumerate(steps)
        )
        cases.append(
            CaseOutcome(
                case_id=draw(_case_ids) if index else 'case "é\\☃"',
                patient_id=draw(st.integers(0, 10**9)),
                domain_class=DomainClass.COPD,
                outcome=OutcomeKind.TRUE_SUPPRESSION,
                epoch_decisions=decisions,
                failure_device_status=None,
            )
        )
    return EvaluationReport(
        per_domain={DomainClass.COPD: DomainRow(len(cases), len(cases), 0)},
        epochs=sum(len(c.epoch_decisions) for c in cases),
        failure_modes={}, case_outcomes=tuple(cases),
    )


@settings(
    max_examples=150, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(_reports())
def test_decision_log_bytes_match_the_per_line_reference(tmp_path, report):
    # Property: random reports (escaped and non-ASCII case ids, equal claims
    # in distinct objects, one claims tuple under several verdicts and
    # paths, confidence 1 beside 1.0, empty claim tuples, every verdict/path
    # pair, non-UTC decision times) give identical bytes.
    ours, reference = tmp_path / "ours.jsonl", tmp_path / "reference.jsonl"
    write_decision_log(report, ours)
    _reference_write_decision_log(report, reference)
    assert ours.read_bytes() == reference.read_bytes()


def test_a_case_goes_out_in_writes_of_at_most_1024_lines(tmp_path, monkeypatch):
    # A case's lines are joined into one write, up to 1,024 lines a write,
    # so a long stream is never one string: 2,500 decisions go out in
    # writes of 1,024, 1,024 and 452 lines, and a short case in one.
    writes = []

    def recording_open(*args, **kwargs):
        fp = open(*args, **kwargs)
        write = fp.write
        fp.write = lambda text: writes.append(text) or write(text)
        return fp

    claims = (_FIXED_CLAIMS[0],)
    start = datetime(2022, 6, 1, tzinfo=timezone.utc)
    cases = tuple(
        CaseOutcome(
            case_id=f"case-{n}", patient_id=n, domain_class=DomainClass.COPD,
            outcome=OutcomeKind.TRUE_SUPPRESSION,
            epoch_decisions=tuple(
                SystemDecision(
                    Verdict.SUPPRESS, claims, ResolutionPath.SINGLE_DOMAIN,
                    start + timedelta(minutes=minute),
                )
                for minute in range(n)
            ),
            failure_device_status=None,
        )
        for n in (2500, 3)
    )
    report = EvaluationReport(
        per_domain={DomainClass.COPD: DomainRow(2, 2, 0)}, epochs=2503,
        failure_modes={}, case_outcomes=cases,
    )
    # The package re-exports the evaluate function under the module's name.
    monkeypatch.setattr(sys.modules["alertsift.evaluate"], "open", recording_open, raising=False)
    write_decision_log(report, tmp_path / "ours.jsonl")
    monkeypatch.undo()
    assert [text.count("\n") for text in writes] == [1024, 1024, 452, 3]
    _reference_write_decision_log(report, tmp_path / "reference.jsonl")
    assert (tmp_path / "ours.jsonl").read_bytes() == (tmp_path / "reference.jsonl").read_bytes()


def _encodings(report: EvaluationReport, *paths: Path) -> list[Counter]:
    """Write the log to each path; for each call, how often each claim
    object (by id) went through ``AgentClaim.to_dict``."""
    to_dict, counts = AgentClaim.to_dict, []

    def counting(claim):
        counts[-1][id(claim)] += 1
        return to_dict(claim)

    for path in paths:
        counts.append(Counter())
        with mock.patch.object(AgentClaim, "to_dict", counting):
            write_decision_log(report, path)
    return counts


def test_a_seed_42_log_encodes_each_distinct_claim_once_per_call(tmp_path):
    # The seed-42 run's claims tuples share claim objects, so the claims
    # appear in more bodies than there are claims; each call still encodes
    # each claim object exactly once, and writes the reference's bytes.
    taxonomy = load_taxonomy(default_taxonomy_path())
    generated = generate_dataset(taxonomy, seed=42)
    report = evaluate(
        Dataset(
            epochs=tuple(e for case in generated.cases for e in case.epochs),
            contexts={case.patient_id: case.context for case in generated.cases},
        ),
        taxonomy,
    )
    bodies = {
        (d.verdict, d.resolution_path, id(d.contributing_claims)): d.contributing_claims
        for case in report.case_outcomes for d in case.epoch_decisions
    }
    claims = {id(claim) for tuple_ in bodies.values() for claim in tuple_}
    assert len(claims) < sum(map(len, bodies.values()))
    first, second = _encodings(report, tmp_path / "first.jsonl", tmp_path / "second.jsonl")
    assert first == second == Counter(dict.fromkeys(claims, 1))
    _reference_write_decision_log(report, tmp_path / "reference.jsonl")
    reference = (tmp_path / "reference.jsonl").read_bytes()
    assert (tmp_path / "first.jsonl").read_bytes() == reference
    assert (tmp_path / "second.jsonl").read_bytes() == reference


def test_equal_claims_in_two_cells_keep_their_own_confidence(tmp_path):
    # Two cells of one run hold claims that compare equal, one with
    # confidence 1 and one with 1.0, under the same verdict and path; each
    # cell's decisions share its claims tuple. A cache keyed by equality
    # would write one cell's text for the other's. Each line matches the
    # per-line COMPACT_JSON encoding, and each claim is encoded once.
    whole, real = (
        AgentClaim(AgentDomain.COPD, Recommendation.SUPPRESS, confidence, ("copd_baseline",))
        for confidence in (1, 1.0)
    )
    assert whole == real
    cells = ((whole,), (real,))
    start = datetime(2022, 6, 1, tzinfo=timezone.utc)
    decisions = tuple(
        SystemDecision(
            Verdict.SUPPRESS, cells[minute % 2], ResolutionPath.SINGLE_DOMAIN,
            start + timedelta(minutes=minute),
        )
        for minute in range(4)
    )
    case = CaseOutcome(
        case_id="FP-032", patient_id=3847322, domain_class=DomainClass.COPD,
        outcome=OutcomeKind.TRUE_SUPPRESSION, epoch_decisions=decisions,
        failure_device_status=None,
    )
    report = EvaluationReport(
        per_domain={DomainClass.COPD: DomainRow(1, 1, 0)}, epochs=4,
        failure_modes={}, case_outcomes=(case,),
    )
    [counts] = _encodings(report, tmp_path / "ours.jsonl")
    assert counts == Counter({id(whole): 1, id(real): 1})
    lines = (tmp_path / "ours.jsonl").read_text(encoding="utf-8").splitlines()
    assert lines == [
        COMPACT_JSON.encode(
            {"case_id": case.case_id, "patient_id": case.patient_id, "decision": d.to_dict()}
        )
        for d in decisions
    ]
    assert ['"confidence":1,' in line for line in lines] == [True, False, True, False]
