"""The decision log is byte-identical to one written line by line.

``write_decision_log`` encodes each distinct decision body once per call,
keyed by the identity of its claims tuple, and writes each case's head as
text, then joins them with each decision's timestamp. The
reference below is the writer as first written: the whole line rebuilt from
``to_dict`` and encoded for every decision. Over random reports the two must
write the same bytes, including where claims compare equal but are distinct
objects, or compare equal but encode differently (confidence ``1`` and
``1.0``).
"""

from __future__ import annotations

import dataclasses
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from alertsift.evaluate import (
    CaseOutcome, DomainRow, EvaluationReport, OutcomeKind, write_decision_log,
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
