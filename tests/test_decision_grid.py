"""The single-epoch decision over its input space, cached and uncached.

``evaluate`` decides each alerting epoch's type set, routing and claims once
per cell of the rules' comparisons and replays them for every later epoch of
the cell. ``tests/helpers.py::decision_grid`` lays out the grid: each
comparison's two sides and its equality point, every categorical value, day,
night and the window's edges, five contexts and three priors. One
``evaluate()`` call runs all of it through one cache, so each cell's value
comes from its first point and is replayed for the rest; every decision
must equal ``reference_run_case``'s, which builds every epoch's record,
view, routing and claims through the checked constructors and finds its
alert types with ``reference_detect``. Over the same points, the debounce
holds an alarm but never hides one (property D).
"""

from __future__ import annotations

import sys
from collections import Counter
from datetime import timedelta

from alertsift.evaluate import Dataset, ManifestCase, evaluate
from alertsift.meta import MetaConfig, weigh
from alertsift.model import (
    AccelLevel,
    DeviceStatus,
    DomainClass,
    Position,
    Recommendation,
    ResolutionPath,
    SelfReportedActivity,
    Verdict,
)
from alertsift.routing import RoutingDecision
from alertsift.sentinel import SentinelConfig
from alertsift.specialists import SpecialistConfig
from helpers import DAYTIME, GRID_CONTEXTS, PATIENT, decision_grid, make_context, make_epoch


def test_every_grid_point_decides_as_the_uncached_reference(monkeypatch):
    # 25,164 points with no prior and 16,176 after an escalate or suppress
    # prior: 57,516 epochs, 56,556 of them alerting, in 10,204 cells. About
    # 3 s, most of it the reference.
    cfgs = SentinelConfig(), SpecialistConfig(), MetaConfig()
    grid = decision_grid(*cfgs)
    module = sys.modules["alertsift.evaluate"]
    detect = module.detect
    misses = []
    monkeypatch.setattr(module, "detect", lambda view, cfg: misses.append(1) or detect(view, cfg))

    report = evaluate(grid.dataset, grid.cases, *cfgs)

    assert report.case_outcomes == grid.reference
    decisions = [d for outcome in grid.reference for d in outcome.epoch_decisions]
    assert (grid.points, grid.priors, len(decisions), len(misses)) == (
        25_164, 16_176, 56_556, 10_204
    )
    # Both priors are replayed, and some are not: a duplicate_alert status,
    # or an escalate claim after a suppression, resolves in full.
    replayed = Counter(d.verdict for d in decisions if d.resolution_path is ResolutionPath.DEBOUNCED)
    assert replayed[Verdict.ESCALATE] and replayed[Verdict.SUPPRESS]
    assert sum(replayed.values()) < grid.priors

    # No suppression is replayed over an escalate claim, after each of the
    # three priors: none (the first patient of each context), or an
    # escalation or a suppression one minute before. A prior patient's
    # decisions come in pairs, the prior's and then the point's. 24,204 of
    # the points with no prior alert.
    points = {None: [], Verdict.ESCALATE: [], Verdict.SUPPRESS: []}
    for index, outcome in enumerate(report.case_outcomes):
        made = outcome.epoch_decisions
        if index < len(GRID_CONTEXTS):
            points[None] += made
        else:
            for prior, point in zip(made[::2], made[1::2], strict=True):
                points[prior.verdict].append(point)
    assert [len(made) for made in points.values()] == [24_204, 8_160, 8_016]
    for made in points.values():
        assert not [
            d for d in made
            if d.resolution_path is ResolutionPath.DEBOUNCED
            and d.verdict is Verdict.SUPPRESS
            and any(c.recommendation is Recommendation.ESCALATE for c in d.contributing_claims)
        ]

    # Property D, after each prior: a debounced suppression's own weighing
    # suppresses, so the debounce never hides an alarm. A debounced
    # escalation may hold one over a suppressing weighing (4,628 points
    # after an escalation). After a suppression, 2,700 points escalate in
    # full, 960 of them with no escalate claim, by the ambiguity default.
    cfg = cfgs[2]
    weighed = {}
    for prior, made in points.items():
        paths = Counter()
        for d in made:
            claims = d.contributing_claims
            if claims not in weighed:
                routing = RoutingDecision(frozenset(c.domain for c in claims), False)
                weighed[claims] = weigh(claims, routing, cfg).verdict
            paths[d.verdict, d.resolution_path is ResolutionPath.DEBOUNCED, weighed[claims]] += 1
        assert not paths[Verdict.SUPPRESS, True, Verdict.ESCALATE], prior
        if prior is Verdict.ESCALATE:
            assert paths[Verdict.ESCALATE, True, Verdict.SUPPRESS] == 4_628
        if prior is Verdict.SUPPRESS:
            assert paths[Verdict.SUPPRESS, True, Verdict.SUPPRESS] == 4_000
            assert paths[Verdict.ESCALATE, False, Verdict.ESCALATE] == 2_700


def test_a_suppressed_minute_does_not_hide_the_next_minutes_alarm():
    # SpO2 97 and HR 72, still, upright and resting, on a plain context:
    # each minute raises only a signal_quality alert. A motion_artefact
    # minute alone is suppressed; a system_flag minute alone escalates by
    # the ambiguity default, with no escalate claim. One minute after the
    # suppression, inside the cooldown and for the same alert-type set, the
    # system_flag minute still escalates: the debounce does not replay the
    # suppression over an escalating weighing.
    cfgs = SentinelConfig(), SpecialistConfig(), MetaConfig()
    stream = [
        make_epoch(
            ts=DAYTIME + timedelta(minutes=minute), status=status,
            accel=AccelLevel.STILL, position=Position.UPRIGHT,
            activity=SelfReportedActivity.RESTING,
        )
        for minute, status in enumerate((DeviceStatus.MOTION_ARTEFACT, DeviceStatus.SYSTEM_FLAG))
    ]
    dataset = Dataset(tuple(stream), {PATIENT: make_context()})
    case = ManifestCase("STREAM-01", PATIENT, DomainClass.META_CONFLICT, len(stream))

    (outcome,) = evaluate(dataset, (case,), *cfgs).case_outcomes
    first, second = outcome.epoch_decisions
    assert (first.verdict, first.resolution_path) == (
        Verdict.SUPPRESS, ResolutionPath.SINGLE_DOMAIN
    )
    assert (second.verdict, second.resolution_path) == (
        Verdict.ESCALATE, ResolutionPath.AMBIGUITY_DEFAULT
    )
    assert not [
        c for c in second.contributing_claims if c.recommendation is Recommendation.ESCALATE
    ]
    assert outcome.failure_device_status is DeviceStatus.SYSTEM_FLAG
