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
alert types with ``reference_detect``.
"""

from __future__ import annotations

import sys
from collections import Counter

from alertsift.evaluate import evaluate
from alertsift.meta import MetaConfig
from alertsift.model import Recommendation, ResolutionPath, Verdict
from alertsift.sentinel import SentinelConfig
from alertsift.specialists import SpecialistConfig
from helpers import GRID_CONTEXTS, decision_grid


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
