"""Shared claims and routing decisions are indistinguishable from fresh ones.

Specialists return one interned AgentClaim per (domain, recommendation,
confidence, codes), and routing one interned RoutingDecision per (targets,
ambiguity flag). These tests pin that the sharing changes no value: on every
seed-42 alerting epoch the shared objects equal freshly built ones, and the
decision log is byte-identical to one written from uncached claims, even
when two configs hold equal confidences of different types (1 and 1.0).
"""

from __future__ import annotations

import dataclasses

import pytest

from alertsift import routing as routing_module
from alertsift import specialists
from alertsift.evaluate import Dataset, evaluate, write_decision_log
from alertsift.model import DOMAIN_ORDER, AgentClaim
from alertsift.routing import RoutingDecision, route
from alertsift.sentinel import SentinelConfig, detect
from alertsift.specialists import SpecialistConfig, claims_for
from alertsift.synthgen import default_taxonomy_path, generate_dataset, load_taxonomy
from helpers import make_view


@pytest.fixture(scope="module")
def seed42():
    taxonomy = load_taxonomy(default_taxonomy_path())
    return taxonomy, generate_dataset(taxonomy, seed=42)


def _alerting_epochs(generated):
    cfg = SentinelConfig()
    for case in generated.cases:
        for epoch in case.epochs:
            view = make_view(epoch, case.context)
            alert = detect(view, cfg)
            if alert is not None:
                yield alert, view


def _fresh_claim(claim: AgentClaim) -> AgentClaim:
    return AgentClaim(
        claim.domain, claim.recommendation, claim.confidence, tuple(claim.rationale_codes)
    )


def test_shared_claims_and_routes_equal_fresh_ones_on_every_seed42_alert(seed42, monkeypatch):
    _, generated = seed42
    cfg = SpecialistConfig()
    shared = []
    for alert, view in _alerting_epochs(generated):
        routing = route(alert, view)
        fresh_routing = RoutingDecision(frozenset(routing.targets), routing.ambiguity_flag)
        assert routing == fresh_routing
        assert routing.domains == fresh_routing.domains
        assert routing.domains == tuple(d for d in DOMAIN_ORDER if d in routing.targets)
        assert route(alert, view) is routing
        claims = claims_for(alert, view, routing, cfg)
        assert claims == tuple(_fresh_claim(c) for c in claims)
        assert claims_for(alert, view, routing, cfg)[0] is claims[0]
        shared.append((alert, view, routing, claims))
    assert len(shared) == 530

    # The same epochs through the uncached builders give equal values, of
    # equal types, in distinct objects.
    monkeypatch.setattr(
        specialists, "_interned_claim", specialists._interned_claim.__wrapped__
    )
    monkeypatch.setattr(routing_module, "_decision", routing_module._decision.__wrapped__)
    for alert, view, routing, claims in shared:
        uncached_routing = route(alert, view)
        assert uncached_routing == routing and uncached_routing is not routing
        uncached = claims_for(alert, view, uncached_routing, cfg)
        assert uncached == claims
        # repr tells 1 from 1.0, which == does not.
        assert [repr(c) for c in uncached] == [repr(c) for c in claims]
        assert all(a is not b for a, b in zip(uncached, claims))


def test_shared_values_are_frozen():
    # Sharing is only invisible while no holder can change a shared value.
    suppress = specialists.Recommendation.SUPPRESS
    claim = specialists._claim(DOMAIN_ORDER[0], suppress, SpecialistConfig(), "artefact_flagged")
    with pytest.raises(dataclasses.FrozenInstanceError):
        claim.confidence = 0.1
    decision = routing_module._decision(DOMAIN_ORDER[:1], False)
    with pytest.raises(dataclasses.FrozenInstanceError):
        decision.domains = DOMAIN_ORDER


def _decision_log(taxonomy, generated, cfg, path) -> bytes:
    dataset = Dataset(
        epochs=tuple(e for case in generated.cases for e in case.epochs),
        contexts={case.patient_id: case.context for case in generated.cases},
    )
    write_decision_log(evaluate(dataset, taxonomy, specialist_cfg=cfg), path)
    return path.read_bytes()


@pytest.mark.parametrize("order", [(1, 1.0), (1.0, 1)])
def test_int_and_float_confidence_configs_log_their_own_numbers(
    seed42, tmp_path, monkeypatch, order
):
    # 1 == 1.0 and both hash alike, so a cache keyed by value alone would
    # hand the second config the first config's claims, and the log would
    # write "1" where the config says 1.0 (or the reverse).
    taxonomy, generated = seed42
    with monkeypatch.context() as m:
        m.setattr(specialists, "_interned_claim", specialists._interned_claim.__wrapped__)
        expected = [
            _decision_log(
                taxonomy, generated, SpecialistConfig(high_confidence=high), tmp_path / "ref"
            )
            for high in order
        ]
    assert expected[0] != expected[1]
    specialists._interned_claim.cache_clear()
    for high, want in zip(order, expected):
        got = _decision_log(
            taxonomy, generated, SpecialistConfig(high_confidence=high), tmp_path / "run"
        )
        assert got == want, f"high_confidence={high!r}"
