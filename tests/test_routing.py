"""Routing table behaviour, coverage, and determinism.

The fuzz tests compare the router against an independent oracle written
directly from the rule list, over randomly constructed epochs spanning the
whole input space.
"""

from __future__ import annotations

import random
from datetime import datetime, timezone

from alertsift.model import (
    AccelLevel,
    AgentDomain,
    AlertType,
    DeviceStatus,
    Position,
    SelfReportedActivity,
)
from alertsift.routing import in_nocturnal_window, route
from alertsift.sentinel import SentinelConfig
from helpers import (
    NIGHT,
    detect_and_route,
    make_context,
    make_epoch,
    oracle_targets,
    routed_via_last_resort,
)

CFG = SentinelConfig()


def test_motion_artefact_with_activity_routes_probe_and_activity():
    _, alert, routing = detect_and_route(
        make_epoch(spo2=88.0, status=DeviceStatus.MOTION_ARTEFACT, accel=AccelLevel.VIGOROUS)
    )
    assert alert.alert_types == {AlertType.LOW_SPO2, AlertType.SIGNAL_QUALITY}
    assert routing.targets == {AgentDomain.PROBE_INTEGRITY, AgentDomain.ACTIVITY_INTEGRITY}
    assert routing.ambiguity_flag is False


def test_lone_high_hr_routes_tachycardia_only():
    _, alert, routing = detect_and_route(make_epoch(hr=120.0))
    assert alert.alert_types == {AlertType.HIGH_HR}
    assert routing.targets == {AgentDomain.TACHYCARDIA}
    assert routing.ambiguity_flag is False


def test_system_flag_low_spo2_copd_routes_probe_and_copd_with_ambiguity():
    # routing rows: artefact-status row adds probe integrity, the COPD row
    # adds the condition agent; enumerating the rule list yields exactly both
    _, alert, routing = detect_and_route(
        make_epoch(spo2=90.0, status=DeviceStatus.SYSTEM_FLAG),
        make_context(copd=True, baseline_spo2=90.0),
    )
    assert routing.targets == {AgentDomain.PROBE_INTEGRITY, AgentDomain.COPD}
    assert routing.ambiguity_flag is True


def test_low_hr_routes_bradycardia():
    _, _, routing = detect_and_route(make_epoch(hr=45.0))
    assert routing.targets == {AgentDomain.BRADYCARDIA}


def test_nocturnal_window_adds_nocturnal_domain():
    _, _, routing = detect_and_route(make_epoch(ts=NIGHT, spo2=93.3, position=Position.SUPINE))
    assert AgentDomain.NOCTURNAL in routing.targets


def test_signal_quality_alone_never_routes_nocturnal():
    _, _, routing = detect_and_route(
        make_epoch(ts=NIGHT, status=DeviceStatus.MOTION_ARTEFACT)
    )
    assert routing.targets == {AgentDomain.PROBE_INTEGRITY}


def test_low_spo2_without_copd_falls_back_to_probe_integrity():
    _, alert, routing = detect_and_route(make_epoch(spo2=90.0))
    assert routing.targets == {AgentDomain.PROBE_INTEGRITY}
    assert routing.ambiguity_flag is False
    assert routed_via_last_resort(alert, routing) is True


def test_artefact_route_is_not_last_resort():
    _, alert, routing = detect_and_route(
        make_epoch(spo2=90.0, status=DeviceStatus.MOTION_ARTEFACT)
    )
    assert routing.targets == {AgentDomain.PROBE_INTEGRITY}
    assert routed_via_last_resort(alert, routing) is False


def test_ambiguity_flag_statuses():
    for status, flagged in [
        (DeviceStatus.SYSTEM_FLAG, True),
        (DeviceStatus.THRESHOLD_MARGINAL, True),
        (DeviceStatus.MOTION_ARTEFACT, False),
        (DeviceStatus.PROBE_COVER, False),
        (DeviceStatus.DUPLICATE_ALERT, False),
    ]:
        _, _, routing = detect_and_route(make_epoch(spo2=90.0, status=status))
        assert routing.ambiguity_flag is flagged, status


def test_nocturnal_window_boundaries_half_open():
    def at(hour, minute=0):
        return datetime(2022, 6, 15, hour, minute, tzinfo=timezone.utc)

    assert in_nocturnal_window(at(22, 0)) is True
    assert in_nocturnal_window(at(23, 59)) is True
    assert in_nocturnal_window(at(0, 0)) is True
    assert in_nocturnal_window(at(5, 59)) is True
    assert in_nocturnal_window(at(6, 0)) is False
    assert in_nocturnal_window(at(21, 59)) is False


def _random_epoch_and_context(rng):
    hour = rng.randint(0, 23)
    copd = rng.random() < 0.3
    epoch = make_epoch(
        ts=datetime(2022, 7, 10, hour, rng.randint(0, 59), tzinfo=timezone.utc),
        spo2=round(rng.uniform(70, 100), 1),
        hr=round(rng.uniform(25, 220), 1),
        accel=rng.choice(list(AccelLevel)),
        status=rng.choice(list(DeviceStatus)),
        position=rng.choice(list(Position)),
        activity=rng.choice(list(SelfReportedActivity) + [None]),
    )
    context = make_context(copd=copd, baseline_spo2=90.0 if copd else None)
    return epoch, context


def test_route_matches_oracle_over_random_alert_space():
    rng = random.Random(2024)
    checked = 0
    for _ in range(2000):
        epoch, context = _random_epoch_and_context(rng)
        view, alert, routing = detect_and_route(epoch, context)
        if alert is None:
            continue
        checked += 1
        oracle, fired_count = oracle_targets(alert, view)
        assert routing.targets == oracle, epoch
        assert routing.targets, "coverage: targets must be nonempty"
        if fired_count == 1 and not routing.ambiguity_flag:
            assert len(routing.targets) == 1
    assert checked > 1500


def test_route_is_deterministic():
    view, alert, _ = detect_and_route(
        make_epoch(spo2=89.0, hr=111.0, status=DeviceStatus.SYSTEM_FLAG)
    )
    assert route(alert, view) == route(alert, view)
