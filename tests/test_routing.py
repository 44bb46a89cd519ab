"""Routing table behaviour, coverage, and determinism.

The grid test compares the router against an independent oracle written
directly from the rule list, over every value class each rule reads.
"""

from __future__ import annotations

import itertools
from datetime import datetime, timezone

from alertsift.assembly import assemble, project_for_specialists
from alertsift.model import (
    DOMAIN_ORDER,
    AccelLevel,
    AgentDomain,
    AlertType,
    DeviceStatus,
    Position,
    ProvenanceTag,
    SelfReportedActivity,
)
from alertsift.routing import in_nocturnal_window, route
from alertsift.sentinel import SentinelConfig, detect
from helpers import (
    NIGHT,
    detect_and_route,
    make_bundle,
    make_context,
    make_epoch,
    oracle_targets,
    retag_field,
    routed_via_last_resort,
)

CFG = SentinelConfig()


def test_motion_artefact_with_activity_routes_probe_and_activity():
    _, types, routing = detect_and_route(
        make_epoch(spo2=88.0, status=DeviceStatus.MOTION_ARTEFACT, accel=AccelLevel.VIGOROUS)
    )
    assert types == {AlertType.LOW_SPO2, AlertType.SIGNAL_QUALITY}
    assert routing.targets == {AgentDomain.PROBE_INTEGRITY, AgentDomain.ACTIVITY_INTEGRITY}
    assert routing.ambiguity_flag is False


def test_lone_high_hr_routes_tachycardia_only():
    _, types, routing = detect_and_route(make_epoch(hr=120.0))
    assert types == {AlertType.HIGH_HR}
    assert routing.targets == {AgentDomain.TACHYCARDIA}
    assert routing.ambiguity_flag is False


def test_system_flag_low_spo2_copd_routes_probe_and_copd_with_ambiguity():
    # routing rows: artefact-status row adds probe integrity, the COPD row
    # adds the condition agent; enumerating the rule list yields exactly both
    _, _, routing = detect_and_route(
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
    view, types, routing = detect_and_route(make_epoch(spo2=90.0))
    assert routing.targets == {AgentDomain.PROBE_INTEGRITY}
    assert routing.ambiguity_flag is False
    assert routed_via_last_resort(types, view, routing) is True


def test_artefact_route_is_not_last_resort():
    view, types, routing = detect_and_route(
        make_epoch(spo2=90.0, status=DeviceStatus.MOTION_ARTEFACT)
    )
    assert routing.targets == {AgentDomain.PROBE_INTEGRITY}
    assert routed_via_last_resort(types, view, routing) is False


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


def test_route_matches_oracle_over_the_whole_alert_grid():
    # Every value class a routing rule reads: SpO2 low or not, HR low, normal
    # or high, each status, accelerometer level and self-report, COPD or
    # not, and the minutes either side of both nocturnal edges. The grid runs
    # once as assembled, and once with each of the three fields routing may
    # find missing retagged inferred, so that it is absent from the view.
    hours = [
        datetime(2022, 7, 10, hour, minute, tzinfo=timezone.utc)
        for hour, minute in ((5, 59), (6, 0), (21, 59), (22, 0))
    ]
    bundles = {
        copd: make_bundle(make_epoch(), make_context(copd=copd, baseline_spo2=90.0))
        for copd in (False, True)
    }
    grid = itertools.product(
        (90.0, 97.0), (40.0, 72.0, 120.0), DeviceStatus, AccelLevel,
        (None, *SelfReportedActivity), (False, True), hours,
    )
    checked = 0
    for spo2, hr, status, accel, activity, copd, ts in grid:
        epoch = make_epoch(
            ts=ts, spo2=spo2, hr=hr, accel=accel, status=status, activity=activity
        )
        record = assemble(bundles[copd], epoch)
        for missing in (None, "accel_level", "self_reported_activity", "copd_documented"):
            if missing is None:
                view = project_for_specialists(record)
            elif missing in record.fields:
                view = project_for_specialists(
                    retag_field(record, missing, ProvenanceTag.INFERRED)
                )
                assert missing not in view.fields
            else:
                continue  # no self-report to retag
            types = detect(view, CFG)
            if types is None:
                continue
            checked += 1
            routing = route(types, view)
            assert routing.targets == oracle_targets(types, view)[0], (epoch, missing)
            assert routing.ambiguity_flag is (
                status in (DeviceStatus.SYSTEM_FLAG, DeviceStatus.THRESHOLD_MARGINAL)
            )
            assert routing.domains == tuple(d for d in DOMAIN_ORDER if d in routing.targets)
    assert checked == 12600  # all 12,960 views but the 360 at SpO2 97, HR 72, status ok


def test_route_is_deterministic():
    view, types, _ = detect_and_route(
        make_epoch(spo2=89.0, hr=111.0, status=DeviceStatus.SYSTEM_FLAG)
    )
    assert route(types, view) == route(types, view)
