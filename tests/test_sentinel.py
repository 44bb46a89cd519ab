"""Detection thresholds: strict comparisons, monotonicity, purity, and the
raw-epoch gate that must agree with them."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from alertsift.model import AlertType, DeviceStatus, InvariantViolation, ProvenanceTag
from alertsift.sentinel import SentinelConfig, detect, quiet
from helpers import make_epoch, make_view

CFG = SentinelConfig()


def test_marginal_values_fire_all_three_types():
    view = make_view(make_epoch(spo2=93.5, hr=101.8, status=DeviceStatus.THRESHOLD_MARGINAL))
    alert = detect(view, CFG)
    assert alert is not None
    assert alert.alert_types == {
        AlertType.LOW_SPO2,
        AlertType.HIGH_HR,
        AlertType.SIGNAL_QUALITY,
    }


def test_all_nominal_returns_no_alert():
    assert detect(make_view(make_epoch(spo2=97.0, hr=72.0)), CFG) is None


def test_exact_thresholds_do_not_fire():
    # strict inequalities at every boundary
    assert detect(make_view(make_epoch(spo2=94.0, hr=100.0)), CFG) is None
    assert detect(make_view(make_epoch(hr=50.0)), CFG) is None


def test_boundary_sweep():
    for spo2, fires in [(93.99, True), (94.0, False), (94.01, False)]:
        alert = detect(make_view(make_epoch(spo2=spo2)), CFG)
        assert (alert is not None and AlertType.LOW_SPO2 in alert.alert_types) == fires, spo2
    for hr, expected in [(99.99, set()), (100.0, set()), (100.01, {AlertType.HIGH_HR})]:
        alert = detect(make_view(make_epoch(hr=hr)), CFG)
        got = alert.alert_types if alert else set()
        assert set(got) == expected, hr
    for hr, expected in [(49.99, {AlertType.LOW_HR}), (50.0, set()), (50.01, set())]:
        alert = detect(make_view(make_epoch(hr=hr)), CFG)
        got = alert.alert_types if alert else set()
        assert set(got) == expected, hr


def test_signal_quality_fires_for_every_non_ok_status():
    for status in DeviceStatus:
        alert = detect(make_view(make_epoch(status=status)), CFG)
        if status is DeviceStatus.OK:
            assert alert is None
        else:
            assert alert is not None
            assert alert.alert_types == {AlertType.SIGNAL_QUALITY}


def test_triggering_values_carry_provenance():
    view = make_view(make_epoch(spo2=88.0, status=DeviceStatus.MOTION_ARTEFACT))
    alert = detect(view, CFG)
    assert alert is not None
    spo2_trigger = alert.triggering_values[AlertType.LOW_SPO2]
    assert spo2_trigger.value == 88.0
    assert spo2_trigger.provenance is ProvenanceTag.DEVICE_VERIFIED
    status_trigger = alert.triggering_values[AlertType.SIGNAL_QUALITY]
    assert status_trigger.value is DeviceStatus.MOTION_ARTEFACT


def test_monotonicity_lowering_spo2_never_unfires():
    rng = random.Random(99)
    for _ in range(300):
        spo2 = round(rng.uniform(70.0, 99.9), 2)
        lower = round(max(70.0, spo2 - rng.uniform(0.01, 20.0)), 2)
        fired_at_spo2 = (
            (alert := detect(make_view(make_epoch(spo2=spo2)), CFG)) is not None
            and AlertType.LOW_SPO2 in alert.alert_types
        )
        if fired_at_spo2:
            lower_alert = detect(make_view(make_epoch(spo2=lower)), CFG)
            assert lower_alert is not None
            assert AlertType.LOW_SPO2 in lower_alert.alert_types


def test_detect_is_pure():
    view = make_view(make_epoch(spo2=91.2, hr=104.4, status=DeviceStatus.SYSTEM_FLAG))
    assert detect(view, CFG) == detect(view, CFG)


def test_custom_thresholds_respected():
    cfg = SentinelConfig(spo2_low_threshold=92.0, hr_high_threshold=110.0, hr_low_threshold=45.0)
    alert = detect(make_view(make_epoch(spo2=93.0, hr=105.0)), cfg)
    assert alert is None
    alert = detect(make_view(make_epoch(spo2=91.9, hr=110.5)), cfg)
    assert alert is not None
    assert alert.alert_types == {AlertType.LOW_SPO2, AlertType.HIGH_HR}


def test_config_invariants():
    with pytest.raises(InvariantViolation):
        SentinelConfig(hr_low_threshold=120.0, hr_high_threshold=100.0)
    with pytest.raises(InvariantViolation):
        SentinelConfig(spo2_low_threshold=-1.0)


def _around(threshold: float):
    """A vital on, just either side of, near, or far from ``threshold``, or
    a non-finite value."""
    return st.one_of(
        st.sampled_from(
            (
                threshold,
                math.nextafter(threshold, -math.inf),
                math.nextafter(threshold, math.inf),
                threshold - 0.01,
                threshold + 0.01,
                math.nan,
                math.inf,
                -math.inf,
            )
        ),
        st.floats(-1e3, 1e3),
    )


@st.composite
def _configs(draw):
    if draw(st.booleans()):
        return CFG
    hr_low = draw(st.floats(1.0, 150.0))
    return SentinelConfig(
        spo2_low_threshold=draw(st.floats(1.0, 100.0)),
        hr_low_threshold=hr_low,
        hr_high_threshold=hr_low + draw(st.floats(0.01, 150.0)),
    )


@st.composite
def _epochs_and_configs(draw):
    cfg = draw(_configs())
    hr_threshold = draw(st.sampled_from((cfg.hr_low_threshold, cfg.hr_high_threshold)))
    epoch = make_epoch(
        spo2=draw(_around(cfg.spo2_low_threshold)),
        hr=draw(_around(hr_threshold)),
        status=draw(st.sampled_from(list(DeviceStatus))),
    )
    return epoch, cfg


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_epochs_and_configs())
def test_quiet_is_exactly_detect_finding_nothing(case):
    # Property Q: the gate on the raw epoch agrees with detection on the
    # assembled, projected record, at and either side of every threshold,
    # for NaN and infinite vitals, for every device status and for drawn
    # thresholds. A NaN vital fires nothing, so its epoch is quiet.
    epoch, cfg = case
    assert quiet(epoch, cfg) is (detect(make_view(epoch), cfg) is None)
