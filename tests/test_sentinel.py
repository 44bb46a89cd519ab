"""Detection thresholds: strict comparisons, monotonicity, purity, and the
cell key's raw-epoch screen that must agree with them."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from alertsift.evaluate import _cell_key
from alertsift.model import AlertType, DeviceStatus, InvariantViolation
from alertsift.sentinel import SentinelConfig, detect
from alertsift.specialists import SpecialistConfig
from helpers import make_context, make_epoch, make_view

CFG = SentinelConfig()


def test_marginal_values_fire_all_three_types():
    view = make_view(make_epoch(spo2=93.5, hr=101.8, status=DeviceStatus.THRESHOLD_MARGINAL))
    assert detect(view, CFG) == {
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
        types = detect(make_view(make_epoch(spo2=spo2)), CFG)
        assert (types is not None and AlertType.LOW_SPO2 in types) == fires, spo2
    for hr, expected in [(99.99, None), (100.0, None), (100.01, {AlertType.HIGH_HR})]:
        assert detect(make_view(make_epoch(hr=hr)), CFG) == expected, hr
    for hr, expected in [(49.99, {AlertType.LOW_HR}), (50.0, None), (50.01, None)]:
        assert detect(make_view(make_epoch(hr=hr)), CFG) == expected, hr


def test_signal_quality_fires_for_every_non_ok_status():
    for status in DeviceStatus:
        types = detect(make_view(make_epoch(status=status)), CFG)
        if status is DeviceStatus.OK:
            assert types is None
        else:
            assert types == {AlertType.SIGNAL_QUALITY}


def test_monotonicity_lowering_spo2_never_unfires():
    rng = random.Random(99)
    for _ in range(300):
        spo2 = round(rng.uniform(70.0, 99.9), 2)
        lower = round(max(70.0, spo2 - rng.uniform(0.01, 20.0)), 2)
        types = detect(make_view(make_epoch(spo2=spo2)), CFG)
        if types is not None and AlertType.LOW_SPO2 in types:
            lower_types = detect(make_view(make_epoch(spo2=lower)), CFG)
            assert lower_types is not None
            assert AlertType.LOW_SPO2 in lower_types


def test_detect_is_pure():
    view = make_view(make_epoch(spo2=91.2, hr=104.4, status=DeviceStatus.SYSTEM_FLAG))
    assert detect(view, CFG) == detect(view, CFG)


def test_custom_thresholds_respected():
    cfg = SentinelConfig(spo2_low_threshold=92.0, hr_high_threshold=110.0, hr_low_threshold=45.0)
    assert detect(make_view(make_epoch(spo2=93.0, hr=105.0)), cfg) is None
    types = detect(make_view(make_epoch(spo2=91.9, hr=110.5)), cfg)
    assert types == {AlertType.LOW_SPO2, AlertType.HIGH_HR}


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
def _contexts(draw):
    """A context with each EHR fact drawn: COPD, which requires a baseline
    SpO2, either baseline, and rate-limiting medication."""
    copd = draw(st.booleans())
    spo2 = st.floats(70.0, 100.0)
    return make_context(
        copd=copd,
        baseline_spo2=draw(spo2 if copd else st.none() | spo2),
        baseline_hr=draw(st.none() | st.floats(25.0, 220.0)),
        med=draw(st.booleans()),
    )


@st.composite
def _epochs_contexts_and_configs(draw):
    cfg = draw(_configs())
    hr_threshold = draw(st.sampled_from((cfg.hr_low_threshold, cfg.hr_high_threshold)))
    epoch = make_epoch(
        spo2=draw(_around(cfg.spo2_low_threshold)),
        hr=draw(_around(hr_threshold)),
        status=draw(st.sampled_from(list(DeviceStatus))),
    )
    return epoch, draw(_contexts()), cfg


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_epochs_contexts_and_configs())
def test_quiet_is_exactly_detect_finding_nothing(case):
    # Property Q: the cell key's screen on the raw epoch agrees with
    # detection on the assembled, projected record, at and either side of
    # every threshold, for NaN and infinite vitals, for every device status,
    # for drawn thresholds and for drawn contexts, which the screen must not
    # read. A NaN vital fires nothing, so its epoch is quiet.
    epoch, context, cfg = case
    key = _cell_key(context, cfg, SpecialistConfig())
    assert (key(epoch) is None) is (detect(make_view(epoch, context), cfg) is None)
