"""Threshold-based anomaly detection over the specialist input view.

Emits at most one candidate alert per epoch, carrying the set of alert
types that fired and the tagged value behind each one. A type can only
fire when its parameter is present in the projected view, so an excluded
(inferred) field can never produce an alert. Comparisons are strict:
values exactly at a threshold do not fire.

``quiet`` is the same screen read off the raw epoch, so the evaluation
loop can skip assembly for an epoch on which nothing would fire. It is
written as the negation of ``detect``'s four predicates, not as their
complements: a comparison with NaN is false either way round, so
``spo2 >= threshold`` would call a NaN vital loud where ``detect`` stays
silent. Reading the raw epoch is exact because ``detect`` reads only
``spo2``, ``hr`` and ``device_status``, and ``assemble`` tags all three
``device_verified`` on every epoch, so the projection always keeps them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .assembly import SpecialistView
from .model import (
    AlertType,
    CandidateAlert,
    DeviceStatus,
    Epoch,
    InvariantViolation,
    TaggedValue,
)

__all__ = ["SentinelConfig", "detect", "quiet"]


@dataclass(frozen=True)
class SentinelConfig:
    """Detection thresholds. Defaults screen SpO2 < 94, HR outside (50, 100)."""

    spo2_low_threshold: float = 94.0
    hr_high_threshold: float = 100.0
    hr_low_threshold: float = 50.0

    def __post_init__(self) -> None:
        if self.spo2_low_threshold <= 0 or self.hr_low_threshold <= 0:
            raise InvariantViolation("sentinel thresholds must be positive")
        if not self.hr_low_threshold < self.hr_high_threshold:
            raise InvariantViolation("hr_low_threshold must be below hr_high_threshold")


# Bound once: reading an Enum member off its class costs about 0.1 us a
# call, most of what ``quiet`` costs on a quiet epoch.
_OK = DeviceStatus.OK
_LOW_SPO2 = AlertType.LOW_SPO2
_HIGH_HR = AlertType.HIGH_HR
_LOW_HR = AlertType.LOW_HR
_SIGNAL_QUALITY = AlertType.SIGNAL_QUALITY


def quiet(epoch: Epoch, cfg: SentinelConfig) -> bool:
    """True when ``detect`` would return None for this epoch's record.

    The negation of ``detect``'s four predicates on the raw device fields,
    which assembly tags ``device_verified`` on every epoch and the
    projection therefore always keeps; a NaN vital fires nothing in either.
    """
    return not (
        epoch.spo2 < cfg.spo2_low_threshold
        or epoch.hr > cfg.hr_high_threshold
        or epoch.hr < cfg.hr_low_threshold
        or epoch.device_status is not _OK
    )


def detect(view: SpecialistView, cfg: SentinelConfig) -> CandidateAlert | None:
    """Return the candidate alert for this epoch, or None when nothing fires.

    low_spo2 fires iff spo2 is present and below the low threshold; high_hr
    and low_hr iff hr is present and strictly past its bound; signal_quality
    iff the device status is present and not ok. Pure function of the view
    and config.
    """
    get = view.fields.get
    triggers: dict[AlertType, TaggedValue] = {}

    spo2 = get("spo2")
    if spo2 is not None and spo2.value < cfg.spo2_low_threshold:
        triggers[_LOW_SPO2] = spo2

    hr = get("hr")
    if hr is not None:
        if hr.value > cfg.hr_high_threshold:
            triggers[_HIGH_HR] = hr
        if hr.value < cfg.hr_low_threshold:
            triggers[_LOW_HR] = hr

    status = get("device_status")
    if status is not None and status.value is not _OK:
        triggers[_SIGNAL_QUALITY] = status

    if not triggers:
        return None
    return CandidateAlert(frozenset(triggers), triggers, view.timestamp)
