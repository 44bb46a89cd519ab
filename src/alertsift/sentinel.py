"""Threshold-based anomaly detection over the specialist input view.

Emits at most one candidate alert per epoch, carrying the set of alert
types that fired and the tagged value behind each one. A type can only
fire when its parameter is present in the projected view, so an excluded
(inferred) field can never produce an alert. Comparisons are strict:
values exactly at a threshold do not fire.
"""

from __future__ import annotations

from dataclasses import dataclass

from .assembly import SpecialistView
from .model import AlertType, CandidateAlert, DeviceStatus, InvariantViolation, TaggedValue

__all__ = ["SentinelConfig", "detect"]


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


def detect(view: SpecialistView, cfg: SentinelConfig) -> CandidateAlert | None:
    """Return the candidate alert for this epoch, or None when nothing fires.

    low_spo2 fires iff spo2 is present and below the low threshold; high_hr
    and low_hr iff hr is present and strictly past its bound; signal_quality
    iff the device status is present and not ok. Pure function of the view
    and config.
    """
    triggers: dict[AlertType, TaggedValue] = {}

    spo2 = view.get("spo2")
    if spo2 is not None and spo2.value < cfg.spo2_low_threshold:
        triggers[AlertType.LOW_SPO2] = spo2

    hr = view.get("hr")
    if hr is not None:
        if hr.value > cfg.hr_high_threshold:
            triggers[AlertType.HIGH_HR] = hr
        if hr.value < cfg.hr_low_threshold:
            triggers[AlertType.LOW_HR] = hr

    status = view.get("device_status")
    if status is not None and status.value is not DeviceStatus.OK:
        triggers[AlertType.SIGNAL_QUALITY] = status

    if not triggers:
        return None
    return CandidateAlert(
        alert_types=frozenset(triggers),
        triggering_values=triggers,
        raised_at=view.timestamp,
    )
