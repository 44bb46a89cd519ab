"""Threshold-based anomaly detection over the specialist input view.

An epoch's alert is the set of alert types that fire on its view, or None
when none does. A type can only fire when its parameter is present in the
projected view, so an excluded (inferred) field can never produce an
alert. Comparisons are strict: values exactly at a threshold do not fire.

``evaluate._cell_key`` screens the raw epoch with the same three vital
comparisons and the same status test, so a quiet epoch is never assembled.
"""

from __future__ import annotations

from dataclasses import dataclass

from .assembly import SpecialistView
from .model import AlertType, DeviceStatus, InvariantViolation

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


def detect(view: SpecialistView, cfg: SentinelConfig) -> frozenset[AlertType] | None:
    """Return the alert types that fire on this view, or None when none does.

    low_spo2 fires iff spo2 is present and below the low threshold; high_hr
    and low_hr iff hr is present and strictly past its bound; signal_quality
    iff the device status is present and not ok. Pure function of the view
    and config.
    """
    types = []
    spo2 = view.value("spo2")
    if spo2 is not None and spo2 < cfg.spo2_low_threshold:
        types.append(AlertType.LOW_SPO2)
    hr = view.value("hr")
    if hr is not None:
        if hr > cfg.hr_high_threshold:
            types.append(AlertType.HIGH_HR)
        if hr < cfg.hr_low_threshold:
            types.append(AlertType.LOW_HR)
    status = view.value("device_status")
    if status is not None and status is not DeviceStatus.OK:
        types.append(AlertType.SIGNAL_QUALITY)
    return frozenset(types) if types else None
