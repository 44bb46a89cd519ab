"""Taxonomy-driven synthetic epoch generation.

Loads the 98-entry false-positive scenario catalogue and emits the 530-epoch
dataset deterministically from one seed. Continuous parameters are drawn
from truncated Gaussians, perturbed with small measurement noise, and
re-clamped to their bounds; categorical parameters are fixed or drawn
uniformly per epoch. Every case draws from its own RNG sub-stream keyed by
(seed, case_id), so reordering the catalogue perturbs nothing else.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from enum import Enum
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from .model import (
    CANONICAL_JSON,
    AccelLevel,
    DeviceStatus,
    Epoch,
    PatientContext,
    Position,
    SelfReportedActivity,
    _flag,
    format_timestamp,
    parse_enum,
    validate_epoch,
    write_contexts_json,
    write_epochs_jsonl,
    PATIENT_ID_RANGE,
)

__all__ = [
    "CategoricalSpec",
    "ContinuousSpec",
    "DomainClass",
    "EXPECTED_CASE_COUNT",
    "EXPECTED_CLASS_COUNTS",
    "EXPECTED_EPOCH_COUNT",
    "GeneratedCase",
    "GeneratedDataset",
    "InvalidBounds",
    "InvalidEntry",
    "TaxonomyEntry",
    "TaxonomyInvariantViolation",
    "default_taxonomy_path",
    "generate_case",
    "generate_dataset",
    "load_taxonomy",
    "sample_truncated_gaussian",
    "write_dataset",
]

NOISE_SIGMA = 0.25
MAX_REJECTIONS = 1000
_MINUTE = timedelta(minutes=1)

EXPECTED_CASE_COUNT = 98
EXPECTED_EPOCH_COUNT = 530


class DomainClass(str, Enum):
    """Scenario classes for outcome stratification, one per report row."""

    PROBE_INTEGRITY = "probe_integrity"
    ACTIVITY_INTEGRITY = "activity_integrity"
    COPD = "copd"
    BRADYCARDIA = "bradycardia"
    NOCTURNAL = "nocturnal"
    TACHYCARDIA = "tachycardia"
    META_CONFLICT = "meta_conflict"
    PROBE_ACTIVITY_CONFLICT = "probe_activity_conflict"
    PROBE_CONDITION_CONFLICT = "probe_condition_conflict"


EXPECTED_CLASS_COUNTS: dict[DomainClass, int] = {
    DomainClass.PROBE_INTEGRITY: 23,
    DomainClass.ACTIVITY_INTEGRITY: 8,
    DomainClass.COPD: 13,
    DomainClass.BRADYCARDIA: 2,
    DomainClass.NOCTURNAL: 3,
    DomainClass.TACHYCARDIA: 8,
    DomainClass.META_CONFLICT: 30,
    DomainClass.PROBE_ACTIVITY_CONFLICT: 8,
    DomainClass.PROBE_CONDITION_CONFLICT: 3,
}


class InvalidBounds(ValueError):
    """Truncation interval or sigma unusable for sampling."""


class InvalidEntry(ValueError):
    """A taxonomy entry cannot generate valid epochs."""


class TaxonomyInvariantViolation(ValueError):
    """The catalogue as a whole breaks a structural invariant."""


# Each generated field with the Epoch value it takes when the entry leaves it
# out (or, for a categorical field, gives null); categorical fields also name
# the type a catalogue value parses to.
_CONTINUOUS_FIELDS = {"spo2": 97.0, "hr": 72.0}
_CATEGORICAL_FIELDS: dict[str, tuple[type | None, Any]] = {
    "accel_level": (AccelLevel, AccelLevel.STILL),
    "device_status": (DeviceStatus, DeviceStatus.OK),
    "position": (Position, Position.UPRIGHT),
    "self_reported_activity": (SelfReportedActivity, None),
    "probe_cover_present": (bool, False),
    "ambient_condition": (None, None),  # opaque string, carried only
}
_CONTEXT_FLAGS = ("copd_documented", "rate_limiting_medication")


@dataclass(frozen=True)
class ContinuousSpec:
    mu: float
    sigma: float
    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not self.lower <= self.mu <= self.upper:
            raise InvalidEntry(f"mu {self.mu} outside bounds [{self.lower},{self.upper}]")
        if self.sigma <= 0:
            raise InvalidEntry(f"sigma must be positive, got {self.sigma}")

    def to_dict(self) -> dict[str, float]:
        return {"mu": self.mu, "sigma": self.sigma, "lower": self.lower, "upper": self.upper}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ContinuousSpec":
        return cls(
            mu=float(data["mu"]),
            sigma=float(data["sigma"]),
            lower=float(data["lower"]),
            upper=float(data["upper"]),
        )


@dataclass(frozen=True)
class CategoricalSpec:
    """Either one fixed value or a uniform choice set."""

    fixed: Any = None
    choices: tuple[Any, ...] = ()

    def __post_init__(self) -> None:
        if self.choices and self.fixed is not None:
            raise InvalidEntry("categorical spec cannot be both fixed and a choice set")

    def to_dict(self) -> dict[str, Any]:
        if self.choices:
            return {"choice": list(self.choices)}
        return {"fixed": self.fixed}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CategoricalSpec":
        if "choice" in data:
            choices = data["choice"]
            if not isinstance(choices, list) or not choices:
                raise InvalidEntry(f"choice must be a non-empty array, got {choices!r}")
            return cls(choices=tuple(choices))
        return cls(fixed=data.get("fixed"))


_LEFT_OUT = CategoricalSpec()  # a field the entry leaves out: fixed null, the default


def _epoch_value(name: str, raw: Any) -> Any:
    """The Epoch value of one categorical catalogue value; null means the default."""
    kind, default = _CATEGORICAL_FIELDS[name]
    if raw is None:
        return default
    if kind is bool:
        return _flag(raw, name)
    if kind is not None:
        return parse_enum(kind, raw)
    return raw


@dataclass(frozen=True)
class TaxonomyEntry:
    """One confirmed false-positive scenario with its generation parameters.

    The entry's draw plan is built once, here, with every categorical value
    parsed: the continuous specs and the choice sets, each in sorted field
    order (the order of the draws), and the value of every Epoch field that
    is not drawn. A value that does not parse fails the entry.
    """

    case_id: str
    domain_class: DomainClass
    epoch_count: int
    continuous_params: Mapping[str, ContinuousSpec]
    categorical_params: Mapping[str, CategoricalSpec]
    context: Mapping[str, Any]
    nocturnal: bool
    expected_outcome_note: str
    _continuous: tuple[tuple[str, ContinuousSpec], ...] = field(
        init=False, repr=False, compare=False
    )
    _choices: tuple[tuple[str, tuple[Any, ...]], ...] = field(
        init=False, repr=False, compare=False
    )
    _fixed: Mapping[str, Any] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.epoch_count <= 0:
            raise InvalidEntry(f"{self.case_id}: epoch_count must be positive")
        unknown = set(self.continuous_params) - set(_CONTINUOUS_FIELDS)
        if unknown:
            raise InvalidEntry(f"{self.case_id}: unknown continuous fields {sorted(unknown)}")
        unknown = set(self.categorical_params) - set(_CATEGORICAL_FIELDS)
        if unknown:
            raise InvalidEntry(f"{self.case_id}: unknown categorical fields {sorted(unknown)}")
        # Booleans must be JSON true/false: bool("false") would read as true.
        _flag(self.nocturnal, "nocturnal")
        for name in _CONTEXT_FLAGS:
            if name in self.context:
                _flag(self.context[name], f"context {name}")

        fixed = {
            name: default
            for name, default in _CONTINUOUS_FIELDS.items()
            if name not in self.continuous_params
        }
        choices = []
        for name in sorted(_CATEGORICAL_FIELDS):
            spec = self.categorical_params.get(name, _LEFT_OUT)
            if spec.choices:
                choices.append((name, tuple(_epoch_value(name, v) for v in spec.choices)))
            else:
                fixed[name] = _epoch_value(name, spec.fixed)
        object.__setattr__(self, "_continuous", tuple(sorted(self.continuous_params.items())))
        object.__setattr__(self, "_choices", tuple(choices))
        object.__setattr__(self, "_fixed", fixed)

    def to_dict(self) -> dict[str, Any]:
        return {
            "case_id": self.case_id,
            "domain_class": self.domain_class.value,
            "epoch_count": self.epoch_count,
            "continuous_params": {
                k: v.to_dict() for k, v in sorted(self.continuous_params.items())
            },
            "categorical_params": {
                k: v.to_dict() for k, v in sorted(self.categorical_params.items())
            },
            "context": dict(self.context),
            "nocturnal": self.nocturnal,
            "expected_outcome_note": self.expected_outcome_note,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TaxonomyEntry":
        """Decode one catalogue entry; a missing or mistyped field names the entry.

        Every decoding error is raised as TaxonomyInvariantViolation, so a bad
        user-supplied catalogue fails closed instead of with a traceback.
        """
        name = data.get("case_id") if isinstance(data, Mapping) else data
        try:
            return cls(
                case_id=str(data["case_id"]),
                domain_class=parse_enum(DomainClass, data["domain_class"]),
                epoch_count=int(data["epoch_count"]),
                continuous_params={
                    k: ContinuousSpec.from_dict(v) for k, v in data["continuous_params"].items()
                },
                categorical_params={
                    k: CategoricalSpec.from_dict(v) for k, v in data["categorical_params"].items()
                },
                context=dict(data["context"]),
                nocturnal=data["nocturnal"],
                expected_outcome_note=str(data.get("expected_outcome_note", "")),
            )
        except KeyError as exc:
            raise TaxonomyInvariantViolation(
                f"taxonomy entry {name!r}: missing field {exc}"
            ) from None
        except (AttributeError, TypeError, ValueError) as exc:
            raise TaxonomyInvariantViolation(f"taxonomy entry {name!r}: {exc}") from None


def default_taxonomy_path() -> Path:
    return Path(__file__).parent / "data" / "taxonomy.json"


def load_taxonomy(path: str | Path) -> list[TaxonomyEntry]:
    """Load and fully validate the scenario catalogue."""
    with open(path, encoding="utf-8") as fp:
        raw = json.load(fp)
    if not isinstance(raw, list):
        raise TaxonomyInvariantViolation("taxonomy file must be a JSON array of entries")
    entries = [TaxonomyEntry.from_dict(item) for item in raw]
    validate_taxonomy(entries)
    return entries


def validate_taxonomy(entries: Sequence[TaxonomyEntry]) -> None:
    if len(entries) != EXPECTED_CASE_COUNT:
        raise TaxonomyInvariantViolation(
            f"expected {EXPECTED_CASE_COUNT} entries, found {len(entries)}"
        )
    case_ids = [e.case_id for e in entries]
    if len(set(case_ids)) != len(case_ids):
        raise TaxonomyInvariantViolation("case_ids are not unique")
    total_epochs = sum(e.epoch_count for e in entries)
    if total_epochs != EXPECTED_EPOCH_COUNT:
        raise TaxonomyInvariantViolation(
            f"expected {EXPECTED_EPOCH_COUNT} total epochs, found {total_epochs}"
        )
    by_class: dict[DomainClass, int] = {}
    for entry in entries:
        by_class[entry.domain_class] = by_class.get(entry.domain_class, 0) + 1
    if by_class != EXPECTED_CLASS_COUNTS:
        raise TaxonomyInvariantViolation(
            f"per-class case counts {by_class} != expected {EXPECTED_CLASS_COUNTS}"
        )
    for entry in entries:
        ctx = entry.context
        if ctx.get("copd_documented") and ctx.get("baseline_spo2") is None:
            raise TaxonomyInvariantViolation(
                f"{entry.case_id}: documented COPD without baseline_spo2"
            )


def _substream(seed: int, label: str) -> np.random.Generator:
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "big"))


def sample_truncated_gaussian(
    mu: float, sigma: float, lower: float, upper: float, rng: np.random.Generator
) -> float:
    """Draw from N(mu, sigma^2) conditioned on [lower, upper].

    Rejection sampling with a deterministic fallback: after 1000 rejected
    draws the last draw is clamped into the interval, keeping generation
    total even under extreme truncation.
    """
    if not lower < upper:
        raise InvalidBounds(f"require lower < upper, got [{lower},{upper}]")
    if sigma <= 0:
        raise InvalidBounds(f"sigma must be positive, got {sigma}")
    x = mu
    for _ in range(MAX_REJECTIONS):
        x = rng.normal(mu, sigma)
        if lower <= x <= upper:
            return float(x)
    return float(min(max(x, lower), upper))


def _draw_continuous(spec: ContinuousSpec, rng: np.random.Generator) -> float:
    value = sample_truncated_gaussian(spec.mu, spec.sigma, spec.lower, spec.upper, rng)
    value += rng.normal(0.0, NOISE_SIGMA)
    return round(float(min(max(value, spec.lower), spec.upper)), 2)


def generate_case(
    entry: TaxonomyEntry, patient_id: int, start_time: datetime, seed: int
) -> tuple[list[Epoch], PatientContext]:
    """Realize one scenario as consecutive one-minute epochs plus context.

    All randomness comes from the sub-stream derived from (seed, case_id);
    two calls with the same arguments produce bit-identical output. Each
    epoch draws the continuous fields, then the choice fields, in the order
    of the entry's draw plan.
    """
    rng = _substream(seed, f"case:{entry.case_id}")
    context = PatientContext(
        patient_id=patient_id,
        copd_documented=bool(entry.context.get("copd_documented", False)),
        baseline_spo2=entry.context.get("baseline_spo2"),
        baseline_hr=entry.context.get("baseline_hr"),
        rate_limiting_medication=bool(entry.context.get("rate_limiting_medication", False)),
    )

    continuous, choices, fixed = entry._continuous, entry._choices, entry._fixed
    epochs: list[Epoch] = []
    timestamp = start_time
    for _ in range(entry.epoch_count):
        values = dict(fixed)
        for name, spec in continuous:
            values[name] = _draw_continuous(spec, rng)
        for name, options in choices:
            values[name] = options[int(rng.integers(len(options)))]
        epoch = Epoch(patient_id=patient_id, timestamp=timestamp, **values)
        violations = validate_epoch(epoch)
        if violations:
            raise InvalidEntry(f"{entry.case_id}: generated invalid epoch: {violations}")
        epochs.append(epoch)
        timestamp += _MINUTE
    return epochs, context


@dataclass(frozen=True)
class GeneratedCase:
    entry: TaxonomyEntry
    patient_id: int
    start_time: datetime
    epochs: tuple[Epoch, ...]
    context: PatientContext


@dataclass(frozen=True)
class GeneratedDataset:
    seed: int
    cases: tuple[GeneratedCase, ...]
    manifest: dict[str, Any]


_DAYS_IN_WINDOW = 92  # June, July, August 2022


def _draw_start_time(entry: TaxonomyEntry, seed: int) -> datetime:
    """Pick a start so every epoch of the case stays inside its window.

    Daytime cases start between 07:00 and 19:59; nocturnal cases start in
    the early-morning half of the nocturnal window so multi-epoch cases
    never cross 06:00 or the end of August.
    """
    rng = _substream(seed, f"schedule:{entry.case_id}")
    day = int(rng.integers(_DAYS_IN_WINDOW))
    base = datetime(2022, 6, 1, tzinfo=timezone.utc) + timedelta(days=day)
    if entry.nocturnal:
        hour = int(rng.integers(0, 5))
        minute = int(rng.integers(0, 50))
    else:
        hour = int(rng.integers(7, 20))
        minute = int(rng.integers(0, 60))
    return base + timedelta(hours=hour, minutes=minute)


def _case_digest(case: GeneratedCase) -> str:
    encode = CANONICAL_JSON.encode
    lines = [encode(e.to_dict()) for e in case.epochs]
    lines.append(encode(case.context.to_dict()))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def generate_dataset(taxonomy: Sequence[TaxonomyEntry], seed: int) -> GeneratedDataset:
    """Generate all cases, assigning patient ids in catalogue order.

    Each case draws from its own sub-stream of the seed, so a case's epochs
    do not depend on the cases generated before it.
    """
    validate_taxonomy(taxonomy)
    first_pid, last_pid = PATIENT_ID_RANGE
    if first_pid + len(taxonomy) - 1 > last_pid:
        raise TaxonomyInvariantViolation("more entries than available patient ids")

    cases = []
    for index, entry in enumerate(taxonomy):
        patient_id = first_pid + index
        start = _draw_start_time(entry, seed)
        epochs, context = generate_case(entry, patient_id, start, seed)
        cases.append(GeneratedCase(entry, patient_id, start, tuple(epochs), context))

    taxonomy_digest = hashlib.sha256(
        json.dumps([e.to_dict() for e in taxonomy], sort_keys=True).encode()
    ).hexdigest()
    manifest = {
        "seed": seed,
        "case_count": len(cases),
        "epoch_count": sum(len(c.epochs) for c in cases),
        "patient_id_range": [cases[0].patient_id, cases[-1].patient_id],
        "taxonomy_sha256": taxonomy_digest,
        "cases": [
            {
                "case_id": c.entry.case_id,
                "patient_id": c.patient_id,
                "domain_class": c.entry.domain_class.value,
                "epoch_count": len(c.epochs),
                "start_time": format_timestamp(c.epochs[0].timestamp),
                "sha256": _case_digest(c),
            }
            for c in cases
        ],
    }
    return GeneratedDataset(seed=seed, cases=tuple(cases), manifest=manifest)


def write_dataset(dataset: GeneratedDataset, out_dir: str | Path) -> dict[str, Path]:
    """Write epochs.jsonl, contexts.json, and manifest.json under out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    epochs_path = out / "epochs.jsonl"
    contexts_path = out / "contexts.json"
    manifest_path = out / "manifest.json"

    with open(epochs_path, "w", encoding="utf-8") as fp:
        for case in dataset.cases:
            write_epochs_jsonl(case.epochs, fp)
    with open(contexts_path, "w", encoding="utf-8") as fp:
        write_contexts_json({c.patient_id: c.context for c in dataset.cases}, fp)
    with open(manifest_path, "w", encoding="utf-8") as fp:
        fp.write(json.dumps(dataset.manifest, indent=2, sort_keys=True) + "\n")
    return {"epochs": epochs_path, "contexts": contexts_path, "manifest": manifest_path}
