"""Taxonomy-driven synthetic epoch generation.

Loads a scenario catalogue of any shape up to 98 entries (the shipped one:
98 entries, 530 epochs) and emits its dataset deterministically from one
seed. Continuous parameters are drawn from truncated Gaussians, perturbed
with small measurement noise, and re-clamped to their spec's bounds, which
lie in the field's physiological range; categorical parameters are fixed or
drawn uniformly per epoch. Every case draws from its own RNG sub-stream keyed
by (seed, case_id), so reordering the catalogue perturbs nothing else.

A case's sub-stream is a ``random.Random`` seeded with the first eight
bytes, big-endian, of the sha256 of ``"{seed}:case:{case_id}"``. Every draw
comes from its ``random()`` uniforms, in one order, each field as one block:
1. the start: three indices, the day, the hour and the minute;
2. each continuous field, in sorted name order: one normal block of the
   case's length, then rounds in which every value outside the spec's
   bounds is re-drawn, all of them by one normal block, up to
   ``MAX_REJECTIONS`` rounds counting the first; a value still outside is
   clamped. Then one noise block, the clamp again, and two decimal places
   as ``round(x, 2)`` gives them, found in two float steps with
   ``round(x, 2)`` itself only near a tie (see ``_draw_continuous``);
3. each choice field, in sorted name order: one block of indices.

An index below ``k`` is ``int(u * k)`` of one uniform ``u``. A block of
``n`` normals takes ``(n + 1) // 2`` pairs of uniforms, each pair ``u, v``
in that order, by Box–Muller (``_normals``): ``s = sqrt(-2 * sigma * sigma *
log(1 - u))`` and ``t = tau * v`` give ``mu + s * cos(t)``, then ``mu + s *
sin(t)``; an odd block drops its last value.

Each entry builds its draw plan once, in ``Epoch`` field order: a row
template holding every value that is not drawn, the continuous draws as
``(index, mu, sigma, lower, upper)`` in floats, and the choice draws as
``(index, options, count)``. ``generate_case`` replaces the template's
columns with the drawn ones and builds the case's epochs a column at a time
(``model._epoch_columns``).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field, fields, replace
from datetime import datetime, timedelta, timezone
from functools import cached_property
from itertools import accumulate, repeat
from math import cos, log, sin, sqrt, tau
from operator import add
from pathlib import Path
from types import MappingProxyType
from typing import Any, Mapping, Sequence

from .model import (
    CANONICAL_JSON,
    AccelLevel,
    DeviceStatus,
    DomainClass,
    Epoch,
    InvariantViolation,
    PatientContext,
    Position,
    SelfReportedActivity,
    _epoch_columns,
    _flag,
    _integer,
    _located,
    _number,
    _object,
    _shown,
    _text,
    format_timestamp,
    parse_enum,
    write_contexts_json,
    write_epochs_jsonl,
    PATIENT_ID_RANGE,
    VITAL_RANGES,
)
from .routing import NOCTURNAL_END_HOUR

__all__ = [
    "CategoricalSpec",
    "ContinuousSpec",
    "DATA_WINDOW",
    "GeneratedCase",
    "GeneratedDataset",
    "TaxonomyEntry",
    "default_taxonomy_path",
    "generate_case",
    "generate_dataset",
    "load_taxonomy",
    "write_dataset",
]

NOISE_SIGMA = 0.25
MAX_REJECTIONS = 1000
_MINUTE = timedelta(minutes=1)
# Every generated epoch lies in this half-open window, June to August 2022.
DATA_WINDOW = (
    datetime(2022, 6, 1, tzinfo=timezone.utc),
    datetime(2022, 9, 1, tzinfo=timezone.utc),
)
_WINDOW_MINUTES = (DATA_WINDOW[1] - DATA_WINDOW[0]) // _MINUTE
_DAY_MINUTES = 24 * 60
# The start of a case within its day, by nocturnal flag, as the half-open
# ranges its hour and minute are drawn from: daytime 07:00 to 19:59,
# nocturnal 00:00 to 04:49.
_START_CLOCK = {False: (7, 20, 60), True: (0, 5, 50)}


# Each generated field with the Epoch value it takes when the entry leaves it
# out (or, for a categorical field, gives null). A continuous field also names
# its physiological range in ``VITAL_RANGES``, which its spec's bounds must lie
# in: a draw is clamped to its spec, so no generated value leaves that range. A
# categorical field also names the type a catalogue value parses to.
_CONTINUOUS_FIELDS = {"spo2": (97.0, *VITAL_RANGES["spo2"]), "hr": (72.0, *VITAL_RANGES["hr"])}
_CATEGORICAL_FIELDS: dict[str, tuple[type, Any]] = {
    "accel_level": (AccelLevel, AccelLevel.STILL),
    "device_status": (DeviceStatus, DeviceStatus.OK),
    "position": (Position, Position.UPRIGHT),
    "self_reported_activity": (SelfReportedActivity, None),
    "probe_cover_present": (bool, False),
    "ambient_condition": (str, None),  # a string or null, carried only
}
_CONTINUOUS_NAMES = frozenset(_CONTINUOUS_FIELDS)
_CATEGORICAL_NAMES = frozenset(_CATEGORICAL_FIELDS)
_EPOCH_INDEX = {f.name: i for i, f in enumerate(fields(Epoch))}


@dataclass(frozen=True)
class ContinuousSpec:
    mu: float
    sigma: float
    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not self.lower < self.upper:
            raise InvariantViolation(f"lower {self.lower:g} must be below upper {self.upper:g}")
        if not self.lower <= self.mu <= self.upper:
            raise InvariantViolation(f"mu {self.mu} outside bounds [{self.lower},{self.upper}]")
        if not 0 < self.sigma < math.inf:  # NaN fails it too
            raise InvariantViolation(f"sigma must be positive and finite, got {self.sigma}")

    def to_dict(self) -> dict[str, float]:
        return {"mu": self.mu, "sigma": self.sigma, "lower": self.lower, "upper": self.upper}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ContinuousSpec":
        data = _object(data, {"mu", "sigma", "lower", "upper"}, "continuous spec")
        return cls(
            mu=_number(data["mu"], "mu"),
            sigma=_number(data["sigma"], "sigma"),
            lower=_number(data["lower"], "lower"),
            upper=_number(data["upper"], "upper"),
        )


@dataclass(frozen=True)
class CategoricalSpec:
    """Either one fixed value or a uniform choice set."""

    fixed: Any = None
    choices: tuple[Any, ...] = ()

    def __post_init__(self) -> None:
        if self.choices and self.fixed is not None:
            raise InvariantViolation("categorical spec cannot be both fixed and a choice set")

    def to_dict(self) -> dict[str, Any]:
        if self.choices:
            return {"choice": list(self.choices)}
        return {"fixed": self.fixed}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CategoricalSpec":
        data = _object(data, {"fixed", "choice"}, "categorical spec")
        if "choice" not in data:
            return cls(fixed=data.get("fixed"))
        choices = data["choice"]
        if not isinstance(choices, list) or not choices:
            raise InvariantViolation(f"choice must be a non-empty array, got {_shown(choices)}")
        return cls(fixed=data.get("fixed"), choices=tuple(choices))


_LEFT_OUT = CategoricalSpec()  # a field the entry leaves out: fixed null, the default


def _epoch_value(name: str, raw: Any) -> Any:
    """The Epoch value of one categorical catalogue value; null means the default."""
    kind, default = _CATEGORICAL_FIELDS[name]
    if raw is None:
        return default
    if kind is bool:
        return _flag(raw, name)
    if kind is str:
        return _text(raw, name)
    return parse_enum(kind, raw, name)


@dataclass(frozen=True)
class TaxonomyEntry:
    """One confirmed false-positive scenario with its generation parameters.

    The entry's draw plan is built once, here, in ``Epoch`` field order,
    with every categorical value parsed: ``_row``, a template of the Epoch
    fields holding each default and fixed value (the patient id and
    timestamp are set per case and per minute); ``_draws``, one ``(index,
    mu, sigma, lower, upper)`` per continuous spec, every number a float;
    and ``_choices``, one ``(index, options, len(options))`` per choice set.
    Both are in sorted field order, the order of the draws. The entry also
    keeps the number of days a case can start on and still end inside
    ``DATA_WINDOW``. ``context`` is a contexts.json record less its
    patient id, decoded once here by that record's reader under a
    placeholder id, which ``generate_case`` replaces with the case's. A
    value that does not parse, or a case too long to fit in the window from
    its latest start, fails the entry.

    ``continuous_params``, ``categorical_params`` and ``context`` are
    read-only copies of the mappings given, every spec in them is frozen,
    and every categorical value parses, so is a JSON scalar. So
    ``canonical_text``, the entry's JSON text built on first use and kept,
    stays the entry's.
    """

    case_id: str
    domain_class: DomainClass
    epoch_count: int
    continuous_params: Mapping[str, ContinuousSpec]
    categorical_params: Mapping[str, CategoricalSpec]
    context: Mapping[str, Any]
    nocturnal: bool
    expected_outcome_note: str
    _row: tuple[Any, ...] = field(init=False, repr=False, compare=False)
    _draws: tuple[tuple[int, float, float, float, float], ...] = field(
        init=False, repr=False, compare=False
    )
    _choices: tuple[tuple[int, tuple[Any, ...], int], ...] = field(
        init=False, repr=False, compare=False
    )
    _context: PatientContext = field(init=False, repr=False, compare=False)
    _start_days: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.epoch_count <= 0:
            raise InvariantViolation("epoch_count must be positive")
        unknown = self.continuous_params.keys() - _CONTINUOUS_NAMES
        if unknown:
            raise InvariantViolation(f"unknown continuous fields {sorted(unknown)}")
        unknown = self.categorical_params.keys() - _CATEGORICAL_NAMES
        if unknown:
            raise InvariantViolation(f"unknown categorical fields {sorted(unknown)}")
        for name, spec in self.continuous_params.items():
            _, low, high = _CONTINUOUS_FIELDS[name]
            if not (low <= spec.lower and spec.upper <= high):
                raise InvariantViolation(
                    f"{name} spec [{spec.lower:g}, {spec.upper:g}] outside [{low:g}, {high:g}]"
                )
        _flag(self.nocturnal, "nocturnal")
        _, hour_end, minute_end = _START_CLOCK[self.nocturnal]
        latest = (hour_end - 1) * 60 + minute_end - 1
        # The days whose latest start still leaves every epoch in the window.
        start_days = -(-(_WINDOW_MINUTES - latest - self.epoch_count + 1) // _DAY_MINUTES)
        clock = f"{latest // 60:02d}:{latest % 60:02d}"
        if start_days <= 0:
            raise InvariantViolation(
                f"epoch_count {self.epoch_count} does not fit in the data window"
                f" from a {clock} start"
            )
        # A nocturnal case lies wholly in the night, which routing ends at 06:00.
        night = NOCTURNAL_END_HOUR * 60 - latest
        if self.nocturnal and self.epoch_count > night:
            raise InvariantViolation(
                f"nocturnal epoch_count {self.epoch_count} runs past"
                f" {NOCTURNAL_END_HOUR:02d}:00 from a {clock} start (at most {night})"
            )
        if not isinstance(self.context, Mapping):
            raise InvariantViolation(f"context must be a JSON object, got {_shown(self.context)}")
        if "patient_id" in self.context:
            raise InvariantViolation("context patient_id is assigned per case, not by the entry")
        try:
            context = PatientContext.from_dict({**self.context, "patient_id": 0})
        except InvariantViolation as exc:
            raise InvariantViolation(f"context {exc}") from None

        row: list[Any] = [None] * len(_EPOCH_INDEX)
        for name, (default, _, _) in _CONTINUOUS_FIELDS.items():
            row[_EPOCH_INDEX[name]] = default
        draws = tuple(
            (_EPOCH_INDEX[name], *map(float, (spec.mu, spec.sigma, spec.lower, spec.upper)))
            for name, spec in sorted(self.continuous_params.items())
        )
        choices = []
        for name in sorted(_CATEGORICAL_FIELDS):
            spec = self.categorical_params.get(name, _LEFT_OUT)
            if spec.choices:
                options = tuple(_epoch_value(name, v) for v in spec.choices)
                choices.append((_EPOCH_INDEX[name], options, len(options)))
            else:
                row[_EPOCH_INDEX[name]] = _epoch_value(name, spec.fixed)
        object.__setattr__(self, "_row", tuple(row))
        object.__setattr__(self, "_draws", draws)
        object.__setattr__(self, "_choices", tuple(choices))
        object.__setattr__(self, "_context", context)
        object.__setattr__(self, "_start_days", start_days)
        # Last: the checks above read the mappings given, cheaper than a proxy.
        for name in ("continuous_params", "categorical_params", "context"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))

    @cached_property
    def canonical_text(self) -> str:
        """``json.dumps(self.to_dict(), sort_keys=True)``, built once."""
        return json.dumps(self.to_dict(), sort_keys=True)

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

        Every decoding error is raised as an InvariantViolation, so a bad
        user-supplied catalogue fails closed instead of with a traceback.
        """
        name = data.get("case_id") if isinstance(data, Mapping) else data
        try:
            data = _object(data, _ENTRY_KEYS, "entry")
            continuous = _object(data["continuous_params"], _CONTINUOUS_NAMES, "continuous_params")
            categorical = _object(
                data["categorical_params"], _CATEGORICAL_NAMES, "categorical_params"
            )
            case_id, note = data["case_id"], data.get("expected_outcome_note", "")
            for key, text in (("case_id", case_id), ("expected_outcome_note", note)):
                if not isinstance(text, str):
                    raise InvariantViolation(f"{key} must be a string, got {_shown(text)}")
            return cls(
                case_id=case_id,
                domain_class=parse_enum(DomainClass, data["domain_class"], "domain_class"),
                epoch_count=_integer(data["epoch_count"], "epoch_count"),
                continuous_params={k: ContinuousSpec.from_dict(v) for k, v in continuous.items()},
                categorical_params={
                    k: CategoricalSpec.from_dict(v) for k, v in categorical.items()
                },
                context=data["context"],
                nocturnal=data["nocturnal"],
                expected_outcome_note=note,
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise _located(f"taxonomy entry {_shown(name)}", exc) from None


_ENTRY_KEYS = frozenset(f.name for f in fields(TaxonomyEntry) if f.init)


def default_taxonomy_path() -> Path:
    return Path(__file__).parent / "data" / "taxonomy.json"


def load_taxonomy(path: str | Path) -> list[TaxonomyEntry]:
    """Load a catalogue, checking every entry (spec bounds included), that it
    is non-empty and that its case ids are unique; its shape is left to
    ``evaluate --golden-check``, which holds a run to the shipped catalogue's.
    """
    with open(path, encoding="utf-8") as fp:
        raw = json.load(fp)
    if not isinstance(raw, list):
        raise InvariantViolation("taxonomy file must be a JSON array of entries")
    entries = [TaxonomyEntry.from_dict(item) for item in raw]
    validate_taxonomy(entries)
    return entries


def validate_taxonomy(entries: Sequence[TaxonomyEntry]) -> None:
    """The catalogue-wide checks: at least one entry, and unique case ids."""
    if not entries:
        raise InvariantViolation("taxonomy holds no entries")
    seen: set[str] = set()
    for entry in entries:
        if entry.case_id in seen:
            raise InvariantViolation(f"duplicate case_id {_shown(entry.case_id)}")
        seen.add(entry.case_id)


def _substream(seed: int, label: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _normals(rng: random.Random, n: int, mu: float, sigma: float) -> list[float]:
    """``n`` draws from N(mu, sigma^2), by Box–Muller from ``(n + 1) // 2``
    pairs of uniforms ``u, v``: ``s = sqrt(-2 * sigma * sigma * log(1 - u))``
    and ``t = tau * v`` give ``mu + s * cos(t)``, then ``mu + s * sin(t)``.
    An odd block drops its last value. ``1 - u`` lies in (0, 1], so the
    ``log`` is defined.
    """
    uniform = rng.random
    scale = -2.0 * sigma * sigma
    values: list[float] = []
    append = values.append
    for _ in repeat(None, (n + 1) >> 1):
        s = sqrt(scale * log(1.0 - uniform()))
        t = tau * uniform()
        append(mu + s * cos(t))
        append(mu + s * sin(t))
    del values[n:]
    return values


def _indices(rng: random.Random, n: int, k: int) -> list[int]:
    """``n`` indices below ``k``, each ``int(u * k)`` of one uniform ``u``."""
    uniform = rng.random
    return [int(uniform() * k) for _ in repeat(None, n)]


def _draw_start(entry: TaxonomyEntry, rng: random.Random) -> datetime:
    """A start from which every epoch of the case stays inside its window.

    Daytime cases start between 07:00 and 19:59; nocturnal cases start in
    the early-morning half of the nocturnal window, 00:00 to 04:49, and a
    nocturnal entry holds at most 71 epochs, so none crosses 06:00. The day
    is drawn from those on which even the latest start ends before
    September: every day of the window for a case of up to a few hours, as
    every case of the shipped catalogue is. Each is one index: the day
    below ``_start_days``, the hour as its first plus one below the
    clock's count of hours, the minute below its count of minutes.
    """
    uniform = rng.random
    hour_start, hour_end, minute_end = _START_CLOCK[entry.nocturnal]
    day = int(uniform() * entry._start_days)
    hour = hour_start + int(uniform() * (hour_end - hour_start))
    minute = int(uniform() * minute_end)
    return DATA_WINDOW[0] + timedelta(days=day, hours=hour, minutes=minute)


def _draw_continuous(
    rng: random.Random, n: int, mu: float, sigma: float, lower: float, upper: float
) -> list[float]:
    """One continuous field's ``n`` values, in the order the module states.

    Each value ``x`` is rounded to two places as ``round(x, 2)`` rounds it,
    in two float steps: ``k = round(x * 100.0)``, then ``k / 100``. Over the
    fields' ranges (every bound lies in 25 to 220) the product is off from
    the exact ``100x`` by far less than 1e-4. So when it lies further than
    that from a half, ``k`` is the integer ``round(x, 2)`` picks, and
    ``k / 100`` is the float nearest ``k`` hundredths, which ``round(x, 2)``
    returns. Nearer a half, the value goes to ``round(x, 2)`` itself, which
    costs about three times as much.
    """
    values = _normals(rng, n, mu, sigma)
    misses = [i for i, x in enumerate(values) if not lower <= x <= upper]
    for _ in range(MAX_REJECTIONS - 1):
        if not misses:
            break
        for i, x in zip(misses, _normals(rng, len(misses), mu, sigma)):
            values[i] = x
        misses = [i for i in misses if not lower <= values[i] <= upper]
    for i in misses:  # still outside after MAX_REJECTIONS rounds: clamp
        values[i] = lower if values[i] < lower else upper
    rounded = []
    append = rounded.append
    for x in map(add, values, _normals(rng, n, 0.0, NOISE_SIGMA)):
        if x < lower:
            x = lower
        elif x > upper:
            x = upper
        hundredths = x * 100.0
        k = round(hundredths)
        append(k / 100 if -0.4999 < hundredths - k < 0.4999 else round(x, 2))
    return rounded


def generate_case(
    entry: TaxonomyEntry, patient_id: int, start_time: datetime | None, seed: int
) -> tuple[list[Epoch], PatientContext]:
    """Realize one scenario as consecutive one-minute epochs plus context.

    All randomness comes from the sub-stream derived from (seed, case_id),
    drawn in the order the module states: the start's three draws, then
    each continuous field's blocks (values, re-draws of the misses, noise),
    then each choice field's block, fields in sorted name order. Two calls
    with the same arguments produce bit-identical output. The start is
    always drawn, and used when ``start_time`` is None; a given start
    replaces it and leaves every other draw as it is, so a generated case's
    own start gives back its epochs. The patient id and the case's minutes
    are checked here, once; each drawn value lies in its spec, which the
    entry held to the field's range when it was built.
    """
    low, high = PATIENT_ID_RANGE
    if not low <= patient_id <= high:
        raise InvariantViolation(f"{entry.case_id}: patient_id {patient_id} outside [{low}, {high}]")
    rng = _substream(seed, f"case:{entry.case_id}")
    drawn = _draw_start(entry, rng)  # always: the stream's first three draws
    start_time = drawn if start_time is None else start_time
    if start_time.second or start_time.microsecond:
        raise InvariantViolation(f"{entry.case_id}: start {start_time} is not minute-resolution")
    if start_time.utcoffset() is None:
        raise InvariantViolation(f"{entry.case_id}: start {start_time} is not timezone-aware")
    n = entry.epoch_count
    last = start_time + (n - 1) * _MINUTE
    if not DATA_WINDOW[0] <= start_time <= last < DATA_WINDOW[1]:
        raise InvariantViolation(f"{entry.case_id}: epochs {start_time} to {last} leave the data window")
    columns: list[Any] = [repeat(value) for value in entry._row]
    columns[0] = repeat(patient_id)
    columns[1] = accumulate(repeat(_MINUTE, n - 1), add, initial=start_time)
    for index, mu, sigma, lower, upper in entry._draws:
        columns[index] = _draw_continuous(rng, n, mu, sigma, lower, upper)
    for index, options, count in entry._choices:
        columns[index] = map(options.__getitem__, _indices(rng, n, count))
    epochs = _epoch_columns(n, columns)
    return epochs, replace(entry._context, patient_id=patient_id)


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


def generate_dataset(taxonomy: Sequence[TaxonomyEntry], seed: int) -> GeneratedDataset:
    """Generate all cases, assigning patient ids in catalogue order.

    ``PATIENT_ID_RANGE`` holds 98 ids, so an entry past the 98th fails in
    ``generate_case``. Each case draws from its own sub-stream of the seed,
    its start included, so a case's epochs do not depend on the cases
    generated before it. ``taxonomy_sha256`` hashes ``json.dumps([e.to_dict()
    for e in taxonomy], sort_keys=True)``, joined from each entry's cached
    ``canonical_text``, so a catalogue is encoded once however often it
    generates. Each manifest row gets its ``sha256`` from ``write_dataset``,
    which hashes the case's rows as it writes them.
    """
    validate_taxonomy(taxonomy)
    cases = []
    for index, entry in enumerate(taxonomy):
        patient_id = PATIENT_ID_RANGE[0] + index
        epochs, context = generate_case(entry, patient_id, None, seed)
        cases.append(GeneratedCase(entry, patient_id, epochs[0].timestamp, tuple(epochs), context))

    taxonomy_text = "[" + ", ".join(e.canonical_text for e in taxonomy) + "]"
    taxonomy_digest = hashlib.sha256(taxonomy_text.encode()).hexdigest()
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
                "start_time": format_timestamp(c.start_time),
            }
            for c in cases
        ],
    }
    return GeneratedDataset(seed=seed, cases=tuple(cases), manifest=manifest)


def write_dataset(dataset: GeneratedDataset, out_dir: str | Path) -> dict[str, Path]:
    """Write epochs.jsonl, contexts.json, and manifest.json under out_dir.

    When the manifest lists the cases, one row per case in order, each row
    is written with its ``sha256``: the digest of the case's rows exactly as
    epochs.jsonl holds them, each with its newline, then its context as one
    sorted-key compact JSON line without one. The rows are hashed as they
    are written, so no epoch is encoded twice. A manifest without ``cases``
    is written as given.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    epochs_path = out / "epochs.jsonl"
    contexts_path = out / "contexts.json"
    manifest_path = out / "manifest.json"

    manifest = dataset.manifest
    rows = manifest.get("cases")
    digests = []
    with open(epochs_path, "w", encoding="utf-8") as fp:
        for case in dataset.cases:
            digest = None if rows is None else hashlib.sha256()
            write_epochs_jsonl(case.epochs, fp, digest)
            if digest is not None:
                digest.update(CANONICAL_JSON.encode(case.context.to_dict()).encode())
                digests.append(digest.hexdigest())
    if rows is not None:
        manifest = {
            **manifest,
            "cases": [{**row, "sha256": d} for row, d in zip(rows, digests, strict=True)],
        }
    with open(contexts_path, "w", encoding="utf-8") as fp:
        write_contexts_json({c.patient_id: c.context for c in dataset.cases}, fp)
    with open(manifest_path, "w", encoding="utf-8") as fp:
        fp.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return {"epochs": epochs_path, "contexts": contexts_path, "manifest": manifest_path}
