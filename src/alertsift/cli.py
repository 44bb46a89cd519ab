"""Command line entry point: generate / evaluate / report.

One JSON config file drives everything; flags override file values, and
the ALERTSIFT defaults reproduce the reference run with zero arguments.
Exit codes are a stable contract: 0 success, 2 input validation failure,
3 I/O failure, 4 golden-metrics mismatch. One rule maps a failed step to
2 or 3, written once in ``_reading`` and ``_writing``:

* a step that reads (a file, or what was decoded from one) exits 2 on a
  missing file (``missing <what>``), 3 on any other OS error (``could not
  read <what>``: a path that exists but is no readable file), and 2 on a
  ValueError, OverflowError or RecursionError (``<label>: <exc>``);
* a step that writes exits 3 on whatever stops its output being written
  (``could not write <what>``).

Each failure prints one ``error:`` line; only ``evaluate --golden-check``
exits 4.

The VERITAS_SEED environment variable overrides the config seed (command
line --seed wins over both).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Iterator, Mapping

from .evaluate import (
    GOLDEN_TAXONOMY_SHA256,
    check_golden,
    evaluate,
    load_dataset,
    load_manifest,
    render_report_text,
    validate_report_payload,
    write_decision_log,
)
from .meta import MetaConfig
from .model import InvariantViolation, _integer, _number, _object, _shown
from .sentinel import SentinelConfig
from .specialists import SpecialistConfig
from .synthgen import default_taxonomy_path, generate_dataset, load_taxonomy, write_dataset

__all__ = ["PipelineConfig", "main"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_IO = 3
EXIT_GOLDEN = 4

SEED_ENV_VAR = "VERITAS_SEED"
DEFAULT_SEED = 42

# What a bad input raises once read: a value outside a reader's rule, a
# number or date out of range, or JSON nested deeper than the decoder goes.
_INPUT_ERRORS = (ValueError, OverflowError, RecursionError)


class _Failure(Exception):
    """A failed step: ``main`` prints it as one ``error:`` line and exits ``code``."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


@contextmanager
def _reading(what: str, label: str) -> Iterator[None]:
    """The read rule: a missing file exits 2, any other OS error 3, a bad
    input 2 (see the module docstring)."""
    try:
        yield
    except FileNotFoundError as exc:
        raise _Failure(EXIT_INPUT, f"missing {what}: {exc}") from None
    except OSError as exc:
        raise _Failure(EXIT_IO, f"could not read {what}: {exc}") from None
    except _INPUT_ERRORS as exc:
        raise _Failure(EXIT_INPUT, f"{label}: {exc}") from None


@contextmanager
def _writing(what: str) -> Iterator[None]:
    """The write rule: an output that cannot be written exits 3."""
    try:
        yield
    except (OSError, *_INPUT_ERRORS) as exc:
        raise _Failure(EXIT_IO, f"could not write {what}: {exc}") from None


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a run needs: thresholds, rule parameters, seed, paths."""

    sentinel: SentinelConfig = field(default_factory=SentinelConfig)
    specialists: SpecialistConfig = field(default_factory=SpecialistConfig)
    meta: MetaConfig = field(default_factory=MetaConfig)
    seed: int = DEFAULT_SEED
    taxonomy_path: Path = field(default_factory=default_taxonomy_path)
    dataset_dir: Path = Path("dataset")
    report_dir: Path = Path("report")

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise InvariantViolation("seed must be a non-negative integer")
        # The COPD floor must sit under the SpO2 screen this run uses: at or
        # above it, every SpO2 alert already lies below the floor.
        floor, screen = self.specialists.copd_acceptable_spo2, self.sentinel.spo2_low_threshold
        if not floor < screen:
            raise InvariantViolation(
                f"specialists.copd_acceptable_spo2 {floor} must sit below"
                f" sentinel.spo2_low_threshold {screen}"
            )

    @classmethod
    def from_dict(cls, data: Any) -> "PipelineConfig":
        """Decode a config file; an unknown key or a mistyped value is rejected."""
        data = _object(data, {"seed", "sentinel", "specialists", "meta", "paths"}, "config file")
        paths = _object(
            data.get("paths", {}), {"taxonomy", "dataset_dir", "report_dir"}, "config paths"
        )
        taxonomy = paths.get("taxonomy")
        return cls(
            sentinel=_decode_section(SentinelConfig, data, "sentinel"),
            specialists=_decode_section(SpecialistConfig, data, "specialists"),
            meta=_decode_section(MetaConfig, data, "meta"),
            seed=_value(data.get("seed", DEFAULT_SEED), DEFAULT_SEED, "seed"),
            taxonomy_path=(
                default_taxonomy_path() if taxonomy is None
                else _value(taxonomy, Path(), "paths.taxonomy")
            ),
            dataset_dir=_value(paths.get("dataset_dir", "dataset"), Path(), "paths.dataset_dir"),
            report_dir=_value(paths.get("report_dir", "report"), Path(), "paths.report_dir"),
        )


def _value(raw: Any, default: Any, where: str) -> Any:
    """``raw`` as ``default``'s type: a non-empty string for a path, a JSON
    integer for an int, else a finite JSON number."""
    if isinstance(default, int):
        return _integer(raw, f"config {where}")
    if not isinstance(default, Path):
        return _number(raw, f"config {where}")
    if not isinstance(raw, str) or raw == "":
        raise InvariantViolation(f"config {where}: {_shown(raw)} is not a valid path")
    return Path(raw)


def _decode_section(cls: type, config: Mapping[str, Any], section: str) -> Any:
    """Build ``config[section]``; its keys and defaults are the dataclass's fields.

    A mapping field (meta's ``domain_weights``) overrides its default
    entries one by one, keyed by the default's enum values.
    """
    defaults, values = cls(), {}
    data = _object(config.get(section, {}), {f.name for f in fields(cls)}, f"config {section}")
    for name, raw in data.items():
        default, where = getattr(defaults, name), f"{section}.{name}"
        if isinstance(default, Mapping):
            given = _object(raw, {key.value for key in default}, f"config {where}")
            values[name] = {
                key: _value(given.get(key.value, w), w, f"{where}.{key.value}")
                for key, w in default.items()
            }
        else:
            values[name] = _value(raw, default, where)
    return cls(**values)


def load_config(args: argparse.Namespace) -> PipelineConfig:
    """Resolve the effective config: file < environment seed < flags."""
    if args.config:
        with open(args.config, encoding="utf-8") as fp:
            cfg = PipelineConfig.from_dict(json.load(fp))
    else:
        cfg = PipelineConfig()
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        # int() would also take " 7 ", "1_000" and non-ASCII digits.
        if not (env_seed.isascii() and env_seed.isdigit()):
            raise InvariantViolation(f"{SEED_ENV_VAR} must be ASCII digits, got {env_seed!r}")
        cfg = replace(cfg, seed=int(env_seed))
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def cmd_generate(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    with _reading("taxonomy", "taxonomy validation failed"):
        taxonomy = load_taxonomy(cfg.taxonomy_path)
    # A catalogue longer than the patient id range fails only here.
    with _reading("taxonomy", "generation failed"):
        dataset = generate_dataset(taxonomy, cfg.seed)
    with _writing("dataset"):
        write_dataset(dataset, cfg.dataset_dir)
    print(
        f"{dataset.manifest['case_count']} cases, "
        f"{dataset.manifest['epoch_count']} epochs"
    )
    print(f"dataset written to {cfg.dataset_dir} (seed {cfg.seed})")
    return EXIT_OK


def cmd_evaluate(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    # The dataset's manifest lists its cases; the catalogue is not read.
    with _reading("input", "input validation failed"):
        manifest = load_manifest(cfg.dataset_dir)
        dataset = load_dataset(cfg.dataset_dir)
        started = time.perf_counter()
        report = evaluate(
            dataset,
            manifest.cases,
            sentinel_cfg=cfg.sentinel,
            specialist_cfg=cfg.specialists,
            meta_cfg=cfg.meta,
        )
        elapsed = time.perf_counter() - started
    with _writing("report"):
        cfg.report_dir.mkdir(parents=True, exist_ok=True)
        payload = report.to_json_dict()
        (cfg.report_dir / "report.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        write_decision_log(report, cfg.report_dir / "decisions.jsonl")
        if not args.json_only:
            (cfg.report_dir / "report.txt").write_text(
                render_report_text(payload), encoding="utf-8"
            )

    print(
        f"TSR {100 * report.tsr:.1f}% FER {100 * report.fer:.1f}% "
        f"INDR {100 * report.indr:.1f}%"
    )
    print(
        f"{report.cases} cases, {report.epochs} epochs evaluated in {elapsed:.2f}s "
        f"({1000 * elapsed / report.epochs:.2f} ms/epoch)"
    )
    if args.golden_check:
        problems = check_golden(report)
        if manifest.taxonomy_sha256 != GOLDEN_TAXONOMY_SHA256:
            problems.insert(
                0, f"taxonomy_sha256 {manifest.taxonomy_sha256} != {GOLDEN_TAXONOMY_SHA256}"
            )
        if problems:
            for problem in problems:
                print(f"golden mismatch: {problem}", file=sys.stderr)
            return EXIT_GOLDEN
        print("golden check: ok")
    return EXIT_OK


def cmd_report(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    with _reading("report", "report payload invalid"):
        with open(cfg.report_dir / "report.json", encoding="utf-8") as fp:
            payload = validate_report_payload(json.load(fp))
    text = render_report_text(payload)
    with _writing("report.txt"):
        (cfg.report_dir / "report.txt").write_text(text, encoding="utf-8")
    print(text, end="")
    return EXIT_OK


COMMANDS = {"generate": cmd_generate, "evaluate": cmd_evaluate, "report": cmd_report}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alertsift",
        description="False-positive alert suppression pipeline: synthetic "
        "dataset generation and evaluation.",
    )
    parser.add_argument("--config", type=Path, default=None, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="override the RNG seed")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("generate", help="write epochs.jsonl, contexts.json, manifest.json")
    evaluate_parser = sub.add_parser("evaluate", help="run the pipeline and write reports")
    evaluate_parser.add_argument(
        "--golden-check",
        action="store_true",
        help="exit 4 unless metrics match the shipped-catalogue expectations",
    )
    evaluate_parser.add_argument(
        "--json-only", action="store_true", help="skip the text report"
    )
    sub.add_parser("report", help="re-render report.txt from report.json")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _reading("config", "config invalid"):
            cfg = load_config(args)
        return COMMANDS[args.command](cfg, args)
    except _Failure as failure:
        print(f"error: {failure}", file=sys.stderr)
        return failure.code


if __name__ == "__main__":
    sys.exit(main())
