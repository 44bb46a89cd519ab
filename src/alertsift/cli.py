"""Command line entry point: generate / evaluate / report.

One JSON config file drives everything; flags override file values, and
the ALERTSIFT defaults reproduce the reference run with zero arguments.
Exit codes are a stable contract: 0 success, 2 input validation failure
(a missing input file included), 3 I/O failure (an input path that exists
but cannot be read, or an output that cannot be written), 4 golden-metrics
mismatch.

The VERITAS_SEED environment variable overrides the config seed (command
line --seed wins over both).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Mapping

from .evaluate import (
    DatasetTaxonomyMismatch,
    DuplicateEpoch,
    check_golden,
    evaluate,
    load_dataset,
    render_report_text,
    validate_report_payload,
    write_decision_log,
)
from .meta import MetaConfig
from .model import InvariantViolation, _integer, _number, _object
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
        raise InvariantViolation(f"config {where}: {raw!r} is not a valid path")
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


def cmd_generate(cfg: PipelineConfig) -> int:
    try:
        taxonomy = load_taxonomy(cfg.taxonomy_path)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: taxonomy validation failed: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: could not read taxonomy: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        dataset = generate_dataset(taxonomy, cfg.seed)
    except ValueError as exc:
        # A catalogue longer than the patient id range, or a case too long
        # for the data window from its drawn start, fails only here.
        print(f"error: generation failed: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        write_dataset(dataset, cfg.dataset_dir)
    except OSError as exc:
        print(f"error: could not write dataset: {exc}", file=sys.stderr)
        return EXIT_IO
    print(
        f"{dataset.manifest['case_count']} cases, "
        f"{dataset.manifest['epoch_count']} epochs"
    )
    print(f"dataset written to {cfg.dataset_dir} (seed {cfg.seed})")
    return EXIT_OK


def cmd_evaluate(cfg: PipelineConfig, golden_check: bool, json_only: bool) -> int:
    try:
        taxonomy = load_taxonomy(cfg.taxonomy_path)
        dataset = load_dataset(cfg.dataset_dir)
    except FileNotFoundError as exc:
        print(f"error: missing input: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: could not read input: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: input validation failed: {exc}", file=sys.stderr)
        return EXIT_INPUT

    started = time.perf_counter()
    try:
        report = evaluate(
            dataset,
            taxonomy,
            sentinel_cfg=cfg.sentinel,
            specialist_cfg=cfg.specialists,
            meta_cfg=cfg.meta,
        )
    except (DatasetTaxonomyMismatch, DuplicateEpoch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    elapsed = time.perf_counter() - started

    try:
        cfg.report_dir.mkdir(parents=True, exist_ok=True)
        payload = report.to_json_dict()
        with open(cfg.report_dir / "report.json", "w", encoding="utf-8") as fp:
            fp.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        write_decision_log(report, cfg.report_dir / "decisions.jsonl")
        if not json_only:
            with open(cfg.report_dir / "report.txt", "w", encoding="utf-8") as fp:
                fp.write(render_report_text(payload))
    except OSError as exc:
        print(f"error: could not write report: {exc}", file=sys.stderr)
        return EXIT_IO

    print(
        f"TSR {100 * report.tsr:.1f}% FER {100 * report.fer:.1f}% "
        f"INDR {100 * report.indr:.1f}%"
    )
    print(
        f"{report.cases} cases, {report.epochs} epochs evaluated in {elapsed:.2f}s "
        f"({1000 * elapsed / report.epochs:.2f} ms/epoch)"
    )
    if golden_check:
        problems = check_golden(report)
        if problems:
            for problem in problems:
                print(f"golden mismatch: {problem}", file=sys.stderr)
            return EXIT_GOLDEN
        print("golden check: ok")
    return EXIT_OK


def cmd_report(cfg: PipelineConfig) -> int:
    report_path = cfg.report_dir / "report.json"
    try:
        with open(report_path, encoding="utf-8") as fp:
            payload = validate_report_payload(json.load(fp))
    except FileNotFoundError as exc:
        print(f"error: missing report: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: could not read report: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: report payload invalid: {exc}", file=sys.stderr)
        return EXIT_INPUT
    text = render_report_text(payload)
    try:
        with open(cfg.report_dir / "report.txt", "w", encoding="utf-8") as fp:
            fp.write(text)
    except OSError as exc:
        print(f"error: could not write report.txt: {exc}", file=sys.stderr)
        return EXIT_IO
    print(text, end="")
    return EXIT_OK


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
        cfg = load_config(args)
    except FileNotFoundError as exc:
        print(f"error: missing config: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: could not read config: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: config invalid: {exc}", file=sys.stderr)
        return EXIT_INPUT

    if args.command == "generate":
        return cmd_generate(cfg)
    if args.command == "evaluate":
        return cmd_evaluate(cfg, args.golden_check, args.json_only)
    if args.command == "report":
        return cmd_report(cfg)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
