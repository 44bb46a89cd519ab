"""CLI contract: subcommands, config/flag/env precedence, exit codes."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
import shutil
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from alertsift import cli, model
from alertsift.cli import main
from alertsift.evaluate import GOLDEN_TAXONOMY_SHA256, wilson_interval
from alertsift.model import AccelLevel, DeviceStatus, Position, SelfReportedActivity
from alertsift.synthgen import default_taxonomy_path
from helpers import SEED_42_SHA256


def write_config(tmp_path: Path, **overrides) -> Path:
    config = {
        "seed": overrides.get("seed", 42),
        "paths": {
            "taxonomy": overrides.get("taxonomy", str(default_taxonomy_path())),
            "dataset_dir": str(tmp_path / "dataset"),
            "report_dir": str(tmp_path / "report"),
        },
    }
    config.update({k: v for k, v in overrides.items() if k in ("sentinel", "specialists", "meta")})
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def run(argv):
    return main([str(a) for a in argv])


def test_generate_prints_counts_and_writes_files(tmp_path, capsys):
    config = write_config(tmp_path)
    assert run(["--config", config, "generate"]) == 0
    out = capsys.readouterr().out
    assert "98 cases, 530 epochs" in out
    for name in ("epochs.jsonl", "contexts.json", "manifest.json"):
        assert (tmp_path / "dataset" / name).exists()


def test_generate_missing_taxonomy_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, taxonomy=str(tmp_path / "nope.json"))
    assert run(["--config", config, "generate"]) == 2
    assert "taxonomy" in capsys.readouterr().err


def test_generate_same_seed_identical_manifest(tmp_path):
    config_a = write_config(tmp_path / "a")
    config_b = write_config(tmp_path / "b")
    assert run(["--config", config_a, "generate"]) == 0
    assert run(["--config", config_b, "generate"]) == 0
    manifest_a = (tmp_path / "a" / "dataset" / "manifest.json").read_bytes()
    manifest_b = (tmp_path / "b" / "dataset" / "manifest.json").read_bytes()
    assert manifest_a == manifest_b


def test_evaluate_prints_summary_and_writes_reports(tmp_path, capsys):
    config = write_config(tmp_path)
    run(["--config", config, "generate"])
    assert run(["--config", config, "evaluate"]) == 0
    out = capsys.readouterr().out
    assert "TSR 83.7% FER 16.3% INDR 0.0%" in out
    for name in ("report.json", "report.txt", "decisions.jsonl"):
        assert (tmp_path / "report" / name).exists()


def test_evaluate_without_dataset_exits_2(tmp_path, capsys):
    config = write_config(tmp_path)
    assert run(["--config", config, "evaluate"]) == 2
    assert "missing input" in capsys.readouterr().err


def test_evaluate_schema_mismatch_exits_2(tmp_path, capsys):
    config = write_config(tmp_path)
    run(["--config", config, "generate"])
    epochs_path = tmp_path / "dataset" / "epochs.jsonl"
    lines = epochs_path.read_text().splitlines()
    row = json.loads(lines[0])
    row["device_status"] = "mystery_flag"
    lines[0] = json.dumps(row, separators=(",", ":"))
    epochs_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run(["--config", config, "evaluate"]) == 2
    assert "mystery_flag" in capsys.readouterr().err


def test_evaluate_nan_vitals_exit_2(tmp_path, capsys):
    # json.loads accepts NaN, and NaN passes no threshold comparison, so a
    # NaN epoch read as-is would raise no alert and count as suppressed.
    config = write_config(tmp_path)
    run(["--config", config, "generate"])
    epochs_path = tmp_path / "dataset" / "epochs.jsonl"
    lines = epochs_path.read_text().splitlines()
    row = json.loads(lines[0])
    row["spo2"] = float("nan")
    row["device_status"] = "ok"
    lines[0] = json.dumps(row, separators=(",", ":"))
    epochs_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run(["--config", config, "evaluate"]) == 2
    assert "epochs line 1: spo2" in capsys.readouterr().err


# An integer literal too large for a float: float() of it raises OverflowError.
HUGE = 10**400


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("spo2", None, "spo2 must be a number, got None"),
        ("spo2", "abc", "spo2 must be a number, got 'abc'"),
        ("timestamp", 5, "timestamp 5 is not a string"),
        ("device_status", "broken", "device_status: 'broken' is not one of"),
        ("hr", True, "hr must be a number, got True"),
        ("spo2", False, "spo2 must be a number, got False"),
        ("spo2", "97.5", "spo2 must be a number, got '97.5'"),
        ("self_reported_activty", "resting", "unknown keys ['self_reported_activty']"),
        ("notes", None, "unknown keys ['notes']"),
        ("hr", float("nan"), "hr not a finite positive rate: nan"),
        ("spo2", float("inf"), "spo2 outside [0, 100]: inf"),
        ("spo2", HUGE, "spo2 is too large for a float"),
        ("hr", HUGE, "hr is too large for a float"),
        (
            "timestamp", "0001-01-01T00:05:00+01:00",
            "timestamp '0001-01-01T00:05:00+01:00' is out of range in UTC",
        ),
        (
            "timestamp", "9999-12-31T23:05:00-01:00",
            "timestamp '9999-12-31T23:05:00-01:00' is out of range in UTC",
        ),
        *(
            ("timestamp", raw, f"timestamp {raw!r} is not of the form YYYY-MM-DDTHH:MM:SS")
            for raw in (
                "2022-W24-3T14:03Z", "20220615T1403Z", "2022-06-15 14:03:00Z",
                "2022-06-15T14Z", "2022-06-15T14:03Z", "2022-06-15T14:03:00.000Z",
            )
        ),
        *(
            ("ambient_condition", raw, f"ambient_condition must be a string or null, got {raw!r}")
            for raw in ({"lux": 3}, ["dim"], 3, True)
        ),
    ],
    ids=[
        "null_spo2", "text_spo2", "numeric_timestamp", "unknown_status",
        "boolean_hr", "boolean_spo2", "numeric_text_spo2",
        "misspelt_optional_key", "unknown_null_key",
        "nan_hr", "infinite_spo2", "huge_integer_spo2", "huge_integer_hr",
        "timestamp_before_year_1", "timestamp_after_year_9999",
        "week_date", "basic_format", "space_separator", "hour_only", "no_seconds",
        "fraction", "object_ambient", "array_ambient", "number_ambient", "boolean_ambient",
    ],
)
def test_evaluate_malformed_epoch_exits_2_naming_the_line(
    tmp_path, capsys, field, value, message
):
    config = write_config(tmp_path)
    run(["--config", config, "generate"])
    epochs_path = tmp_path / "dataset" / "epochs.jsonl"
    lines = epochs_path.read_text().splitlines()
    row = json.loads(lines[2])
    row[field] = value
    lines[2] = json.dumps(row, separators=(",", ":"))
    epochs_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run(["--config", config, "evaluate"]) == 2
    assert f"epochs line 3: {message}" in capsys.readouterr().err


def test_evaluate_alerting_epoch_in_year_1_evaluates(tmp_path, capsys):
    # The earliest minute a timestamp can hold: the cooldown window reaches
    # back past it, which must not leave the datetime range.
    config = write_config(tmp_path)
    run(["--config", config, "generate"])
    epochs_path = tmp_path / "dataset" / "epochs.jsonl"
    lines = epochs_path.read_text().splitlines()
    row = json.loads(lines[2])
    row["timestamp"] = "0001-01-01T00:05:00Z"
    lines[2] = json.dumps(row, separators=(",", ":"))
    epochs_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run(["--config", config, "evaluate"]) == 0
    decisions = (tmp_path / "report" / "decisions.jsonl").read_text(encoding="utf-8")
    assert '"decided_at":"0001-01-01T00:05:00Z"' in decisions


# The characters str.strip() removes and JSON does not count as whitespace.
_NON_JSON_SPACES = ["\x0b", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2028"]


@pytest.mark.parametrize(
    "index, edit, message",
    [
        (2, lambda line: line + " x", "Extra data"),
        (2, lambda line: line + line, "Extra data"),
        (2, lambda line: "\ufeff" + line, "BOM"),
        (0, lambda line: "\ufeff" + line, "BOM"),
        *[(2, lambda line, c=c: c + line + c, "Expecting value") for c in _NON_JSON_SPACES],
        (2, lambda line: "\xa0\n" + line, "Expecting value"),
        (-1, lambda line: line[: line.index('"timestamp":"') + 20], "Unterminated string"),
        (2, lambda line: "[]", "epoch row must be a JSON object, got []"),
        (2, lambda line: "5", "epoch row must be a JSON object, got 5"),
        (2, lambda line: '"x"', "epoch row must be a JSON object, got 'x'"),
        (2, lambda line: "null", "epoch row must be a JSON object, got None"),
        (2, lambda line: line[:-1] + ',"spo2":-1.0}', "spo2 outside [0, 100]: -1.0"),
    ],
    ids=[
        "trailing_data", "two_objects", "bom", "bom_opening_the_file",
        *[f"wrapped_in_u{ord(c):04x}" for c in _NON_JSON_SPACES], "no_break_space_line",
        "file_cut_mid_row", "array_row", "number_row", "string_row", "null_row",
        "invalid_duplicate_spo2",
    ],
)
def test_evaluate_malformed_epoch_line_exits_2_naming_the_line(
    tmp_path, capsys, index, edit, message
):
    # Each line holds exactly one JSON object, with only JSON whitespace
    # around it: data after it, a byte-order mark or a Unicode space such as
    # U+00A0 around it fails the row rather than being skipped, stripped or
    # split, as json.loads fails it. A key given twice keeps its last value,
    # as in json.loads. An edit of the last line is where the file ends,
    # with no newline after it.
    config = write_config(tmp_path)
    run(["--config", config, "generate"])
    epochs_path = tmp_path / "dataset" / "epochs.jsonl"
    lines = epochs_path.read_text(encoding="utf-8").splitlines()
    line_no = index % len(lines) + 1
    lines[index] = edit(lines[index])
    epochs_path.write_text("\n".join(lines) + ("" if index == -1 else "\n"), encoding="utf-8")
    assert run(["--config", config, "evaluate"]) == 2
    assert re.search(f"epochs line {line_no}: .*{re.escape(message)}", capsys.readouterr().err)


def test_evaluate_duplicate_key_keeps_the_last_value(tmp_path):
    # A key given twice inside one epoch row or one contexts.json record
    # reads as json reads it: the last value, here the row's or record's own
    # after a different first one, so the outputs do not move.
    config = write_config(tmp_path)
    run(["--config", config, "generate"])
    assert run(["--config", config, "evaluate"]) == 0
    decisions = (tmp_path / "report" / "decisions.jsonl").read_bytes()
    epochs_path = tmp_path / "dataset" / "epochs.jsonl"
    lines = epochs_path.read_text(encoding="utf-8").splitlines()
    lines[2] = '{"spo2":-1.0,' + lines[2][1:]
    contexts_path = tmp_path / "dataset" / "contexts.json"
    contexts = contexts_path.read_text(encoding="utf-8")
    first, last = '"copd_documented": true,', '"copd_documented": false,'
    inner = contexts.replace(last, f"{first}\n    {last}", 1)
    assert inner != contexts
    for path, text in (
        (epochs_path, "\n".join(lines) + "\n"),
        (contexts_path, inner),
    ):
        original = path.read_text(encoding="utf-8")
        path.write_text(text, encoding="utf-8")
        assert run(["--config", config, "evaluate"]) == 0, path.name
        assert (tmp_path / "report" / "decisions.jsonl").read_bytes() == decisions, path.name
        path.write_text(original, encoding="utf-8")


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("copd_documented", "false", "copd_documented"),
        ("patient_id", None, "holds patient_id"),
        ("baseline_spo2", False, "baseline_spo2 must be a number, got False"),
        ("baseline_spo2", True, "baseline_spo2 must be a number, got True"),
        ("baseline_spo2", "0", "baseline_spo2 must be a number, got '0'"),
        ("baseline_hr", "200", "baseline_hr must be a number, got '200'"),
        ("rate_limiting_medicaton", True, "unknown keys ['rate_limiting_medicaton']"),
        ("copd_documented", None, "copd_documented must be true or false, got None"),
        ("baseline_hr", float("nan"), "baseline_hr is not finite: nan"),
        ("baseline_spo2", float("inf"), "baseline_spo2 is not finite: inf"),
        ("baseline_hr", HUGE, "baseline_hr is too large for a float"),
        ("baseline_spo2", 69.9, "baseline_spo2 outside [70, 100]: 69.9"),
        ("baseline_spo2", 100.1, "baseline_spo2 outside [70, 100]: 100.1"),
        ("baseline_hr", 24.9, "baseline_hr outside [25, 220]: 24.9"),
        ("baseline_hr", 220.1, "baseline_hr outside [25, 220]: 220.1"),
        ("baseline_hr", 1000, "baseline_hr outside [25, 220]: 1000.0"),
    ],
    ids=[
        "string_boolean", "foreign_patient_id", "false_baseline_spo2", "true_baseline_spo2",
        "text_baseline_spo2", "text_baseline_hr", "misspelt_optional_key",
        "null_flag", "nan_baseline_hr", "infinite_baseline_spo2", "huge_integer_baseline_hr",
        "baseline_spo2_below_70", "baseline_spo2_past_100", "baseline_hr_below_25",
        "baseline_hr_past_220", "baseline_hr_1000",
    ],
)
def test_evaluate_malformed_context_exits_2(tmp_path, capsys, field, value, message):
    # bool("false") is True: decoded leniently, a patient with a baseline
    # would silently read as documented COPD. float(false) is 0.0 and
    # float("200") is 200.0: a baseline decoded leniently moves the limits a
    # specialist compares the vitals with, and so does one outside its
    # vital's range (a baseline_hr of 1000 lets tachycardia suppress HR 210).
    # A record filed under another patient's key would mix two patients in
    # one case.
    config = write_config(tmp_path)
    run(["--config", config, "generate"])
    contexts_path = tmp_path / "dataset" / "contexts.json"
    contexts = json.loads(contexts_path.read_text())
    key = next(k for k, ctx in sorted(contexts.items()) if ctx["baseline_spo2"] is not None)
    contexts[key][field] = int(key) + 1 if field == "patient_id" else value
    contexts_path.write_text(json.dumps(contexts), encoding="utf-8")
    assert run(["--config", config, "evaluate"]) == 2
    assert f"contexts patient {key}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("value", [3847291.9, True], ids=["fractional", "boolean"])
def test_evaluate_non_integer_patient_id_exits_2(tmp_path, capsys, value):
    # int(3847291.9) would silently file the row under patient 3847291.
    config = write_config(tmp_path)
    run(["--config", config, "generate"])
    epochs_path = tmp_path / "dataset" / "epochs.jsonl"
    lines = epochs_path.read_text().splitlines()
    row = json.loads(lines[1])
    row["patient_id"] = value
    lines[1] = json.dumps(row, separators=(",", ":"))
    epochs_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run(["--config", config, "evaluate"]) == 2
    assert "epochs line 2: patient_id" in capsys.readouterr().err


def test_evaluate_duplicate_epoch_exits_2(tmp_path, capsys):
    config = write_config(tmp_path)
    run(["--config", config, "generate"])
    epochs_path = tmp_path / "dataset" / "epochs.jsonl"
    lines = epochs_path.read_text().splitlines()
    epochs_path.write_text("\n".join([lines[0], *lines]) + "\n", encoding="utf-8")
    assert run(["--config", config, "evaluate"]) == 2
    assert "duplicate epoch for patient" in capsys.readouterr().err


def test_evaluate_golden_check_passes_on_clean_run(tmp_path, capsys):
    config = write_config(tmp_path)
    run(["--config", config, "generate"])
    assert run(["--config", config, "evaluate", "--golden-check"]) == 0
    assert "golden check: ok" in capsys.readouterr().out


def test_evaluate_golden_check_tampered_dataset_exits_4(tmp_path, capsys):
    config = write_config(tmp_path)
    run(["--config", config, "generate"])
    epochs_path = tmp_path / "dataset" / "epochs.jsonl"
    lines = []
    for line in epochs_path.read_text().splitlines():
        row = json.loads(line)
        if row["patient_id"] == 3847291:
            row["device_status"] = "system_flag"
        lines.append(json.dumps(row, separators=(",", ":")))
    epochs_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run(["--config", config, "evaluate", "--golden-check"]) == 4
    assert "golden mismatch" in capsys.readouterr().err


def test_evaluate_json_only_skips_text_report(tmp_path):
    config = write_config(tmp_path)
    run(["--config", config, "generate"])
    assert run(["--config", config, "evaluate", "--json-only"]) == 0
    assert (tmp_path / "report" / "report.json").exists()
    assert not (tmp_path / "report" / "report.txt").exists()


def test_report_subcommand_rerenders_from_json(tmp_path, capsys):
    # report.json is written with sorted keys, so its failure modes read back
    # alphabetically; report must still print them as evaluate did, by count.
    config = write_config(tmp_path)
    run(["--config", config, "generate"])
    run(["--config", config, "evaluate"])
    text_path = tmp_path / "report" / "report.txt"
    written = text_path.read_bytes()
    text_path.unlink()
    capsys.readouterr()
    assert run(["--config", config, "report"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == written
    assert text_path.read_bytes() == written
    # The seed-42 report.txt pinned in test_criterion_6_end_to_end_determinism.
    assert hashlib.sha256(written).hexdigest() == (
        "153be463479429a9bf32269de1d0770c50f45c501a305fa7429f6b4ccc10aaf8"
    )


def test_report_missing_json_exits_2(tmp_path, capsys):
    config = write_config(tmp_path)
    assert run(["--config", config, "report"]) == 2


def test_report_mistyped_section_exits_2(tmp_path, capsys):
    config = write_config(tmp_path)
    run(["--config", config, "generate"])
    run(["--config", config, "evaluate", "--json-only"])
    report_path = tmp_path / "report" / "report.json"
    payload = json.loads(report_path.read_text())
    payload["failure_modes"] = 5
    report_path.write_text(json.dumps(payload), encoding="utf-8")
    capsys.readouterr()
    assert run(["--config", config, "report"]) == 2
    assert "'failure_modes' must be a JSON object" in capsys.readouterr().err


def test_report_rejects_intervals_other_than_the_rows(tmp_path, capsys):
    # wilson_cis is derived from per_domain. Unchecked, this file rendered
    # with exit 0, no copd interval row and "nocturnal 3 100.0% 0.0% - 1.0%".
    config = write_config(tmp_path)
    run(["--config", config, "generate"])
    run(["--config", config, "evaluate", "--json-only"])
    report_path = tmp_path / "report" / "report.json"
    payload = json.loads(report_path.read_text())
    copd = payload["wilson_cis"].pop("copd")
    payload["wilson_cis"]["nocturnal"] = {"lower": 0.0, "upper": 0.01}
    capsys.readouterr()

    def report_error() -> list:
        report_path.write_text(json.dumps(payload), encoding="utf-8")
        assert run(["--config", config, "report"]) == 2
        return capsys.readouterr().err.splitlines()

    assert report_error() == [
        "error: report payload invalid: report payload wilson_cis: class 'copd' has no interval"
    ]
    payload["wilson_cis"]["copd"] = copd
    assert report_error() == [
        "error: report payload invalid: report payload wilson_cis.nocturnal.lower"
        " is 0.0, the rows give 0.438494"
    ]
    assert not (tmp_path / "report" / "report.txt").exists()


def test_report_without_class_rows_exits_2(tmp_path, capsys):
    # No class row leaves no case to take a rate of.
    config = write_config(tmp_path)
    run(["--config", config, "generate"])
    run(["--config", config, "evaluate", "--json-only"])
    report_path = tmp_path / "report" / "report.json"
    payload = json.loads(report_path.read_text())
    payload["per_domain"] = payload["wilson_cis"] = {}
    report_path.write_text(json.dumps(payload), encoding="utf-8")
    capsys.readouterr()
    assert run(["--config", config, "report"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: report payload invalid: report payload per_domain holds no class"
    ]


_MISSING = object()
# The shipped COPD row is 13/13/0; with one more case, neither suppressed nor
# escalated, it is 14/13/0.
_COPD_LOWER, _COPD_UPPER = wilson_interval(13, 14)


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("per_domain", "probe_integrity"), 5, "'per_domain.probe_integrity' must be a JSON"),
        (("per_domain", "copd", "tsr"), "1.0", "per_domain.copd.tsr must be a number, got '1.0'"),
        (("wilson_cis", "copd", "lower"), None, "wilson_cis.copd.lower must be a number, got None"),
        (("wilson_cis", "shoulder"), {"lower": 0, "upper": 1}, "'wilson_cis': 'shoulder' is not"),
        (("failure_modes", "system_flag"), 7.5, "failure_modes.system_flag must be an integer"),
        (("overall", "tsr"), _MISSING, "overall.tsr must be a number, got None"),
        (("totals", "cases"), True, "totals.cases must be a number, got True"),
        (("overall", "tsr"), float("nan"), "overall.tsr is not finite: nan"),
        (("wilson_cis", "copd", "upper"), float("inf"), "wilson_cis.copd.upper is not finite"),
        (("overall", "fer"), HUGE, "overall.fer is too large for a float"),
        (("per_domain", "copd", "tsrr"), 1.0, "unknown keys ['tsrr'] in report payload"),
        (("totalz",), {}, "unknown keys ['totalz'] in report payload"),
        (
            ("per_domain", "copd"), _MISSING,
            "wilson_cis: class 'copd' has an interval but no per_domain row",
        ),
        (("per_domain", "copd", "ts"), 14, "per_domain.copd: require 0 <= successes <= n"),
        (("overall", "ts_count"), 82.5, "overall.ts_count must be an integer, got 82.5"),
        (("totals", "cases"), -3, "totals.cases must not be negative, got -3"),
        (("per_domain", "copd", "fe"), 7.5, "per_domain.copd.fe must be an integer, got 7.5"),
        (("overall", "tsr"), 0.99, "overall.tsr is 0.99, the rows give 0.836735"),
        (("per_domain", "copd", "tsr"), 0.01, "per_domain.copd.tsr is 0.01, the rows give 1.0"),
        (("per_domain", "copd", "fe"), 1, "per_domain.copd: ts + fe is 14, not n 13"),
        (
            # Every value the one undecided COPD case moves, consistently.
            (
                ("per_domain", "copd", "n"), ("per_domain", "copd", "tsr"),
                ("wilson_cis", "copd", "lower"), ("wilson_cis", "copd", "upper"),
                ("overall", "ind_count"), ("overall", "tsr"), ("overall", "fer"),
                ("overall", "indr"), ("totals", "cases"), ("totals", "mean_epochs_per_case"),
            ),
            (
                14, round(13 / 14, 6), round(_COPD_LOWER, 6), round(_COPD_UPPER, 6),
                1, round(82 / 99, 6), round(16 / 99, 6), round(1 / 99, 6), 99, round(530 / 99, 6),
            ),
            "per_domain.copd: ts + fe is 13, not n 14: every case is suppressed or escalated",
        ),
        (("overall", "ind_count"), 2, "overall.ind_count is 2, the rows give 0"),
        (("totals", "cases"), 99, "totals.cases is 99, the rows give 98"),
        (("totals", "mean_epochs_per_case"), 5.0, "mean_epochs_per_case is 5.0, the rows give"),
        (("failure_modes", "ok"), -4, "failure_modes.ok must not be negative, got -4"),
        (
            ("failure_modes", "ok"), 40,
            "failure_modes sum to 52, not overall.fe_count 16:"
            " every false escalation has one failure status",
        ),
        (
            (("totals", "epochs"), ("totals", "mean_epochs_per_case")), (3, round(3 / 98, 6)),
            "totals.epochs is 3, below totals.cases 98: every case has at least one epoch",
        ),
    ],
    ids=[
        "per_domain_row", "per_domain_rate", "wilson_bound", "wilson_class",
        "failure_count", "overall_field", "totals_field",
        "nan_rate", "infinite_bound", "huge_integer_rate", "misspelt_row_key",
        "misspelt_section", "interval_without_row", "more_successes_than_cases",
        "fractional_count", "negative_cases", "fractional_class_count", "overall_rate_off_counts",
        "class_rate_off_counts", "more_outcomes_than_cases", "indeterminate_cases",
        "ind_count_off_rows",
        "cases_off_rows", "mean_off_totals", "negative_failure_count",
        "failure_counts_off_fe_count", "fewer_epochs_than_cases",
    ],
)
def test_report_malformed_row_exits_2(tmp_path, capsys, path, value, message):
    # Every row the text report reads is checked. Unchecked, these rows are a
    # traceback (exit 1) or, for a fractional count, a boolean total, failure
    # counts off fe_count, fewer epochs than cases or an undecided case,
    # render as if valid. A row whose path is a tuple of paths edits one
    # value per path.
    config = write_config(tmp_path)
    run(["--config", config, "generate"])
    run(["--config", config, "evaluate", "--json-only"])
    report_path = tmp_path / "report" / "report.json"
    payload = json.loads(report_path.read_text())
    edits = zip(path, value) if type(path[0]) is tuple else [(path, value)]
    for (*parents, key), new in edits:
        target = payload
        for name in parents:
            target = target[name]
        if new is _MISSING:
            del target[key]
        else:
            target[key] = new
    report_path.write_text(json.dumps(payload), encoding="utf-8")
    capsys.readouterr()
    assert run(["--config", config, "report"]) == 2
    assert message in capsys.readouterr().err


def _shipped_entries() -> list:
    return json.loads(default_taxonomy_path().read_text(encoding="utf-8"))


def _edited_taxonomy(tmp_path: Path, edit) -> tuple[Path, str]:
    """A copy of the catalogue with one entry edited; returns it and the case id.

    The entry has a baseline SpO2 but no COPD, so a flag misread as true
    still passes the catalogue checks and would generate a COPD patient.
    """
    entries = _shipped_entries()
    entry = next(
        e for e in entries
        if e["context"]["baseline_spo2"] is not None and not e["context"]["copd_documented"]
    )
    edit(entry)
    path = tmp_path / "taxonomy.json"
    path.write_text(json.dumps(entries), encoding="utf-8")
    return path, entry["case_id"]


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda e: e.pop("epoch_count"), "missing field 'epoch_count'"),
        (lambda e: e.update(nocturnal="false"), "nocturnal must be true or false"),
        (
            lambda e: e["context"].update(copd_documented="false"),
            "context copd_documented must be true or false",
        ),
        (
            lambda e: e["context"].update(rate_limiting_medication=0),
            "context rate_limiting_medication must be true or false",
        ),
        (
            lambda e: e["categorical_params"]["probe_cover_present"].update(fixed="false"),
            "probe_cover_present must be true or false",
        ),
        (
            lambda e: e["categorical_params"]["accel_level"].update(fixed="sprinting"),
            "accel_level: 'sprinting' is not one of [still, light, vigorous]",
        ),
        (
            lambda e: e["categorical_params"].update(position={"choice": "supine"}),
            "choice must be a non-empty array, got 'supine'",
        ),
        (
            lambda e: e["categorical_params"].update(position={"choice": []}),
            "choice must be a non-empty array, got []",
        ),
        (
            lambda e: e["categorical_params"].update(position={"choice": ["supine", "sideways"]}),
            "position: 'sideways' is not one of",
        ),
        (
            lambda e: e["context"].update(baseline_spo2="95"),
            "context baseline_spo2 must be a number, got '95'",
        ),
        (lambda e: e.update(epoch_count=5.9), "epoch_count must be an integer, got 5.9"),
        (lambda e: e.update(epoch_count="5"), "epoch_count must be an integer, got '5'"),
        (
            lambda e: e["continuous_params"]["spo2"].update(mu="93.0"),
            "mu must be a number, got '93.0'",
        ),
        (
            lambda e: e["continuous_params"]["spo2"].update(sigma=True),
            "sigma must be a number, got True",
        ),
        (lambda e: e.update(case_id=12345), "case_id must be a string, got 12345"),
        (
            lambda e: e["continuous_params"]["spo2"].update(mu=None),
            "mu must be a number, got None",
        ),
        (
            lambda e: e["continuous_params"]["hr"].update(sigma=float("nan")),
            "sigma is not finite: nan",
        ),
        (
            lambda e: e["continuous_params"]["spo2"].update(sigma=float("inf")),
            "sigma is not finite: inf",
        ),
        (
            lambda e: e["continuous_params"]["hr"].update(upper=float("inf")),
            "upper is not finite: inf",
        ),
        (
            lambda e: e["continuous_params"]["spo2"].update(mu=HUGE),
            "mu is too large for a float",
        ),
        (
            lambda e: e["context"].update(baseline_hr=HUGE),
            "context baseline_hr is too large for a float",
        ),
        (
            lambda e: e["context"].update(baseline_spo2=float("nan")),
            "context baseline_spo2 is not finite: nan",
        ),
        (
            lambda e: e["context"].update(baseline_spo2=69.5),
            "context baseline_spo2 outside [70, 100]: 69.5",
        ),
        (
            lambda e: e["context"].update(baseline_hr=1000),
            "context baseline_hr outside [25, 220]: 1000.0",
        ),
        (lambda e: e.update(nocturnl=False), "unknown keys ['nocturnl'] in entry"),
        (
            lambda e: e["context"].update(copd_documentd=e["context"].pop("copd_documented")),
            "context unknown keys ['copd_documentd']",
        ),
        (
            lambda e: e["context"].update(patient_id=3847291),
            "context patient_id is assigned per case",
        ),
        (
            lambda e: e["categorical_params"]["position"].update(fixd="supine"),
            "unknown keys ['fixd'] in categorical spec",
        ),
        (
            lambda e: e["continuous_params"]["spo2"].update(sigm=1.0),
            "unknown keys ['sigm'] in continuous spec",
        ),
        (
            lambda e: e["categorical_params"].update(
                position={"choice": ["supine", "lateral"], "fixed": "upright"}
            ),
            "categorical spec cannot be both fixed and a choice set",
        ),
        (
            lambda e: e.update(continuous_params=[]),
            "continuous_params must be a JSON object, got []",
        ),
        (
            lambda e: e.update(categorical_params="x"),
            "categorical_params must be a JSON object, got 'x'",
        ),
        (lambda e: e.update(context="x"), "context must be a JSON object, got 'x'"),
        (lambda e: e.update(context=[]), "context must be a JSON object, got []"),
        (lambda e: e.update(context=5), "context must be a JSON object, got 5"),
        (lambda e: e.update(context=None), "context must be a JSON object, got None"),
        (
            lambda e: e.update(expected_outcome_note=5),
            "expected_outcome_note must be a string, got 5",
        ),
        (
            lambda e: e.update(expected_outcome_note=["a"]),
            "expected_outcome_note must be a string, got ['a']",
        ),
        (
            lambda e: e.update(expected_outcome_note=None),
            "expected_outcome_note must be a string, got None",
        ),
        (lambda e: e.update(epoch_count=0), "epoch_count must be positive"),
        (
            lambda e: e["continuous_params"].update(
                temp={"mu": 37.0, "sigma": 0.1, "lower": 36.0, "upper": 38.0}
            ),
            "unknown keys ['temp'] in continuous_params",
        ),
        (
            # No draw from N(90, 0.5) reaches 100: the spec is rejected for
            # its bound, not for a value drawn.
            lambda e: e["continuous_params"].update(
                spo2={"mu": 90, "sigma": 0.5, "lower": 85, "upper": 101}
            ),
            "spo2 spec [85, 101] outside [70, 100]",
        ),
        (
            lambda e: e["continuous_params"].update(
                hr={"mu": 70, "sigma": 0.5, "lower": 24, "upper": 90}
            ),
            "hr spec [24, 90] outside [25, 220]",
        ),
        (
            lambda e: e["continuous_params"].update(
                spo2={"mu": 90, "sigma": 1, "lower": 90, "upper": 90}
            ),
            "lower 90 must be below upper 90",
        ),
        (
            # The entry is nocturnal: its latest start is 04:49, and from
            # there 132,191 minutes reach the end of August.
            lambda e: e.update(epoch_count=132192),
            "epoch_count 132192 does not fit in the data window from a 04:49 start",
        ),
        (
            # From a 04:49 start, a 72nd epoch falls at 06:00, in daytime.
            lambda e: e.update(nocturnal=True, epoch_count=72),
            "nocturnal epoch_count 72 runs past 06:00 from a 04:49 start (at most 71)",
        ),
        *(
            (
                lambda e, spec=spec: e["categorical_params"].update(ambient_condition=spec),
                f"ambient_condition must be a string or null, got {raw!r}",
            )
            for raw, spec in (
                ({"lux": 3}, {"fixed": {"lux": 3}}),
                (["dim"], {"fixed": ["dim"]}),
                (3, {"choice": ["dim", 3]}),
                (False, {"choice": [None, False]}),
            )
        ),
    ],
    ids=[
        "missing_epoch_count", "string_nocturnal", "string_context_flag",
        "numeric_context_flag", "string_probe_cover", "unknown_fixed_value",
        "string_choice", "empty_choice", "unknown_choice_value", "string_context_baseline",
        "fractional_epoch_count", "string_epoch_count", "string_mu", "boolean_sigma",
        "numeric_case_id", "null_mu", "nan_sigma", "infinite_sigma", "infinite_upper",
        "huge_integer_mu", "huge_integer_context_baseline", "nan_context_baseline",
        "context_baseline_spo2_below_70", "context_baseline_hr_1000",
        "misspelt_entry_key", "misspelt_context_key", "context_patient_id",
        "misspelt_categorical_key", "misspelt_continuous_key", "choice_and_fixed",
        "list_continuous_params", "string_categorical_params", "string_context",
        "array_context", "number_context", "null_context", "number_note", "array_note",
        "null_note", "zero_epoch_count",
        "unknown_continuous_field", "spo2_upper_past_100", "hr_lower_below_25",
        "empty_spec_interval", "epoch_count_past_the_window", "nocturnal_past_the_night",
        "object_fixed_ambient", "array_fixed_ambient", "number_choice_ambient",
        "boolean_choice_ambient",
    ],
)
def test_generate_malformed_taxonomy_entry_exits_2(tmp_path, capsys, edit, message):
    # A traceback exits 1, and bool("false") is True: either way a bad
    # catalogue must fail closed, naming the entry.
    taxonomy, case_id = _edited_taxonomy(tmp_path, edit)
    config = write_config(tmp_path, taxonomy=str(taxonomy))
    assert run(["--config", config, "generate"]) == 2
    err = capsys.readouterr().err
    assert f"taxonomy validation failed: taxonomy entry {case_id!r}: {message}" in err
    if isinstance(case_id, str):  # a numeric case_id is also the value rejected
        assert err.count(case_id) == 1
    assert not (tmp_path / "dataset").exists()


def test_generate_out_of_bounds_draw_exits_2(tmp_path, capsys):
    # Every SpO2 draw of this spec would be below the dataset's floor; the
    # spec's bounds are checked when the catalogue loads, before any draw.
    spo2 = {"mu": 50, "sigma": 1, "lower": 40, "upper": 60}
    taxonomy, case_id = _edited_taxonomy(
        tmp_path, lambda e: e["continuous_params"].update(spo2=spo2)
    )
    config = write_config(tmp_path, taxonomy=str(taxonomy))
    assert run(["--config", config, "generate"]) == 2
    err = capsys.readouterr().err
    assert (
        f"taxonomy validation failed: taxonomy entry {case_id!r}: "
        "spo2 spec [40, 60] outside [70, 100]"
    ) in err
    assert not (tmp_path / "dataset").exists()


# A user catalogue may have any shape up to one entry per patient id; only
# --golden-check holds a run to the shipped catalogue's 98 cases, 530
# epochs, nine class rows and six failure modes.


def _catalogue_config(tmp_path: Path, entries: list) -> Path:
    """A config whose taxonomy is ``entries``, written as a user catalogue."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / "taxonomy.json"
    path.write_text(json.dumps(entries), encoding="utf-8")
    return write_config(tmp_path, taxonomy=str(path))


def test_user_catalogue_of_ten_entries_runs_and_fails_the_golden_check(tmp_path, capsys):
    entries = _shipped_entries()[:10]
    epochs = sum(e["epoch_count"] for e in entries)
    config = _catalogue_config(tmp_path, entries)
    assert run(["--config", config, "generate"]) == 0
    assert f"10 cases, {epochs} epochs\n" in capsys.readouterr().out
    assert run(["--config", config, "evaluate"]) == 0
    assert f"10 cases, {epochs} epochs evaluated" in capsys.readouterr().out
    assert run(["--config", config, "evaluate", "--golden-check"]) == 4
    err = capsys.readouterr().err
    assert f"golden mismatch: epochs {epochs} != 530" in err
    assert "golden mismatch: overall" in err


def test_golden_check_rejects_an_extra_epoch(tmp_path, capsys):
    # 98 cases with the shipped outcomes, class rows and failure modes: of
    # the report, only the epoch total tells this catalogue from the shipped
    # one; the manifest's catalogue digest tells it too.
    entries = _shipped_entries()
    entries[0]["epoch_count"] += 1
    config = _catalogue_config(tmp_path, entries)
    assert run(["--config", config, "generate"]) == 0
    assert run(["--config", config, "evaluate", "--golden-check"]) == 4
    captured = capsys.readouterr()
    assert "TSR 83.7% FER 16.3% INDR 0.0%" in captured.out
    digest = json.loads((tmp_path / "dataset" / "manifest.json").read_text())["taxonomy_sha256"]
    assert captured.err.splitlines() == [
        f"golden mismatch: taxonomy_sha256 {digest} != {GOLDEN_TAXONOMY_SHA256}",
        "golden mismatch: epochs 531 != 530",
    ]


def _duplicate_case_id(entries: list) -> None:
    entries[1]["case_id"] = entries[0]["case_id"]


def _ninety_nine_entries(entries: list) -> None:
    entries.append({**entries[0], "case_id": "FP-099"})


@pytest.mark.parametrize(
    "edit, message",
    [
        (list.clear, "taxonomy validation failed: taxonomy holds no entries"),
        (_duplicate_case_id, "taxonomy validation failed: duplicate case_id 'FP-001'"),
        (
            _ninety_nine_entries,
            "generation failed: FP-099: patient_id 3847389 outside [3847291, 3847388]",
        ),
    ],
    ids=["empty", "duplicate_case_id", "ninety_nine_entries"],
)
def test_catalogue_breaking_a_generic_rule_exits_2(tmp_path, capsys, edit, message):
    entries = _shipped_entries()
    edit(entries)
    config = _catalogue_config(tmp_path, entries)
    assert run(["--config", config, "generate"]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "dataset").exists()


# Every value inside the screens, every categorical field left out (so
# device status ok): the case never alerts.
_QUIET_ENTRY = {
    "case_id": "QUIET-001",
    "domain_class": "probe_integrity",
    "epoch_count": 30,
    "continuous_params": {
        "spo2": {"mu": 97.5, "sigma": 0.8, "lower": 95.5, "upper": 99.5},
        "hr": {"mu": 72.0, "sigma": 5.0, "lower": 60.0, "upper": 90.0},
    },
    "categorical_params": {},
    "context": {"copd_documented": False},
    "nocturnal": False,
}


def test_quiet_case_is_a_true_suppression_with_no_decision_line(tmp_path, capsys):
    alerting = _shipped_entries()[0]
    config = _catalogue_config(tmp_path, [_QUIET_ENTRY, alerting])
    assert run(["--config", config, "generate"]) == 0
    assert run(["--config", config, "evaluate"]) == 0
    report = json.loads((tmp_path / "report" / "report.json").read_text(encoding="utf-8"))
    assert report["overall"]["ts_count"] == report["totals"]["cases"] == 2
    assert report["per_domain"]["probe_integrity"]["ts"] == 2
    lines = (tmp_path / "report" / "decisions.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == alerting["epoch_count"]
    assert {json.loads(line)["case_id"] for line in lines} == {alerting["case_id"]}


def test_evaluate_duplicate_quiet_epoch_exits_2(tmp_path, capsys):
    # No epoch of this case is ever assembled; the walk still checks every
    # minute, so a repeated quiet row fails like a repeated alerting one.
    config = _catalogue_config(tmp_path, [_QUIET_ENTRY])
    assert run(["--config", config, "generate"]) == 0
    epochs_path = tmp_path / "dataset" / "epochs.jsonl"
    lines = epochs_path.read_text().splitlines()
    epochs_path.write_text("\n".join([*lines, lines[3]]) + "\n", encoding="utf-8")
    assert run(["--config", config, "evaluate"]) == 2
    assert "duplicate epoch for patient 3847291 at " in capsys.readouterr().err


def test_seed_env_var_overrides_config(tmp_path, monkeypatch):
    monkeypatch.setenv("VERITAS_SEED", "7")
    config = write_config(tmp_path, seed=42)
    run(["--config", config, "generate"])
    manifest = json.loads((tmp_path / "dataset" / "manifest.json").read_text())
    assert manifest["seed"] == 7


def test_seed_flag_beats_env_and_config(tmp_path, monkeypatch):
    monkeypatch.setenv("VERITAS_SEED", "7")
    config = write_config(tmp_path, seed=42)
    run(["--config", config, "--seed", "99", "generate"])
    manifest = json.loads((tmp_path / "dataset" / "manifest.json").read_text())
    assert manifest["seed"] == 99


@pytest.mark.parametrize(
    "value", [" 7 ", "1_000", "\u0667", "abc", "", "-1", "7.0"],
    ids=["padded", "underscored", "arabic_indic_digit", "text", "empty", "negative", "fraction"],
)
def test_malformed_seed_env_var_exits_2_naming_it(tmp_path, monkeypatch, capsys, value):
    # int() takes " 7 ", "1_000" and non-ASCII digits; the seed is ASCII digits only.
    monkeypatch.setenv("VERITAS_SEED", value)
    config = write_config(tmp_path)
    assert run(["--config", config, "generate"]) == 2
    assert "config invalid: VERITAS_SEED must be ASCII digits" in capsys.readouterr().err
    assert not (tmp_path / "dataset").exists()


def test_generate_unwritable_output_exits_3(tmp_path, capsys):
    blocker = tmp_path / "dataset"
    blocker.write_text("a file where the dataset directory should go")
    config = write_config(tmp_path)
    assert run(["--config", config, "generate"]) == 3
    assert "could not write dataset" in capsys.readouterr().err


def _directory_as_config(tmp_path: Path) -> list:
    (tmp_path / "config.d").mkdir()
    return ["--config", tmp_path / "config.d", "evaluate"]


def _directory_as_taxonomy(tmp_path: Path) -> list:
    (tmp_path / "taxonomy.d").mkdir()
    return ["--config", write_config(tmp_path, taxonomy=str(tmp_path / "taxonomy.d")), "generate"]


def _directory_as_dataset_file(name: str):
    def setup(tmp_path: Path) -> list:
        config = write_config(tmp_path)
        run(["--config", config, "generate"])
        path = tmp_path / "dataset" / name
        path.unlink()
        path.mkdir()
        return ["--config", config, "evaluate"]

    return setup


def _directory_as_report_json(tmp_path: Path) -> list:
    (tmp_path / "report" / "report.json").mkdir(parents=True)
    return ["--config", write_config(tmp_path), "report"]


@pytest.mark.parametrize(
    "setup",
    [
        _directory_as_config,
        _directory_as_taxonomy,
        _directory_as_dataset_file("manifest.json"),
        _directory_as_dataset_file("epochs.jsonl"),
        _directory_as_report_json,
    ],
    ids=["config", "taxonomy_generate", "manifest_evaluate", "epochs", "report_json"],
)
def test_unreadable_input_path_exits_3(tmp_path, capsys, setup):
    # An input path that exists but is no readable file is an I/O failure
    # (exit 3), not a traceback; a missing file stays an input failure (2).
    assert run(setup(tmp_path)) == 3
    assert "error: could not read " in capsys.readouterr().err


def test_invalid_config_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "config.json"
    bad.write_text("{not json", encoding="utf-8")
    assert run(["--config", bad, "generate"]) == 2
    assert "config" in capsys.readouterr().err


@pytest.mark.parametrize(
    "screen, floor, code",
    [(97.0, 95.0, 0), (85.0, 90.0, 2), (94.0, 94.0, 2)],
    ids=["floor_under_a_raised_screen", "floor_over_a_lowered_screen", "floor_at_the_screen"],
)
def test_the_copd_floor_must_sit_below_the_configured_screen(tmp_path, capsys, screen, floor, code):
    config = write_config(
        tmp_path,
        sentinel={"spo2_low_threshold": screen},
        specialists={"copd_acceptable_spo2": floor},
    )
    assert run(["--config", config, "generate"]) == code
    err = capsys.readouterr().err
    if code:
        assert err == (
            f"error: config invalid: specialists.copd_acceptable_spo2 {floor} must sit"
            f" below sentinel.spo2_low_threshold {screen}\n"
        )


@pytest.mark.parametrize(
    "section",
    [
        {"sentinel": {"spo2_low_treshold": 80}},
        {"sentinel": {"spo2_low_threshold": None}},
        {"sentinel": {"spo2_low_threshold": "80"}},
        {"meta": {"cooldown_window_minutes": 2.5}},
        {"meta": {"domain_weights": {"cardiology": 2.0}}},
        {"meta": {"domain_weights": {"copd": None}}},
        {"sentinel": {"hr_high_threshold": True}},
        {"specialists": {"high_confidence": float("nan")}},
        {"sentinel": {"hr_low_threshold": float("-inf")}},
        {"sentinel": {"spo2_low_threshold": HUGE}},
        {"meta": {"domain_weights": {"copd": HUGE}}},
        {"meta": {"cooldown_window_minutes": 10.0}},
        {"seed": 42.0},
        {"seed": "42"},
        {"meta": {"cooldown_window_minutes": 10**13}},
    ],
    ids=[
        "typo", "null", "string", "fractional_int", "unknown_domain", "null_weight",
        "boolean", "nan", "negative_infinity", "huge_integer", "huge_integer_weight",
        "integral_float_int", "integral_float_seed", "string_seed", "cooldown_past_timedelta",
    ],
)
def test_invalid_config_section_exits_2(tmp_path, capsys, section):
    config = write_config(tmp_path, **section)
    assert run(["--config", config, "generate"]) == 2
    err = capsys.readouterr().err
    assert "config invalid" in err
    key, value = next(iter(section.items()))
    while isinstance(value, dict):  # the innermost key is named
        key, value = next(iter(value.items()))
    assert key in err


def test_unknown_top_level_and_paths_keys_exit_2(tmp_path, capsys):
    for payload in ({"sede": 7}, {"paths": {"dataset": "elsewhere"}}, {"paths": {"report_dir": None}}):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert run(["--config", path, "generate"]) == 2
    assert "unknown keys ['sede']" in capsys.readouterr().err


def test_readme_example_config_gives_the_default_outputs(tmp_path):
    # README's example spells out every default, so its run must be byte
    # for byte the default seed-42 run that the acceptance suite pins.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = json.loads(re.search(r"### Config file\s+```json\n(.*?)```", readme, re.S).group(1))
    outputs = {}
    for name in ("readme", "default"):
        base = tmp_path / name
        config = example if name == "readme" else {"seed": 42}
        config["paths"] = {
            **config.get("paths", {}),
            "dataset_dir": str(base / "dataset"),
            "report_dir": str(base / "report"),
        }
        base.mkdir()
        (base / "config.json").write_text(json.dumps(config), encoding="utf-8")
        assert run(["--config", base / "config.json", "generate"]) == 0
        assert run(["--config", base / "config.json", "evaluate", "--golden-check"]) == 0
        outputs[name] = [
            (base / folder / file).read_bytes()
            for folder, file in [
                ("dataset", "manifest.json"),
                ("report", "decisions.jsonl"),
                ("report", "report.json"),
            ]
        ]
    assert outputs["readme"] == outputs["default"]


# JSON nested deeper than the decoder goes raises RecursionError, not a
# ValueError: each of the six input files must still fail closed.
DEEP = "[" * 100_000 + "]" * 100_000
TOO_DEEP = "maximum recursion depth exceeded while decoding a JSON array from a unicode string"


def _deep_config(tmp_path: Path) -> list:
    (tmp_path / "config.json").write_text(DEEP, encoding="utf-8")
    return ["--config", tmp_path / "config.json", "generate"]


def _deep_taxonomy(tmp_path: Path) -> list:
    (tmp_path / "taxonomy.json").write_text(DEEP, encoding="utf-8")
    config = write_config(tmp_path, taxonomy=str(tmp_path / "taxonomy.json"))
    return ["--config", config, "generate"]


def _deep_epochs_line(tmp_path: Path) -> list:
    config = write_config(tmp_path)
    run(["--config", config, "generate"])
    epochs_path = tmp_path / "dataset" / "epochs.jsonl"
    lines = epochs_path.read_text(encoding="utf-8").splitlines()
    lines[2] = DEEP
    epochs_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return ["--config", config, "evaluate"]


def _dataset_file(name: str, text: str | None = None):
    """Generate, then replace the dataset's ``name`` with ``text``, or with
    its first half when ``text`` is None."""

    def setup(tmp_path: Path) -> list:
        config = write_config(tmp_path)
        run(["--config", config, "generate"])
        path = tmp_path / "dataset" / name
        if text is None:
            whole = path.read_text(encoding="utf-8")
            path.write_text(whole[: len(whole) // 2], encoding="utf-8")
        else:
            path.write_text(text, encoding="utf-8")
        return ["--config", config, "evaluate"]

    return setup


def _deep_report(tmp_path: Path) -> list:
    (tmp_path / "report").mkdir()
    (tmp_path / "report" / "report.json").write_text(DEEP, encoding="utf-8")
    return ["--config", write_config(tmp_path), "report"]


@pytest.mark.parametrize(
    "setup, message",
    [
        (_deep_config, f"config invalid: {TOO_DEEP}"),
        (_deep_taxonomy, f"taxonomy validation failed: {TOO_DEEP}"),
        (_deep_epochs_line, f"input validation failed: epochs line 3: {TOO_DEEP}"),
        (
            _dataset_file("contexts.json", DEEP),
            f"input validation failed: contexts.json: {TOO_DEEP}",
        ),
        (
            _dataset_file("contexts.json"),
            "input validation failed: contexts.json: Expecting property name enclosed in"
            " double quotes: line 345 column 2 (char 8171)",
        ),
        (
            _dataset_file("contexts.json", "[]"),
            "input validation failed: contexts.json: must be a JSON object keyed by patient id,"
            " got list",
        ),
        (
            _dataset_file("contexts.json", "5"),
            "input validation failed: contexts.json: must be a JSON object keyed by patient id,"
            " got int",
        ),
        (
            _dataset_file("manifest.json", DEEP),
            f"input validation failed: manifest.json: {TOO_DEEP}",
        ),
        (
            _dataset_file("manifest.json"),
            "input validation failed: manifest.json: Unterminated string starting at:"
            " line 401 column 17 (char 12818)",
        ),
        (_deep_report, f"report payload invalid: {TOO_DEEP}"),
    ],
    ids=[
        "config", "taxonomy", "epochs_line", "contexts", "truncated_contexts",
        "contexts_array", "contexts_number", "manifest", "truncated_manifest", "report_json",
    ],
)
def test_too_deeply_nested_input_exits_2(tmp_path, capsys, setup, message):
    # A contexts.json or manifest.json that fails to decode for any other
    # reason, here cut short, names the file the same way; so does a
    # contexts.json whose top level is not an object, by the value's type, as
    # the value can be the whole file.
    argv = setup(tmp_path)
    capsys.readouterr()
    assert run(argv) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


_HUGE = list(range(20000))
_SHORT = "[0, 1, 2, 3, 4, 5, ...]"
_MANIFEST = {
    "seed": 42, "case_count": 1, "epoch_count": 1, "patient_id_range": [3847291, 3847291],
    "taxonomy_sha256": "0" * 64, "cases": [],
}
_MANIFEST_ROW = {
    "patient_id": 3847291, "domain_class": "fp", "epoch_count": 1, "start_time": "", "sha256": "",
}


@pytest.mark.parametrize(
    "command, path, value, message",
    [
        (
            "report", "report/report.json", _HUGE,
            f"report payload invalid: report payload must be a JSON object, got {_SHORT}",
        ),
        (
            "report", "config.json", _HUGE,
            f"config invalid: config file must be a JSON object, got {_SHORT}",
        ),
        (
            "report", "config.json", {"paths": {"dataset_dir": _HUGE}},
            f"config invalid: config paths.dataset_dir: {_SHORT} is not a valid path",
        ),
        (
            "evaluate", "dataset/manifest.json", {**_MANIFEST, "taxonomy_sha256": _HUGE},
            "input validation failed: manifest taxonomy_sha256 must be a string,"
            f" got {_SHORT}",
        ),
        (
            "evaluate", "dataset/manifest.json",
            {**_MANIFEST, "cases": [{**_MANIFEST_ROW, "case_id": _HUGE}]},
            f"input validation failed: manifest cases[0]: case_id must be a string, got {_SHORT}",
        ),
        (
            "generate", "taxonomy.json", [_HUGE],
            f"taxonomy validation failed: taxonomy entry {_SHORT}: entry must be a JSON object,"
            f" got {_SHORT}",
        ),
    ],
    ids=["report_json", "config", "config_path", "manifest_digest", "manifest_case_id", "entry"],
)
def test_a_huge_rejected_value_is_named_in_one_short_line(
    tmp_path, capsys, command, path, value, message
):
    # The message once held the whole value's repr: 128,964 bytes for this
    # report.json. Every reader cuts a rejected value's repr short, the
    # value and the name of the row it sits in.
    config = write_config(tmp_path, taxonomy=str(tmp_path / "taxonomy.json"))
    file = tmp_path / path
    file.parent.mkdir(parents=True, exist_ok=True)
    file.write_text(json.dumps(value), encoding="utf-8")
    capsys.readouterr()
    assert run(["--config", config, command]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: {message}"]
    assert len(err.encode()) < 200


# The exit-code contract as one table: every step of every command, under
# each kind of failure it can meet. A step that reads exits 2 on a missing
# file or a bad input and 3 on any other OS error; a step that writes exits
# 3 on anything that stops its output.
_READ = {
    FileNotFoundError: 2, PermissionError: 3, ValueError: 2, OverflowError: 2, RecursionError: 2,
}
_WRITE = dict.fromkeys(_READ, 3)
_STEPS = [
    ("generate", "load_taxonomy", _READ),
    ("generate", "generate_dataset", _READ),
    ("generate", "write_dataset", _WRITE),
    ("evaluate", "load_manifest", _READ),
    ("evaluate", "load_dataset", _READ),
    ("evaluate", "evaluate", _READ),
    ("evaluate", "write_decision_log", _WRITE),
    ("report", "validate_report_payload", _READ),
]


@pytest.fixture(scope="module")
def seed_42_dataset(tmp_path_factory) -> Path:
    base = tmp_path_factory.mktemp("seed_42")
    assert run(["--config", write_config(base), "generate"]) == 0
    return base / "dataset"


@pytest.mark.parametrize(
    "command, binding, error, code",
    [
        (command, binding, error, code)
        for command, binding, codes in _STEPS
        for error, code in codes.items()
    ],
    ids=[
        f"{command}-{binding}-{error.__name__}"
        for command, binding, codes in _STEPS
        for error in codes
    ],
)
def test_every_step_failure_maps_to_its_exit_code(
    tmp_path, capsys, monkeypatch, seed_42_dataset, command, binding, error, code
):
    def fail(*args, **kwargs):
        raise error("step failed")

    monkeypatch.setattr(cli, binding, fail)
    config = json.loads(write_config(tmp_path).read_text(encoding="utf-8"))
    config["paths"]["dataset_dir"] = str(seed_42_dataset)
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    (tmp_path / "report").mkdir()
    (tmp_path / "report" / "report.json").write_text("{}", encoding="utf-8")
    assert run(["--config", tmp_path / "config.json", command]) == code
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and line.endswith(": step failed")


# evaluate attributes cases from the dataset's manifest.json, not from the
# catalogue: each edit below leaves the dataset files as generated.
def _evaluate_with_manifest(tmp_path: Path, dataset: Path, edit, *flags: str) -> int:
    config = write_config(tmp_path)
    manifest_path = shutil.copytree(dataset, tmp_path / "dataset") / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    edit(manifest)
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    return run(["--config", config, "evaluate", *flags])


def _drop_last_case(manifest: dict) -> None:
    row = manifest["cases"].pop()
    manifest["case_count"] -= 1
    manifest["epoch_count"] -= row["epoch_count"]


def _add_a_case(manifest: dict) -> None:
    manifest["cases"].append({**manifest["cases"][-1], "case_id": "FP-099", "patient_id": 3847389})
    manifest["case_count"] += 1
    manifest["epoch_count"] += manifest["cases"][-1]["epoch_count"]


def _one_more_epoch_for_fp_001(manifest: dict) -> None:
    manifest["cases"][0]["epoch_count"] += 1
    manifest["epoch_count"] += 1


@pytest.mark.parametrize(
    "edit, message",
    [
        (_drop_last_case, "dataset patients differ from the case list (missing=[], extra=[3847388])"),
        (_add_a_case, "dataset patients differ from the case list (missing=[3847389], extra=[])"),
        (_one_more_epoch_for_fp_001, "case 'FP-001': patient 3847291 has 5 epochs, expected 6"),
        (
            lambda m: m["cases"][3].update(patient_id=3847300),
            "manifest case 'FP-004': patient_id 3847300 is not 3847294:"
            " ids run consecutively from 3847291 in row order",
        ),
        (lambda m: m["cases"][1].update(case_id="FP-001"), "manifest case 'FP-001': duplicate case_id"),
        (lambda m: m["cases"][2].pop("domain_class"), "manifest case 'FP-003': missing field 'domain_class'"),
        (
            lambda m: m["cases"][2].update(domain="copd"),
            "manifest case 'FP-003': unknown keys ['domain'] in case row",
        ),
        (lambda m: m["cases"][2].update(case_id=3), "manifest cases[2]: case_id must be a string, got 3"),
        (
            lambda m: m["cases"][2].update(epoch_count=0),
            "manifest case 'FP-003': epoch_count must be positive, got 0",
        ),
        (lambda m: m.update(case_count=97), "manifest case_count 97 != 98 case rows"),
        (lambda m: m.update(epoch_count=531), "manifest epoch_count 531 != 530, the sum over its case rows"),
        (lambda m: m.update(cases=[]), "manifest cases must be a non-empty array"),
        (lambda m: m.pop("taxonomy_sha256"), "manifest: missing field 'taxonomy_sha256'"),
    ],
    ids=[
        "dataset_patient_not_in_manifest", "manifest_patient_not_in_dataset", "epoch_count",
        "patient_id_outside_the_block", "duplicate_case_id", "missing_key", "unknown_key",
        "non_string_case_id", "zero_epochs", "case_count", "epoch_total", "no_cases",
        "missing_digest",
    ],
)
def test_evaluate_manifest_disagreeing_with_its_dataset_exits_2(
    tmp_path, capsys, seed_42_dataset, edit, message
):
    assert _evaluate_with_manifest(tmp_path, seed_42_dataset, edit) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: input validation failed: {message}"]
    assert not (tmp_path / "report").exists()


def _add_a_context(contexts: dict) -> None:
    contexts["3847389"] = {**contexts["3847388"], "patient_id": 3847389}


@pytest.mark.parametrize(
    "edit, message",
    [
        (_add_a_context, "missing=[], extra=[3847389]"),
        (lambda c: c.pop("3847291"), "missing=[3847291], extra=[]"),
    ],
    ids=["extra_patient", "missing_patient"],
)
def test_evaluate_contexts_disagreeing_with_the_case_list_exits_2(
    tmp_path, capsys, seed_42_dataset, edit, message
):
    # The error names the patients the sidecar lacks and those it adds, as
    # the epochs check does.
    config = write_config(tmp_path)
    contexts_path = shutil.copytree(seed_42_dataset, tmp_path / "dataset") / "contexts.json"
    contexts = json.loads(contexts_path.read_text(encoding="utf-8"))
    edit(contexts)
    contexts_path.write_text(json.dumps(contexts), encoding="utf-8")
    assert run(["--config", config, "evaluate"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: input validation failed: context sidecar patients differ from the case list"
        f" ({message})"
    ]
    assert not (tmp_path / "report").exists()


def test_evaluate_without_manifest_exits_2(tmp_path, capsys, seed_42_dataset):
    config = write_config(tmp_path)
    shutil.copytree(seed_42_dataset, tmp_path / "dataset")
    (tmp_path / "dataset" / "manifest.json").unlink()
    assert run(["--config", config, "evaluate"]) == 2
    assert "error: missing input: " in capsys.readouterr().err


def test_golden_check_rejects_another_catalogue_digest(tmp_path, capsys, seed_42_dataset):
    other = "0" * 64
    edit = lambda m: m.update(taxonomy_sha256=other)  # noqa: E731
    assert _evaluate_with_manifest(tmp_path / "plain", seed_42_dataset, edit) == 0
    assert _evaluate_with_manifest(tmp_path / "golden", seed_42_dataset, edit, "--golden-check") == 4
    assert capsys.readouterr().err.splitlines() == [
        f"golden mismatch: taxonomy_sha256 {other} != {GOLDEN_TAXONOMY_SHA256}"
    ]


def test_evaluate_reads_no_catalogue(tmp_path, capsys, seed_42_dataset):
    # Only generate reads paths.taxonomy: evaluate gives the pinned seed-42
    # outputs with a config whose catalogue does not exist.
    config = write_config(tmp_path, taxonomy=str(tmp_path / "nope.json"))
    shutil.copytree(seed_42_dataset, tmp_path / "dataset")
    assert run(["--config", config, "evaluate", "--golden-check"]) == 0
    for name in ("decisions.jsonl", "report.json", "report.txt"):
        digest = hashlib.sha256((tmp_path / "report" / name).read_bytes()).hexdigest()
        assert digest == SEED_42_SHA256[name], name
    assert run(["--config", config, "generate"]) == 2
    assert "error: missing taxonomy: " in capsys.readouterr().err


# Every key of an epoch row and of a contexts.json record: the JSON types its
# reader accepts, whether a row may leave it out, and for an enum key the
# enumeration. ambient_condition is carried, never read, and is a string or
# null.
_ANY = frozenset({"null", "boolean", "integer", "float", "string", "array", "object"})
_NUMBER = frozenset({"integer", "float"})
_EPOCH_SCHEMA = {
    "patient_id": ({"integer"}, True, None),
    "timestamp": ({"string"}, True, None),
    "spo2": (_NUMBER, True, None),
    "hr": (_NUMBER, True, None),
    "accel_level": ({"string"}, True, AccelLevel),
    "device_status": ({"string"}, True, DeviceStatus),
    "probe_cover_present": ({"boolean"}, True, None),
    "position": ({"string"}, True, Position),
    "self_reported_activity": ({"string", "null"}, False, SelfReportedActivity),
    "ambient_condition": ({"string", "null"}, False, None),
}
_CONTEXT_SCHEMA = {
    "patient_id": ({"integer"}, True, None),
    "copd_documented": ({"boolean"}, True, None),
    "baseline_spo2": (_NUMBER | {"null"}, False, None),
    "baseline_hr": (_NUMBER | {"null"}, False, None),
    "rate_limiting_medication": ({"boolean"}, False, None),
}


def _required(schema: dict) -> list:
    return [key for key, (_, required, _) in schema.items() if required]


@pytest.mark.parametrize(
    "file, key",
    [("epochs", key) for key in _required(_EPOCH_SCHEMA)]
    + [("contexts", key) for key in _required(_CONTEXT_SCHEMA)],
    ids=lambda value: value,
)
def test_missing_required_field_exits_2_naming_it(tmp_path, capsys, seed_42_dataset, file, key):
    config = write_config(tmp_path)
    dataset = shutil.copytree(seed_42_dataset, tmp_path / "dataset")
    if file == "epochs":
        epochs_path = dataset / "epochs.jsonl"
        lines = epochs_path.read_text(encoding="utf-8").splitlines()
        row = json.loads(lines[2])
        del row[key]
        lines[2] = json.dumps(row, separators=(",", ":"))
        epochs_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        where = "epochs line 3"
    else:
        contexts_path = dataset / "contexts.json"
        contexts = json.loads(contexts_path.read_text(encoding="utf-8"))
        patient = sorted(contexts)[1]
        del contexts[patient][key]
        contexts_path.write_text(json.dumps(contexts), encoding="utf-8")
        where = f"contexts patient {patient}"
    capsys.readouterr()
    assert run(["--config", config, "evaluate"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: input validation failed: {where}: missing field {key!r}"
    ]


_VALUES = {
    "null": st.none(),
    "boolean": st.booleans(),
    "integer": st.integers(-1000, 10**7),
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "string": st.text(max_size=8),
    "array": st.lists(st.integers(0, 9), max_size=2),
    "object": st.dictionaries(st.text(max_size=3), st.integers(0, 9), max_size=2),
}


def _json_type(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    return {int: "integer", float: "float", str: "string", list: "array"}.get(
        type(value), "object"
    )


@pytest.fixture(scope="module")
def mutable_dataset(tmp_path_factory, seed_42_dataset):
    """A config whose dataset directory the property rewrites per example,
    with the seed-42 epochs.jsonl lines and contexts.json records."""
    base = tmp_path_factory.mktemp("mutated")
    config = write_config(base)
    lines = (seed_42_dataset / "epochs.jsonl").read_text(encoding="utf-8").splitlines()
    contexts = json.loads((seed_42_dataset / "contexts.json").read_text(encoding="utf-8"))
    shutil.copytree(seed_42_dataset, base / "dataset")
    return config, base / "dataset", lines, contexts


@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data())
def test_one_mutated_dataset_value_exits_0_or_2_naming_it(mutable_dataset, data):
    # Property: one seed-42 epochs.jsonl row or contexts.json record with one
    # key dropped or renamed, or its value replaced by another JSON type, NaN
    # or ±Infinity, or (for an enum key) a string outside the enumeration.
    # evaluate exits 0 or 2 and never raises. A dropped required key, a
    # renamed key, a type the key does not accept, a non-finite value and a
    # bad enum value exit 2. Every exit 2 prints one error: line naming the
    # row's line or patient key and then the key as the file holds it.
    config, dataset, lines, contexts = mutable_dataset
    file = data.draw(st.sampled_from(["epochs", "contexts"]), label="file")
    if file == "epochs":
        index = data.draw(st.integers(0, len(lines) - 1), label="line index")
        record, schema, where = json.loads(lines[index]), _EPOCH_SCHEMA, f"epochs line {index + 1}"
    else:
        patient = data.draw(st.sampled_from(sorted(contexts)), label="patient")
        record, schema = dict(contexts[patient]), _CONTEXT_SCHEMA
        where = f"contexts patient {patient}"
    key = data.draw(st.sampled_from(sorted(schema)), label="key")
    types, required, enum = schema[key]
    kinds = ["drop", "rename", "retype", "non_finite"] + (["bad_enum"] if enum else [])
    kind = data.draw(st.sampled_from(kinds), label="kind")
    named = key
    if kind == "drop":
        del record[key]
        must_fail = required
    elif kind == "rename":
        named = data.draw(
            st.sampled_from([key + "_", "_" + key, key[:-1], key.upper()]).filter(
                lambda name: name not in schema
            ),
            label="new key",
        )
        record[named] = record.pop(key)
        must_fail = True
    else:
        if kind == "retype":
            new_type = data.draw(
                st.sampled_from(sorted(_ANY - {_json_type(record[key])})), label="new type"
            )
            record[key] = data.draw(_VALUES[new_type], label="value")
            must_fail = new_type not in types
        elif kind == "non_finite":
            record[key] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
            must_fail = True
        else:
            members = {member.value for member in enum}
            record[key] = data.draw(
                st.sampled_from(sorted(members)).map(str.upper)
                | st.text(max_size=12).filter(lambda text: text not in members),
                label="value",
            )
            must_fail = True
    if file == "epochs":
        mutated = [*lines[:index], json.dumps(record, separators=(",", ":")), *lines[index + 1:]]
        mutated_contexts = contexts
    else:
        mutated, mutated_contexts = lines, {**contexts, patient: record}
    (dataset / "epochs.jsonl").write_text("\n".join(mutated) + "\n", encoding="utf-8")
    (dataset / "contexts.json").write_text(json.dumps(mutated_contexts), encoding="utf-8")

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["--config", str(config), "evaluate"])
    assert code in (0, 2)
    assert code == 2 or not must_fail, f"exit 0 after {kind} of {key!r} in {where}"
    if code == 0:
        assert err.getvalue() == ""
        return
    [line] = err.getvalue().splitlines()
    prefix = f"error: input validation failed: {where}: "
    assert line.startswith(prefix), line
    assert re.search(rf"(?<!\w){re.escape(named)}(?!\w)", line[len(prefix):]), line


_NON_OBJECT_ROWS = {
    "array": st.lists(st.integers() | st.text(max_size=4), max_size=3),
    "number": st.integers() | st.floats(),
    "string": st.text(max_size=12),
}


@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data())
def test_one_mutated_epochs_line_exits_2_naming_it(mutable_dataset, data):
    # Property (100 examples): one seed-42 epochs.jsonl line duplicated,
    # truncated at a drawn offset (never to nothing, which is a blank line),
    # or replaced by a JSON array, number or string. evaluate exits 2 with
    # one error line: the duplicate-epoch message for a duplicate, else one
    # naming the line. Never exit 0 and never a traceback. The file is read
    # in blocks of the default size or of 3 lines, so the mutated line falls
    # anywhere in a block.
    config, dataset, lines, contexts = mutable_dataset
    block = data.draw(st.sampled_from([model._BLOCK_LINES, 3]), label="block lines")
    index = data.draw(st.integers(0, len(lines) - 1), label="line index")
    line = lines[index]
    kind = data.draw(st.sampled_from(["duplicate", "truncate", *_NON_OBJECT_ROWS]), label="kind")
    if kind == "duplicate":
        mutated = [*lines[: index + 1], line, *lines[index + 1 :]]
        expected = "duplicate epoch for patient "
    else:
        if kind == "truncate":
            line = line[: data.draw(st.integers(1, len(line) - 1), label="offset")]
        else:
            line = json.dumps(data.draw(_NON_OBJECT_ROWS[kind], label="value"))
        mutated = [*lines[:index], line, *lines[index + 1 :]]
        expected = f"epochs line {index + 1}: "
    (dataset / "epochs.jsonl").write_text("\n".join(mutated) + "\n", encoding="utf-8")
    (dataset / "contexts.json").write_text(json.dumps(contexts), encoding="utf-8")

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            mock.patch.object(model, "_BLOCK_LINES", block):
        code = cli.main(["--config", str(config), "evaluate"])
    assert code == 2, f"exit {code} after {kind} of line {index + 1}"
    [message] = err.getvalue().splitlines()
    assert message.startswith(f"error: input validation failed: {expected}"), message


_NON_OBJECT_TOP_LEVELS = {
    "array": st.lists(st.integers(0, 9) | st.just({}), max_size=3),
    "number": st.integers() | st.floats(allow_nan=False, allow_infinity=False),
    "string": st.text(max_size=12),
    "null": st.none(),
    "boolean": st.booleans(),
}


@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data())
def test_one_mutated_contexts_file_exits_2_naming_it(mutable_dataset, data):
    # Property (100 examples): the seed-42 contexts.json with one patient's
    # record given twice, the second copy anywhere among the records and
    # with its medication flag drawn; or the file truncated at a drawn
    # offset; or a top level that is not an object. evaluate exits 2 with
    # one error line naming contexts.json, and for a duplicate the patient
    # key. Never exit 0 and never a traceback.
    config, dataset, lines, contexts = mutable_dataset
    text = json.dumps(contexts)
    kind = data.draw(
        st.sampled_from(["duplicate", "truncate", *_NON_OBJECT_TOP_LEVELS]), label="kind"
    )
    expected = "contexts.json: "
    if kind == "duplicate":
        records = list(contexts.items())
        patient = data.draw(st.sampled_from(sorted(contexts)), label="patient")
        again = {**contexts[patient], "rate_limiting_medication": data.draw(st.booleans())}
        records.insert(data.draw(st.integers(0, len(records)), label="at"), (patient, again))
        text = "{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in records) + "}"
        expected += f"patient key '{patient}' is given twice"
    elif kind == "truncate":
        text = text[: data.draw(st.integers(1, len(text) - 1), label="offset")]
    else:
        text = json.dumps(data.draw(_NON_OBJECT_TOP_LEVELS[kind], label="value"))
        expected += "must be a JSON object keyed by patient id, got "
    (dataset / "epochs.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (dataset / "contexts.json").write_text(text, encoding="utf-8")

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["--config", str(config), "evaluate"])
    assert code == 2, f"exit {code} after {kind}"
    [message] = err.getvalue().splitlines()
    assert message.startswith(f"error: input validation failed: {expected}"), message
