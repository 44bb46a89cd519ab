"""CLI contract: subcommands, config/flag/env precedence, exit codes."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from alertsift.cli import main
from alertsift.synthgen import default_taxonomy_path


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


@pytest.mark.parametrize(
    "field, value",
    [("spo2", None), ("spo2", "abc"), ("timestamp", 5), ("device_status", "broken")],
    ids=["null_spo2", "text_spo2", "numeric_timestamp", "unknown_status"],
)
def test_evaluate_malformed_epoch_exits_2_naming_the_line(tmp_path, capsys, field, value):
    config = write_config(tmp_path)
    run(["--config", config, "generate"])
    epochs_path = tmp_path / "dataset" / "epochs.jsonl"
    lines = epochs_path.read_text().splitlines()
    row = json.loads(lines[2])
    row[field] = value
    lines[2] = json.dumps(row, separators=(",", ":"))
    epochs_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run(["--config", config, "evaluate"]) == 2
    assert "epochs line 3: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, message",
    [("copd_documented", "copd_documented"), ("patient_id", "holds patient_id")],
    ids=["string_boolean", "foreign_patient_id"],
)
def test_evaluate_malformed_context_exits_2(tmp_path, capsys, field, message):
    # bool("false") is True: decoded leniently, a patient with a baseline
    # would silently read as documented COPD. A record filed under another
    # patient's key would mix two patients in one case.
    config = write_config(tmp_path)
    run(["--config", config, "generate"])
    contexts_path = tmp_path / "dataset" / "contexts.json"
    contexts = json.loads(contexts_path.read_text())
    key = next(k for k, ctx in sorted(contexts.items()) if ctx["baseline_spo2"] is not None)
    contexts[key][field] = "false" if field == "copd_documented" else int(key) + 1
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
    config = write_config(tmp_path)
    run(["--config", config, "generate"])
    run(["--config", config, "evaluate", "--json-only"])
    capsys.readouterr()
    assert run(["--config", config, "report"]) == 0
    out = capsys.readouterr().out
    assert "PER-CLASS STRATIFICATION" in out
    assert (tmp_path / "report" / "report.txt").exists()


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


_MISSING = object()


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("per_domain", "probe_integrity"), 5, "'per_domain.probe_integrity' must be a JSON"),
        (("per_domain", "copd", "tsr"), "1.0", "per_domain.copd.tsr must be a number, got '1.0'"),
        (("wilson_cis", "copd", "lower"), None, "wilson_cis.copd.lower must be a number, got None"),
        (("wilson_cis", "shoulder"), {"lower": 0, "upper": 1}, "DomainClass: 'shoulder'"),
        (("failure_modes", "system_flag"), 7.5, "failure_modes.system_flag must be an integer"),
        (("overall", "tsr"), _MISSING, "overall.tsr must be a number, got None"),
        (("totals", "cases"), True, "totals.cases must be a number, got True"),
    ],
    ids=[
        "per_domain_row", "per_domain_rate", "wilson_bound", "wilson_class",
        "failure_count", "overall_field", "totals_field",
    ],
)
def test_report_malformed_row_exits_2(tmp_path, capsys, path, value, message):
    # Every row the text report reads is checked. Unchecked, these rows are a
    # traceback (exit 1) or, for a fractional count or a boolean total,
    # render as if valid.
    config = write_config(tmp_path)
    run(["--config", config, "generate"])
    run(["--config", config, "evaluate", "--json-only"])
    report_path = tmp_path / "report" / "report.json"
    payload = json.loads(report_path.read_text())
    *parents, key = path
    target = payload
    for name in parents:
        target = target[name]
    if value is _MISSING:
        del target[key]
    else:
        target[key] = value
    report_path.write_text(json.dumps(payload), encoding="utf-8")
    capsys.readouterr()
    assert run(["--config", config, "report"]) == 2
    assert message in capsys.readouterr().err


def _edited_taxonomy(tmp_path: Path, edit) -> tuple[Path, str]:
    """A copy of the catalogue with one entry edited; returns it and the case id.

    The entry has a baseline SpO2 but no COPD, so a flag misread as true
    still passes the catalogue checks and would generate a COPD patient.
    """
    entries = json.loads(default_taxonomy_path().read_text(encoding="utf-8"))
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
            "AccelLevel: 'sprinting' is not one of [still, light, vigorous]",
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
            "Position: 'sideways' is not one of",
        ),
    ],
    ids=[
        "missing_epoch_count", "string_nocturnal", "string_context_flag",
        "numeric_context_flag", "string_probe_cover", "unknown_fixed_value",
        "string_choice", "empty_choice", "unknown_choice_value",
    ],
)
def test_generate_malformed_taxonomy_entry_exits_2(tmp_path, capsys, edit, message):
    # A traceback exits 1, and bool("false") is True: either way a bad
    # catalogue must fail closed, naming the entry.
    taxonomy, case_id = _edited_taxonomy(tmp_path, edit)
    config = write_config(tmp_path, taxonomy=str(taxonomy))
    assert run(["--config", config, "generate"]) == 2
    err = capsys.readouterr().err
    assert f"taxonomy entry {case_id!r}: {message}" in err
    assert not (tmp_path / "dataset").exists()


def test_generate_out_of_bounds_draw_exits_2(tmp_path, capsys):
    # The entry parses, but its every SpO2 draw is below the dataset's floor.
    spo2 = {"mu": 50, "sigma": 1, "lower": 40, "upper": 60}
    taxonomy, case_id = _edited_taxonomy(
        tmp_path, lambda e: e["continuous_params"].update(spo2=spo2)
    )
    config = write_config(tmp_path, taxonomy=str(taxonomy))
    assert run(["--config", config, "generate"]) == 2
    err = capsys.readouterr().err
    assert f"generation failed: {case_id}: generated invalid epoch" in err
    assert "spo2 out of [70,100]" in err
    assert not (tmp_path / "dataset").exists()


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


def test_generate_unwritable_output_exits_3(tmp_path, capsys):
    blocker = tmp_path / "dataset"
    blocker.write_text("a file where the dataset directory should go")
    config = write_config(tmp_path)
    assert run(["--config", config, "generate"]) == 3
    assert "could not write dataset" in capsys.readouterr().err


def test_invalid_config_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "config.json"
    bad.write_text("{not json", encoding="utf-8")
    assert run(["--config", bad, "generate"]) == 2
    assert "config" in capsys.readouterr().err




@pytest.mark.parametrize(
    "section",
    [
        {"sentinel": {"spo2_low_treshold": 80}},
        {"sentinel": {"spo2_low_threshold": None}},
        {"sentinel": {"spo2_low_threshold": "80"}},
        {"meta": {"cooldown_window_minutes": 2.5}},
        {"meta": {"domain_weights": {"cardiology": 2.0}}},
        {"meta": {"domain_weights": {"copd": None}}},
    ],
    ids=["typo", "null", "string", "fractional_int", "unknown_domain", "null_weight"],
)
def test_invalid_config_section_exits_2(tmp_path, capsys, section):
    config = write_config(tmp_path, **section)
    assert run(["--config", config, "generate"]) == 2
    assert "config invalid" in capsys.readouterr().err


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
