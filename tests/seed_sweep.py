"""Byte sweep over seeds: generate, read back, evaluate and log each one.

For each seed, runs ``alertsift generate`` and then ``alertsift evaluate``
in process, with the default config and the shipped catalogue, in a
temporary directory. It prints one line a seed: the seed, one sha256 over
the six output files (each file's name and bytes, in a fixed order) and the
report's counts of true suppressions, false escalations and indeterminate
cases. The output depends only on the code, so two trees compare with one
``diff``::

    PYTHONPATH=src python3 tests/seed_sweep.py > after.txt
    PYTHONPATH=/path/to/other/src python3 tests/seed_sweep.py > before.txt
    diff before.txt after.txt

Usage: ``seed_sweep.py [FIRST [LAST]]``, seeds FIRST to LAST inclusive,
by default 0 to 199. Standard library only; pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from alertsift import cli
from alertsift.synthgen import default_taxonomy_path

OUTPUTS = (
    "dataset/manifest.json",
    "dataset/epochs.jsonl",
    "dataset/contexts.json",
    "report/report.json",
    "report/decisions.jsonl",
    "report/report.txt",
)


def sweep_line(seed: int, base: Path) -> str:
    """Generate and evaluate ``seed`` under ``base``; its output line."""
    config = base / "config.json"
    config.write_text(json.dumps({
        "seed": seed,
        "paths": {
            "taxonomy": str(default_taxonomy_path()),
            "dataset_dir": str(base / "dataset"),
            "report_dir": str(base / "report"),
        },
    }), encoding="utf-8")
    for command in ("generate", "evaluate"):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["--config", str(config), command])
        if code != 0:
            return f"{seed} {command} exited {code}"
    digest = hashlib.sha256()
    for name in OUTPUTS:
        digest.update(name.encode() + b"\0" + (base / name).read_bytes() + b"\0")
    overall = json.loads((base / "report/report.json").read_text(encoding="utf-8"))["overall"]
    counts = "/".join(str(overall[key]) for key in ("ts_count", "fe_count", "ind_count"))
    return f"{seed} {digest.hexdigest()} {counts}"


def main(argv: list[str]) -> None:
    first = int(argv[0]) if argv else 0
    last = int(argv[1]) if len(argv) > 1 else 199
    for seed in range(first, last + 1):
        with tempfile.TemporaryDirectory() as tmp:
            print(sweep_line(seed, Path(tmp)), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
