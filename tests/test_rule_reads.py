"""The record's field names are the names the rules read.

``assemble`` builds its record with ``tuple.__new__`` and so skips
``VeritasRecord``'s field-name check, on the premise that every key it
writes is a record field; the record is meant to hold nothing a rule does
not read. This module holds both ends with the standard library's ``ast``,
as ``tests/test_imports.py`` holds the imports. The rule modules read a
field from a view in one of three forms: ``view.value("name")``,
``view.fields.get("name")``, or a name bound to ``view.fields.get`` and
called with ``"name"`` (``detect``'s ``get``). Every read must name its
field with a string literal, and any other use of ``.fields`` in a rule
module is an error, so the literals are every field a rule can reach.
"""

from __future__ import annotations

import ast
from pathlib import Path

import alertsift
from alertsift import model
from alertsift.model import SelfReportedActivity

from helpers import make_context, make_epoch, make_record

PACKAGE = Path(alertsift.__file__).parent
RULE_MODULES = ("sentinel.py", "routing.py", "specialists.py")


def _is_fields_get(node: ast.AST) -> bool:
    """``<expr>.fields.get``."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "get"
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "fields"
    )


def field_reads(source: str) -> tuple[set[str], list[str]]:
    """The field names a module reads from a view, and each read or use of
    ``.fields`` that does not name its field with a string literal."""
    tree = ast.parse(source)
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    getters = {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and _is_fields_get(node.value)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    names: set[str] = set()
    problems: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute) and func.attr == "value"
                or _is_fields_get(func)
                or isinstance(func, ast.Name) and func.id in getters
            ):
                first = node.args[0] if node.args else None
                if isinstance(first, ast.Constant) and isinstance(first.value, str):
                    names.add(first.value)
                else:
                    problems.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.Attribute) and node.attr == "fields":
            # The only uses allowed: ``.fields.get`` called, or bound to a name.
            get = parents.get(node)
            use = parents.get(get)
            called = isinstance(use, ast.Call) and use.func is get
            bound = isinstance(use, ast.Assign) and use.value is get and all(
                isinstance(t, ast.Name) for t in use.targets
            )
            if not (_is_fields_get(get) and (called or bound)):
                problems.append((node.lineno, ast.unparse(get)))
        elif isinstance(node, ast.Name) and node.id in getters and isinstance(node.ctx, ast.Load):
            call = parents.get(node)
            if not (isinstance(call, ast.Call) and call.func is node):
                problems.append((node.lineno, ast.unparse(call)))
    return names, [f"line {line}: {text}" for line, text in sorted(problems)]


def _module_reads(name: str) -> set[str]:
    names, problems = field_reads((PACKAGE / name).read_text(encoding="utf-8"))
    assert problems == [], (name, problems)
    return names


def test_the_rules_read_exactly_the_record_fields():
    # Every field a record can hold is read by some rule, and no rule reads
    # a name a record cannot hold: a misspelt name, or a field carried only
    # in the files, would read as absent on every epoch.
    reads = {name: _module_reads(name) for name in RULE_MODULES}
    assert set().union(*reads.values()) == model._RECORD_FIELDS, reads


def test_detect_reads_only_the_fields_the_quiet_screen_reads():
    # ``quiet`` screens the raw epoch on spo2, hr and device_status, and is
    # exact only while ``detect`` reads nothing else.
    assert _module_reads("sentinel.py") == {"spo2", "hr", "device_status"}


def test_an_assembled_record_holds_only_record_fields():
    full = make_record(
        make_epoch(
            probe_cover=True, activity=SelfReportedActivity.WALKING, ambient="heatwave"
        ),
        make_context(copd=True, baseline_spo2=89.0, baseline_hr=70.0, med=True),
    )
    assert full.fields.keys() == model._RECORD_FIELDS
    minimal = make_record(make_epoch(), make_context())
    assert minimal.fields.keys() < model._RECORD_FIELDS


def test_the_check_sees_every_form_of_read():
    names, problems = field_reads(
        "def rule(view, name):\n"
        "    a = view.value('spo2', default=1)\n"
        "    get = view.fields.get\n"
        "    b = get('hr')\n"
        "    c = view.fields.get('position')\n"
        "    d = view.value(name)\n"
        "    e = view.fields['accel_level']\n"
        "    f = 'copd_documented' in view.fields\n"
        "    g = map(get, ['baseline_hr'])\n"
    )
    assert names == {"spo2", "hr", "position"}
    assert problems == [
        "line 6: view.value(name)",
        "line 7: view.fields['accel_level']",
        "line 8: 'copd_documented' in view.fields",
        "line 9: map(get, ['baseline_hr'])",
    ]
