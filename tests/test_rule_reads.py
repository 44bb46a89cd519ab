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

The rules read a vital only through ordering comparisons, and
``evaluate._cell_key`` keys each alerting epoch by those comparisons, so
this module also holds every vital comparison of the rules to its twin in
the key function, and the comparisons of the key's quiet screen to
detection's.
"""

from __future__ import annotations

import ast
import dataclasses
from copy import deepcopy
from pathlib import Path

import alertsift
from alertsift import model
from alertsift.model import SelfReportedActivity
from alertsift.sentinel import SentinelConfig
from alertsift.specialists import SpecialistConfig

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
    # The cell key screens the raw epoch on spo2, hr and device_status, and
    # its screen is exact only while ``detect`` reads nothing else.
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


# The vitals a comparison can read, and the config fields it can compare with.
VITALS = frozenset({"spo2", "hr"})
CONFIG_FIELDS = frozenset(
    f.name for cfg in (SentinelConfig, SpecialistConfig) for f in dataclasses.fields(cfg)
)
_ORDERINGS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _assignments(function: ast.AST) -> dict[str, list[ast.AST]]:
    """Each name the function (nested ones included) assigns, with the
    values assigned to it."""
    values: dict[str, list[ast.AST]] = {}
    for node in ast.walk(function):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    values.setdefault(target.id, []).append(node.value)
    return values


def _config_reads(function: ast.AST) -> dict[str, set[str]]:
    """Each name the function (nested ones included) assigns, with the config
    fields its values read, directly or through other such names."""
    values = _assignments(function)

    def read(name: str, seen: frozenset[str]) -> set[str]:
        found = set()
        for value in values.get(name, ()):
            for node in ast.walk(value):
                if isinstance(node, ast.Attribute) and node.attr in CONFIG_FIELDS:
                    found.add(node.attr)
                elif isinstance(node, ast.Name) and node.id in values and node.id not in seen:
                    found |= read(node.id, seen | {node.id})
        return found

    return {name: read(name, frozenset({name})) for name in values}


def _vital(node: ast.AST) -> str | None:
    """The vital the expression reads as a whole, if it is one: ``spo2``,
    ``epoch.spo2``, ``view.value("spo2")``, ``view.fields.get("spo2")``, or
    the ``.value`` of any of these."""
    if isinstance(node, ast.Name):
        return node.id if node.id in VITALS else None
    if isinstance(node, ast.Attribute):
        if node.attr in VITALS:
            return node.attr
        return _vital(node.value) if node.attr == "value" else None
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("value", "get")
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and node.args[0].value in VITALS
    ):
        return node.args[0].value
    return None


class _Normal(ast.NodeTransformer):
    """One side of a comparison in a form that does not depend on where it
    is written: a vital, read in any of ``_vital``'s forms, reads ``spo2``
    or ``hr``; a config field, read off any config or through a local bound
    to it, reads ``cfg.<field>``, several fields joined by ``|``; any other
    name reads ``_``."""

    def __init__(self, reads: dict[str, set[str]]) -> None:
        self.reads = reads

    def visit(self, node: ast.AST) -> ast.AST:
        vital = _vital(node)
        if vital is not None:
            return ast.Name(vital)
        if isinstance(node, ast.Attribute) and node.attr in CONFIG_FIELDS:
            return ast.Name(f"cfg.{node.attr}")
        if isinstance(node, ast.Name):
            fields = sorted(self.reads.get(node.id, ()))
            return ast.Name("|".join(f"cfg.{f}" for f in fields) or "_")
        return self.generic_visit(node)


def _reads_a_vital(node: ast.AST) -> bool:
    return any(_vital(n) is not None for n in ast.walk(node))


def vital_comparisons(function: ast.AST, within: list[ast.AST] | None = None) -> set[str]:
    """Every ordering comparison in the function, or in the parts of it
    ``within`` names, that reads a vital, one operator at a time, in
    ``_Normal``'s form."""
    normal = _Normal(_config_reads(function))
    found = set()
    for node in (n for part in within or [function] for n in ast.walk(part)):
        if not isinstance(node, ast.Compare):
            continue
        sides = [node.left, *node.comparators]
        for left, op, right in zip(sides, node.ops, sides[1:]):
            if isinstance(op, _ORDERINGS) and (_reads_a_vital(left) or _reads_a_vital(right)):
                left, right = normal.visit(deepcopy(left)), normal.visit(deepcopy(right))
                found.add(ast.unparse(ast.Compare(left, [op], [right])))
    return found


def _module_comparisons(name: str) -> set[str]:
    tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
    found = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found |= vital_comparisons(node)
    return found


def _rule_comparisons() -> set[str]:
    return set().union(*map(_module_comparisons, RULE_MODULES))


def _cell_key_function() -> ast.FunctionDef:
    tree = ast.parse((PACKAGE / "evaluate.py").read_text(encoding="utf-8"))
    (key,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_cell_key"]
    return key


def _key_comparisons() -> set[str]:
    return vital_comparisons(_cell_key_function())


def screen_comparisons(function: ast.AST) -> set[str]:
    """The vital comparisons of the test whose ``if`` guards the function's
    one ``return None``, read through the names the test loads."""
    (guard,) = [
        node for node in ast.walk(function)
        if isinstance(node, ast.If)
        and any(
            isinstance(n, ast.Return) and isinstance(n.value, ast.Constant)
            and n.value.value is None
            for n in node.body
        )
    ]
    values = _assignments(function)
    read = [
        value
        for node in ast.walk(guard.test)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        for value in values.get(node.id, ())
    ]
    return vital_comparisons(function, [guard.test, *read])


def test_every_vital_comparison_of_the_rules_has_its_twin_in_the_cell_key():
    # An epoch's cell decides its types, routing and claims. A comparison a
    # rule makes and the key does not would put epochs the rule tells apart
    # in one cell; one the key makes and no rule does splits cells for
    # nothing. So the two sets are equal: the screen, the two HR floors and
    # the allowance, the COPD floor and the nocturnal dip.
    rules = _rule_comparisons()
    assert rules == _key_comparisons()
    assert rules == {
        "spo2 < cfg.spo2_low_threshold",
        "hr > cfg.hr_high_threshold",
        "hr < cfg.hr_low_threshold",
        "hr < cfg.bradycardia_personal_floor",
        "hr <= _ + cfg.hr_activity_allowance",
        "spo2 >= cfg.copd_acceptable_spo2",
        "_ - spo2 > cfg.nocturnal_dip_allowance",
    }


def test_the_cell_keys_quiet_screen_makes_detections_vital_comparisons():
    # The key function returns None, and the epoch is skipped unassembled,
    # when its screen finds nothing. The screen's vital comparisons must be
    # ``sentinel``'s three: one fewer would skip an epoch that alerts, and
    # one more would key an epoch on which detect finds nothing, which
    # ``_run_case`` rejects.
    # Property Q in tests/test_sentinel.py holds the whole screen, the
    # status test included, to detect on drawn epochs.
    sentinel = _module_comparisons("sentinel.py")
    assert screen_comparisons(_cell_key_function()) == sentinel
    assert sentinel == {
        "spo2 < cfg.spo2_low_threshold",
        "hr > cfg.hr_high_threshold",
        "hr < cfg.hr_low_threshold",
    }


def test_the_screen_check_reads_the_guard_through_its_names():
    tree = ast.parse(
        "def key(epoch, cfg):\n"
        "    low = epoch.spo2 < cfg.spo2_low_threshold\n"
        "    high = epoch.hr > cfg.hr_high_threshold\n"
        "    floor = epoch.hr < cfg.bradycardia_personal_floor\n"
        "    if not (low or epoch.hr < cfg.hr_low_threshold):\n"
        "        return None\n"
        "    return low, high, floor\n"
    )
    assert screen_comparisons(tree) == {
        "spo2 < cfg.spo2_low_threshold",
        "hr < cfg.hr_low_threshold",
    }


def test_the_twin_check_sees_each_form_of_comparison():
    tree = ast.parse(
        "def rule(view, epoch, cfg, other_cfg):\n"
        "    hr = view.value('hr')\n"
        "    floor = other_cfg.copd_acceptable_spo2\n"
        "    floor = max(floor, 1.0)\n"
        "    limit = floor\n"
        "    a = epoch.spo2 < cfg.spo2_low_threshold\n"
        "    b = view.value('spo2') < 3 <= hr\n"
        "    c = limit <= view.fields.get('spo2').value + offset\n"
        "    d = hr is None or hr == 5 or 'spo2' in view.fields\n"
        "    e = cfg.hr_low_threshold < cfg.hr_high_threshold\n"
    )
    assert vital_comparisons(tree) == {
        "spo2 < cfg.spo2_low_threshold",
        "spo2 < 3",
        "3 <= hr",
        "cfg.copd_acceptable_spo2 <= spo2 + _",
    }
