"""Documentation coverage: every public item carries a docstring.

The README promises doc comments on every public item; this test makes
that promise executable.  The server's knob table is checked against
``ServerConfig`` the same way.
"""

import importlib
import inspect
import pkgutil
import re
from dataclasses import fields
from pathlib import Path

import pytest

import repro


def _walk_modules():
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield info.name


ALL_MODULES = sorted(_walk_modules())


@pytest.mark.parametrize("module_name", ALL_MODULES)
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"


def test_public_classes_and_functions_documented():
    undocumented = []
    for module_name in ALL_MODULES:
        module = importlib.import_module(module_name)
        for name, item in vars(module).items():
            if name.startswith("_"):
                continue
            if not (inspect.isclass(item) or inspect.isfunction(item)):
                continue
            if getattr(item, "__module__", None) != module_name:
                continue  # re-export; documented at its definition site
            if not inspect.getdoc(item):
                undocumented.append(f"{module_name}.{name}")
            elif inspect.isclass(item):
                for method_name, method in vars(item).items():
                    if method_name.startswith("_"):
                        continue
                    if not inspect.isfunction(method):
                        continue
                    if not inspect.getdoc(method):
                        undocumented.append(
                            f"{module_name}.{name}.{method_name}"
                        )
    assert not undocumented, "\n".join(undocumented)


def _server_knob_table():
    """``{knob: default cell}`` from docs/SERVER.md's knob table."""
    path = Path(__file__).resolve().parents[1] / "docs" / "SERVER.md"
    text = path.read_text(encoding="utf-8")
    section = text.split("## Knobs (`ServerConfig`", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        match = re.match(r"`(\w+)`", cells[0]) if len(cells) == 3 else None
        if match:
            rows[match.group(1)] = cells[1]
    return rows


def test_server_knob_table_lists_every_config_field():
    from repro.server import ServerConfig

    documented = _server_knob_table()
    missing = [f.name for f in fields(ServerConfig) if f.name not in documented]
    assert not missing, f"docs/SERVER.md knob table lacks {missing}"


def test_server_knob_table_numeric_defaults_match_config():
    from repro.server import ServerConfig

    defaults = {f.name: f.default for f in fields(ServerConfig)}
    checked = 0
    for knob, cell in _server_knob_table().items():
        try:
            documented = float(cell)
        except ValueError:
            continue  # "off", "64 KiB", "2^20": prose, not a plain number
        assert documented == defaults[knob], (
            f"docs/SERVER.md says {knob} defaults to {cell}, "
            f"ServerConfig says {defaults[knob]}"
        )
        checked += 1
    assert checked >= 10
