"""The docstring examples under src/repro run and print what they show."""

import doctest
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _modules_with_examples() -> list[str]:
    names = []
    for path in sorted(SRC.rglob("*.py")):
        if ">>>" not in path.read_text(encoding="utf-8"):
            continue
        parts = ("repro",) + path.relative_to(SRC).with_suffix("").parts
        names.append(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
    return names


@pytest.mark.parametrize("name", _modules_with_examples())
def test_docstring_examples_run(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.attempted > 0
    assert result.failed == 0, f"{result.failed} example(s) failed in {name}"
