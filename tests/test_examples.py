"""Every example script must run cleanly end to end."""

import os
import subprocess
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")


def run_example(name: str) -> str:
    """The example's stdout.  It must exit 0 and write nothing to stderr:
    an exception in a worker thread (a ``LockOrderError``, a deadlock)
    leaves the exit status alone and lands only there."""
    result = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, name)],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0 and not result.stderr, result.stderr
    return result.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "quickstart complete" in out
    assert "rolled back" in out


def test_media_library():
    out = run_example("media_library.py")
    assert "clips brighter than 50: ['noon']" in out
    assert "excerpt lo:" in out


def test_inversion_shell():
    out = run_example("inversion_shell.py")
    assert "after aborted edit, still intact:" in out
    assert "as of checkpoint:" in out
    assert "todo.txt" in out


def test_worm_archive():
    out = run_example("worm_archive.py")
    assert "overwrite refused" in out
    assert "user-defined 'tape' manager" in out
    assert "Inversion file on tape" in out


@pytest.mark.parametrize("name", [
    "quickstart.py", "media_library.py", "inversion_shell.py",
    "worm_archive.py", "server_demo.py",
])
def test_examples_exist_and_are_documented(name):
    path = os.path.join(EXAMPLES_DIR, name)
    assert os.path.exists(path)
    with open(path) as fh:
        source = fh.read()
    assert source.startswith("#!/usr/bin/env python3")
    assert '"""' in source  # a docstring explaining the scenario


def test_archival_history():
    out = run_example("archival_history.py")
    assert "archived 9 dead versions" in out
    assert "integrity check: clean" in out


def test_server_demo():
    out = run_example("server_demo.py")
    assert "range-lock waits: 0" in out
    assert "final image byte-exact: True" in out
    assert "'<client 0>', '<client 1>', '<client 2>', '<client 3>'" in out
    assert "server demo complete" in out
