"""Start-up: what ``import wordrace`` loads, measured in fresh interpreters.

The library and its CLI load neither ``dataclasses`` (which pulls in
``inspect``, ``ast`` and ``tokenize``) nor ``subprocess`` and ``shlex``;
a ``stream:`` source imports those two on its first pull, when it spawns
its command.
"""

import os
import subprocess
import sys
import textwrap

import pytest

from helpers import PID_SCRIPT

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
FORBIDDEN = {"dataclasses", "inspect", "subprocess", "shlex"}


def run_fresh(code):
    """Run ``code`` in a fresh interpreter with this checkout's src first on the path; its stdout lines."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("module", ["wordrace", "wordrace.cli"])
def test_import_loads_no_heavy_module(module):
    loaded = run_fresh(f"""
        import sys
        before = set(sys.modules)
        import {module}
        print(*sorted(set(sys.modules) - before), sep="\\n")
    """)
    assert module in loaded
    assert FORBIDDEN.isdisjoint(loaded), sorted(FORBIDDEN.intersection(loaded))


def test_stream_spawns_and_imports_subprocess_on_first_pull(tmp_path):
    script = tmp_path / "emit.py"
    script.write_text(textwrap.dedent(PID_SCRIPT))
    pid_file = tmp_path / "pid"
    text = f"generators: a b\nstream: {sys.executable} {script} {pid_file} forever\n"
    lines = run_fresh(f"""
        import os, sys
        from wordrace import parse_presentation
        p = parse_presentation({text!r})
        print("subprocess" in sys.modules, os.path.exists({str(pid_file)!r}))
        print(p.available(3))
        print("subprocess" in sys.modules)
        p.close()
        try:
            os.kill(int(open({str(pid_file)!r}).read()), 0)  # found while running, or exited but unreaped
            print("alive")
        except ProcessLookupError:
            print("reaped")
    """)
    assert lines == ["False False", "3", "True", "reaped"]
