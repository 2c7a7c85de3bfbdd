"""The two ways the tests run the ``quotvol`` command line.

``run_main`` calls ``cli.main`` in this process; ``run_python`` starts a new
interpreter, as a user's shell does.  Both return ``(exit code, stdout,
stderr)`` with the text of each stream.

A child process gets the environment of the test run, with ``src`` first on
``PYTHONPATH`` and without ``PYTHONUNBUFFERED``: its stdout is then block
buffered on the pipe, as for any process whose caller has not asked
otherwise, so an exit that skips the final flush loses output and the byte
checks see it.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from quotvol import cli

SRC = str(Path(__file__).resolve().parents[1] / "src")

# a valid acyclic-volume document: genus 1, d = 1, deg_E = -1, volume ttilde
ACYCLIC = {"command": "acyclic-volume", "n_dim": 1, "q": 1, "deg_E": "-1/1",
           "pairings": ["0/1", "-1/1"], "h": [[0, 1], [-1, 0]],
           "kappa": [{"i": 1, "s": 0, "terms": [{"indices": [1, 2], "coeff": "1/1"}]}]}


def _bytes(stdin: str | bytes) -> bytes:
    return stdin if isinstance(stdin, bytes) else stdin.encode("utf-8")


def run_main(argv: list[str], stdin: str | bytes = "") -> tuple[int, str, str]:
    """``cli.main(argv)`` with ``stdin`` read through a UTF-8 text layer, as a
    process reads its standard input."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(_bytes(stdin)), encoding="utf-8")
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def child_env() -> dict[str, str]:
    """The environment of a child process: ``src`` first on ``PYTHONPATH``, and
    no ``PYTHONUNBUFFERED``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return env


def run_python(*args: str, stdin: str | bytes = "") -> tuple[int, str, str]:
    """``sys.executable *args`` as a child process, given ``stdin``."""
    proc = subprocess.run([sys.executable, *args], input=_bytes(stdin), capture_output=True,
                          env=child_env(), timeout=60)
    return proc.returncode, proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8")
