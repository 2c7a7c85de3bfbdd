"""Golden CLI corpus: stdout bytes, exit codes and error fields stay fixed.

Each case in ``golden_cli.json`` is an argv plus a stdin document (an object
is sent as ``json.dumps`` of it, a string as is).  It pins the SHA-256 of
stdout, the exit code and, for an input error, the ``input error at
'<field>'`` prefix of the error line.  Warnings are not pinned: they carry
source line numbers.

The test only reads the corpus.  After a deliberate output change, re-record
it with ``PYTHONPATH=src python tests/test_golden_cli.py --record``.
"""

import hashlib
import io
import json
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from quotvol import cli

CORPUS = Path(__file__).with_name("golden_cli.json")
CASES = json.loads(CORPUS.read_text(encoding="utf-8"))
ERROR_PREFIX = re.compile(r"^(input error at '[^']*'|computation error)", re.MULTILINE)


def run_case(case: dict) -> tuple[int, str, str]:
    """Run ``cli.main`` in-process; return the exit code, stdout and stderr."""
    stdin = case["stdin"]
    text = "" if stdin is None else stdin if isinstance(stdin, str) else json.dumps(stdin)
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(case["argv"])
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def expectations(case: dict) -> dict:
    code, out, err = run_case(case)
    match = ERROR_PREFIX.search(err)
    return {
        "exit": code,
        "stdout_sha256": hashlib.sha256(out.encode("utf-8")).hexdigest(),
        "error": match.group(1) if match else None,
    }


@pytest.mark.parametrize("case", CASES, ids=[c["id"] for c in CASES])
def test_golden_cli_case(case):
    want = {k: case[k] for k in ("exit", "stdout_sha256", "error")}
    assert expectations(case) == want


def test_golden_corpus_covers_every_command_format_and_t_mode():
    seen = set()
    for case in CASES:
        doc = case["stdin"] if isinstance(case["stdin"], dict) else {}
        if case["exit"] == 0 and len(case["argv"]) == 1:
            mode = (doc.get("t") or {}).get("mode", "ttilde-symbolic")
            seen.add((case["argv"][0], doc.get("format", "json"), mode))
    modes = ("ttilde-symbolic", "ttilde-value", "physical-t")
    assert seen >= {(c, f, m) for c in cli.COMMANDS for f in ("json", "plain", "latex")
                     for m in modes}


def _record():
    cases = [{**c, **expectations(c)} for c in CASES]
    lines = ",\n".join(json.dumps(c, ensure_ascii=False) for c in cases)
    CORPUS.write_text(f"[\n{lines}\n]\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden_cli.py --record")
    _record()
