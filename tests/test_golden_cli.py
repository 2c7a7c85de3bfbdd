"""Golden CLI corpus: stdout bytes, exit codes and error fields stay fixed.

Each case in ``golden_cli.json`` is an argv plus a stdin document (an object
is sent as ``json.dumps`` of it, a string as is).  It pins the SHA-256 of
stdout, the exit code and, for an input error, the ``input error at
'<field>'`` prefix of the error line.  Warnings are not pinned: they carry
source line numbers.  Every case runs in process; nine of them (one json
result per command, the help text and two input errors) also run through
``python -m quotvol.cli``, to hold a real process to the same pins.  Every
plain case that succeeds runs once more with ``cli.poly_coefficients``
raising: plain output is rendered from the polynomials, never from JSON text.

The test only reads the corpus.  After a deliberate output change, re-record
it with ``PYTHONPATH=src python tests/test_golden_cli.py --record``.
"""

import hashlib
import json
import re
import sys
from pathlib import Path

import pytest

from clirun import run_main, run_python
from quotvol import cli

CORPUS = Path(__file__).with_name("golden_cli.json")
CASES = json.loads(CORPUS.read_text(encoding="utf-8"))
ERROR_PREFIX = re.compile(r"^(input error at '[^']*'|computation error)", re.MULTILINE)
PROCESS_CASES = [c for c in CASES if c["id"].endswith("-json-symbolic")
                 or c["id"] in ("argv-help", "error-bad-json", "error-argv-unknown-flag")]


def out_format(case: dict) -> str:
    """The format a case that succeeds asks for: the last ``--format`` flag, else its document's."""
    args = cli._build_argparser(case["argv"]) or {}  # None for --help
    doc = case["stdin"] if isinstance(case["stdin"], dict) else {}
    return args.get("format", doc.get("format", "json"))


PLAIN_CASES = [c for c in CASES if c["exit"] == 0 and out_format(c) == "plain"]


def stdin_text(case: dict) -> str:
    stdin = case["stdin"]
    return "" if stdin is None else stdin if isinstance(stdin, str) else json.dumps(stdin)


def expectations(code: int, out: str, err: str) -> dict:
    """What the corpus pins of one run: exit code, stdout hash, error prefix."""
    match = ERROR_PREFIX.search(err)
    return {
        "exit": code,
        "stdout_sha256": hashlib.sha256(out.encode("utf-8")).hexdigest(),
        "error": match.group(1) if match else None,
    }


def pinned(case: dict) -> dict:
    return {k: case[k] for k in ("exit", "stdout_sha256", "error")}


@pytest.mark.parametrize("case", CASES, ids=[c["id"] for c in CASES])
def test_golden_cli_case(case):
    assert expectations(*run_main(case["argv"], stdin_text(case))) == pinned(case)


@pytest.mark.parametrize("case", PROCESS_CASES, ids=[c["id"] for c in PROCESS_CASES])
def test_golden_cli_case_through_a_process(case):
    run = run_python("-m", "quotvol.cli", *case["argv"], stdin=stdin_text(case))
    assert expectations(*run) == pinned(case)


@pytest.mark.parametrize("case", PLAIN_CASES, ids=[c["id"] for c in PLAIN_CASES])
def test_plain_case_builds_no_json_text(case, monkeypatch):
    def refuse(poly):
        raise AssertionError("plain output turned a coefficient into JSON text")
    monkeypatch.setattr(cli, "poly_coefficients", refuse)
    assert expectations(*run_main(case["argv"], stdin_text(case))) == pinned(case)


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
    cases = [{**c, **expectations(*run_main(c["argv"], stdin_text(c)))} for c in CASES]
    lines = ",\n".join(json.dumps(c, ensure_ascii=False) for c in cases)
    CORPUS.write_text(f"[\n{lines}\n]\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden_cli.py --record")
    _record()
