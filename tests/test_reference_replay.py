"""Every command pinned in perfbench/reference.json, run in-process
through nlcx.cli.main, exits with its pinned code and writes stdout with
its pinned sha256, as the benchmark harness checks on every run.  The
file is only read here.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from nlcx import cli

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
PINNED = json.loads(REFERENCE.read_text())["commands"]


def test_reference_pins_every_workload_command():
    kinds = {command.split()[0] for command in PINNED}
    assert len(PINNED) == 22 and kinds == {"count", "profile", "verify"}


@pytest.mark.parametrize("command", sorted(PINNED))
def test_pinned_command_output(command, monkeypatch):
    monkeypatch.delenv("NLCX_THREADS", raising=False)  # one process, as pinned
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(command.split())
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
    got = {"rc": rc, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}
    want = PINNED[command]
    assert got == {"rc": want["rc"], "sha256": want["sha256"]}, command
