"""Byte-level pins of the CLI: stdout and exit code of every document kind
in every format, the three reports, and the parameter-error paths.

`cli_golden.json` holds one case per line: `argv`, the exit `code` and the
exact `stdout` of `detchern <argv>`.
"""

import json
from pathlib import Path

import pytest

from detchern.cli import run

CASES = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_cli_output_matches_golden(capsys, case):
    code = run(case["argv"])
    assert (code, capsys.readouterr().out) == (case["code"], case["stdout"])
