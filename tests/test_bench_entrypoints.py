"""The make targets run the command ``BENCHMARK.json`` declares — the one
performance harness — so a second one cannot grow behind ``make bench``."""

import json
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.skipif(shutil.which("make") is None, reason="make is not on PATH")
@pytest.mark.parametrize(
    "target, option",
    [("bench", ""), ("bench-smoke", "--scale tiny")],
    ids=["bench", "bench-smoke"],
)
def test_make_target_runs_the_contract_command(target, option):
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = " ".join(contract["command"][1:])
    recipe = subprocess.run(
        ["make", "-n", target],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    assert any(command in line and option in line for line in recipe), recipe
