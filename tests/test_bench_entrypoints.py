"""The make targets run the command ``BENCHMARK.json`` declares — the one
performance harness — so a second one cannot grow behind ``make bench`` —
and every ``repro`` name that harness imports still resolves, so a
deletion PR cannot break the benchmark it is judged by."""

import ast
import importlib
import json
import shutil
import subprocess
from pathlib import Path

import pytest

from repro.core.sync.bootstrap import BootstrapResult

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


def test_every_repro_name_the_benchmark_imports_resolves():
    imported = []
    for path in sorted((ROOT / "benchmarks" / "e2e").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                node.module or ""
            ).split(".")[0] == "repro":
                imported += [(node.module, a.name) for a in node.names]
    assert imported
    for module, name in imported:
        assert hasattr(importlib.import_module(module), name), (module, name)


def test_benchmark_shims_run_in_process_and_refuse_a_pool():
    """The two names ``benchmarks/e2e`` pins by path after the pool's
    deletion (the only test that may name them)."""
    from repro.core.sync.sharded import ShardedBootstrap
    from repro.core.unify.hierarchy import MergeTree

    for coordinator in (MergeTree(), MergeTree(max_workers=1)):
        assert callable(coordinator.stream_unify) and callable(coordinator.unify)
        assert not hasattr(coordinator, "health")
    result = ShardedBootstrap(max_workers=1).bootstrap([])
    assert isinstance(result, BootstrapResult)
    for shim in (MergeTree, ShardedBootstrap):
        with pytest.raises(ValueError, match="PR 16"):
            shim(max_workers=2)
