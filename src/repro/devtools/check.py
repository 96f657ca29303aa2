"""The full static-analysis gate: custom lint + ruff + mypy in one run.

``python -m repro.devtools.check`` is what ``make lint``, the
``repro-lint`` console script and the CI static-analysis job all invoke.
It always runs the repo-specific invariant linter
(:mod:`repro.devtools.lint` — stdlib-only, available everywhere), and
adds ``ruff`` and ``mypy`` when they are importable.  Environments
without those tools skip them with a notice and stay green — the
invariants still gate — while CI passes ``--require-all`` so a missing
tool is a failure there, never a silent downgrade.
"""

from __future__ import annotations

import argparse
import importlib.util
import subprocess
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from . import lint

#: The trees the gate lints, together, so a rule's cross-module facts
#: see every tree at once.
DEFAULT_PATHS = ("src", "tests", "benchmarks", "examples")


def _tool_available(module: str) -> bool:
    return importlib.util.find_spec(module) is not None


def _run_tool(argv: Sequence[str], label: str) -> int:
    print(f"== {label}: {' '.join(argv)}", flush=True)
    return subprocess.run(list(argv)).returncode


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools.check",
        description="run the full static-analysis gate "
        "(repro lint + ruff + mypy; see docs/static-analysis.md)",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(DEFAULT_PATHS),
        help="directories for the repro linter "
        f"(default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--require-all",
        action="store_true",
        help="fail if ruff or mypy is not installed (CI mode) instead of "
        "skipping it",
    )
    args = parser.parse_args(argv)

    failures: List[str] = []
    skipped: List[str] = []

    print(f"== repro lint: {' '.join(args.paths)}", flush=True)
    # The invariant linter only knows repro modules; pointing it at
    # tests/, benchmarks/ and examples/ is harmless (module-scoped rules
    # see no repro.* prefix) but generic rules like mutable-default
    # still apply there.
    if lint.main(list(args.paths)) != 0:
        failures.append("repro lint")

    if _tool_available("ruff"):
        if _run_tool([sys.executable, "-m", "ruff", "check", "."], "ruff"):
            failures.append("ruff")
    else:
        skipped.append("ruff")

    if _tool_available("mypy"):
        config = Path(__file__).resolve().parents[3] / "mypy.ini"
        cmd = [sys.executable, "-m", "mypy"]
        if config.exists():
            cmd += ["--config-file", str(config)]
        else:
            cmd += ["-p", "repro"]
        if _run_tool(cmd, "mypy"):
            failures.append("mypy")
    else:
        skipped.append("mypy")

    for tool in skipped:
        print(f"== {tool}: not installed, skipped", flush=True)
    if skipped and args.require_all:
        failures.extend(skipped)

    if failures:
        print(f"static analysis FAILED: {', '.join(failures)}", flush=True)
        return 1
    print("static analysis clean", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
