"""repro.devtools — repo-specific static analysis.

The reproduction's credibility rests on invariants no generic linter
checks: every execution mode (batch/stream, daemon, materialized or
not) must stay jframe-for-jframe bit-identical.  That property breaks
silently the moment someone draws from the global RNG or iterates an
unordered set into an emission path — and the parity/golden suites only
catch it after the fact, on the inputs they happen to cover.

:mod:`repro.devtools.lint` encodes those invariants as machine-checked
AST rules (see :data:`repro.devtools.rules.ALL_RULES` for the catalog)::

    python -m repro.devtools.lint src

:mod:`repro.devtools.check` runs the full local gate — this linter plus
``ruff`` and ``mypy`` when they are installed::

    python -m repro.devtools.check

Rules and suppression comments (``# repro: ignore[rule]``) are
documented in ``docs/static-analysis.md``.
"""

from typing import Any

__all__ = ["Finding", "LintResult", "run_lint"]


def __getattr__(name: str) -> Any:
    # Lazy re-export: importing the package eagerly would shadow
    # ``python -m repro.devtools.lint`` with a runpy double-import warning.
    if name in __all__:
        from . import lint

        return getattr(lint, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
