"""The repro lint engine: AST rules, suppressions, CLI.

The engine is deliberately small and dependency-free (stdlib ``ast``
only), so the invariant checks run anywhere the code itself runs — no
tool install, no plugin host.  It does four things:

* parse every ``*.py`` under the given paths into a
  :class:`SourceModule` (AST + source lines + canonical dotted module
  name, so rules can scope themselves to ``repro.core.unify`` etc. no
  matter where the tree is checked out);
* run every registered :class:`Rule` in two phases — ``collect`` sees
  all modules first (cross-file facts: struct formats declared in
  ``jtrace/records.py``, the ``PipelinePass`` subclass closure), then
  ``check`` emits :class:`Finding`\\ s;
* drop findings suppressed in the source (``# repro: ignore[rule]`` on
  the flagged line; bare ``# repro: ignore`` suppresses every rule);
* report as text (``path:line:col: rule: message``) or JSON, exiting 0
  when clean, 1 on findings, 2 on usage errors.

Run it as ``python -m repro.devtools.lint src``.
"""

from __future__ import annotations

import argparse
import ast
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: Matches a suppression comment anywhere on a source line.  The rule
#: list is optional: ``# repro: ignore`` silences every rule on the line.
_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*ignore(?:\[(?P<rules>[a-z0-9_\-, ]+)\])?"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str        # the file as given on the command line (display)
    key_path: str    # checkout-independent path (``repro/...``), sort key
    line: int
    col: int
    message: str
    context: str     # the stripped source line

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"

    def to_json(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "key_path": self.key_path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "context": self.context,
        }


@dataclass
class SourceModule:
    """One parsed file plus everything rules need to reason about it."""

    path: str                 # display path
    key_path: str             # checkout-independent posix path
    module: str               # dotted module name (``repro.core.passes``)
    tree: ast.Module
    lines: List[str]
    #: line number -> ``None`` (all rules) or the suppressed rule names.
    suppressions: Dict[int, Optional[frozenset]] = field(default_factory=dict)
    #: import alias -> canonical dotted target (``np`` -> ``numpy``,
    #: ``time`` from ``from time import time`` -> ``time.time``).
    imports: Dict[str, str] = field(default_factory=dict)

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def suppressed(self, lineno: int, rule: str) -> bool:
        if lineno not in self.suppressions:
            return False
        rules = self.suppressions[lineno]
        return rules is None or rule in rules

    def resolve(self, node: ast.expr) -> Optional[str]:
        """Canonical dotted name of an expression, import-aware.

        ``np.random.seed`` resolves to ``numpy.random.seed`` when the
        module did ``import numpy as np``; a bare name imported with
        ``from time import time`` resolves to ``time.time``.  Returns
        ``None`` for anything that is not a plain name/attribute chain.
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(self.imports.get(node.id, node.id))
        return ".".join(reversed(parts))


class Rule:
    """Base class for checkers.  Subclasses set ``name``/``summary``.

    ``collect`` runs over every module before any ``check`` call, so a
    rule can gather cross-file facts (struct declarations, class
    hierarchies) first.  ``check`` yields findings via :meth:`finding`.
    """

    name: str = "rule"
    summary: str = ""

    def collect(self, mod: SourceModule) -> None:  # noqa: B027 - optional hook
        """Phase 1: gather cross-module facts (optional)."""

    def check(self, mod: SourceModule) -> Iterator[Finding]:
        """Phase 2: report violations in one module."""
        return iter(())

    def finding(self, mod: SourceModule, node: ast.AST, message: str) -> Finding:
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule=self.name,
            path=mod.path,
            key_path=mod.key_path,
            line=lineno,
            col=col + 1,
            message=message,
            context=mod.line_text(lineno),
        )


# --- module loading ---------------------------------------------------------


def _canonical_parts(path: Path) -> Tuple[str, ...]:
    """Checkout-independent path parts, anchored at the package root.

    ``src/repro/core/passes.py`` and ``/tmp/x/repro/core/passes.py``
    both canonicalize to ``("repro", "core", "passes.py")``, and
    ``/x/tests/test_faults.py`` to ``("tests", "test_faults.py")``, so
    finding order and rule scopes survive any checkout or fixture layout.
    """
    parts = path.parts
    for anchor in ("src", "repro", "tests", "benchmarks", "examples"):
        for i in range(len(parts) - 1, -1, -1):
            if parts[i] == anchor:
                start = i + 1 if anchor == "src" else i
                return parts[start:]
    return parts


def _module_name(path: Path) -> str:
    parts = list(_canonical_parts(path))
    parts[-1] = parts[-1][:-3]  # strip .py
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _parse_suppressions(lines: Sequence[str]) -> Dict[int, Optional[frozenset]]:
    out: Dict[int, Optional[frozenset]] = {}
    for lineno, line in enumerate(lines, start=1):
        if "repro:" not in line:
            continue
        match = _SUPPRESS_RE.search(line)
        if match is None:
            continue
        rules = match.group("rules")
        if rules is None:
            out[lineno] = None
        else:
            names = frozenset(r.strip() for r in rules.split(",") if r.strip())
            previous = out.get(lineno)
            if previous is None and lineno in out:
                continue  # a bare ignore already covers everything
            out[lineno] = names | (previous or frozenset())
    return out


def _collect_imports(tree: ast.Module) -> Dict[str, str]:
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                imports[name] = target
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                # Relative imports stay package-local; record the bare
                # module tail so cross-file registries can match on it.
                base = node.module or ""
            else:
                base = node.module
            for alias in node.names:
                name = alias.asname or alias.name
                imports[name] = f"{base}.{alias.name}" if base else alias.name
    return imports


def load_module(path: Path, display: Optional[str] = None) -> SourceModule:
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    mod = SourceModule(
        path=display if display is not None else str(path),
        key_path="/".join(_canonical_parts(path)),
        module=_module_name(path),
        tree=tree,
        lines=lines,
    )
    mod.suppressions = _parse_suppressions(lines)
    mod.imports = _collect_imports(tree)
    return mod


def iter_source_files(paths: Sequence[Path]) -> Iterator[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


# --- runner -----------------------------------------------------------------


@dataclass
class LintResult:
    findings: List[Finding]          # live, after suppressions
    suppressed: int
    files: int

    @property
    def clean(self) -> bool:
        return not self.findings


def default_rules() -> List[Rule]:
    from .rules import ALL_RULES

    return [cls() for cls in ALL_RULES]


def run_lint(
    paths: Sequence[Path],
    rules: Optional[Sequence[Rule]] = None,
) -> LintResult:
    """Lint every ``*.py`` under ``paths`` and return the live findings."""
    if rules is None:
        rules = default_rules()
    modules = [load_module(p) for p in iter_source_files(paths)]
    for rule in rules:
        for mod in modules:
            rule.collect(mod)
    findings: List[Finding] = []
    suppressed = 0
    for rule in rules:
        for mod in modules:
            for finding in rule.check(mod):
                if mod.suppressed(finding.line, finding.rule):
                    suppressed += 1
                else:
                    findings.append(finding)
    findings.sort(key=lambda f: (f.key_path, f.line, f.col, f.rule))
    return LintResult(findings=findings, suppressed=suppressed, files=len(modules))


# --- CLI --------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools.lint",
        description="repro-specific invariant linter (see docs/static-analysis.md)",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"], help="files or directories to lint"
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt"
    )
    parser.add_argument(
        "--rule",
        action="append",
        default=None,
        help="run only the named rule (repeatable)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog"
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    rules = default_rules()
    if args.list_rules:
        width = max(len(r.name) for r in rules)
        for rule in rules:
            print(f"{rule.name:<{width}}  {rule.summary}")
        return 0
    if args.rule:
        known = {r.name for r in rules}
        unknown = [name for name in args.rule if name not in known]
        if unknown:
            print(f"unknown rule(s): {', '.join(unknown)}", file=sys.stderr)
            return 2
        rules = [r for r in rules if r.name in set(args.rule)]

    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(
            f"no such file or directory: {', '.join(map(str, missing))}",
            file=sys.stderr,
        )
        return 2

    result = run_lint(paths, rules=rules)

    if args.fmt == "json":
        print(
            json.dumps(
                {
                    "findings": [f.to_json() for f in result.findings],
                    "suppressed": result.suppressed,
                    "files": result.files,
                },
                indent=1,
            )
        )
    else:
        for finding in result.findings:
            print(finding.format())
        summary = (
            f"{result.files} file(s): {len(result.findings)} finding(s), "
            f"{result.suppressed} suppressed"
        )
        print(summary, file=sys.stderr)
    return 1 if result.findings else 0


if __name__ == "__main__":
    sys.exit(main())
